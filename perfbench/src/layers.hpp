// The per-layer metrics a traced run reports, in one fixed list.
//
// Every workload reports every entry so the output has the same keys on
// each workload; a layer the workload never calls reads 0 (no samples),
// for example the serve cache on the sched workload. BENCHMARK.json's
// "per_layer" list mirrors this table and run.py checks that they agree.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

/// Wall and CPU seconds of the traced run's rounds: the untraced run
/// (plain), the run with an explicit ledger sink (empty when the workload
/// has no ledger) and the traced replay.
struct RoundTimings {
  std::vector<double> plain_s;
  std::vector<double> cpu_s; ///< process CPU seconds during each plain run
  std::vector<double> ledger_s;
  std::vector<double> traced_s;
};

/// Rounds of plain / ledger / traced runs a traced run makes after its
/// warm-up; overheads are medians of the per-round ratios.
inline constexpr std::size_t kTraceRounds = 2;

struct LayerMetricDef {
  const char* name;
  const char* unit;
};

const std::vector<LayerMetricDef>& layer_metric_defs();

/// Collects per-layer values by name, then emits the whole table.
class LayerReport {
public:
  void set(const std::string& name, double value, std::uint64_t samples);
  /// p50 and p99 of the durations of spans called `span`, scaled from
  /// nanoseconds by `scale`, under "<metric>.p50" / "<metric>.p99".
  void percentiles(const std::string& metric,
                   const std::vector<SpanRecord>& spans,
                   const std::string& span, double scale);
  /// Model-training spans: core.build_dataset_s (summed sweep time),
  /// ml.forest_fit_ms.p50 and ml.fits. A model fit span ("ml.ds_fit",
  /// "ml.hybrid_fit") fits two forests, time and energy, one after the
  /// other; its duration counts as two fits of half its length.
  void training(const std::vector<SpanRecord>& spans);
  /// sim.profile_cache_hit_ratio from the caches' summed counts.
  void profile_cache(std::uint64_t hits, std::uint64_t misses);
  /// pool.cpu_util (CPU seconds over wall seconds times pool threads, of
  /// the plain runs), obs.ledger_overhead_pct and trace.overhead_pct.
  void rounds(const RoundTimings& timings);
  /// "<layer>.self_s" for every layer that has spans: the self time of
  /// its spans (duration minus the time their child spans cover).
  void self_times(const std::vector<SpanRecord>& spans);
  /// Appends every defined metric to `result` (0 where never set). Throws
  /// if a value was set under a name the table does not define.
  void emit(Result& result) const;

private:
  std::map<std::string, Metric> values_;
};

} // namespace perfbench
