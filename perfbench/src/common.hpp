// Shared pieces of the benchmark: options, the result a run prints,
// output digests, failure counting, process resource probes, and the
// set-up every serve and sched workload shares (the trained registry).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/registry.hpp"
#include "sim/profile_cache.hpp"
#include "spans.hpp"

namespace perfbench {

/// The seed whose output digests are recorded in expected_digests.json.
inline constexpr std::uint64_t kDefaultSeed = 1;
/// A seed no tuning was done on; check it with the oracle and the
/// invariants only (its digests are not recorded).
inline constexpr std::uint64_t kHeldOutSeed = 9001;

/// Set-up repetitions per run; setup_s is their median.
inline constexpr std::size_t kSetupReps = 5;

/// The registry's device key and the origin stamped into its artifacts.
inline constexpr const char* kDevice = "v100";
inline constexpr const char* kOrigin = "perfbench";

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its spans to (empty: not written).
  std::string spans_dir;
  /// expected_digests.json (empty: digests are only printed).
  std::string expected_digests;
  /// Self-test hook: corrupt one output before the checks run.
  bool inject_wrong_answer = false;
};

/// FNV-1a 64 over the exact bytes of every value added.
class Digest {
public:
  Digest& add(const void* data, std::size_t size);
  Digest& add(double value);
  Digest& add(std::uint64_t value);
  Digest& add(bool value) { return add(std::uint64_t{value ? 1u : 0u}); }
  Digest& add(int value) { return add(static_cast<std::uint64_t>(value)); }
  Digest& add(const std::string& value);
  std::string hex() const;

private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one run reports: operations attempted, output checks failed, and
/// the metrics (end-to-end with tracing off, per-layer with it on).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Deterministic program outputs (energy, miss rate, model error) and
  /// counts, printed with the metrics but not gated by a bound: the
  /// digests pin them exactly.
  std::vector<Metric> outputs;
  /// Output digests by name, printed for recording and checked against
  /// expected_digests.json on the default seed.
  std::map<std::string, std::string> digests;

  /// Counts a failed check (and says which on stderr) unless `ok`.
  void expect(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  void output(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples);
  /// Records `digest` under `name`; a later call with the same name must
  /// agree (repetitions of one run produce identical outputs).
  void digest(const std::string& name, const std::string& digest);
};

double median(std::vector<double> values);
double seconds_since(std::chrono::steady_clock::time_point start);
double peak_rss_mb();
/// User + system CPU seconds of the whole process so far.
double process_cpu_s();

/// Calls `rep(false)` once as a warm-up (first-touch page faults,
/// allocator growth, cold instruction caches), then `rep(true)` until
/// `seconds` of wall time have passed and at least `min_reps` timed calls
/// were made. A warm-up's outputs are checked like any other; only its
/// timings are dropped. Returns the number of timed calls.
std::size_t repeat_for(double seconds, std::size_t min_reps,
                       const std::function<void(bool timed)>& rep);

/// Checks the run's digests against expected_digests.json when the run
/// used the default seed. Keys named "setup.*" do not depend on the seed
/// and are checked on every seed.
void check_expected_digests(Result& result, const Options& options);

/// Registry set-up shared by the serve and sched workloads: the
/// domain-specific V100 artifacts of both applications, trained the way
/// the serving benchmarks train them (full example grids, every fourth
/// clock, two repetitions, a fixed device noise seed).
///
/// Trains the registry. With a span log, the training is replayed through
/// the public calls train_domain_specific makes (training grid, sweep,
/// model fit), each inside a span; `cache` then collects the sweeps'
/// profile-cache counts.
std::unique_ptr<dsem::serve::ModelRegistry>
train_registry(SpanLog* log = nullptr,
               dsem::sim::ProfileCache* cache = nullptr);

/// Set-up of a traced serve or sched run: trains the registry once with
/// the library call and once through the traced replay (spans in `log`,
/// sweep counts in `cache`). Both must produce the same artifacts (digest
/// "setup.registry"). Returns the library-trained registry.
std::unique_ptr<dsem::serve::ModelRegistry>
traced_registry_setup(Result& result, SpanLog& log,
                      dsem::sim::ProfileCache& cache);

/// Digest over the dsem-model-v1 documents of every registered artifact.
std::string registry_digest(const dsem::serve::ModelRegistry& registry);

/// Set-up of the serve and sched workloads: trains the registry `reps`
/// times, each timed, and records the median as "setup_s". Every
/// training must produce the same artifacts (digest "setup.registry").
std::unique_ptr<dsem::serve::ModelRegistry>
timed_registry_setup(Result& result, std::size_t reps);

} // namespace perfbench
