#include "layers.hpp"

#include <stdexcept>

#include "common/thread_pool.hpp"

namespace perfbench {

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"serve.key_ns.p50", "ns"},
      {"serve.key_ns.p99", "ns"},
      {"serve.cache_get_ns.p50", "ns"},
      {"serve.cache_get_ns.p99", "ns"},
      {"serve.cache_put_ns.p50", "ns"},
      {"serve.cache_put_ns.p99", "ns"},
      {"serve.invalidate_us.p50", "us"},
      {"serve.invalidated_entries", "count"},
      {"serve.resolve_ns.p50", "ns"},
      {"serve.resolve_ns.p99", "ns"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.advise_miss_us.p50", "us"},
      {"serve.advise_miss_us.p99", "us"},
      {"serve.pick_us.p50", "us"},
      {"serve.pick_us.p99", "us"},
      {"serve.misses_per_batch", "count"},
      {"serve.fanout_batch_share", "ratio"},
      {"serve.self_s", "s"},
      {"core.ds_predict_us.p50", "us"},
      {"core.ds_predict_us.p99", "us"},
      {"core.hybrid_predict_us.p50", "us"},
      {"core.hybrid_predict_us.p99", "us"},
      {"core.build_dataset_s", "s"},
      {"core.loocv_s", "s"},
      {"core.pareto_s", "s"},
      {"core.self_s", "s"},
      {"ml.forest_fit_ms.p50", "ms"},
      {"ml.fits", "count"},
      {"ml.self_s", "s"},
      {"sched.ref_run_us.p50", "us"},
      {"sched.ref_run_us.p99", "us"},
      {"sched.predict_us.p50", "us"},
      {"sched.predict_us.p99", "us"},
      {"sched.distinct_input_ratio", "ratio"},
      {"sched.admit_ns.p50", "ns"},
      {"sched.admit_ns.p99", "ns"},
      {"sched.exec_us.p50", "us"},
      {"sched.exec_us.p99", "us"},
      {"sched.self_s", "s"},
      {"sim.profile_cache_hit_ratio", "ratio"},
      {"pool.cpu_util", "ratio"},
      {"obs.ledger_overhead_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return defs;
}

void LayerReport::set(const std::string& name, double value,
                      std::uint64_t samples) {
  values_[name] = Metric{name, value, "", samples};
}

void LayerReport::percentiles(const std::string& metric,
                              const std::vector<SpanRecord>& spans,
                              const std::string& span, double scale) {
  const std::vector<double> ns = durations_ns(spans, span);
  set(metric + ".p50", quantile(ns, 0.50) * scale, ns.size());
  set(metric + ".p99", quantile(ns, 0.99) * scale, ns.size());
}

void LayerReport::training(const std::vector<SpanRecord>& spans) {
  const std::vector<double> build = durations_ns(spans, "core.build_dataset");
  double build_s = 0.0;
  for (const double ns : build) {
    build_s += ns * 1e-9;
  }
  set("core.build_dataset_s", build_s, build.size());
  std::vector<double> fit_ms;
  for (const char* name : {"ml.ds_fit", "ml.hybrid_fit"}) {
    for (const double ns : durations_ns(spans, name)) {
      fit_ms.insert(fit_ms.end(), 2, ns * 1e-6 / 2.0);
    }
  }
  set("ml.forest_fit_ms.p50", quantile(fit_ms, 0.5), fit_ms.size());
  set("ml.fits", static_cast<double>(fit_ms.size()), fit_ms.size());
}

void LayerReport::profile_cache(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t lookups = hits + misses;
  set("sim.profile_cache_hit_ratio",
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0,
      lookups);
}

void LayerReport::rounds(const RoundTimings& t) {
  const double threads =
      static_cast<double>(dsem::ThreadPool::global().thread_count());
  std::vector<double> util;
  std::vector<double> ledger;
  std::vector<double> traced;
  for (std::size_t r = 0; r < t.plain_s.size(); ++r) {
    util.push_back(t.cpu_s[r] / (t.plain_s[r] * threads));
    traced.push_back((t.traced_s[r] / t.plain_s[r] - 1.0) * 100.0);
    if (r < t.ledger_s.size()) {
      ledger.push_back((t.ledger_s[r] / t.plain_s[r] - 1.0) * 100.0);
    }
  }
  set("pool.cpu_util", median(util), util.size());
  if (!ledger.empty()) {
    set("obs.ledger_overhead_pct", median(ledger), ledger.size());
  }
  set("trace.overhead_pct", median(traced), traced.size());
}

void LayerReport::self_times(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::pair<double, std::uint64_t>> by_layer;
  const auto layer_of = [](const std::string& name) {
    return name.substr(0, name.find('.'));
  };
  for (const auto& [name, self_s] : self_time_by_name(spans)) {
    by_layer[layer_of(name)].first += self_s;
  }
  for (const SpanRecord& s : spans) {
    ++by_layer[layer_of(s.name)].second;
  }
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const std::string name = def.name;
    const std::size_t suffix = name.rfind(".self_s");
    if (suffix != std::string::npos && suffix + 7 == name.size()) {
      const auto it = by_layer.find(name.substr(0, suffix));
      if (it != by_layer.end()) {
        set(name, it->second.first, it->second.second);
      }
    }
  }
}

void LayerReport::emit(Result& result) const {
  for (const auto& [name, metric] : values_) {
    bool known = false;
    for (const LayerMetricDef& def : layer_metric_defs()) {
      known = known || name == def.name;
    }
    if (!known) {
      throw std::logic_error("per-layer metric not in the table: " + name);
    }
  }
  for (const LayerMetricDef& def : layer_metric_defs()) {
    const auto it = values_.find(def.name);
    result.metric(def.name, it != values_.end() ? it->second.value : 0.0,
                  def.unit, it != values_.end() ? it->second.samples : 0);
  }
}

} // namespace perfbench
