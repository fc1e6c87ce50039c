#include "pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/thread_pool.hpp"
#include "core/evaluation.hpp"
#include "layers.hpp"
#include "microbench/suite.hpp"
#include "ml/model_selection.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace perfbench {

using namespace dsem;

namespace {

/// Sweep repetitions per grid point and the clock stride of the swept
/// grid: sized so one pass of both applications takes a few seconds.
constexpr int kSweepRepetitions = 2;
constexpr std::size_t kFreqStride = 4;

struct AppSpec {
  const char* name;
  /// Three-way (GP, DS, hybrid) evaluation, or GP vs DS only.
  bool three_way;
};
// LiGen runs the two-way evaluation: HybridModel::train on the LiGen grid
// hits a degenerate tree partition ("nl > 0 && nl < n" in
// ml/tree.cpp) on most folds, a contract violation with assertions on
// and undefined behaviour without. The workload adds the hybrid family
// for LiGen once that defect is fixed.
constexpr AppSpec kApps[] = {{"cronos", true}, {"ligen", false}};

core::GeneralPurposeModel train_gp() {
  sim::Device sim_device(sim::v100(), sim::NoiseConfig{}, 0x6B0);
  synergy::Device device(sim_device);
  core::GeneralPurposeModel gp;
  gp.train(device, microbench::make_suite(), 3, 4);
  return gp;
}

/// The input with the largest total work (work items over every launch),
/// as the extrapolation split ranks them.
std::string largest_input(
    const std::vector<std::unique_ptr<core::Workload>>& workloads) {
  double best = -1.0;
  std::string name;
  for (const auto& w : workloads) {
    double work = 0.0;
    for (const core::KernelLaunch& l : w->kernel_launches()) {
      work += static_cast<double>(l.work_items) * l.launches;
    }
    if (work > best) {
      best = work;
      name = w->name();
    }
  }
  return name;
}

/// One application's inputs: the seeded device and the swept grid.
struct AppInputs {
  std::unique_ptr<sim::Device> sim_device;
  std::unique_ptr<synergy::Device> device;
  std::vector<std::unique_ptr<core::Workload>> workloads;
  std::vector<double> freqs;
  std::string target;
};

AppInputs app_inputs(std::size_t app, std::uint64_t seed) {
  AppInputs in;
  in.sim_device = std::make_unique<sim::Device>(
      sim::v100(), sim::NoiseConfig{}, derive_seed(seed, app));
  in.device = std::make_unique<synergy::Device>(*in.sim_device);
  in.workloads = serve::training_set(kApps[app].name);
  const std::vector<double> all = in.device->supported_frequencies();
  for (std::size_t i = 0; i < all.size(); i += kFreqStride) {
    in.freqs.push_back(all[i]);
  }
  in.target = largest_input(in.workloads);
  return in;
}

core::SweepOptions sweep_options(sim::ProfileCache& cache) {
  core::SweepOptions options;
  options.repetitions = kSweepRepetitions;
  options.cache = &cache;
  return options;
}

struct AppOutputs {
  core::ThreeWayAccuracyReport accuracy;
  core::ThreeWayParetoEvaluation pareto;
};

/// A GP-vs-DS evaluation in the three-way shape (hybrid fields empty).
AppOutputs two_way(const core::AccuracyReport& accuracy,
                   const core::ParetoEvaluation& pareto) {
  AppOutputs o;
  for (const core::AccuracyRow& row : accuracy.rows) {
    core::ThreeWayAccuracyRow r;
    r.input = row.input;
    r.gp_speedup_mape = row.gp_speedup_mape;
    r.ds_speedup_mape = row.ds_speedup_mape;
    r.gp_energy_mape = row.gp_energy_mape;
    r.ds_energy_mape = row.ds_energy_mape;
    o.accuracy.rows.push_back(r);
  }
  o.pareto.truth = pareto.truth;
  o.pareto.true_front = pareto.true_front;
  o.pareto.gp_front = pareto.gp_front;
  o.pareto.ds_front = pareto.ds_front;
  o.pareto.gp_cmp = pareto.gp_cmp;
  o.pareto.ds_cmp = pareto.ds_cmp;
  return o;
}

void add_accuracy_row(Digest& d, const core::ThreeWayAccuracyRow& row) {
  d.add(row.input).add(row.gp_speedup_mape).add(row.ds_speedup_mape);
  d.add(row.hy_speedup_mape).add(row.gp_energy_mape).add(row.ds_energy_mape);
  d.add(row.hy_energy_mape);
}

void add_pareto(Digest& d, const core::ThreeWayParetoEvaluation& p) {
  for (const auto* values :
       {&p.truth.freqs_mhz, &p.truth.speedup, &p.truth.norm_energy,
        &p.truth.time_s, &p.truth.energy_j}) {
    for (const double v : *values) {
      d.add(v);
    }
  }
  for (const auto* front :
       {&p.true_front, &p.gp_front, &p.ds_front, &p.hy_front}) {
    d.add(static_cast<std::uint64_t>(front->size()));
    for (const std::size_t i : *front) {
      d.add(static_cast<std::uint64_t>(i));
    }
  }
  for (const auto* cmp : {&p.gp_cmp, &p.ds_cmp, &p.hy_cmp}) {
    d.add(static_cast<std::uint64_t>(cmp->true_size));
    d.add(static_cast<std::uint64_t>(cmp->predicted_size));
    d.add(static_cast<std::uint64_t>(cmp->exact_matches));
    d.add(cmp->generational_distance);
  }
}

std::string outputs_digest(const std::vector<AppOutputs>& apps) {
  Digest d;
  for (const AppOutputs& app : apps) {
    for (const auto& row : app.accuracy.rows) {
      add_accuracy_row(d, row);
    }
    add_pareto(d, app.pareto);
  }
  return d.hex();
}

/// One pass of the pipeline over both applications (the timed work).
std::vector<AppOutputs> run_pipeline(const core::GeneralPurposeModel& gp,
                                     std::uint64_t seed,
                                     sim::ProfileCache& cache) {
  std::vector<AppOutputs> out;
  for (std::size_t app = 0; app < std::size(kApps); ++app) {
    AppInputs in = app_inputs(app, seed);
    const core::Dataset dataset = core::build_dataset(
        *in.device, in.workloads, sweep_options(cache), in.freqs);
    const sim::DeviceSpec& spec = in.device->spec();
    AppOutputs o;
    if (kApps[app].three_way) {
      o.accuracy =
          core::evaluate_accuracy_three_way(dataset, in.workloads, spec, gp);
      o.pareto = core::evaluate_pareto_three_way(dataset, in.workloads, spec,
                                                 in.target, gp);
    } else {
      o = two_way(core::evaluate_accuracy(dataset, in.workloads, gp),
                  core::evaluate_pareto(dataset, in.workloads, in.target, gp));
    }
    out.push_back(std::move(o));
  }
  return out;
}

std::size_t held_out_inputs(const std::vector<AppOutputs>& apps) {
  std::size_t n = 0;
  for (const AppOutputs& app : apps) {
    n += app.accuracy.rows.size() + 1; // LOOCV folds plus the Pareto target
  }
  return n;
}

/// Every row outside group `g` (the library's LOOCV training rows).
std::vector<std::size_t> rows_excluding(const core::Dataset& dataset, int g) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < dataset.groups.size(); ++r) {
    if (dataset.groups[r] != g) {
      rows.push_back(r);
    }
  }
  return rows;
}

/// One held-out input scored by all three families: the fold body of
/// evaluate_accuracy_three_way / evaluate_pareto_three_way through its
/// public calls, each inside a span under `parent`.
struct FoldPredictions {
  core::Prediction ds;
  core::Prediction hybrid;
  core::Prediction gp;
};

FoldPredictions traced_fold(const core::Dataset& dataset,
                            const AppInputs& in,
                            const core::GeneralPurposeModel& gp, int group,
                            std::span<const std::size_t> train_rows,
                            const core::TruthCurves& truth, bool with_hybrid,
                            SpanLog& log, std::uint32_t parent,
                            std::uint64_t id) {
  const auto g = static_cast<std::size_t>(group);
  const core::Workload& workload = *in.workloads[g];
  const sim::DeviceSpec& spec = in.device->spec();
  core::DomainSpecificModel ds;
  {
    const Span s(&log, "ml.ds_fit", parent, id);
    ds.train(dataset, train_rows);
  }
  core::HybridModel hybrid;
  if (with_hybrid) {
    const Span s(&log, "ml.hybrid_fit", parent, id);
    hybrid.train(dataset, in.workloads, spec, train_rows);
  }
  const double default_freq = dataset.default_freq_mhz[g];
  FoldPredictions out;
  {
    const Span s(&log, "core.ds_predict", parent, id);
    out.ds = ds.predict(workload.domain_features(), truth.freqs_mhz,
                        default_freq);
  }
  if (with_hybrid) {
    const Span s(&log, "core.hybrid_predict", parent, id);
    out.hybrid = hybrid.predict(workload, spec, truth.freqs_mhz, default_freq);
  }
  {
    const Span s(&log, "core.gp_predict", parent, id);
    out.gp = gp.predict(workload.aggregate_profile(), truth.freqs_mhz,
                        default_freq);
  }
  return out;
}

/// The traced pass: the same calls as run_pipeline, with the LOOCV and
/// Pareto evaluations spelled out fold by fold (fanned out over the pool
/// like the library's). Returns outputs that must equal run_pipeline's.
std::vector<AppOutputs> traced_pipeline(const core::GeneralPurposeModel& gp,
                                        std::uint64_t seed,
                                        sim::ProfileCache& cache,
                                        SpanLog& log) {
  std::vector<AppOutputs> out;
  for (std::size_t app = 0; app < std::size(kApps); ++app) {
    AppInputs in = app_inputs(app, seed);
    const bool three_way = kApps[app].three_way;
    core::Dataset dataset;
    {
      const Span s(&log, "core.build_dataset", kNoParent, app);
      dataset = core::build_dataset(*in.device, in.workloads,
                                    sweep_options(cache), in.freqs);
    }
    AppOutputs o;
    {
      const Span loocv(&log, "core.loocv", kNoParent, app);
      // Folds as the library forms them: the three-way evaluation takes
      // ml::leave_one_group_out's splits, the two-way one every usable
      // group with all other rows for training.
      const std::vector<ml::Split> splits =
          ml::leave_one_group_out(dataset.groups);
      std::vector<std::pair<int, std::vector<std::size_t>>> folds;
      for (const ml::Split& split : splits) {
        const int g = dataset.groups[split.test.front()];
        if (dataset.group_ok(g)) {
          folds.emplace_back(g, three_way ? split.train
                                          : rows_excluding(dataset, g));
        }
      }
      o.accuracy.rows.resize(folds.size());
      parallel_for(
          ThreadPool::global(), 0, folds.size(),
          [&](std::size_t i) {
            const Span fold(&log, "core.loocv_fold", loocv.handle(), i);
            const int g = folds[i].first;
            const core::TruthCurves truth = core::truth_curves(dataset, g);
            const FoldPredictions pred =
                traced_fold(dataset, in, gp, g, folds[i].second, truth,
                            three_way, log, fold.handle(), i);
            core::ThreeWayAccuracyRow& row = o.accuracy.rows[i];
            row.input = dataset.group_names[static_cast<std::size_t>(g)];
            row.ds_speedup_mape = stats::mape(truth.speedup, pred.ds.speedup);
            row.ds_energy_mape =
                stats::mape(truth.norm_energy, pred.ds.norm_energy);
            if (three_way) {
              row.hy_speedup_mape =
                  stats::mape(truth.speedup, pred.hybrid.speedup);
              row.hy_energy_mape =
                  stats::mape(truth.norm_energy, pred.hybrid.norm_energy);
            }
            row.gp_speedup_mape = stats::mape(truth.speedup, pred.gp.speedup);
            row.gp_energy_mape =
                stats::mape(truth.norm_energy, pred.gp.norm_energy);
          },
          /*grain=*/1);
    }
    {
      const Span pareto(&log, "core.pareto", kNoParent, app);
      const int g = dataset.group_of(in.target);
      core::ThreeWayParetoEvaluation& p = o.pareto;
      p.truth = core::truth_curves(dataset, g);
      p.true_front = core::pareto_front(p.truth.speedup, p.truth.norm_energy);
      const FoldPredictions pred =
          traced_fold(dataset, in, gp, g, rows_excluding(dataset, g), p.truth,
                      three_way, log, pareto.handle(), app);
      p.ds_front = pred.ds.pareto_indices();
      p.ds_cmp = core::compare_pareto(p.truth.speedup, p.truth.norm_energy,
                                      p.true_front, p.ds_front);
      if (three_way) {
        p.hy_front = pred.hybrid.pareto_indices();
        p.hy_cmp = core::compare_pareto(p.truth.speedup, p.truth.norm_energy,
                                        p.true_front, p.hy_front);
      }
      p.gp_front = pred.gp.pareto_indices();
      p.gp_cmp = core::compare_pareto(p.truth.speedup, p.truth.norm_energy,
                                      p.true_front, p.gp_front);
    }
    out.push_back(std::move(o));
  }
  return out;
}

void record_outputs(Result& result, const std::vector<AppOutputs>& apps) {
  double ds = 0.0;
  double hy = 0.0;
  double gp = 0.0;
  std::size_t rows = 0;
  std::size_t hybrid_rows = 0;
  double norm_energy = 0.0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const AppOutputs& app = apps[a];
    for (const auto& row : app.accuracy.rows) {
      ds += row.ds_speedup_mape;
      gp += row.gp_speedup_mape;
      ++rows;
      if (kApps[a].three_way) {
        hy += row.hy_speedup_mape;
        ++hybrid_rows;
      }
    }
    // Lowest measured energy reachable on the DS-predicted Pareto set.
    double best = std::numeric_limits<double>::infinity();
    for (const std::size_t i : app.pareto.ds_front) {
      best = std::min(best, app.pareto.truth.norm_energy[i]);
    }
    norm_energy += best;
  }
  const auto n = static_cast<double>(rows);
  result.metric("norm_energy", norm_energy / static_cast<double>(apps.size()),
                "ratio", apps.size());
  result.output("speedup_mape", ds / n, "ratio", rows);
  result.output("hybrid_speedup_mape", hy / static_cast<double>(hybrid_rows),
                "ratio", hybrid_rows);
  result.output("gp_speedup_mape", gp / n, "ratio", rows);
}

/// Every recomputed LOOCV row and Pareto evaluation must equal the
/// library's.
void compare_outputs(Result& result, const std::vector<AppOutputs>& plain,
                     const std::vector<AppOutputs>& traced) {
  for (std::size_t app = 0; app < plain.size(); ++app) {
    const auto& want = plain[app].accuracy.rows;
    const auto& got = traced[app].accuracy.rows;
    result.expect(want.size() == got.size(),
                  "recomputed LOOCV scored a different number of inputs");
    for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
      Digest a;
      Digest b;
      add_accuracy_row(a, want[i]);
      add_accuracy_row(b, got[i]);
      result.expect(a.hex() == b.hex(), "recomputed LOOCV row " +
                                            want[i].input +
                                            " differs from the library's");
    }
    Digest a;
    Digest b;
    add_pareto(a, plain[app].pareto);
    add_pareto(b, traced[app].pareto);
    result.expect(a.hex() == b.hex(),
                  "recomputed Pareto evaluation differs from the library's");
  }
}

Result run_untraced(const Options& options) {
  Result result;
  std::vector<double> setup_s;
  core::GeneralPurposeModel gp;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    gp = train_gp();
    setup_s.push_back(seconds_since(start));
    result.digest("setup.gp", Digest().add(gp.to_json().dump()).hex());
  }
  result.metric("setup_s", median(setup_s), "s", setup_s.size());

  std::vector<double> wall_s;
  std::vector<double> ops_per_s;
  std::vector<AppOutputs> first;
  repeat_for(options.seconds, 2, [&](bool timed) {
    sim::ProfileCache cache;
    const auto start = std::chrono::steady_clock::now();
    std::vector<AppOutputs> apps = run_pipeline(gp, options.seed, cache);
    const double wall = seconds_since(start);
    const std::size_t ops = held_out_inputs(apps);
    if (timed) {
      wall_s.push_back(wall);
      ops_per_s.push_back(static_cast<double>(ops) / wall);
    }
    result.attempted += ops;
    if (options.inject_wrong_answer) {
      apps.front().accuracy.rows.front().ds_speedup_mape += 1.0;
    }
    result.digest("pipeline.outputs", outputs_digest(apps));
    if (first.empty()) {
      first = std::move(apps);
    }
  });
  result.metric("ops_per_s", median(ops_per_s), "1/s", ops_per_s.size());
  result.metric("time_to_solution_s", median(wall_s), "s", wall_s.size());
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  record_outputs(result, first);

  // Oracle: the same pass recomputed fold by fold through the public calls
  // (the traced replay, spans discarded) must give the same outputs.
  SpanLog discard;
  sim::ProfileCache cache;
  compare_outputs(result, first,
                  traced_pipeline(gp, options.seed, cache, discard));
  return result;
}

Result run_traced(const Options& options, SpanLog& log) {
  Result result;
  core::GeneralPurposeModel gp;
  {
    const Span s(&log, "core.gp_train");
    gp = train_gp();
  }
  result.digest("setup.gp", Digest().add(gp.to_json().dump()).hex());

  sim::ProfileCache warm_up_cache;
  result.digest("pipeline.outputs",
                outputs_digest(run_pipeline(gp, options.seed, warm_up_cache)));

  RoundTimings timings;
  std::unique_ptr<sim::ProfileCache> cache;
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    sim::ProfileCache plain_cache;
    const double cpu_start = process_cpu_s();
    auto start = std::chrono::steady_clock::now();
    const std::vector<AppOutputs> plain =
        run_pipeline(gp, options.seed, plain_cache);
    timings.plain_s.push_back(seconds_since(start));
    timings.cpu_s.push_back(process_cpu_s() - cpu_start);
    result.digest("pipeline.outputs", outputs_digest(plain));

    SpanLog discard;
    const bool last = round + 1 == kTraceRounds;
    cache = std::make_unique<sim::ProfileCache>();
    start = std::chrono::steady_clock::now();
    std::vector<AppOutputs> traced =
        traced_pipeline(gp, options.seed, *cache, last ? log : discard);
    timings.traced_s.push_back(seconds_since(start));
    if (options.inject_wrong_answer) {
      traced.front().accuracy.rows.front().ds_speedup_mape += 1.0;
    }
    compare_outputs(result, plain, traced);
    result.attempted += held_out_inputs(plain);
  }

  const std::vector<SpanRecord> spans = log.spans();
  LayerReport layers;
  layers.percentiles("core.ds_predict_us", spans, "core.ds_predict", 1e-3);
  layers.percentiles("core.hybrid_predict_us", spans, "core.hybrid_predict",
                     1e-3);
  const auto total_s = [&](const char* name) {
    double s = 0.0;
    for (const double ns : durations_ns(spans, name)) {
      s += ns * 1e-9;
    }
    return s;
  };
  layers.set("core.loocv_s", total_s("core.loocv"),
             durations_ns(spans, "core.loocv").size());
  layers.set("core.pareto_s", total_s("core.pareto"),
             durations_ns(spans, "core.pareto").size());
  layers.training(spans);
  layers.profile_cache(cache->hits(), cache->misses());
  layers.rounds(timings);
  layers.self_times(spans);
  layers.emit(result);
  return result;
}

} // namespace

Result run_paper_pipeline(const Options& options, SpanLog& log) {
  return options.trace ? run_traced(options, log) : run_untraced(options);
}

} // namespace perfbench
