#include "sched_stream.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "checks.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "obs/ledger.hpp"
#include "serve/traffic.hpp"
#include "sim/device.hpp"
#include "sim/power_model.hpp"
#include "synergy/device.hpp"
#include "synergy/queue.hpp"

namespace perfbench {

using namespace dsem;

namespace {

constexpr std::size_t kJobs = 10000;
constexpr int kNodes = 4;

std::vector<serve::TimedJob> make_jobs(std::uint64_t seed) {
  serve::TrafficConfig traffic;
  traffic.requests = kJobs;
  traffic.arrival_rate_hz = 4.0;
  traffic.population = 64;
  traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
  traffic.seed = seed;
  return serve::generate_job_trace(traffic);
}

celerity::Cluster make_cluster() {
  celerity::ClusterConfig config;
  config.nodes = kNodes;
  return celerity::Cluster(sim::v100(), config);
}

/// Noise-free run of `spec` on `device_spec` at its default clock.
double reference_energy_j(const serve::WorkloadSpec& spec,
                          const sim::DeviceSpec& device_spec,
                          sim::ProfileCache& cache) {
  sim::Device device(device_spec, sim::NoiseConfig::none(), 0);
  synergy::Device synergy_device(device);
  synergy::Queue queue(synergy_device, synergy::ExecMode::kSimOnly);
  queue.set_profile_cache(&cache);
  serve::make_workload(spec)->submit(queue);
  return queue.total_energy_j();
}

/// Busy energy of the completed jobs relative to running each of them at
/// the default clock (noise-free reference), and the mean relative error
/// of the predicted runtime at the executed clock.
void record_outputs(Result& result, std::span<const serve::TimedJob> jobs,
                    std::span<const sched::JobOutcome> outcomes,
                    const sched::SchedStats& stats) {
  sim::ProfileCache cache;
  const sim::DeviceSpec spec = sim::v100();
  std::map<std::pair<std::string, std::vector<double>>, double> reference;
  double true_energy_j = 0.0;
  double reference_j = 0.0;
  double error_sum = 0.0;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const sched::JobOutcome& o = outcomes[i];
    if (o.rejected) {
      continue;
    }
    const auto key =
        std::make_pair(jobs[i].spec.application, jobs[i].request.features);
    auto it = reference.find(key);
    if (it == reference.end()) {
      it = reference
               .emplace(key, reference_energy_j(jobs[i].spec, spec, cache))
               .first;
    }
    true_energy_j += o.true_energy_j;
    reference_j += it->second;
    error_sum += std::abs(o.predicted_time_s - o.true_time_s) / o.true_time_s;
    ++completed;
  }
  const auto n = static_cast<double>(completed);
  result.metric("norm_energy", true_energy_j / reference_j, "ratio",
                completed);
  result.output("energy_j", stats.energy_j, "J", stats.jobs);
  result.output("deadline_miss_rate", stats.miss_rate(), "ratio", stats.jobs);
  result.output("infeasible", static_cast<double>(stats.infeasible), "count",
                stats.jobs);
  result.output("time_prediction_mape", error_sum / n, "ratio", completed);
  result.output("makespan_s", stats.makespan_s, "s", stats.jobs);
}

struct SchedRun {
  std::vector<sched::JobOutcome> outcomes;
  sched::SchedStats stats;
  double wall_s = 0.0;
};

SchedRun schedule(const serve::ModelRegistry& registry,
                  std::span<const serve::TimedJob> jobs,
                  obs::Ledger* ledger = nullptr) {
  celerity::Cluster cluster = make_cluster();
  sched::SchedConfig config = sched_config();
  config.ledger = ledger;
  sched::ClusterScheduler scheduler(cluster, registry, config);
  SchedRun run;
  const auto start = std::chrono::steady_clock::now();
  run.outcomes = scheduler.run(jobs);
  run.wall_s = seconds_since(start);
  run.stats = scheduler.stats();
  return run;
}

Result run_untraced(const Options& options) {
  Result result;
  const auto registry = timed_registry_setup(result, kSetupReps);
  const std::vector<serve::TimedJob> jobs = make_jobs(options.seed);

  std::vector<double> ops_per_s;
  std::vector<double> wall_s;
  SchedRun first;
  repeat_for(options.seconds, 2, [&](bool timed) {
    SchedRun run = schedule(*registry, jobs);
    if (timed) {
      wall_s.push_back(run.wall_s);
      ops_per_s.push_back(static_cast<double>(run.stats.completed) /
                          run.wall_s);
    }
    result.attempted += jobs.size();
    if (options.inject_wrong_answer) {
      run.outcomes.back().finish_s += 1.0;
    }
    check_sched_outcomes(result, jobs, run.outcomes, run.stats, kNodes);
    result.digest("sched.outcomes", sched_digest(run.outcomes, run.stats));
    if (first.outcomes.empty()) {
      first = std::move(run);
    }
  });

  result.metric("ops_per_s", median(ops_per_s), "1/s", ops_per_s.size());
  result.metric("time_to_solution_s", median(wall_s), "s", wall_s.size());
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  record_outputs(result, jobs, first.outcomes, first.stats);
  return result;
}

Result run_traced(const Options& options, SpanLog& log) {
  Result result;
  sim::ProfileCache training_cache;
  const auto registry = traced_registry_setup(result, log, training_cache);

  const std::vector<serve::TimedJob> jobs = make_jobs(options.seed);
  const SchedRun warm_up = schedule(*registry, jobs);
  result.digest("sched.outcomes",
                sched_digest(warm_up.outcomes, warm_up.stats));

  RoundTimings timings;
  std::unique_ptr<sim::ProfileCache> replay_cache;
  std::size_t distinct_inputs = 0;
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    const double cpu_start = process_cpu_s();
    const SchedRun plain = schedule(*registry, jobs);
    timings.cpu_s.push_back(process_cpu_s() - cpu_start);
    timings.plain_s.push_back(plain.wall_s);
    check_sched_outcomes(result, jobs, plain.outcomes, plain.stats, kNodes);
    result.digest("sched.outcomes", sched_digest(plain.outcomes, plain.stats));

    obs::Ledger ledger;
    const SchedRun with_ledger = schedule(*registry, jobs, &ledger);
    timings.ledger_s.push_back(with_ledger.wall_s);
    result.digest("sched.outcomes",
                  sched_digest(with_ledger.outcomes, with_ledger.stats));
    result.expect(ledger.jobs().size() == jobs.size(),
                  "the ledger records every job");

    SpanLog discard;
    const bool last = round + 1 == kTraceRounds;
    replay_cache = std::make_unique<sim::ProfileCache>();
    celerity::Cluster cluster = make_cluster();
    const auto start = std::chrono::steady_clock::now();
    SchedReplay replay =
        replay_schedule(cluster, *registry, sched_config(), jobs,
                        last ? &log : &discard, *replay_cache);
    timings.traced_s.push_back(seconds_since(start));
    if (options.inject_wrong_answer) {
      replay.outcomes.front().freq_mhz += 1.0;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      result.expect(i < replay.outcomes.size() &&
                        replay.outcomes[i] == plain.outcomes[i],
                    "sched replay differs from ClusterScheduler::run at job " +
                        std::to_string(i));
    }
    result.digest("sched.outcomes",
                  sched_digest(replay.outcomes, replay.stats));
    result.attempted += jobs.size();
    distinct_inputs = replay.distinct_inputs;
  }

  const std::vector<SpanRecord> spans = log.spans();
  LayerReport layers;
  layers.percentiles("sched.ref_run_us", spans, "sched.ref_run", 1e-3);
  layers.percentiles("sched.predict_us", spans, "sched.predict", 1e-3);
  layers.percentiles("core.ds_predict_us", spans, "core.ds_predict", 1e-3);
  layers.percentiles("sched.admit_ns", spans, "sched.admit", 1.0);
  layers.percentiles("sched.exec_us", spans, "sched.exec", 1e-3);
  layers.set("sched.distinct_input_ratio",
             static_cast<double>(distinct_inputs) /
                 static_cast<double>(jobs.size()),
             jobs.size());
  layers.training(spans);
  layers.profile_cache(training_cache.hits() + replay_cache->hits(),
                       training_cache.misses() + replay_cache->misses());
  layers.rounds(timings);
  layers.self_times(spans);
  layers.emit(result);
  return result;
}

/// Every `stride`-th frequency with the maximum always kept (the
/// scheduler's candidate grid; the helper is private to sched).
std::vector<double> strided_candidates(std::span<const double> freqs_mhz,
                                       std::size_t stride) {
  std::vector<double> out;
  for (std::size_t i = 0; i < freqs_mhz.size(); i += stride) {
    out.push_back(freqs_mhz[i]);
  }
  if (out.back() != freqs_mhz.back()) {
    out.push_back(freqs_mhz.back());
  }
  return out;
}

} // namespace

sched::SchedConfig sched_config() {
  sched::SchedConfig config;
  config.frequency = sched::FrequencyPolicy::kModel;
  config.placement = sched::Placement::kFirstFit;
  config.fallback = sched::Fallback::kRunAtMax;
  config.margin = 3.0;
  return config;
}

SchedReplay replay_schedule(celerity::Cluster& cluster,
                            const serve::ModelRegistry& registry,
                            const sched::SchedConfig& config,
                            std::span<const serve::TimedJob> jobs,
                            SpanLog* log, sim::ProfileCache& cache) {
  DSEM_ENSURE(config.frequency == sched::FrequencyPolicy::kModel &&
                  config.placement == sched::Placement::kFirstFit &&
                  config.fallback == sched::Fallback::kRunAtMax,
              "replay_schedule covers the model policy, first fit, "
              "run-at-max only");
  ThreadPool& pool = config.pool != nullptr ? *config.pool : ThreadPool::global();
  const sim::DeviceSpec& spec = cluster.device(0).spec();
  const double default_mhz = cluster.device(0).default_frequency();

  std::map<std::string, std::shared_ptr<const serve::ModelArtifact>> artifacts;
  std::set<std::pair<std::string, std::vector<double>>> inputs;
  for (const serve::TimedJob& job : jobs) {
    auto& slot = artifacts[job.spec.application];
    if (slot == nullptr) {
      slot = registry.require(
          serve::ModelKey{job.spec.application, config.device});
    }
    inputs.emplace(job.spec.application, job.request.features);
  }

  struct Plan {
    double ref_time_s = 0.0;
    double ref_energy_j = 0.0;
    double deadline_s = 0.0;
    std::vector<double> cand_freqs_mhz;
    std::vector<double> cand_time_s;
    std::vector<double> cand_energy_j;
  };
  std::vector<Plan> plans(jobs.size());
  parallel_for(pool, 0, jobs.size(), [&](std::size_t i) {
    const serve::TimedJob& job = jobs[i];
    Plan& plan = plans[i];
    const Span plan_span(log, "sched.plan", kNoParent, i);
    {
      const Span s(log, "sched.ref_run", plan_span.handle(), i);
      const auto workload = serve::make_workload(job.spec);
      sim::Device ref_device(spec, sim::NoiseConfig::none(), 0);
      synergy::Device ref_synergy(ref_device);
      synergy::Queue ref_queue(ref_synergy, synergy::ExecMode::kSimOnly);
      ref_queue.set_profile_cache(&cache);
      workload->submit(ref_queue);
      plan.ref_time_s = ref_queue.total_time_s();
      plan.ref_energy_j = ref_queue.total_energy_j();
    }
    plan.deadline_s = job.arrival_s + job.deadline_slack * plan.ref_time_s;

    const Span predict(log, "sched.predict", plan_span.handle(), i);
    const serve::ModelArtifact& artifact = *artifacts.at(job.spec.application);
    plan.cand_freqs_mhz =
        strided_candidates(artifact.freqs_mhz, config.freq_stride);
    core::Prediction pred;
    {
      const Span s(log, "core.ds_predict", predict.handle(), i);
      pred = artifact.ds->predict(job.request.features, plan.cand_freqs_mhz,
                                  artifact.default_freq_mhz);
    }
    for (std::size_t k = 0; k < pred.speedup.size(); ++k) {
      plan.cand_time_s.push_back(plan.ref_time_s / pred.speedup[k]);
      plan.cand_energy_j.push_back(plan.ref_energy_j * pred.norm_energy[k]);
    }
  });

  SchedReplay out;
  out.distinct_inputs = inputs.size();
  out.outcomes.resize(jobs.size());
  out.stats.jobs = jobs.size();
  std::vector<double> rank_free_s(static_cast<std::size_t>(cluster.size()),
                                  0.0);
  std::vector<double> rank_busy_s(rank_free_s.size(), 0.0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const serve::TimedJob& job = jobs[i];
    const Plan& plan = plans[i];
    sched::JobOutcome& outcome = out.outcomes[i];
    outcome.deadline_s = plan.deadline_s;

    int rank = 0;
    sched::FrequencyPick pick;
    {
      const Span s(log, "sched.admit", kNoParent, i);
      rank = sched::place_first_fit(rank_free_s);
      const double start = std::max(
          job.arrival_s, rank_free_s[static_cast<std::size_t>(rank)]);
      pick = sched::pick_deadline_frequency(plan.cand_time_s,
                                            plan.cand_energy_j, start,
                                            plan.deadline_s, config.margin);
    }
    if (!pick.feasible) {
      outcome.infeasible = true;
      ++out.stats.infeasible;
    }
    const auto r = static_cast<std::size_t>(rank);
    outcome.rank = rank;
    outcome.start_s = std::max(job.arrival_s, rank_free_s[r]);
    outcome.freq_mhz = plan.cand_freqs_mhz[pick.index];
    outcome.predicted_time_s = plan.cand_time_s[pick.index];
    outcome.predicted_energy_j = plan.cand_energy_j[pick.index];
    {
      const Span s(log, "sched.exec", kNoParent, i);
      sim::Device replica = cluster.device(rank).simulated().replica(
          derive_seed(config.seed, static_cast<std::uint64_t>(i)));
      replica.set_fault_config({});
      synergy::Device device(replica);
      synergy::Queue queue(device, synergy::ExecMode::kSimOnly);
      queue.set_profile_cache(&cache);
      queue.set_target_frequency(outcome.freq_mhz);
      serve::make_workload(job.spec)->submit(queue);
      outcome.true_time_s = queue.total_time_s();
      outcome.true_energy_j = queue.total_energy_j();
    }
    outcome.finish_s = outcome.start_s + outcome.true_time_s;
    outcome.missed = outcome.finish_s > outcome.deadline_s;
    rank_free_s[r] = outcome.finish_s;
    rank_busy_s[r] += outcome.true_time_s;
    out.stats.busy_energy_j += outcome.true_energy_j;
    ++out.stats.completed;
    out.stats.misses += outcome.missed ? 1 : 0;
    out.stats.makespan_s = std::max(out.stats.makespan_s, outcome.finish_s);
  }
  for (std::size_t r = 0; r < rank_free_s.size(); ++r) {
    const double idle_s = out.stats.makespan_s - rank_busy_s[r];
    out.stats.idle_energy_j += sim::idle_power_w(spec, default_mhz) * idle_s;
  }
  out.stats.energy_j = out.stats.busy_energy_j + out.stats.idle_energy_j;
  return out;
}

Result run_sched_stream(const Options& options, SpanLog& log) {
  return options.trace ? run_traced(options, log) : run_untraced(options);
}

} // namespace perfbench
