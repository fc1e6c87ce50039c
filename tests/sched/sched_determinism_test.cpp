// Golden scheduler determinism (grouped suite, heavy tier): scheduling a
// 10^4-job deadline-tagged trace over a 4-rank cluster with really
// trained models produces bit-identical outcomes, stats, and
// deterministic metrics snapshots for thread pools of 1, 2, and 8
// workers — and the model-driven policy dominates the max-clock baseline
// on cluster energy at equal or fewer deadline misses. The same trace
// under DS and hybrid-family artifacts at the default margin is pinned to
// committed goldens.
//
// To regenerate the goldens after a conscious behavior change:
//   DSEM_WRITE_GOLDEN=1 ./dsem_sched_tests --gtest_filter=SchedDeterminism.*
// then commit the rewritten tests/data/golden_sched_{ds,hybrid}_v100.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/metrics.hpp"
#include "core/kernel_features.hpp"
#include "core/workload.hpp"
#include "sched/scheduler.hpp"
#include "../serve/serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::ModelRegistry;
using serve::TimedJob;
using serve::TrafficConfig;

// Trained once, shared by every test in the grouped suite.
const ModelRegistry& shared_registry() {
  static ModelRegistry* registry = [] {
    auto* r = new ModelRegistry;
    r->put(serve_test::train_compact_artifact("cronos"));
    r->put(serve_test::train_compact_artifact("ligen"));
    return r;
  }();
  return *registry;
}

// The same compact sweeps, fitted with the hybrid family.
const ModelRegistry& hybrid_registry() {
  static ModelRegistry* registry = [] {
    auto* r = new ModelRegistry;
    r->put(serve_test::train_compact_artifact("cronos", /*hybrid=*/true));
    r->put(serve_test::train_compact_artifact("ligen", /*hybrid=*/true));
    return r;
  }();
  return *registry;
}

const std::vector<TimedJob>& shared_trace() {
  static const std::vector<TimedJob> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 4.0; // a moderately loaded 4-rank cluster
    traffic.population = 64;
    traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
    return serve::generate_job_trace(traffic);
  }();
  return trace;
}

struct SchedRun {
  std::vector<sched::JobOutcome> outcomes;
  sched::SchedStats stats;
  std::string metrics_json; ///< deterministic-only snapshot
};

SchedRun run_policy(sched::FrequencyPolicy policy, ThreadPool* pool,
                    const ModelRegistry& registry = shared_registry(),
                    double model_margin = 6.0) {
  celerity::ClusterConfig config;
  config.nodes = 4;
  celerity::Cluster cluster(sim::v100(), config);
  sched::SchedConfig sched_config;
  sched_config.frequency = policy;
  sched_config.margin =
      policy == sched::FrequencyPolicy::kModel ? model_margin : 1.0;
  sched_config.pool = pool;

  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  set_sink_enabled(Sink::kMetrics, true);
  sched::ClusterScheduler scheduler(cluster, registry, sched_config);
  SchedRun run;
  run.outcomes = scheduler.run(shared_trace());
  run.stats = scheduler.stats();
  run.metrics_json =
      metrics::Registry::global().snapshot().to_json(true).dump(2);
  set_sink_enabled(Sink::kMetrics, was_enabled);
  metrics::Registry::global().clear();
  return run;
}

SchedRun run_model_with_pool(std::size_t threads,
                             const ModelRegistry& registry = shared_registry(),
                             double margin = 6.0) {
  ThreadPool pool(threads);
  return run_policy(sched::FrequencyPolicy::kModel, &pool, registry, margin);
}

/// The pinned view of one run: its stats, the p99 turnaround over the
/// completed jobs (index q * (n - 1) of the sorted turnarounds), and the
/// predicted time and energy at the chosen clocks summed in trace order,
/// which pin the model's predictions even where the pick falls back.
std::string golden_view(const SchedRun& run) {
  const std::vector<TimedJob>& jobs = shared_trace();
  std::vector<double> turnaround;
  double predicted_time_s = 0.0;
  double predicted_energy_j = 0.0;
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const sched::JobOutcome& outcome = run.outcomes[i];
    if (!outcome.rejected) {
      turnaround.push_back(outcome.finish_s - jobs[i].arrival_s);
    }
    predicted_time_s += outcome.predicted_time_s;
    predicted_energy_j += outcome.predicted_energy_j;
  }
  std::sort(turnaround.begin(), turnaround.end());
  const sched::SchedStats& stats = run.stats;
  auto out = json::Value::object();
  out.set("jobs", stats.jobs);
  out.set("completed", stats.completed);
  out.set("rejected", stats.rejected);
  out.set("misses", stats.misses);
  out.set("infeasible", stats.infeasible);
  out.set("energy_j", stats.energy_j);
  out.set("busy_energy_j", stats.busy_energy_j);
  out.set("idle_energy_j", stats.idle_energy_j);
  out.set("makespan_s", stats.makespan_s);
  out.set("p99_turnaround_s",
          turnaround.empty()
              ? 0.0
              : turnaround[static_cast<std::size_t>(
                    0.99 * static_cast<double>(turnaround.size() - 1))]);
  out.set("predicted_time_s", predicted_time_s);
  out.set("predicted_energy_j", predicted_energy_j);
  return out.dump(2);
}

void expect_matches_golden(const std::string& filename,
                           const std::string& view) {
  const std::string path = std::string(DSEM_TEST_DATA_DIR) + "/" + filename;
  if (std::getenv("DSEM_WRITE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden: " << path;
    out << view << "\n";
    GTEST_SKIP() << "golden regenerated: " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " (regenerate with DSEM_WRITE_GOLDEN=1 and commit it)";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), view + "\n")
      << "scheduler stats diverged from " << filename
      << "; if the change is intentional, regenerate with "
         "DSEM_WRITE_GOLDEN=1";
}

TEST(SchedDeterminism, OutcomesIdenticalForPools1_2_8) {
  const SchedRun serial = run_model_with_pool(1);
  const SchedRun two = run_model_with_pool(2);
  const SchedRun eight = run_model_with_pool(8);
  ASSERT_EQ(serial.outcomes.size(), 10000u);
  // Full JobOutcome equality: placements, clocks, every simulated
  // timestamp and energy, bit for bit.
  EXPECT_EQ(serial.outcomes, two.outcomes);
  EXPECT_EQ(serial.outcomes, eight.outcomes);
}

TEST(SchedDeterminism, StatsAndMetricsSnapshotsIdenticalForPools1_2_8) {
  const SchedRun serial = run_model_with_pool(1);
  const SchedRun two = run_model_with_pool(2);
  const SchedRun eight = run_model_with_pool(8);

  for (const SchedRun* other : {&two, &eight}) {
    EXPECT_EQ(serial.stats.completed, other->stats.completed);
    EXPECT_EQ(serial.stats.rejected, other->stats.rejected);
    EXPECT_EQ(serial.stats.misses, other->stats.misses);
    EXPECT_EQ(serial.stats.infeasible, other->stats.infeasible);
    EXPECT_EQ(serial.stats.energy_j, other->stats.energy_j);
    EXPECT_EQ(serial.stats.busy_energy_j, other->stats.busy_energy_j);
    EXPECT_EQ(serial.stats.idle_energy_j, other->stats.idle_energy_j);
    EXPECT_EQ(serial.stats.makespan_s, other->stats.makespan_s);
    EXPECT_EQ(serial.metrics_json, other->metrics_json);
  }
  EXPECT_FALSE(serial.metrics_json.empty());
}

TEST(SchedDeterminism, ModelPolicyDominatesMaxClockBaseline) {
  const SchedRun model = run_model_with_pool(8);
  const SchedRun max_clock =
      run_policy(sched::FrequencyPolicy::kMaxClock, nullptr);
  ASSERT_EQ(model.stats.jobs, max_clock.stats.jobs);
  // Strictly less cluster energy at equal or fewer deadline misses: the
  // model's per-job clock picks convert prediction into energy savings
  // the naive always-max policy cannot see.
  EXPECT_LT(model.stats.energy_j, max_clock.stats.energy_j);
  EXPECT_LE(model.stats.misses, max_clock.stats.misses);
}

TEST(SchedDeterminism, HybridModelPolicyMatchesGoldenForPools1_2_8) {
  // The scheduler's default margin: there the picked clocks follow the
  // predicted curves (at the margin of 6 above, every job falls back to
  // the maximum clock).
  const double margin = sched::SchedConfig{}.margin;
  const SchedRun serial = run_model_with_pool(1, hybrid_registry(), margin);
  const SchedRun two = run_model_with_pool(2, hybrid_registry(), margin);
  const SchedRun eight = run_model_with_pool(8, hybrid_registry(), margin);
  ASSERT_EQ(serial.outcomes.size(), 10000u);
  EXPECT_EQ(serial.outcomes, two.outcomes);
  EXPECT_EQ(serial.outcomes, eight.outcomes);
  EXPECT_EQ(serial.metrics_json, two.metrics_json);
  EXPECT_EQ(serial.metrics_json, eight.metrics_json);
  const std::string view = golden_view(serial);
  EXPECT_EQ(view, golden_view(two));
  EXPECT_EQ(view, golden_view(eight));
  expect_matches_golden("golden_sched_hybrid_v100.json", view);
}

TEST(SchedDeterminism, DsModelPolicyMatchesGoldenForPools1_2_8) {
  // The DS family at the scheduler's default margin, where the clock picks
  // follow the predicted curves instead of all falling back to the maximum.
  const double margin = sched::SchedConfig{}.margin;
  const SchedRun serial = run_model_with_pool(1, shared_registry(), margin);
  const SchedRun two = run_model_with_pool(2, shared_registry(), margin);
  const SchedRun eight = run_model_with_pool(8, shared_registry(), margin);
  ASSERT_EQ(serial.outcomes.size(), 10000u);
  EXPECT_EQ(serial.outcomes, two.outcomes);
  EXPECT_EQ(serial.outcomes, eight.outcomes);
  EXPECT_EQ(serial.metrics_json, two.metrics_json);
  EXPECT_EQ(serial.metrics_json, eight.metrics_json);
  const std::string view = golden_view(serial);
  EXPECT_EQ(view, golden_view(two));
  EXPECT_EQ(view, golden_view(eight));
  expect_matches_golden("golden_sched_ds_v100.json", view);
}

TEST(SchedDeterminism, HybridFusedFeaturesFromSpecMatchFeatureRebuild) {
  // A hybrid query is built from the job's domain features on the
  // artifact's device preset (serve::ModelArtifact::predict). On this
  // trace that is the very vector the job's own spec gives on the
  // cluster's V100, so the construction changes no scheduling decision.
  const sim::DeviceSpec cluster_spec = sim::v100();
  const sim::DeviceSpec preset = sim::preset_by_name("v100");
  std::set<std::pair<std::string, std::vector<double>>> seen;
  for (const TimedJob& job : shared_trace()) {
    const std::string& app = job.spec.application;
    if (!seen.emplace(app, job.request.features).second) {
      continue;
    }
    if (app == "cronos") {
      EXPECT_EQ(job.spec.steps, 10); // the canonical training shape
    }
    const double default_mhz =
        hybrid_registry().require({app, "v100"})->default_freq_mhz;
    const std::vector<double> from_spec = core::fused_feature_vector(
        *serve::make_workload(job.spec), cluster_spec, default_mhz);
    const std::vector<double> from_features = core::fused_feature_vector(
        *core::workload_from_features(app, job.request.features), preset,
        default_mhz);
    ASSERT_EQ(from_spec.size(), from_features.size());
    EXPECT_EQ(std::memcmp(from_spec.data(), from_features.data(),
                          from_spec.size() * sizeof(double)),
              0)
        << app << " input " << seen.size();
  }
  EXPECT_GT(seen.size(), 64u);
}

} // namespace
