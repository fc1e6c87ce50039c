// The benchmark's own tests: its output checks catch a wrong answer, its
// replays reproduce the program, and its span arithmetic is right.
//
//   cmake --build <dir> --target perfbench_selftest && <dir>/perfbench_selftest
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "obs/ledger.hpp"
#include "sched_stream.hpp"
#include "serve/traffic.hpp"
#include "serve_workloads.hpp"
#include "sim/device.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace dsem;

serve::ModelRegistry& registry() {
  static const auto trained = train_registry();
  return *trained;
}

std::vector<serve::TimedRequest> small_trace() {
  serve::TrafficConfig traffic;
  traffic.requests = 3000;
  traffic.population = 24;
  traffic.seed = 7;
  return serve::generate_trace(traffic);
}

TEST(ServeOracle, AcceptsTheLoopsAnswersAndCatchesOneWrongAnswer) {
  const auto trace = small_trace();
  serve::ServeLoop loop(registry(), serve::ServeConfig{});
  const auto responses = loop.run(trace);
  const auto positions = sample_positions(trace.size(), 64);
  std::vector<serve::AdviseResponse> sampled;
  for (const std::size_t i : positions) {
    sampled.push_back(responses[i]);
  }

  Result ok;
  check_serve_oracle(ok, registry(), trace, positions, sampled);
  check_serve_stats(ok, loop.stats(), trace.size());
  EXPECT_EQ(ok.failed, 0u);

  sampled[10].answer.predicted_energy_j *= 1.0 + 1e-12;
  Result bad;
  check_serve_oracle(bad, registry(), trace, positions, sampled);
  EXPECT_EQ(bad.failed, 1u);
}

TEST(ServeReplay, ReproducesEveryAnswerAndHitAcrossModelSwaps) {
  const auto trace = small_trace();
  obs::Ledger ledger;
  serve::ServeConfig config;
  config.ledger = &ledger;
  serve::ServeLoop loop(registry(), config);
  SpanLog log;
  ServeReplay replay(registry(), serve::ServeConfig{}, &log);
  const std::span<const serve::TimedRequest> all(trace);
  for (std::size_t s = 0; s < 2; ++s) {
    if (s > 0) {
      swap_models(registry());
    }
    const auto part = all.subspan(s * 1500, 1500);
    ledger.clear();
    auto program = loop.run(part);
    std::vector<std::uint64_t> batch_of(part.size(), 0);
    for (const obs::RequestRecord& record : ledger.requests()) {
      batch_of[record.index] = record.batch;
    }
    const auto replayed = replay.run(part, batch_of);
    Result ok;
    check_serve_replay(ok, program, replayed);
    EXPECT_EQ(ok.failed, 0u) << "segment " << s;

    program[5].cache_hit = !program[5].cache_hit;
    Result bad;
    check_serve_replay(bad, program, replayed);
    EXPECT_EQ(bad.failed, 1u);
  }
  EXPECT_GT(replay.invalidated_entries, 0u);
  EXPECT_EQ(replay.lookups, trace.size());
  EXPECT_GT(log.size(), 2 * trace.size());
}

TEST(SchedReplay, ReproducesEveryOutcomeAndChecksCatchAWrongOne) {
  serve::TrafficConfig traffic;
  traffic.requests = 300;
  traffic.arrival_rate_hz = 4.0;
  traffic.population = 16;
  traffic.deadline_slacks = {1.5, 2.0, 3.0, 4.0};
  traffic.seed = 3;
  const auto jobs = serve::generate_job_trace(traffic);

  celerity::ClusterConfig cluster_config;
  celerity::Cluster cluster(sim::v100(), cluster_config);
  sched::ClusterScheduler scheduler(cluster, registry(), sched_config());
  auto outcomes = scheduler.run(jobs);

  celerity::Cluster replay_cluster(sim::v100(), cluster_config);
  sim::ProfileCache cache;
  SpanLog log;
  const SchedReplay replay = replay_schedule(
      replay_cluster, registry(), sched_config(), jobs, &log, cache);
  ASSERT_EQ(replay.outcomes.size(), outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(replay.outcomes[i], outcomes[i]) << "job " << i;
  }
  EXPECT_EQ(sched_digest(replay.outcomes, replay.stats),
            sched_digest(outcomes, scheduler.stats()));

  Result ok;
  check_sched_outcomes(ok, jobs, outcomes, scheduler.stats(), 4);
  EXPECT_EQ(ok.failed, 0u);
  outcomes[7].true_energy_j += 1.0;
  Result bad;
  check_sched_outcomes(bad, jobs, outcomes, scheduler.stats(), 4);
  EXPECT_GE(bad.failed, 1u);
}

TEST(Result, DigestsMustAgreeAcrossRepetitions) {
  Result result;
  result.digest("x", "00ff");
  result.digest("x", "00ff");
  EXPECT_EQ(result.failed, 0u);
  result.digest("x", "00fe");
  EXPECT_EQ(result.failed, 1u);
}

TEST(Result, RecordedDigestsAreCheckedOnTheDefaultSeedOnly) {
  const std::string path = testing::TempDir() + "perfbench_digests.json";
  {
    std::ofstream out(path);
    out << R"({"w": {"setup.a": "11", "b": "22"}})";
  }
  Options options;
  options.workload = "w";
  options.expected_digests = path;

  Result match;
  match.digests = {{"setup.a", "11"}, {"b", "22"}};
  check_expected_digests(match, options);
  EXPECT_EQ(match.failed, 0u);

  Result wrong;
  wrong.digests = {{"setup.a", "11"}, {"b", "23"}};
  check_expected_digests(wrong, options);
  EXPECT_EQ(wrong.failed, 1u);

  options.seed = kHeldOutSeed; // only the seed-free set-up digest counts
  Result held_out;
  held_out.digests = {{"setup.a", "12"}, {"b", "23"}};
  check_expected_digests(held_out, options);
  EXPECT_EQ(held_out.failed, 1u);
  std::remove(path.c_str());
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildIntervals) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {"a.parent", 0, 10, kNoParent, kNoId};
  spans[1] = {"b.child", 2, 5, 0, kNoId};
  spans[2] = {"b.child", 4, 8, 0, kNoId}; // overlaps the first child
  const auto self = self_time_by_name(spans);
  EXPECT_DOUBLE_EQ(self.at("a.parent"), 4e-9);
  EXPECT_DOUBLE_EQ(self.at("b.child"), 7e-9);
  EXPECT_EQ(durations_ns(spans, "b.child"), (std::vector<double>{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

} // namespace
} // namespace perfbench
