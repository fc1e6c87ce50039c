// Golden serving determinism (grouped suite, heavy tier): the full
// pipeline — trained models, traffic, admission, cache, batched
// inference — produces bit-identical response streams and deterministic
// metrics snapshots for thread pools of 1, 2, and 8 workers.
#include <gtest/gtest.h>

#include "common/metrics.hpp"
#include "serve/loop.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;
using serve::AdviseResponse;
using serve::ModelRegistry;
using serve::ServeConfig;
using serve::ServeLoop;
using serve::TimedRequest;
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

const std::vector<TimedRequest>& shared_trace() {
  static const std::vector<TimedRequest> trace = [] {
    TrafficConfig traffic;
    traffic.requests = 10000;
    traffic.arrival_rate_hz = 5000.0; // fast enough to force batching
    traffic.population = 64;
    return serve::generate_trace(traffic);
  }();
  return trace;
}

ServeConfig config_for(ThreadPool* pool) {
  ServeConfig config;
  config.batch_size = 32;
  config.admission_bound = 256;
  config.cache_capacity = 512;
  config.pool = pool;
  return config;
}

struct ServeRun {
  std::vector<AdviseResponse> responses;
  serve::ServeStats stats;
  std::string metrics_json; ///< deterministic-only snapshot
};

ServeRun run_with_pool(std::size_t threads) {
  ThreadPool pool(threads);
  metrics::Registry::global().clear();
  const bool was_enabled = metrics::enabled();
  set_sink_enabled(Sink::kMetrics, true);
  ServeLoop loop(shared_registry(), config_for(&pool));
  ServeRun run;
  run.responses = loop.run(shared_trace());
  run.stats = loop.stats();
  run.metrics_json =
      metrics::Registry::global().snapshot().to_json(true).dump(2);
  set_sink_enabled(Sink::kMetrics, was_enabled);
  metrics::Registry::global().clear();
  return run;
}

TEST(ServeDeterminism, ResponsesIdenticalForPools1_2_8) {
  const ServeRun serial = run_with_pool(1);
  const ServeRun two = run_with_pool(2);
  const ServeRun eight = run_with_pool(8);
  ASSERT_EQ(serial.responses.size(), 10000u);
  // Full AdviseResponse equality: answers, hit/shed flags, provenance,
  // and every simulated timestamp, bit for bit.
  EXPECT_EQ(serial.responses, two.responses);
  EXPECT_EQ(serial.responses, eight.responses);
}

TEST(ServeDeterminism, StatsAndMetricsSnapshotsIdenticalForPools1_2_8) {
  const ServeRun serial = run_with_pool(1);
  const ServeRun two = run_with_pool(2);
  const ServeRun eight = run_with_pool(8);

  for (const ServeRun* other : {&two, &eight}) {
    EXPECT_EQ(serial.stats.served, other->stats.served);
    EXPECT_EQ(serial.stats.shed, other->stats.shed);
    EXPECT_EQ(serial.stats.cache_hits, other->stats.cache_hits);
    EXPECT_EQ(serial.stats.cache_misses, other->stats.cache_misses);
    EXPECT_EQ(serial.stats.batches, other->stats.batches);
    EXPECT_EQ(serial.stats.p50_latency_s, other->stats.p50_latency_s);
    EXPECT_EQ(serial.stats.p99_latency_s, other->stats.p99_latency_s);
    EXPECT_EQ(serial.stats.max_latency_s, other->stats.max_latency_s);
    EXPECT_EQ(serial.stats.sim_duration_s, other->stats.sim_duration_s);
  }
  // The deterministic metrics view is a single comparable string.
  EXPECT_EQ(serial.metrics_json, two.metrics_json);
  EXPECT_EQ(serial.metrics_json, eight.metrics_json);
  EXPECT_NE(serial.metrics_json.find("serve.latency_s"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("serve.cache.hits"),
            std::string::npos);
}

TEST(ServeDeterminism, TraceExercisesTheWholeSurface) {
  // The shared trace must actually cover hits, misses, batching, and both
  // applications — otherwise the identity checks above are vacuous.
  const ServeRun run = run_with_pool(4);
  EXPECT_GT(run.stats.cache_hits, 0u);
  EXPECT_GT(run.stats.cache_misses, 0u);
  EXPECT_LT(run.stats.batches, run.stats.served); // real batching happened
  bool saw_ligen = false;
  bool saw_cronos = false;
  for (const AdviseResponse& response : run.responses) {
    if (response.shed) {
      continue;
    }
    saw_ligen |= response.model.find("ligen/") == 0;
    saw_cronos |= response.model.find("cronos/") == 0;
    EXPECT_GT(response.answer.freq_mhz, 0.0);
  }
  EXPECT_TRUE(saw_ligen);
  EXPECT_TRUE(saw_cronos);
}

TEST(ServeDeterminism, BatchSizeChangesScheduleButNeverAnswers) {
  // Advice is a pure function of the request and the model; batch size
  // (and therefore cache hit patterns and latencies) must not leak into
  // the advised frequencies.
  ThreadPool pool(4);
  ServeConfig one = config_for(&pool);
  one.batch_size = 1;
  ServeConfig wide = config_for(&pool);
  wide.batch_size = 64;
  ServeLoop loop_one(shared_registry(), one);
  ServeLoop loop_wide(shared_registry(), wide);
  const auto responses_one = loop_one.run(shared_trace());
  const auto responses_wide = loop_wide.run(shared_trace());
  for (std::size_t i = 0; i < responses_one.size(); ++i) {
    if (!responses_one[i].shed && !responses_wide[i].shed) {
      EXPECT_EQ(responses_one[i].answer, responses_wide[i].answer) << i;
    }
  }
}

} // namespace
