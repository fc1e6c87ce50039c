// dsem::benchreport contract tests: BENCH_*.json construction, Google
// Benchmark JSON merging, and the regression-comparison logic behind
// bench/perf_compare (whose exit code gates CI).
#include "common/bench_report.hpp"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dsem::benchreport {
namespace {

std::string data_path(const std::string& name) {
  return std::string(DSEM_TEST_DATA_DIR) + "/" + name;
}

TEST(BenchReport, MakeReportProducesValidSkeleton) {
  json::Value report = make_report("2026-08-05", "smoke");
  validate(report);
  EXPECT_EQ(report.at("schema").as_string(), kBenchSchema);
  EXPECT_EQ(report.at("date").as_string(), "2026-08-05");
  EXPECT_EQ(report.at("mode").as_string(), "smoke");
  EXPECT_TRUE(report.at("benchmarks").as_array().empty());
  EXPECT_TRUE(report.at("pipeline").is_null());
}

TEST(BenchReport, ValidateRejectsMalformedDocuments) {
  // Wrong schema tag.
  json::Value wrong = make_report("2026-08-05", "smoke");
  wrong.set("schema", "dsem-bench-v0");
  EXPECT_THROW(validate(wrong), contract_error);

  // Benchmark entry missing a required field.
  json::Value bad_entry = make_report("2026-08-05", "smoke");
  auto entry = json::Value::object();
  entry.set("name", "x");
  bad_entry.at("benchmarks").push_back(std::move(entry));
  EXPECT_THROW(validate(bad_entry), contract_error);

  // Not an object at all.
  EXPECT_THROW(validate(json::Value::array()), contract_error);
}

TEST(BenchReport, AddEntryRejectsDuplicateNames) {
  json::Value report = make_report("2026-08-05", "smoke");
  add_entry(report, "perf_sim/BM_X", 100.0, 90.0, 1000.0);
  EXPECT_THROW(add_entry(report, "perf_sim/BM_X", 1.0, 1.0, 1.0),
               contract_error);
  validate(report);
}

TEST(BenchReport, MergeGoogleBenchmarkSkipsAggregatesAndNormalizesUnits) {
  json::Value report = make_report("2026-08-05", "smoke");
  const json::Value gbench = json::Value::parse(R"({
    "context": {"host_name": "ci"},
    "benchmarks": [
      {"name": "BM_Fast", "run_type": "iteration", "real_time": 250.0,
       "cpu_time": 240.0, "time_unit": "ns", "iterations": 1000},
      {"name": "BM_Slow", "run_type": "iteration", "real_time": 1.5,
       "cpu_time": 1.25, "time_unit": "ms", "iterations": 10},
      {"name": "BM_Slow_mean", "run_type": "aggregate", "real_time": 1.5,
       "cpu_time": 1.25, "time_unit": "ms", "iterations": 10}
    ]
  })");
  EXPECT_EQ(merge_google_benchmark(report, "perf_sim", gbench), 2u);
  validate(report);

  const auto& entries = report.at("benchmarks").as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].at("name").as_string(), "perf_sim/BM_Fast");
  EXPECT_EQ(entries[0].at("real_time_ns").as_number(), 250.0);
  // ms entries are normalized to nanoseconds.
  EXPECT_EQ(entries[1].at("name").as_string(), "perf_sim/BM_Slow");
  EXPECT_EQ(entries[1].at("real_time_ns").as_number(), 1.5e6);
  EXPECT_EQ(entries[1].at("cpu_time_ns").as_number(), 1.25e6);
}

TEST(BenchReport, MergeLiftsNanosecondUserCounters) {
  json::Value report = make_report("2026-08-05", "smoke");
  const json::Value gbench = json::Value::parse(R"({
    "benchmarks": [
      {"name": "BM_Serve", "run_type": "iteration", "real_time": 2.0,
       "cpu_time": 2.0, "time_unit": "ms", "iterations": 5,
       "p50_latency_ns": 1234.0, "p99_latency_ns": 56789.0,
       "throughput_rps": 4000.0, "hit_rate": 0.8}
    ]
  })");
  // One iteration row plus the two _ns counters; throughput_rps and
  // hit_rate are not latencies and must stay out of the report.
  EXPECT_EQ(merge_google_benchmark(report, "perf_advisor", gbench), 3u);
  validate(report);

  const auto& entries = report.at("benchmarks").as_array();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].at("name").as_string(), "perf_advisor/BM_Serve");
  EXPECT_EQ(entries[1].at("name").as_string(),
            "perf_advisor/BM_Serve:p50_latency_ns");
  EXPECT_EQ(entries[1].at("real_time_ns").as_number(), 1234.0);
  EXPECT_EQ(entries[1].at("cpu_time_ns").as_number(), 1234.0);
  EXPECT_EQ(entries[2].at("name").as_string(),
            "perf_advisor/BM_Serve:p99_latency_ns");
  EXPECT_EQ(entries[2].at("real_time_ns").as_number(), 56789.0);
}

TEST(BenchReport, MergeRejectsUnknownTimeUnit) {
  json::Value report = make_report("2026-08-05", "smoke");
  const json::Value gbench = json::Value::parse(R"({
    "benchmarks": [
      {"name": "BM_X", "run_type": "iteration", "real_time": 1.0,
       "cpu_time": 1.0, "time_unit": "fortnights", "iterations": 1}
    ]
  })");
  EXPECT_THROW(merge_google_benchmark(report, "perf_sim", gbench),
               contract_error);
}

TEST(BenchReport, SetPipelineRecordsObjectAndBenchmarkEntry) {
  json::Value report = make_report("2026-08-05", "smoke");
  auto manifest = json::Value::object();
  manifest.set("schema", "dsem-run-v1");
  set_pipeline(report, "fig01", 2.5, std::move(manifest));
  validate(report);

  EXPECT_EQ(report.at("pipeline").at("name").as_string(), "fig01");
  EXPECT_EQ(report.at("pipeline").at("wall_s").as_number(), 2.5);
  EXPECT_EQ(report.at("pipeline").at("run_manifest").at("schema").as_string(),
            "dsem-run-v1");
  // ...and the same run is visible to the compare tool as a benchmark.
  const auto& entries = report.at("benchmarks").as_array();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].at("name").as_string(), "pipeline/fig01");
  EXPECT_EQ(entries[0].at("real_time_ns").as_number(), 2.5e9);
}

// --- compare ---------------------------------------------------------------

json::Value report_with(
    const std::vector<std::pair<std::string, double>>& entries) {
  json::Value report = make_report("2026-08-05", "smoke");
  for (const auto& [name, ns] : entries) {
    add_entry(report, name, ns, ns, 100.0);
  }
  return report;
}

TEST(BenchCompare, FlagsRegressionsBeyondTolerance) {
  const json::Value baseline = report_with(
      {{"a/stable", 1000.0}, {"a/regressed", 1000.0}, {"a/improved", 1000.0}});
  const json::Value current = report_with(
      {{"a/stable", 1100.0}, {"a/regressed", 1500.0}, {"a/improved", 600.0}});

  const CompareResult result = compare(baseline, current); // tolerance 0.25
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].name, "a/regressed");
  EXPECT_EQ(result.regressions[0].ratio, 1.5);
  ASSERT_EQ(result.improvements.size(), 1u);
  EXPECT_EQ(result.improvements[0].name, "a/improved");
  EXPECT_TRUE(result.missing.empty());
  EXPECT_TRUE(result.added.empty());
}

TEST(BenchCompare, IgnoresEntriesFasterThanMinTime) {
  // 10 ns baseline is below the 100 ns floor: a 40x blowup on a too-fast
  // benchmark is noise, not a regression.
  const json::Value baseline = report_with({{"a/tiny", 10.0}});
  const json::Value current = report_with({{"a/tiny", 400.0}});
  EXPECT_TRUE(compare(baseline, current).ok());

  CompareOptions strict;
  strict.min_time_ns = 1.0;
  EXPECT_FALSE(compare(baseline, current, strict).ok());
}

TEST(BenchCompare, TracksMissingAndAddedEntries) {
  const json::Value baseline = report_with({{"a/kept", 1000.0},
                                            {"a/removed", 1000.0}});
  const json::Value current = report_with({{"a/kept", 1000.0},
                                           {"a/new", 1000.0}});
  const CompareResult result = compare(baseline, current);
  EXPECT_TRUE(result.ok()); // renames warn, they do not gate
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_EQ(result.missing[0], "a/removed");
  ASSERT_EQ(result.added.size(), 1u);
  EXPECT_EQ(result.added[0], "a/new");
}

TEST(BenchCompare, PrintSummarizesVerdict) {
  const json::Value baseline = report_with({{"a/regressed", 1000.0}});
  const json::Value current = report_with({{"a/regressed", 2000.0}});
  const CompareResult result = compare(baseline, current);
  std::ostringstream os;
  print_compare(os, result);
  const std::string text = os.str();
  EXPECT_NE(text.find("a/regressed"), std::string::npos) << text;
  EXPECT_NE(text.find("REGRESSED"), std::string::npos) << text;
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;

  std::ostringstream ok_os;
  print_compare(ok_os, compare(baseline, baseline));
  EXPECT_NE(ok_os.str().find("PASS"), std::string::npos) << ok_os.str();
}

TEST(BenchCompare, MatchPrefixSelectsStrictZone) {
  const std::vector<Delta> deltas = {
      {"perf_ml/BM_ForestFit/20000", 100.0, 200.0, 2.0},
      {"perf_sim/BM_DeviceLaunch", 100.0, 200.0, 2.0},
      {"perf_ml/BM_SvrFit/800", 100.0, 200.0, 2.0},
  };
  const std::vector<Delta> strict = match_prefix(deltas, "perf_ml/");
  ASSERT_EQ(strict.size(), 2u);
  EXPECT_EQ(strict[0].name, "perf_ml/BM_ForestFit/20000");
  EXPECT_EQ(strict[1].name, "perf_ml/BM_SvrFit/800");

  EXPECT_TRUE(match_prefix(deltas, "perf_cronos/").empty());
  // A prefix must be a *prefix*, not a substring.
  EXPECT_TRUE(match_prefix(deltas, "BM_ForestFit").empty());
  // An empty prefix matches nothing: otherwise a misconfigured gate would
  // silently strict-fail every benchmark.
  EXPECT_TRUE(match_prefix(deltas, "").empty());
}

// --- file fixtures (the same ones the ctest exit-code tests use) -----------

TEST(BenchReportFiles, CommittedFixturesValidateAndCompare) {
  const json::Value baseline =
      json::read_file(data_path("bench_baseline_sample.json"));
  const json::Value regressed =
      json::read_file(data_path("bench_regressed_sample.json"));
  validate(baseline);
  validate(regressed);

  // Self-comparison is clean.
  EXPECT_TRUE(compare(baseline, baseline).ok());

  // The regressed fixture trips exactly the entry built to regress, and
  // the too-fast entry stays ignored despite its 40x blowup.
  const CompareResult result = compare(baseline, regressed);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].name, "perf_sim/BM_DeviceLaunch");
}

TEST(BenchReportFiles, MlRegressionFixtureHitsTheStrictZone) {
  const json::Value baseline =
      json::read_file(data_path("bench_baseline_sample.json"));
  const json::Value regressed =
      json::read_file(data_path("bench_regressed_ml_sample.json"));
  validate(regressed);

  const CompareResult result = compare(baseline, regressed);
  ASSERT_EQ(result.regressions.size(), 1u);
  EXPECT_EQ(result.regressions[0].name, "perf_ml/BM_ForestFit");
  EXPECT_EQ(match_prefix(result.regressions, "perf_ml/").size(), 1u);

  // The sim-only regression fixture must NOT trip the strict zone — that
  // pair is the "warns elsewhere" ctest fixture.
  const CompareResult sim_only =
      compare(baseline,
              json::read_file(data_path("bench_regressed_sample.json")));
  EXPECT_FALSE(sim_only.ok());
  EXPECT_TRUE(match_prefix(sim_only.regressions, "perf_ml/").empty());
}

TEST(BenchReportFiles, LoadFileThrowsOnMissingPath) {
  EXPECT_THROW(json::read_file(data_path("does_not_exist.json")),
               contract_error);
}

} // namespace
} // namespace dsem::benchreport
