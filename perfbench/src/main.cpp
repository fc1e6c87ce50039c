// dsem_perfbench: runs one benchmark workload and prints its result.
//
//   dsem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--expected-digests <file>] [--spans-dir <dir>]
//                  [--inject-wrong-answer]
//
// Workloads: serve_mixed, serve_hot_swap, sched_stream, paper_pipeline.
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it replays the workload through the layers' public calls inside spans
// and reports the per-layer metrics. Every run checks its outputs. The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by one human-readable line per metric and program output.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "pipeline.hpp"
#include "sched_stream.hpp"
#include "serve_workloads.hpp"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv) {
  Options options;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string("missing value for ") +
                                  argv[i]);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      options.workload = value(i);
    } else if (arg == "--seed") {
      options.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      const std::string trace = value(i);
      if (trace != "0" && trace != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = trace == "1";
    } else if (arg == "--expected-digests") {
      options.expected_digests = value(i);
    } else if (arg == "--spans-dir") {
      options.spans_dir = value(i);
    } else if (arg == "--inject-wrong-answer") {
      options.inject_wrong_answer = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (options.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be > 0");
  }
  return options;
}

Result run(const Options& options, SpanLog& log) {
  if (options.workload == "serve_mixed") {
    return run_serve_mixed(options, log);
  }
  if (options.workload == "serve_hot_swap") {
    return run_serve_hot_swap(options, log);
  }
  if (options.workload == "sched_stream") {
    return run_sched_stream(options, log);
  }
  if (options.workload == "paper_pipeline") {
    return run_paper_pipeline(options, log);
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

void print(const Options& options, const Result& result) {
  const auto line = [&](const char* kind, const Metric& m) {
    std::printf("%s %s %s %.6g %s samples=%llu\n", kind,
                options.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  };
  for (const Metric& m : result.metrics) {
    line("metric", m);
  }
  for (const Metric& m : result.outputs) {
    line("output", m);
  }
  const double fail_rate = static_cast<double>(result.failed) /
                           static_cast<double>(result.attempted);
  line("output", Metric{"fail_rate", fail_rate, "ratio", result.attempted});
  for (const auto& [name, digest] : result.digests) {
    std::printf("digest %s %s %s\n", options.workload.c_str(), name.c_str(),
                digest.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    SpanLog log;
    Result result = run(options, log);
    if (options.trace && !options.spans_dir.empty()) {
      // One file per workload, overwritten by each traced run: a traced
      // serve_hot_swap run alone writes about 250 MB of spans.
      log.write_tsv(options.spans_dir + "/" + options.workload + ".tsv");
    }
    check_expected_digests(result, options);
    if (result.attempted == 0) {
      throw std::logic_error("the run attempted no operations");
    }
    print(options, result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsem_perfbench: %s\n", e.what());
    return 1;
  }
}
