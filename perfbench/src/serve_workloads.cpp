#include "serve_workloads.hpp"

#include <algorithm>
#include <chrono>

#include "checks.hpp"
#include "layers.hpp"
#include "obs/ledger.hpp"
#include "serve/traffic.hpp"

namespace perfbench {

using namespace dsem;

namespace {

/// advise_batch runs fewer requests than this serially (the constant is
/// private to serve/advisor.cpp; the replay must fan out where it does).
constexpr std::size_t kParallelMinRequests = 4;
/// Answers checked against a cache-free Advisor::advise per run.
constexpr std::size_t kOracleSamples = 512;

struct ServeShape {
  std::size_t requests;
  std::size_t population;
  /// Equal run() calls the trace is split into, on one loop.
  std::size_t segments;
  /// Every artifact is re-registered before run() call `swap_before`
  /// (0: never).
  std::size_t swap_before;
};

constexpr ServeShape kMixed{100000, 512, 1, 0};
// Ten run() calls of 10^5 requests, as a server hands the loop its
// traffic in chunks; a response vector of that size is reused from the
// heap instead of being mapped fresh on every call. One swap, halfway:
// each fill is 64 keys per application at ~1.6 ms of forest inference,
// so the refill stays near a tenth of the wall time and the hit path
// dominates.
constexpr ServeShape kHotSwap{1000000, 16, 10, 5};

std::vector<serve::TimedRequest> make_trace(const ServeShape& shape,
                                            std::uint64_t seed) {
  serve::TrafficConfig traffic;
  traffic.requests = shape.requests;
  traffic.arrival_rate_hz = 2000.0;
  traffic.ligen_fraction = 0.5;
  traffic.population = shape.population;
  traffic.seed = seed;
  return serve::generate_trace(traffic);
}

std::span<const serve::TimedRequest>
segment(std::span<const serve::TimedRequest> trace, std::size_t s,
        std::size_t segments) {
  const std::size_t begin = s * trace.size() / segments;
  const std::size_t end = (s + 1) * trace.size() / segments;
  return trace.subspan(begin, end - begin);
}

/// Deterministic outputs of one repetition, compared across repetitions
/// by digest.
struct RepOutputs {
  Digest responses;
  double predicted_energy_j = 0.0;
  double norm_energy_sum = 0.0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t hits = 0;
  std::uint64_t invalidations = 0;
  double p99_latency_s = 0.0; ///< worst segment
  /// Oracle sample: trace positions and the responses given there.
  std::vector<std::size_t> sample;
  std::vector<serve::AdviseResponse> sampled;
};

/// One timed repetition: a fresh loop over every segment, swapping the
/// models where the shape says. Returns the summed wall time of run().
double serve_rep(serve::ModelRegistry& registry,
                 std::span<const serve::TimedRequest> trace,
                 const ServeShape& shape, Result& result, RepOutputs& out) {
  serve::ServeLoop loop(registry, serve::ServeConfig{});
  double wall_s = 0.0;
  std::size_t next_sample = 0;
  std::size_t offset = 0;
  for (std::size_t s = 0; s < shape.segments; ++s) {
    if (s > 0 && s == shape.swap_before) {
      swap_models(registry);
    }
    const auto part = segment(trace, s, shape.segments);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<serve::AdviseResponse> responses = loop.run(part);
    wall_s += seconds_since(start);

    const serve::ServeStats& stats = loop.stats();
    check_serve_stats(result, stats, part.size());
    add_responses(out.responses, responses);
    out.predicted_energy_j += stats.predicted_energy_j;
    out.served += stats.served;
    out.shed += stats.shed;
    out.hits += stats.cache_hits;
    out.invalidations += stats.cache_invalidations;
    out.p99_latency_s = std::max(out.p99_latency_s, stats.p99_latency_s);
    for (const serve::AdviseResponse& r : responses) {
      out.norm_energy_sum += r.shed ? 0.0 : r.answer.predicted_norm_energy;
    }
    while (next_sample < out.sample.size() &&
           out.sample[next_sample] < offset + part.size()) {
      out.sampled.push_back(responses[out.sample[next_sample] - offset]);
      ++next_sample;
    }
    offset += part.size();
  }
  return wall_s;
}

void record_outputs(Result& result, const RepOutputs& out) {
  const auto served = static_cast<double>(out.served);
  result.output("energy_j", out.predicted_energy_j, "J", out.served);
  result.output("cache_hit_ratio", static_cast<double>(out.hits) / served,
                "ratio", out.served);
  result.output("shed", static_cast<double>(out.shed), "count", 1);
  result.output("cache_invalidations",
                static_cast<double>(out.invalidations), "count", 1);
  result.output("sim_p99_latency_s", out.p99_latency_s, "s", out.served);
}

Result run_serve_untraced(const Options& options, const ServeShape& shape) {
  Result result;
  const auto registry = timed_registry_setup(result, kSetupReps);
  const std::vector<serve::TimedRequest> trace =
      make_trace(shape, options.seed);

  std::vector<double> ops_per_s;
  std::vector<double> wall_s;
  RepOutputs first;
  first.sample = sample_positions(trace.size(), kOracleSamples);
  bool have_first = false;
  repeat_for(options.seconds, 2, [&](bool timed) {
    RepOutputs rep;
    if (!have_first) {
      rep.sample = first.sample;
    }
    const double wall = serve_rep(*registry, trace, shape, result, rep);
    if (timed) {
      wall_s.push_back(wall);
      ops_per_s.push_back(static_cast<double>(rep.served) / wall);
    }
    result.attempted += trace.size();
    result.digest("serve.responses", rep.responses.hex());
    if (!have_first) {
      first = std::move(rep);
      have_first = true;
    }
  });

  if (options.inject_wrong_answer && !first.sampled.empty()) {
    first.sampled.front().answer.freq_mhz += 1.0;
  }
  check_serve_oracle(result, *registry, trace, first.sample, first.sampled);
  record_outputs(result, first);

  result.metric("ops_per_s", median(ops_per_s), "1/s", ops_per_s.size());
  result.metric("time_to_solution_s", median(wall_s), "s", wall_s.size());
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  result.metric("norm_energy",
                first.norm_energy_sum / static_cast<double>(first.served),
                "ratio", first.served);
  return result;
}

/// One run of the trace through a loop with an explicit ledger sink,
/// each segment followed by its traced replay (driven by the ledger's
/// batch ordinals) and checked answer by answer against the program.
struct ReplayPass {
  double ledger_wall_s = 0.0;
  double replay_wall_s = 0.0;
  Digest program;
  std::unique_ptr<ServeReplay> replay;
};

ReplayPass ledger_and_replay(serve::ModelRegistry& registry,
                             std::span<const serve::TimedRequest> trace,
                             const ServeShape& shape, const Options& options,
                             Result& result, SpanLog& log) {
  ReplayPass pass;
  obs::Ledger ledger;
  serve::ServeConfig ledger_config;
  ledger_config.ledger = &ledger;
  serve::ServeLoop loop(registry, ledger_config);
  pass.replay =
      std::make_unique<ServeReplay>(registry, serve::ServeConfig{}, &log);
  for (std::size_t s = 0; s < shape.segments; ++s) {
    if (s > 0 && s == shape.swap_before) {
      swap_models(registry);
    }
    const auto part = segment(trace, s, shape.segments);
    ledger.clear();
    auto start = std::chrono::steady_clock::now();
    std::vector<serve::AdviseResponse> program = loop.run(part);
    pass.ledger_wall_s += seconds_since(start);
    add_responses(pass.program, program);

    std::vector<std::uint64_t> batch_of(part.size(), 0);
    for (const obs::RequestRecord& record : ledger.requests()) {
      batch_of.at(record.index) = record.batch;
    }
    start = std::chrono::steady_clock::now();
    const std::vector<serve::AdviseResponse> replayed =
        pass.replay->run(part, batch_of,
                         static_cast<std::uint64_t>(part.data() - trace.data()));
    pass.replay_wall_s += seconds_since(start);
    if (options.inject_wrong_answer && s == 0 && !program.empty()) {
      program.front().answer.freq_mhz += 1.0;
    }
    check_serve_replay(result, program, replayed);
    result.attempted += part.size();
  }
  return pass;
}

/// Traced run: after one warm-up repetition, rounds of the untraced
/// repetition (CPU use), the ledger run (ledger cost) and the traced
/// replay; the overheads are medians over the rounds and the spans are
/// the last round's.
Result run_serve_traced(const Options& options, const ServeShape& shape,
                        SpanLog& log) {
  Result result;
  sim::ProfileCache training_cache;
  const auto registry = traced_registry_setup(result, log, training_cache);

  const std::vector<serve::TimedRequest> trace =
      make_trace(shape, options.seed);
  RepOutputs warm_up;
  serve_rep(*registry, trace, shape, result, warm_up);
  result.digest("serve.responses", warm_up.responses.hex());

  RoundTimings timings;
  std::unique_ptr<ServeReplay> replay;
  for (std::size_t round = 0; round < kTraceRounds; ++round) {
    RepOutputs plain;
    const double cpu_start = process_cpu_s();
    timings.plain_s.push_back(
        serve_rep(*registry, trace, shape, result, plain));
    timings.cpu_s.push_back(process_cpu_s() - cpu_start);
    result.digest("serve.responses", plain.responses.hex());

    SpanLog discard;
    const bool last = round + 1 == kTraceRounds;
    ReplayPass pass = ledger_and_replay(*registry, trace, shape, options,
                                        result, last ? log : discard);
    timings.ledger_s.push_back(pass.ledger_wall_s);
    timings.traced_s.push_back(pass.replay_wall_s);
    result.digest("serve.responses", pass.program.hex());
    replay = std::move(pass.replay);
  }

  const std::vector<SpanRecord> spans = log.spans();
  LayerReport layers;
  layers.percentiles("serve.key_ns", spans, "serve.key", 1.0);
  layers.percentiles("serve.cache_get_ns", spans, "serve.cache_get", 1.0);
  layers.percentiles("serve.cache_put_ns", spans, "serve.cache_put", 1.0);
  layers.percentiles("serve.resolve_ns", spans, "serve.resolve", 1.0);
  layers.percentiles("serve.advise_miss_us", spans, "serve.advise", 1e-3);
  layers.percentiles("serve.pick_us", spans, "serve.pick", 1e-3);
  layers.percentiles("core.ds_predict_us", spans, "core.ds_predict", 1e-3);
  const std::vector<double> invalidate = durations_ns(spans, "serve.invalidate");
  layers.set("serve.invalidate_us.p50", quantile(invalidate, 0.5) * 1e-3,
             invalidate.size());
  layers.set("serve.invalidated_entries",
             static_cast<double>(replay->invalidated_entries),
             invalidate.size());
  layers.set("serve.cache_hit_ratio",
             static_cast<double>(replay->hits) /
                 static_cast<double>(replay->lookups),
             replay->lookups);
  layers.set("serve.misses_per_batch",
             static_cast<double>(replay->lookups - replay->hits) /
                 static_cast<double>(replay->batches),
             replay->batches);
  layers.set("serve.fanout_batch_share",
             static_cast<double>(replay->fanout_batches) /
                 static_cast<double>(replay->batches),
             replay->batches);
  layers.training(spans);
  layers.profile_cache(training_cache.hits(), training_cache.misses());
  layers.rounds(timings);
  layers.self_times(spans);
  layers.emit(result);
  return result;
}

Result run_serve(const Options& options, const ServeShape& shape,
                 SpanLog& log) {
  return options.trace ? run_serve_traced(options, shape, log)
                       : run_serve_untraced(options, shape);
}

} // namespace

void swap_models(serve::ModelRegistry& registry) {
  for (const serve::ModelKey& key : registry.keys()) {
    registry.put(serve::ModelArtifact(*registry.require(key)));
  }
}

ServeReplay::ServeReplay(const serve::ModelRegistry& registry,
                         const serve::ServeConfig& config, SpanLog* log)
    : registry_(registry), config_(config), log_(log),
      pool_(config.pool != nullptr ? *config.pool : ThreadPool::global()),
      cache_(config.cache_capacity) {}

serve::AdviseAnswer
ServeReplay::advise(const serve::ModelArtifact& artifact,
                    const serve::AdviseRequest& request, std::uint32_t parent,
                    std::uint64_t id) {
  const Span span(log_, "serve.advise", parent, id);
  core::Prediction pred;
  {
    const Span s(log_, "core.ds_predict", span.handle(), id);
    pred = artifact.ds->predict(request.features, artifact.freqs_mhz,
                                artifact.default_freq_mhz);
  }
  bool infeasible = false;
  std::size_t pick = 0;
  {
    const Span s(log_, "serve.pick", span.handle(), id);
    pick = serve::pick_within_slowdown(pred, request.max_slowdown, &infeasible);
  }
  serve::AdviseAnswer answer;
  answer.freq_mhz = pred.freqs_mhz[pick];
  answer.predicted_time_s = pred.time_s[pick];
  answer.predicted_energy_j = pred.energy_j[pick];
  answer.predicted_speedup = pred.speedup[pick];
  answer.predicted_norm_energy = pred.norm_energy[pick];
  answer.budget_infeasible = infeasible;
  return answer;
}

std::vector<serve::AdviseResponse>
ServeReplay::run(std::span<const serve::TimedRequest> trace,
                 std::span<const std::uint64_t> batch_of,
                 std::uint64_t first_id) {
  std::vector<serve::AdviseResponse> responses(trace.size());
  std::vector<std::vector<std::size_t>> by_batch;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (batch_of[i] == 0) {
      responses[i].shed = true;
      continue;
    }
    if (by_batch.size() < batch_of[i]) {
      by_batch.resize(batch_of[i]);
    }
    by_batch[batch_of[i] - 1].push_back(i);
  }

  for (std::size_t n = 0; n < by_batch.size(); ++n) {
    const std::vector<std::size_t>& batch = by_batch[n];
    ++batches;
    const Span batch_span(log_, "serve.batch", kNoParent, batches);
    const std::uint32_t parent = batch_span.handle();

    std::map<std::string, std::shared_ptr<const serve::ModelArtifact>>
        artifacts;
    for (const std::size_t i : batch) {
      const std::string& app = trace[i].request.application;
      if (artifacts.contains(app)) {
        continue;
      }
      std::shared_ptr<const serve::ModelArtifact> artifact;
      {
        const Span s(log_, "serve.resolve", parent, first_id + i);
        artifact = registry_.require(serve::ModelKey{app, config_.device});
      }
      auto& last = last_[app];
      if (last != nullptr && last != artifact) {
        const Span s(log_, "serve.invalidate", parent, first_id + i);
        invalidated_entries +=
            cache_.erase_prefix(artifact->key.to_string() + "|");
      }
      last = artifact;
      artifacts[app] = artifact;
    }

    std::vector<std::string> keys(batch.size());
    std::vector<bool> hit(batch.size(), false);
    std::map<std::string, std::vector<std::size_t>> misses_by_app;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::size_t i = batch[b];
      const serve::AdviseRequest& request = trace[i].request;
      {
        const Span s(log_, "serve.key", parent, first_id + i);
        keys[b] = serve::cache_key({request.application, config_.device},
                                   request, config_.cache_quant_step);
      }
      {
        const Span s(log_, "serve.cache_get", parent, first_id + i);
        hit[b] = cache_.get(keys[b], responses[i].answer);
      }
      ++lookups;
      if (hit[b]) {
        ++hits;
      } else {
        misses_by_app[request.application].push_back(b);
      }
    }

    bool fanned_out = false;
    for (const auto& [app, positions] : misses_by_app) {
      const serve::ModelArtifact& artifact = *artifacts.at(app);
      const auto answer = [&](std::size_t k) {
        const std::size_t i = batch[positions[k]];
        responses[i].answer =
            advise(artifact, trace[i].request, parent, first_id + i);
      };
      if (positions.size() < kParallelMinRequests) {
        for (std::size_t k = 0; k < positions.size(); ++k) {
          answer(k);
        }
      } else {
        fanned_out = true;
        parallel_for(pool_, 0, positions.size(), answer);
      }
    }
    fanout_batches += fanned_out ? 1 : 0;

    for (std::size_t b = 0; b < batch.size(); ++b) {
      const std::size_t i = batch[b];
      const serve::ModelArtifact& artifact =
          *artifacts.at(trace[i].request.application);
      responses[i].cache_hit = hit[b];
      responses[i].model = artifact.key.to_string() + "@" + artifact.origin;
      if (!hit[b]) {
        const Span s(log_, "serve.cache_put", parent, first_id + i);
        cache_.put(keys[b], responses[i].answer);
      }
    }
  }
  return responses;
}

Result run_serve_mixed(const Options& options, SpanLog& log) {
  return run_serve(options, kMixed, log);
}

Result run_serve_hot_swap(const Options& options, SpanLog& log) {
  return run_serve(options, kHotSwap, log);
}

} // namespace perfbench
