#include "checks.hpp"

#include <algorithm>
#include <string>

#include "common/thread_pool.hpp"

namespace perfbench {

using namespace dsem;

std::vector<std::size_t> sample_positions(std::size_t n, std::size_t count) {
  std::vector<std::size_t> out;
  if (n == 0 || count == 0) {
    return out;
  }
  const std::size_t take = std::min(n, count);
  for (std::size_t k = 0; k < take; ++k) {
    // Spread over the whole trace, first and last position included.
    out.push_back(take == 1 ? 0 : k * (n - 1) / (take - 1));
  }
  return out;
}

void check_serve_oracle(Result& result, const serve::ModelRegistry& registry,
                        std::span<const serve::TimedRequest> trace,
                        std::span<const std::size_t> positions,
                        std::span<const serve::AdviseResponse> responses) {
  std::vector<serve::AdviseAnswer> oracle(positions.size());
  std::vector<std::string> model(positions.size());
  const serve::Advisor advisor;
  parallel_for(0, positions.size(), [&](std::size_t k) {
    const serve::AdviseRequest& request = trace[positions[k]].request;
    const auto artifact =
        registry.require(serve::ModelKey{request.application, kDevice});
    oracle[k] = advisor.advise(*artifact, request);
    model[k] = artifact->key.to_string() + "@" + artifact->origin;
  });
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const serve::AdviseResponse& response = responses[k];
    if (response.shed) {
      continue;
    }
    result.expect(response.answer == oracle[k] && response.model == model[k],
                  "serve answer at trace position " +
                      std::to_string(positions[k]) +
                      " differs from a cache-free Advisor::advise call");
  }
}

void check_serve_stats(Result& result, const serve::ServeStats& stats,
                       std::size_t requests) {
  result.expect(stats.requests == requests &&
                    stats.served + stats.shed == stats.requests &&
                    stats.cache_hits + stats.cache_misses == stats.served,
                "serve reconciliation: served + shed == requests and "
                "hits + misses == served");
}

void check_serve_replay(Result& result,
                        std::span<const serve::AdviseResponse> program,
                        std::span<const serve::AdviseResponse> replay) {
  result.expect(program.size() == replay.size(),
                "serve replay answered a different number of requests");
  const std::size_t n = std::min(program.size(), replay.size());
  for (std::size_t i = 0; i < n; ++i) {
    const serve::AdviseResponse& a = program[i];
    const serve::AdviseResponse& b = replay[i];
    result.expect(a.shed == b.shed && a.cache_hit == b.cache_hit &&
                      a.answer == b.answer && a.model == b.model,
                  "serve replay differs from ServeLoop::run at position " +
                      std::to_string(i));
  }
}

void add_responses(Digest& digest,
                   std::span<const serve::AdviseResponse> responses) {
  for (const serve::AdviseResponse& r : responses) {
    digest.add(r.shed).add(r.cache_hit);
    digest.add(r.answer.freq_mhz).add(r.answer.predicted_time_s);
    digest.add(r.answer.predicted_energy_j).add(r.answer.predicted_speedup);
    digest.add(r.answer.predicted_norm_energy);
    digest.add(r.answer.budget_infeasible);
    digest.add(r.model).add(r.arrival_s).add(r.completion_s).add(r.latency_s);
  }
}

void check_sched_outcomes(Result& result,
                          std::span<const serve::TimedJob> jobs,
                          std::span<const sched::JobOutcome> outcomes,
                          const sched::SchedStats& stats, int ranks) {
  result.expect(outcomes.size() == jobs.size() &&
                    stats.jobs == jobs.size() &&
                    stats.completed + stats.rejected == stats.jobs,
                "sched reconciliation: completed + rejected == jobs");
  std::uint64_t misses = 0;
  double busy_energy_j = 0.0;
  double makespan_s = 0.0;
  const std::size_t n = std::min(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < n; ++i) {
    const sched::JobOutcome& o = outcomes[i];
    misses += o.missed ? 1 : 0;
    if (o.rejected) {
      continue;
    }
    busy_energy_j += o.true_energy_j;
    makespan_s = std::max(makespan_s, o.finish_s);
    result.expect(o.rank >= 0 && o.rank < ranks &&
                      o.start_s >= jobs[i].arrival_s &&
                      o.finish_s == o.start_s + o.true_time_s &&
                      o.missed == (o.finish_s > o.deadline_s) &&
                      o.true_time_s > 0.0 && o.true_energy_j > 0.0,
                  "sched outcome invariants at job " + std::to_string(i));
  }
  result.expect(misses == stats.misses && busy_energy_j == stats.busy_energy_j &&
                    makespan_s == stats.makespan_s,
                "sched totals (misses, busy energy, makespan) match the "
                "outcomes");
}

std::string sched_digest(std::span<const sched::JobOutcome> outcomes,
                         const sched::SchedStats& stats) {
  Digest digest;
  for (const sched::JobOutcome& o : outcomes) {
    digest.add(o.rejected).add(o.infeasible).add(o.missed).add(o.rank);
    digest.add(o.freq_mhz).add(o.deadline_s).add(o.start_s).add(o.finish_s);
    digest.add(o.true_time_s).add(o.true_energy_j);
    digest.add(o.predicted_time_s).add(o.predicted_energy_j);
  }
  digest.add(stats.jobs).add(stats.completed).add(stats.rejected);
  digest.add(stats.misses).add(stats.infeasible).add(stats.clock_rejections);
  digest.add(stats.busy_energy_j).add(stats.idle_energy_j);
  digest.add(stats.energy_j).add(stats.makespan_s);
  return digest.hex();
}

} // namespace perfbench
