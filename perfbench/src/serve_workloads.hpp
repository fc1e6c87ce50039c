// The two serve workloads and the traced replay of ServeLoop::run.
//
// serve_mixed    10^5 requests, Poisson 2000 Hz, half LiGen / half Cronos,
//                population 512: the ~4 % cache misses (forest inference,
//                Pareto pick, advise_batch fan-out) take the wall time.
// serve_hot_swap 10^6 requests at population 16, run as ten run() calls
//                on one loop with every artifact re-registered halfway: hits (key build, LRU probe, loop bookkeeping) take
//                the wall time, and the swap exercises invalidation
//                (erase_prefix) and refill (put).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "serve/loop.hpp"
#include "spans.hpp"

namespace perfbench {

/// With options.trace, spans go to `log`.
Result run_serve_mixed(const Options& options, SpanLog& log);
Result run_serve_hot_swap(const Options& options, SpanLog& log);

/// Re-registers a copy of every artifact: the registry then hands out new
/// snapshots, so a loop's next batch invalidates its cached answers.
void swap_models(dsem::serve::ModelRegistry& registry);

/// ServeLoop::run's layer calls, replayed in the same order with a span
/// around each: per batch, registry resolve (and cache invalidation on a
/// swapped snapshot), key build and LRU probe per request, forest
/// inference and Pareto pick per miss (fanned out on the pool exactly when
/// advise_batch fans out), then LRU insertion of the misses. Batch
/// boundaries come from the program's ledger (RequestRecord::batch).
/// Like the loop, the replay's cache persists across segments.
class ServeReplay {
public:
  ServeReplay(const dsem::serve::ModelRegistry& registry,
              const dsem::serve::ServeConfig& config, SpanLog* log);

  /// Replays one run() call. `batch_of[i]` is the 1-based dispatch
  /// ordinal of trace position i (0 when it was shed). Fills `shed`,
  /// `cache_hit`, `answer` and `model` of each response. Request spans
  /// carry id `first_id + i`; batch spans the replay's running batch count.
  std::vector<dsem::serve::AdviseResponse>
  run(std::span<const dsem::serve::TimedRequest> trace,
      std::span<const std::uint64_t> batch_of, std::uint64_t first_id = 0);

  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t batches = 0;
  std::uint64_t fanout_batches = 0;
  std::uint64_t invalidated_entries = 0;

private:
  dsem::serve::AdviseAnswer advise(const dsem::serve::ModelArtifact& artifact,
                                   const dsem::serve::AdviseRequest& request,
                                   std::uint32_t parent, std::uint64_t id);

  const dsem::serve::ModelRegistry& registry_;
  dsem::serve::ServeConfig config_;
  SpanLog* log_;
  dsem::ThreadPool& pool_;
  dsem::serve::LruCache cache_;
  std::map<std::string, std::shared_ptr<const dsem::serve::ModelArtifact>>
      last_;
};

} // namespace perfbench
