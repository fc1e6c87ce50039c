// Output checks. Each mismatch counts as one failed operation in the
// run's Result (fail_rate = failed / attempted).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common.hpp"
#include "sched/scheduler.hpp"
#include "serve/loop.hpp"

namespace perfbench {

/// Deterministic sample of up to `count` positions spread evenly over
/// [0, n).
std::vector<std::size_t> sample_positions(std::size_t n, std::size_t count);

/// Oracle: each sampled, served answer must equal a cache-free
/// Advisor::advise call on the artifact the registry holds now, and name
/// that artifact as its model. `responses[k]` answers `trace[positions[k]]`.
void check_serve_oracle(Result& result,
                        const dsem::serve::ModelRegistry& registry,
                        std::span<const dsem::serve::TimedRequest> trace,
                        std::span<const std::size_t> positions,
                        std::span<const dsem::serve::AdviseResponse> responses);

/// Reconciliation of one ServeLoop::run call.
void check_serve_stats(Result& result, const dsem::serve::ServeStats& stats,
                       std::size_t requests);

/// Every replayed answer, hit/miss flag, shed flag and model must equal
/// the program's.
void check_serve_replay(
    Result& result, std::span<const dsem::serve::AdviseResponse> program,
    std::span<const dsem::serve::AdviseResponse> replay);

/// Digest of one run() call's responses (every field).
void add_responses(Digest& digest,
                   std::span<const dsem::serve::AdviseResponse> responses);

/// Reconciliation and per-outcome invariants of one scheduler run:
/// completed + rejected == jobs, miss and energy totals match the
/// outcomes, every completed job ran on a real rank after it arrived.
void check_sched_outcomes(Result& result,
                          std::span<const dsem::serve::TimedJob> jobs,
                          std::span<const dsem::sched::JobOutcome> outcomes,
                          const dsem::sched::SchedStats& stats, int ranks);

/// Digest of a scheduler run: every outcome plus the simulated stats.
std::string sched_digest(std::span<const dsem::sched::JobOutcome> outcomes,
                         const dsem::sched::SchedStats& stats);

} // namespace perfbench
