// The observability switch word and the reliability tag every observation
// carries.
//
// Three sinks record what the pipeline does: the tracer (common/trace),
// the metrics registry (common/metrics) and the attribution ledger
// (obs/ledger). Each is one bit of a single process-wide switch word, so
// a sink's enabled() check — the only cost instrumentation pays while
// the sink is off — is one relaxed atomic load, a mask and a branch.
// obs/switchboard turns the bits on from the DSEM_TRACE / DSEM_METRICS /
// DSEM_LEDGER environment variables or the matching CLI flags and writes
// each sink's file.
#pragma once

#include <atomic>
#include <cstdint>

namespace dsem {

/// Whether an observation can be compared across runs. The determinism
/// contracts of the tracer and the metrics registry (DESIGN.md §7.7,
/// §7.8) key off this one tag.
enum class Reliability : std::uint8_t {
  /// A pure function of seeds and grids: bit-identical for any
  /// DSEM_THREADS (trace logical view, metrics deterministic view).
  kDeterministic,
  /// Depends on wall clock or thread scheduling (pool task tallies, cache
  /// hit/miss splits, durations): report-only.
  kTimingDependent,
};

/// One bit per observability sink.
enum class Sink : unsigned {
  kTrace = 1U << 0,
  kMetrics = 1U << 1,
  kLedger = 1U << 2,
};

namespace detail {

/// Defined next to the sink table in obs/switchboard.cpp: every binary
/// that tests a switch links that table, and with it the load-time
/// environment-variable hook, even from a static library.
extern std::atomic<unsigned> g_sinks;

} // namespace detail

inline bool sink_enabled(Sink sink) noexcept {
  return (detail::g_sinks.load(std::memory_order_relaxed) &
          static_cast<unsigned>(sink)) != 0;
}

/// Turns one sink's recording on or off (tests, and the switchboard).
void set_sink_enabled(Sink sink, bool on) noexcept;

} // namespace dsem
