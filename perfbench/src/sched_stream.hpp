// The sched_stream workload and the traced replay of
// ClusterScheduler::run.
//
// 10^4 jobs at 4 Hz, population 64 per application, deadline slacks
// {1.5, 2, 3, 4}, on a 4-node V100 cluster under the model policy with
// first-fit placement and margin 3. Every job costs a noise-free
// reference run, one forest prediction and a simulated execution; there
// is no prediction cache, so inference runs once per job over only 128
// distinct inputs.
#pragma once

#include <span>
#include <vector>

#include "common.hpp"
#include "sched/scheduler.hpp"
#include "spans.hpp"

namespace perfbench {

/// With options.trace, spans go to `log`.
Result run_sched_stream(const Options& options, SpanLog& log);

struct SchedReplay {
  std::vector<dsem::sched::JobOutcome> outcomes;
  dsem::sched::SchedStats stats;
  std::size_t distinct_inputs = 0;
};

/// ClusterScheduler::run's layer calls for the model policy with
/// first-fit placement and the run-at-max fallback, replayed in the same
/// order with a span around each: the parallel plan pass (reference run,
/// then prediction per job, fanned out like the scheduler's), then the
/// serial pass (admission = placement plus clock pick, then execution on
/// the job's replica device). `cache` stands in for the scheduler's
/// private profile cache. The outcomes and simulated stats must equal the
/// scheduler's.
SchedReplay replay_schedule(dsem::celerity::Cluster& cluster,
                            const dsem::serve::ModelRegistry& registry,
                            const dsem::sched::SchedConfig& config,
                            std::span<const dsem::serve::TimedJob> jobs,
                            SpanLog* log, dsem::sim::ProfileCache& cache);

/// The workload's scheduler configuration.
dsem::sched::SchedConfig sched_config();

} // namespace perfbench
