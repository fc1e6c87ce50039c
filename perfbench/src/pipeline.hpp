// The paper_pipeline workload: the paper's own deliverable, end to end.
//
// For Cronos and LiGen on the V100: sweep the training grid into a
// dataset (core::build_dataset), cross-validate the GP, domain-specific
// and hybrid families leave-one-input-out
// (core::evaluate_accuracy_three_way), then predict the Pareto frequency
// set of the largest input (core::evaluate_pareto_three_way). LiGen runs
// the GP-vs-DS evaluation (evaluate_accuracy, evaluate_pareto) instead;
// pipeline.cpp says why. Set-up is
// the GP training on the micro-benchmark suite. This is the one workload
// where sweeps (core/sim) and forest fitting (ml) take the time; serve
// and sched fit forests only during set-up.
#pragma once

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

/// With options.trace, spans go to `log`.
Result run_paper_pipeline(const Options& options, SpanLog& log);

} // namespace perfbench
