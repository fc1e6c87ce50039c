// The observability switchboard: one table row per sink (DESIGN.md §7.7,
// "Observability sinks").
//
// Each row ties a sink's switch bit (common/observe.hpp) to its CLI flag,
// its environment variable, its file writer and its stdout summary:
//
//   sink     flag           env var        file
//   trace    --trace-out    DSEM_TRACE     Chrome trace-event JSON
//   metrics  --metrics-out  DSEM_METRICS   "dsem-run-v1" manifest
//   ledger   --ledger-out   DSEM_LEDGER    "dsem-ledger-v1" ledger
//
// The environment variable is the flag's default and the flag wins. A
// sink with an output path is switched on at process load (from the
// environment) or by enable_from_cli (from the flags), and its file is
// written once: by write_outputs when the binary calls it, otherwise by
// the one atexit hook. Either way the file has the same content, and a
// binary without the CLI plumbing still honours all three variables (any
// binary that tests a switch links this table; see common/observe.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "common/json.hpp"
#include "common/observe.hpp"

namespace dsem {
class CliParser;
} // namespace dsem

namespace dsem::obs {

/// Schema tag of the per-invocation run manifest the metrics sink writes
/// (also embedded in BENCH_*.json pipeline entries).
inline constexpr const char* kRunSchema = "dsem-run-v1";

/// Builds the "dsem-run-v1" manifest: the program name, the serialized
/// sweep report (null for drivers that keep none) and the full metrics
/// snapshot.
json::Value run_manifest(const std::string& program,
                         json::Value sweep_report = {});

/// Registers --trace-out, --metrics-out and --ledger-out, each defaulting
/// to its environment variable.
void add_cli_options(CliParser& cli);

/// Takes every sink's output path from the parsed flags and switches on
/// the sinks that have one.
void enable_from_cli(const CliParser& cli);

/// Writes every sink that has an output path, each followed by its stdout
/// summary on `os`, and marks it written. The ledger and the manifest are
/// stamped with `program`; `sweep_report` goes into the manifest.
void write_outputs(std::ostream& os, const std::string& program,
                   const json::Value& sweep_report = {});

} // namespace dsem::obs
