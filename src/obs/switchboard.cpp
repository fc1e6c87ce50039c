#include "obs/switchboard.hpp"

#include <array>
#include <cstdlib>
#include <ostream>
#include <utility>

#include "common/cli.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "obs/ledger.hpp"

namespace dsem {

namespace detail {

std::atomic<unsigned> g_sinks{0};

} // namespace detail

void set_sink_enabled(Sink sink, bool on) noexcept {
  const auto bit = static_cast<unsigned>(sink);
  if (on) {
    detail::g_sinks.fetch_or(bit, std::memory_order_relaxed);
  } else {
    detail::g_sinks.fetch_and(~bit, std::memory_order_relaxed);
  }
}

} // namespace dsem

namespace dsem::obs {

json::Value run_manifest(const std::string& program,
                         json::Value sweep_report) {
  auto manifest = json::Value::object();
  manifest.set("schema", kRunSchema);
  manifest.set("program", program);
  manifest.set("sweep_report", std::move(sweep_report));
  manifest.set("metrics", metrics::Registry::global().snapshot().to_json());
  return manifest;
}

namespace {

struct SinkRow {
  Sink sink;
  const char* flag;
  const char* env;
  const char* help;
  const char* written; ///< stdout noun: "<written> written to <path>"
  void (*write)(const std::string& path, const std::string& program,
                const json::Value& sweep_report);
  void (*summary)(std::ostream& os); ///< continues the "written to" line
};

constexpr std::array<SinkRow, 3> kSinks = {{
    {Sink::kTrace, "trace-out", "DSEM_TRACE",
     "write a Chrome trace-event JSON of the run to this path", "trace",
     [](const std::string& path, const std::string&, const json::Value&) {
       trace::write_chrome_file(path);
     },
     [](std::ostream& os) {
       os << "\n";
       trace::Tracer::global().write_summary(os);
     }},
    {Sink::kMetrics, "metrics-out", "DSEM_METRICS",
     "write a dsem-run-v1 JSON manifest (sweep report + metrics) here",
     "run manifest",
     [](const std::string& path, const std::string& program,
        const json::Value& sweep_report) {
       json::write_file(path, run_manifest(program, sweep_report));
     },
     [](std::ostream& os) {
       os << "\n";
       metrics::Registry::global().snapshot().write_table(os);
     }},
    {Sink::kLedger, "ledger-out", "DSEM_LEDGER",
     "write a dsem-ledger-v1 attribution ledger (per-request / per-job "
     "records) here",
     "ledger",
     [](const std::string& path, const std::string& program,
        const json::Value&) {
       Ledger& ledger = Ledger::global();
       if (!program.empty()) {
         ledger.config().program = program;
       }
       json::write_file(path, ledger.to_json());
     },
     [](std::ostream& os) {
       const Ledger& ledger = Ledger::global();
       os << " (" << ledger.requests().size() << " requests, "
          << ledger.jobs().size() << " jobs)\n";
     }},
}};

/// Each sink's output path; empty once written (or never requested).
/// Leaked like the sinks themselves, so the exit hook can always read it.
std::array<std::string, kSinks.size()>& pending() {
  static auto* paths = new std::array<std::string, kSinks.size()>;
  return *paths;
}

void write_pending(std::ostream* os, const std::string& program,
                   const json::Value& sweep_report) {
  for (std::size_t i = 0; i < kSinks.size(); ++i) {
    const std::string path = std::exchange(pending()[i], {});
    if (path.empty()) {
      continue;
    }
    kSinks[i].write(path, program, sweep_report);
    if (os != nullptr) {
      *os << "\n" << kSinks[i].written << " written to " << path;
      kSinks[i].summary(*os);
    }
  }
}

/// Runs at load time: the only reader of the three environment variables.
bool init_from_env() {
  for (std::size_t i = 0; i < kSinks.size(); ++i) {
    const char* env = std::getenv(kSinks[i].env);
    if (env != nullptr && *env != '\0') {
      pending()[i] = env;
      set_sink_enabled(kSinks[i].sink, true);
    }
  }
  std::atexit([] { write_pending(nullptr, {}, {}); });
  return true;
}

[[maybe_unused]] const bool g_env_initialized = init_from_env();

} // namespace

void add_cli_options(CliParser& cli) {
  for (std::size_t i = 0; i < kSinks.size(); ++i) {
    cli.add_option(kSinks[i].flag, kSinks[i].help, pending()[i]);
  }
}

void enable_from_cli(const CliParser& cli) {
  for (std::size_t i = 0; i < kSinks.size(); ++i) {
    pending()[i] = cli.option(kSinks[i].flag);
    if (!pending()[i].empty()) {
      set_sink_enabled(kSinks[i].sink, true);
    }
  }
}

void write_outputs(std::ostream& os, const std::string& program,
                   const json::Value& sweep_report) {
  write_pending(&os, program, sweep_report);
}

} // namespace dsem::obs
