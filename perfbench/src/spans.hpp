// In-memory span recorder for the traced replays.
//
// A span is one call into a layer, timed with steady_clock by the
// benchmark around the layer's public function: name, start, end, the
// span that caused it (its parent) and the request, job or fold id it
// belongs to. Spans stay in memory while a replay runs and are written
// out once at the end (write_tsv). Recording is thread-safe so spans can
// be opened inside the pool tasks the replays fan out, exactly where the
// program fans out.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent = UINT32_MAX;
inline constexpr std::uint64_t kNoId = UINT64_MAX;

struct SpanRecord {
  const char* name = ""; ///< static string: "<layer>.<operation>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t id = kNoId;
};

/// Nanoseconds on the steady clock since an arbitrary epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
public:
  /// Opens a span and returns its handle (the parent of later spans).
  std::uint32_t open(const char* name, std::uint32_t parent = kNoParent,
                     std::uint64_t id = kNoId);
  void close(std::uint32_t span);

  /// Snapshot of every recorded span, in open order.
  std::vector<SpanRecord> spans() const;
  std::size_t size() const;

  /// One line per span: index, name, start_ns, end_ns, parent, id
  /// (tab-separated; "-" for no parent / no id). Throws on I/O error.
  void write_tsv(const std::string& path) const;

private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, closes on destruction. With a null
/// log it records nothing, so untraced code paths share the replay code.
class Span {
public:
  Span(SpanLog* log, const char* name, std::uint32_t parent = kNoParent,
       std::uint64_t id = kNoId)
      : log_(log),
        handle_(log != nullptr ? log->open(name, parent, id) : kNoParent) {}
  ~Span() {
    if (log_ != nullptr) {
      log_->close(handle_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t handle() const noexcept { return handle_; }

private:
  SpanLog* log_;
  std::uint32_t handle_;
};

/// Durations of every span called `name`, in nanoseconds.
std::vector<double> durations_ns(const std::vector<SpanRecord>& spans,
                                 const std::string& name);

/// Self time of every span (duration minus the union of the intervals its
/// direct children cover), summed per span name, in seconds.
std::map<std::string, double>
self_time_by_name(const std::vector<SpanRecord>& spans);

/// Quantile by linear interpolation; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

} // namespace perfbench
