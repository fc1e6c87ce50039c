#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace perfbench {

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            std::uint64_t id) {
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.id = id;
  std::lock_guard lock(mutex_);
  record.start_ns = now_ns();
  spans_.push_back(record);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::close(std::uint32_t span) {
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_[span].end_ns = end;
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

void SpanLog::write_tsv(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (file == nullptr) {
    throw std::runtime_error("cannot write spans to " + path);
  }
  std::fputs("span\tname\tstart_ns\tend_ns\tparent\tid\n", file.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(file.get(), "%zu\t%s\t%lld\t%lld\t", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    if (s.parent == kNoParent) {
      std::fputs("-\t", file.get());
    } else {
      std::fprintf(file.get(), "%u\t", s.parent);
    }
    if (s.id == kNoId) {
      std::fputs("-\n", file.get());
    } else {
      std::fprintf(file.get(), "%llu\n",
                   static_cast<unsigned long long>(s.id));
    }
  }
  if (std::ferror(file.get()) != 0) {
    throw std::runtime_error("error writing spans to " + path);
  }
}

std::vector<double> durations_ns(const std::vector<SpanRecord>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::map<std::string, double>
self_time_by_name(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent) {
      children[spans[i].parent].push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Children may run concurrently (pool fan-out), so subtract the union
    // of their intervals clipped to the parent, not their summed length.
    intervals.clear();
    for (const std::uint32_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) {
        intervals.emplace_back(a, b);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : intervals) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

} // namespace perfbench
