#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace perfbench {

using namespace dsem;

Digest& Digest::add(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return add(bits);
}

Digest& Digest::add(std::uint64_t value) {
  return add(&value, sizeof(value));
}

Digest& Digest::add(const std::string& value) {
  add(static_cast<std::uint64_t>(value.size()));
  return add(value.data(), value.size());
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

void Result::expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics.push_back(Metric{name, value, unit, samples});
}

void Result::output(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  outputs.push_back(Metric{name, value, unit, samples});
}

void Result::digest(const std::string& name, const std::string& value) {
  const auto [it, inserted] = digests.emplace(name, value);
  expect(inserted || it->second == value,
         "digest " + name + " differs between repetitions (" + it->second +
             " vs " + value + ")");
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::size_t repeat_for(double seconds, std::size_t min_reps,
                       const std::function<void(bool timed)>& rep) {
  rep(false);
  const auto start = std::chrono::steady_clock::now();
  std::size_t reps = 0;
  while (reps < min_reps || seconds_since(start) < seconds) {
    const auto rep_start = std::chrono::steady_clock::now();
    const double cpu_start = process_cpu_s();
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const long faults_start = usage.ru_minflt;
    rep(true);
    getrusage(RUSAGE_SELF, &usage);
    std::fprintf(stderr,
                 "perfbench: repetition %zu took %.4f s wall, %.4f s CPU, "
                 "%ld page faults\n",
                 reps, seconds_since(rep_start), process_cpu_s() - cpu_start,
                 usage.ru_minflt - faults_start);
    ++reps;
  }
  return reps;
}

void check_expected_digests(Result& result, const Options& options) {
  if (options.expected_digests.empty()) {
    return;
  }
  std::ifstream in(options.expected_digests);
  if (!in) {
    throw std::runtime_error("cannot read " + options.expected_digests);
  }
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::Value::parse(text.str());
  const json::Value* expected = doc.find(options.workload);
  result.expect(expected != nullptr,
                "no recorded digests for workload " + options.workload);
  if (expected == nullptr) {
    return;
  }
  for (const auto& [name, digest] : result.digests) {
    const bool seed_free = name.rfind("setup.", 0) == 0;
    if (!seed_free && options.seed != kDefaultSeed) {
      continue;
    }
    const json::Value* want = expected->find(name);
    result.expect(want != nullptr && want->as_string() == digest,
                  "digest " + name + " = " + digest +
                      " does not match the recorded " +
                      (want != nullptr ? want->as_string() : "(none)"));
  }
}

std::string registry_digest(const serve::ModelRegistry& registry) {
  Digest digest;
  for (const serve::ModelKey& key : registry.keys()) {
    digest.add(registry.require(key)->to_json().dump());
  }
  return digest.hex();
}

namespace {

serve::TrainConfig train_config(sim::ProfileCache* cache) {
  serve::TrainConfig config;
  config.sweep.repetitions = 2;
  config.sweep.cache = cache;
  config.origin = kOrigin;
  return config;
}

/// train_domain_specific, spelled out through its public steps so each
/// step runs inside a span. The result must equal the library call's
/// artifact byte for byte (checked by digest).
serve::ModelArtifact train_traced(synergy::Device& device,
                                  const serve::ModelKey& key,
                                  const serve::TrainConfig& config,
                                  SpanLog& log, std::uint64_t id) {
  const Span train(&log, "setup.train_app", kNoParent, id);
  serve::ModelArtifact artifact;
  std::vector<std::unique_ptr<core::Workload>> workloads =
      serve::training_set(key.application, config.compact);
  const std::vector<double> all_freqs = device.supported_frequencies();
  std::vector<double> train_freqs;
  for (std::size_t i = 0; i < all_freqs.size(); i += config.freq_stride) {
    train_freqs.push_back(all_freqs[i]);
  }
  core::Dataset dataset;
  {
    const Span s(&log, "core.build_dataset", train.handle(), id);
    dataset = core::build_dataset(device, workloads, config.sweep, train_freqs);
  }
  auto model = std::make_shared<core::DomainSpecificModel>();
  {
    const Span s(&log, "ml.ds_fit", train.handle(), id);
    model->train(dataset);
  }
  artifact.key = key;
  artifact.origin = config.origin;
  artifact.feature_names = workloads.front()->feature_names();
  artifact.freqs_mhz = all_freqs;
  artifact.default_freq_mhz = device.default_frequency();
  artifact.ds = std::move(model);
  return artifact;
}

} // namespace

std::unique_ptr<serve::ModelRegistry>
train_registry(SpanLog* log, sim::ProfileCache* cache) {
  sim::ProfileCache local_cache;
  const serve::TrainConfig config =
      train_config(cache != nullptr ? cache : &local_cache);
  sim::Device sim_device(sim::v100(), sim::NoiseConfig{}, 0xAD51);
  synergy::Device device(sim_device);
  auto registry = std::make_unique<serve::ModelRegistry>();
  std::uint64_t id = 0;
  for (const char* app : {"cronos", "ligen"}) {
    const serve::ModelKey key{app, kDevice};
    registry->put(log != nullptr
                      ? train_traced(device, key, config, *log, id++)
                      : serve::train_domain_specific(device, key, config));
  }
  return registry;
}

std::unique_ptr<serve::ModelRegistry>
traced_registry_setup(Result& result, SpanLog& log, sim::ProfileCache& cache) {
  auto registry = train_registry();
  result.digest("setup.registry", registry_digest(*registry));
  result.digest("setup.registry",
                registry_digest(*train_registry(&log, &cache)));
  return registry;
}

std::unique_ptr<serve::ModelRegistry>
timed_registry_setup(Result& result, std::size_t reps) {
  std::vector<double> setup_s;
  std::unique_ptr<serve::ModelRegistry> registry;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    registry = train_registry();
    setup_s.push_back(seconds_since(start));
    result.digest("setup.registry", registry_digest(*registry));
  }
  result.metric("setup_s", median(setup_s), "s", setup_s.size());
  return registry;
}

} // namespace perfbench
