// HybridModel training on the LiGen grid: one leave-one-input-out fold of
// the frequency_advisor training set. Its fused hybrid features hold two
// adjacent doubles whose midpoint rounds onto the larger one, which once
// gave the tree builder an empty right child (undefined behaviour in
// release builds, a contract violation with assertions on).
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/dataset.hpp"
#include "core/hybrid_model.hpp"
#include "serve/train.hpp"
#include "sim/device.hpp"
#include "synergy/device.hpp"

namespace dsem::core {
namespace {

TEST(HybridModelTest, TrainsOnALigenFold) {
  sim::Device sim_device(sim::v100(), sim::NoiseConfig{}, 0x116E);
  synergy::Device device(sim_device);
  const std::vector<std::unique_ptr<Workload>> workloads =
      serve::training_set("ligen");
  std::vector<double> freqs;
  const std::vector<double> all = device.supported_frequencies();
  for (std::size_t i = 0; i < all.size(); i += 32) {
    freqs.push_back(all[i]);
  }
  const Dataset dataset = build_dataset(device, workloads, 2, freqs);

  constexpr int kHeldOut = 0;
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < dataset.rows(); ++r) {
    if (dataset.groups[r] != kHeldOut) {
      rows.push_back(r);
    }
  }
  HybridModel hybrid;
  hybrid.train(dataset, workloads, device.spec(), rows);
  ASSERT_TRUE(hybrid.trained());

  const Prediction curve =
      hybrid.predict(*workloads[kHeldOut], device.spec(), freqs,
                     dataset.default_freq_mhz[kHeldOut]);
  ASSERT_EQ(curve.time_s.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_TRUE(std::isfinite(curve.time_s[i]) && curve.time_s[i] > 0.0);
    EXPECT_TRUE(std::isfinite(curve.energy_j[i]) && curve.energy_j[i] > 0.0);
  }
}

} // namespace
} // namespace dsem::core
