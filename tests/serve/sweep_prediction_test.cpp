// DomainSpecificModel::predict queries its forests with one
// ml::Regressor::predict_sweep per call (DESIGN.md §7.10). These tests pin
// the curves it returns to a row-by-row reference built from predict_one
// on the same trees, for a DS artifact and for a hybrid artifact (the DS
// model over a fused prefix), bit for bit in every field.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/kernel_features.hpp"
#include "core/workload.hpp"
#include "ml/serialize.hpp"
#include "sim/device_spec.hpp"
#include "serve_test_util.hpp"

namespace {

using namespace dsem;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The curve model restored from its payload: the same trees, queried row
// by row. `time_model` replaces the restored time forest when given.
struct RowByRowReference {
  std::unique_ptr<ml::Regressor> time;
  std::unique_ptr<ml::Regressor> energy;
  const ml::Regressor* time_model = nullptr;

  RowByRowReference(const json::Value& payload, std::size_t width)
      : time(ml::regressor_from_json(payload.at("time"), width)),
        energy(ml::regressor_from_json(payload.at("energy"), width)) {
    EXPECT_TRUE(payload.at("log_targets").as_bool());
  }

  void expect_matches(const core::Prediction& pred,
                      const std::vector<double>& prefix,
                      const std::vector<double>& freqs, double default_freq) {
    const ml::Regressor& t_model = time_model != nullptr ? *time_model : *time;
    const auto at = [&](const ml::Regressor& model, double freq) {
      std::vector<double> row = prefix;
      row.push_back(freq);
      return std::exp(model.predict_one(row));
    };
    const double t_base = at(t_model, default_freq);
    const double e_base = at(*energy, default_freq);
    ASSERT_EQ(pred.freqs_mhz, freqs);
    ASSERT_EQ(pred.time_s.size(), freqs.size());
    ASSERT_EQ(pred.energy_j.size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      const double t = at(t_model, freqs[i]);
      const double e = at(*energy, freqs[i]);
      ASSERT_TRUE(same_bits(pred.time_s[i], t)) << "clock " << freqs[i];
      ASSERT_TRUE(same_bits(pred.energy_j[i], e)) << "clock " << freqs[i];
      ASSERT_TRUE(same_bits(pred.speedup[i], t_base / t)) << "clock " << freqs[i];
      ASSERT_TRUE(same_bits(pred.norm_energy[i], e / e_base))
          << "clock " << freqs[i];
    }
  }
};

// Clock lists worth checking: the schedule, unsorted with duplicates, and
// every last-column threshold of the time forest (exact ties).
std::vector<std::vector<double>> clock_lists(const ml::Regressor& time_model,
                                             std::size_t width) {
  std::vector<std::vector<double>> out;
  out.push_back(serve_test::kFreqs);
  out.push_back({1400, 600, 1000, 600, 1250, 700, 1400, 900.5});
  std::vector<double> thresholds;
  const auto& forest = dynamic_cast<const ml::RandomForestRegressor&>(time_model);
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    for (const ml::TreeNode& node : forest.tree(t).nodes()) {
      if (node.feature == static_cast<int>(width - 1)) {
        thresholds.push_back(node.threshold);
      }
    }
  }
  EXPECT_FALSE(thresholds.empty());
  out.push_back(thresholds);
  return out;
}

TEST(ForestSweep, DsModelPredictMatchesRowByRowReference) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const serve::ModelArtifact artifact = serve_test::synthetic_artifact(seed);
    const core::DomainSpecificModel& ds = *artifact.ds;
    RowByRowReference ref(ds.to_json(), ds.input_width());
    ref.time_model = &ds.time_model();

    // A training input (prefix ties on the split thresholds) and an
    // arbitrary one.
    const core::Dataset data = serve_test::synthetic_dataset(derive_seed(seed, 7));
    const auto row = data.x.row(seed % data.rows());
    const std::vector<std::vector<double>> prefixes = {
        {row.begin(), row.end() - 1}, {50.0, 10.0, 5000.0}};
    for (const auto& freqs : clock_lists(ds.time_model(), ds.input_width())) {
      for (const auto& prefix : prefixes) {
        for (const double default_freq : {serve_test::kDefaultFreq, 975.0}) {
          ref.expect_matches(ds.predict(prefix, freqs, default_freq), prefix,
                             freqs, default_freq);
        }
      }
    }
  }
}

TEST(ForestSweep, HybridArtifactPredictMatchesRowByRowReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const serve::ModelArtifact artifact =
        serve_test::synthetic_hybrid_artifact(seed);
    const std::size_t width = artifact.hybrid->input_width();
    RowByRowReference ref(artifact.hybrid->to_json(), width);

    for (const auto& workload : serve_test::hybrid_test_workloads()) {
      const std::vector<double> features = workload->domain_features();
      // The fused prefix ModelArtifact::predict builds for a hybrid query.
      const auto canonical =
          core::workload_from_features(artifact.key.application, features);
      const std::vector<double> prefix = core::fused_feature_vector(
          *canonical, sim::preset_by_name(artifact.key.device),
          artifact.default_freq_mhz);
      for (const auto& freqs : clock_lists(*ref.time, width)) {
        ref.expect_matches(artifact.predict(features, freqs), prefix, freqs,
                           artifact.default_freq_mhz);
      }
    }
  }
}

} // namespace
