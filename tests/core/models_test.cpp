// Domain-specific and general-purpose model behaviour on small but real
// measurement datasets.
#include <limits>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "core/ds_model.hpp"
#include "core/evaluation.hpp"
#include "core/gp_model.hpp"
#include "microbench/suite.hpp"
#include "ml/linear.hpp"

namespace dsem::core {
namespace {

std::vector<double> strided_freqs(const synergy::Device& device,
                                  std::size_t stride) {
  const auto all = device.supported_frequencies();
  std::vector<double> out;
  for (std::size_t i = 0; i < all.size(); i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

// Shared across the suite: the dataset build dominates runtime, every test
// only reads it, and the sweep engine leaves the device's RNG untouched.
struct ModelsState {
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 1};
  synergy::Device device{sim_dev};
  std::vector<std::unique_ptr<Workload>> workloads;
  std::vector<double> freqs;
  Dataset dataset;

  ModelsState() {
    // The paper's five canonical grids plus intermediate training grids so
    // leave-one-out folds interpolate instead of extrapolating.
    for (int n : {10, 20, 30, 40, 60, 80, 120, 160}) {
      workloads.push_back(std::make_unique<CronosWorkload>(
          cronos::GridDims{n, std::max(4, n * 2 / 5), std::max(4, n * 2 / 5)},
          2));
    }
    freqs = strided_freqs(device, 8); // 25 frequencies
    dataset = build_dataset(device, workloads, 2, freqs);
  }

  static const ModelsState& instance() {
    static const ModelsState state;
    return state;
  }
};

class ModelsTest : public ::testing::Test {
protected:
  ModelsTest()
      : workloads_(ModelsState::instance().workloads),
        freqs_(ModelsState::instance().freqs),
        dataset_(ModelsState::instance().dataset) {}

  const std::vector<std::unique_ptr<Workload>>& workloads_;
  const std::vector<double>& freqs_;
  const Dataset& dataset_;
};

TEST_F(ModelsTest, DsModelFitsTrainingInputsAccurately) {
  DomainSpecificModel model;
  model.train(dataset_);
  // In-sample prediction of the largest grid's raw time curve.
  const int g = dataset_.group_of(workloads_.back()->name());
  const TruthCurves truth = truth_curves(dataset_, g);
  const auto pred = model.predict(workloads_.back()->domain_features(),
                                  truth.freqs_mhz, 1312.0);
  EXPECT_LT(stats::mape(truth.time_s, pred.time_s), 0.05);
  EXPECT_LT(stats::mape(truth.energy_j, pred.energy_j), 0.05);
}

TEST_F(ModelsTest, DsModelSpeedupBaselinedOnPredictedDefault) {
  DomainSpecificModel model;
  model.train(dataset_);
  const auto pred = model.predict(workloads_[2]->domain_features(),
                                  std::vector<double>{1312.0}, 1312.0);
  EXPECT_NEAR(pred.speedup[0], 1.0, 1e-9);
  EXPECT_NEAR(pred.norm_energy[0], 1.0, 1e-9);
}

TEST_F(ModelsTest, DsModelLoocvGeneralizesToHeldOutInput) {
  const int g = dataset_.group_of("40x16x16");
  std::vector<std::size_t> train_rows;
  for (std::size_t i = 0; i < dataset_.rows(); ++i) {
    if (dataset_.groups[i] != g) {
      train_rows.push_back(i);
    }
  }
  DomainSpecificModel model;
  model.train(dataset_, train_rows);
  const TruthCurves truth = truth_curves(dataset_, g);
  const auto pred =
      model.predict(workloads_[static_cast<std::size_t>(3)]->domain_features(),
                    truth.freqs_mhz, 1312.0);
  // Ratio curves generalize well even when magnitudes interpolate.
  EXPECT_LT(stats::mape(truth.speedup, pred.speedup), 0.05);
  EXPECT_LT(stats::mape(truth.norm_energy, pred.norm_energy), 0.05);
}

TEST_F(ModelsTest, DsModelCustomRegressorPrototype) {
  DomainSpecificModel model(ml::LinearRegressor{});
  model.train(dataset_);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(model.time_model().name(), "Linear");
}

TEST_F(ModelsTest, DsModelPredictBeforeTrainThrows) {
  DomainSpecificModel model;
  const std::vector<double> features = {10.0, 4.0, 4.0};
  EXPECT_THROW(model.predict(features, freqs_, 1312.0), contract_error);
}

TEST_F(ModelsTest, PredictionParetoIndicesAreValid) {
  DomainSpecificModel model;
  model.train(dataset_);
  const auto pred = model.predict(workloads_[4]->domain_features(), freqs_,
                                  1312.0);
  const auto front = pred.pareto_indices();
  EXPECT_FALSE(front.empty());
  for (std::size_t idx : front) {
    EXPECT_LT(idx, freqs_.size());
  }
}

// One trained GP model shared across the suite: gp.train() is the per-test
// cost, the trained model is immutable, and training through the sweep
// engine does not advance the shared device's RNG.
struct GpState {
  sim::Device sim_dev{sim::v100(), sim::NoiseConfig{0.01, 0.01}, 2};
  synergy::Device device{sim_dev};
  GeneralPurposeModel gp;

  GpState() { gp.train(device, microbench::make_suite(), 1, 16); }

  static GpState& instance() {
    static GpState state;
    return state;
  }
};

class GpModelTest : public ::testing::Test {
protected:
  GpModelTest()
      : device_(GpState::instance().device), gp_(GpState::instance().gp) {}
  synergy::Device& device_;
  const GeneralPurposeModel& gp_;
};

TEST_F(GpModelTest, TrainsOnMicrobenchSuite) {
  const auto suite = microbench::make_suite();
  EXPECT_TRUE(gp_.trained());
  EXPECT_EQ(gp_.training_rows(), suite.size() * (196 / 16 + 1));
}

TEST_F(GpModelTest, PredictsReasonableCurveForMicrobenchLikeKernel) {
  // A compute-heavy profile: speedup should increase with frequency.
  sim::KernelProfile p;
  p.float_add = 512.0;
  p.float_mul = 512.0;
  p.global_bytes = 16.0;
  const std::vector<double> freqs = {400.0, 800.0, 1200.0, 1597.0};
  const auto pred = gp_.predict(p, freqs, 1312.0);
  EXPECT_LT(pred.speedup.front(), 1.0);
  EXPECT_GT(pred.speedup.back(), 1.0);
}

TEST_F(GpModelTest, BaselineNormalizedToUnity) {
  sim::KernelProfile p;
  p.float_add = 64.0;
  p.global_bytes = 256.0;
  const auto pred = gp_.predict(p, std::vector<double>{1312.0}, 1312.0);
  EXPECT_NEAR(pred.speedup[0], 1.0, 1e-9);
  EXPECT_NEAR(pred.norm_energy[0], 1.0, 1e-9);
}

TEST_F(GpModelTest, SameMixSameCurveRegardlessOfInputSize) {
  // Structural blindness: the GP model cannot distinguish input sizes.
  const GeneralPurposeModel& gp = gp_;
  const LigenWorkload small(2, 89, 8);
  const LigenWorkload large(100000, 89, 8);
  const std::vector<double> freqs = {500.0, 1000.0, 1500.0};
  const auto ps = gp.predict(small.aggregate_profile(), freqs, 1312.0);
  const auto pl = gp.predict(large.aggregate_profile(), freqs, 1312.0);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(ps.speedup[i], pl.speedup[i], 1e-9);
    EXPECT_NEAR(ps.norm_energy[i], pl.norm_energy[i], 1e-9);
  }
}

TEST_F(GpModelTest, PredictBeforeTrainThrows) {
  GeneralPurposeModel gp;
  sim::KernelProfile p;
  p.float_add = 1.0;
  EXPECT_THROW(gp.predict(p, std::vector<double>{1000.0}, 1312.0),
               contract_error);
}

TEST_F(GpModelTest, ValidatesTrainingArguments) {
  GeneralPurposeModel gp;
  EXPECT_THROW(gp.train(device_, {}, 1, 4), contract_error);
  const auto suite = microbench::make_suite();
  EXPECT_THROW(gp.train(device_, suite, 0, 4), contract_error);
  EXPECT_THROW(gp.train(device_, suite, 1, 0), contract_error);
}

// A DS model on [3 domain features, frequency]: 8 rows, 4 shallow trees.
DomainSpecificModel tiny_ds_model() {
  Dataset dataset;
  dataset.x = ml::Matrix(8, 4);
  for (std::size_t r = 0; r < 8; ++r) {
    const double i = static_cast<double>(r);
    dataset.x(r, 0) = 10.0 + i;
    dataset.x(r, 1) = 4.0;
    dataset.x(r, 2) = 1.0 + 2.0 * i;
    dataset.x(r, 3) = r % 2 == 0 ? 1400.0 : 1000.0;
    dataset.time_s.push_back(1.0 + 0.1 * i);
    dataset.energy_j.push_back(50.0 + i);
    dataset.groups.push_back(static_cast<int>(r / 2));
  }
  ml::ForestParams params;
  params.n_estimators = 4;
  params.max_depth = 3;
  DomainSpecificModel model{ml::RandomForestRegressor(params)};
  model.train(dataset);
  return model;
}

TEST(DomainSpecificModelTest, RejectsQueryWidthMismatch) {
  // Trained on [3 domain features, frequency]; a query must carry exactly
  // the 3 domain features, in release builds too.
  const DomainSpecificModel model = tiny_ds_model();

  const std::vector<double> freqs = {1000.0, 1400.0};
  EXPECT_NO_THROW(
      model.predict(std::vector<double>{12.0, 4.0, 5.0}, freqs, 1400.0));
  EXPECT_THROW(model.predict(std::vector<double>{12.0, 4.0}, freqs, 1400.0),
               contract_error);
  EXPECT_THROW(model.predict(std::vector<double>{12.0, 4.0, 5.0, 1.0}, freqs,
                             1400.0),
               contract_error);
}

TEST(DomainSpecificModelTest, RejectsNonFiniteFrequencies) {
  // The scheduler's candidate clocks and the evaluation's truth grids
  // reach predict without a loader's finiteness check, so predict checks
  // every clock itself, in release builds too.
  const DomainSpecificModel model = tiny_ds_model();
  const std::vector<double> features = {12.0, 4.0, 5.0};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(
        model.predict(features, std::vector<double>{1000.0, bad, 1400.0}, 1400.0),
        contract_error)
        << bad;
    EXPECT_THROW(model.predict(features, std::vector<double>{bad}, 1400.0),
                 contract_error)
        << bad;
    EXPECT_THROW(
        model.predict(features, std::vector<double>{1000.0, 1400.0}, bad),
        contract_error)
        << bad;
  }
  EXPECT_NO_THROW(
      model.predict(features, std::vector<double>{1400.0, 1000.0}, 1000.0));
}

} // namespace
} // namespace dsem::core
