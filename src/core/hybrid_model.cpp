#include "core/hybrid_model.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "ml/serialize.hpp"

namespace dsem::core {

namespace {

ml::ForestParams default_forest_params() {
  ml::ForestParams params;
  params.n_estimators = 100; // same paper-default forest as the DS family,
  params.max_depth = 0;      // distinct seed so the families never share
  params.seed = 0x4b1d;      // bootstrap streams
  return params;
}

} // namespace

HybridModel::HybridModel(const ml::Regressor& prototype, bool log_targets)
    : time_model_(prototype.clone()), energy_model_(prototype.clone()),
      log_targets_(log_targets) {}

HybridModel::HybridModel()
    : HybridModel(ml::RandomForestRegressor(default_forest_params())) {}

void HybridModel::train(const Dataset& dataset,
                        std::span<const std::unique_ptr<Workload>> workloads,
                        const sim::DeviceSpec& spec,
                        std::span<const std::size_t> rows) {
  DSEM_ENSURE(dataset.rows() > 0, "training on an empty dataset");
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "hybrid train: workload list does not match dataset groups");
  trace::Span span("train.hybrid", trace::cat::kTrain);
  span.value(static_cast<double>(rows.empty() ? dataset.rows() : rows.size()));
  metrics::ScopedTimer timer("train.hybrid_s");
  std::vector<std::size_t> all;
  if (rows.empty()) {
    all.resize(dataset.rows());
    std::iota(all.begin(), all.end(), 0);
    rows = all;
  }

  // One fused prefix per group (input), computed only for groups that
  // contribute training rows: domain features plus the default-clock
  // static+dynamic block of that group's workload.
  std::vector<std::vector<double>> fused(dataset.num_groups());
  std::size_t width = 0;
  for (const std::size_t r : rows) {
    const auto g = static_cast<std::size_t>(dataset.groups[r]);
    if (fused[g].empty()) {
      fused[g] = fused_feature_vector(*workloads[g], spec,
                                      dataset.default_freq_mhz[g]);
      DSEM_ENSURE(width == 0 || fused[g].size() == width,
                  "hybrid train: inconsistent fused feature widths");
      width = fused[g].size();
    }
  }

  const std::size_t freq_col = dataset.x.cols() - 1;
  ml::Matrix x(rows.size(), width + 1);
  std::vector<double> t(rows.size());
  std::vector<double> e(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t r = rows[i];
    const std::vector<double>& prefix =
        fused[static_cast<std::size_t>(dataset.groups[r])];
    auto row = x.row(i);
    std::copy(prefix.begin(), prefix.end(), row.begin());
    row.back() = dataset.x.row(r)[freq_col];
    t[i] = dataset.time_s[r];
    e[i] = dataset.energy_j[r];
    DSEM_ENSURE(t[i] > 0.0 && e[i] > 0.0,
                "non-positive measurement in training data");
    if (log_targets_) {
      t[i] = std::log(t[i]);
      e[i] = std::log(e[i]);
    }
  }
  time_model_->fit(x, t);
  energy_model_->fit(x, e);
  input_width_ = width + 1;
  trained_ = true;
}

Prediction HybridModel::predict(const Workload& workload,
                                const sim::DeviceSpec& spec,
                                std::span<const double> freqs_mhz,
                                double default_freq_mhz) const {
  const std::vector<double> fused =
      fused_feature_vector(workload, spec, default_freq_mhz);
  return predict_fused(fused, freqs_mhz, default_freq_mhz);
}

Prediction HybridModel::predict_fused(std::span<const double> fused,
                                      std::span<const double> freqs_mhz,
                                      double default_freq_mhz) const {
  DSEM_ENSURE(trained_, "predict on an untrained HybridModel");
  DSEM_ENSURE(!freqs_mhz.empty(), "predict over an empty frequency list");
  DSEM_ENSURE(fused.size() + 1 == input_width_,
              "hybrid predict: fused feature width mismatch");

  Prediction out;
  out.freqs_mhz.assign(freqs_mhz.begin(), freqs_mhz.end());
  out.time_s.reserve(freqs_mhz.size());
  out.energy_j.reserve(freqs_mhz.size());

  // One batch for the whole frequency grid (baseline row last), exactly
  // like the domain-specific family: rows are independent predict_ones.
  ml::Matrix queries(freqs_mhz.size() + 1, fused.size() + 1);
  for (std::size_t i = 0; i <= freqs_mhz.size(); ++i) {
    auto row = queries.row(i);
    std::copy(fused.begin(), fused.end(), row.begin());
    row.back() = i < freqs_mhz.size() ? freqs_mhz[i] : default_freq_mhz;
  }
  std::vector<double> t_pred = time_model_->predict_many(queries);
  std::vector<double> e_pred = energy_model_->predict_many(queries);
  if (log_targets_) {
    for (double& t : t_pred) {
      t = std::exp(t);
    }
    for (double& e : e_pred) {
      e = std::exp(e);
    }
  }
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.time_s.push_back(t_pred[i]);
    out.energy_j.push_back(e_pred[i]);
  }

  const double t_base = t_pred.back();
  const double e_base = e_pred.back();
  DSEM_ENSURE(t_base > 0.0 && e_base > 0.0, "non-positive predicted baseline");

  out.speedup.reserve(freqs_mhz.size());
  out.norm_energy.reserve(freqs_mhz.size());
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.speedup.push_back(t_base / out.time_s[i]);
    out.norm_energy.push_back(out.energy_j[i] / e_base);
  }
  return out;
}

json::Value HybridModel::to_json() const {
  DSEM_ENSURE(trained_, "serialize of an untrained HybridModel");
  auto out = json::Value::object();
  out.set("log_targets", log_targets_);
  out.set("input_width", static_cast<double>(input_width_));
  out.set("time", ml::regressor_to_json(*time_model_));
  out.set("energy", ml::regressor_to_json(*energy_model_));
  return out;
}

HybridModel HybridModel::from_json(const json::Value& value) {
  HybridModel model;
  const double width = value.at("input_width").as_number();
  DSEM_ENSURE(width >= 2.0 && width == std::floor(width),
              "hybrid payload: bad input_width");
  model.input_width_ = static_cast<std::size_t>(width);
  model.time_model_ =
      ml::regressor_from_json(value.at("time"), model.input_width_);
  model.energy_model_ =
      ml::regressor_from_json(value.at("energy"), model.input_width_);
  model.log_targets_ = value.at("log_targets").as_bool();
  model.trained_ = true;
  return model;
}

} // namespace dsem::core
