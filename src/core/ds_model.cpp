#include "core/ds_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "core/features.hpp"
#include "core/pareto.hpp"
#include "ml/serialize.hpp"

namespace dsem::core {

std::vector<std::size_t> Prediction::pareto_indices() const {
  return pareto_front(speedup, norm_energy);
}

namespace {

ml::ForestParams default_forest_params() {
  ml::ForestParams params;
  params.n_estimators = 100; // sklearn defaults, which the paper's grid
  params.max_depth = 0;      // search found best
  params.seed = 0x05d5;
  return params;
}

} // namespace

DomainSpecificModel::DomainSpecificModel(const ml::Regressor& prototype,
                                         bool log_targets)
    : time_model_(prototype.clone()), energy_model_(prototype.clone()),
      log_targets_(log_targets) {}

DomainSpecificModel::DomainSpecificModel()
    : DomainSpecificModel(ml::RandomForestRegressor(default_forest_params())) {}

std::vector<std::size_t>
DomainSpecificModel::selected_rows(const Dataset& dataset,
                                   std::span<const std::size_t> rows) {
  DSEM_ENSURE(dataset.rows() > 0, "training on an empty dataset");
  if (!rows.empty()) {
    return {rows.begin(), rows.end()};
  }
  std::vector<std::size_t> all(dataset.rows());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

void DomainSpecificModel::train(const Dataset& dataset,
                                std::span<const std::size_t> rows) {
  const std::vector<std::size_t> selected = selected_rows(dataset, rows);
  trace::Span span("train.ds", trace::cat::kTrain);
  span.value(static_cast<double>(selected.size()));
  metrics::ScopedTimer timer("train.ds_s");
  fit(dataset.x.gather_rows(selected), dataset, selected);
}

void DomainSpecificModel::fit(const ml::Matrix& x, const Dataset& dataset,
                              std::span<const std::size_t> rows) {
  std::vector<double> t(rows.size());
  std::vector<double> e(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    t[i] = dataset.time_s[rows[i]];
    e[i] = dataset.energy_j[rows[i]];
    DSEM_ENSURE(t[i] > 0.0 && e[i] > 0.0,
                "non-positive measurement in training data");
    if (log_targets_) {
      t[i] = std::log(t[i]);
      e[i] = std::log(e[i]);
    }
  }
  time_model_->fit(x, t);
  energy_model_->fit(x, e);
  input_width_ = x.cols();
  trained_ = true;
}

json::Value DomainSpecificModel::to_json() const {
  DSEM_ENSURE(trained_, "serialize of an untrained DomainSpecificModel");
  auto out = json::Value::object();
  out.set("log_targets", log_targets_);
  out.set("time", ml::regressor_to_json(*time_model_));
  out.set("energy", ml::regressor_to_json(*energy_model_));
  return out;
}

DomainSpecificModel DomainSpecificModel::from_json(const json::Value& value,
                                                   std::size_t input_width) {
  DomainSpecificModel model;
  model.time_model_ = ml::regressor_from_json(value.at("time"), input_width);
  model.energy_model_ =
      ml::regressor_from_json(value.at("energy"), input_width);
  model.log_targets_ = value.at("log_targets").as_bool();
  model.input_width_ = input_width;
  model.trained_ = true;
  return model;
}

Prediction DomainSpecificModel::predict(std::span<const double> prefix,
                                        std::span<const double> freqs_mhz,
                                        double default_freq_mhz) const {
  DSEM_ENSURE(trained_, "predict on an untrained DomainSpecificModel");
  DSEM_ENSURE(!freqs_mhz.empty(), "predict over an empty frequency list");
  DSEM_ENSURE(prefix.size() + 1 == input_width_,
              "predict: query has " + std::to_string(prefix.size()) +
                  " features, the model was trained on " +
                  std::to_string(input_width_ - 1));

  DSEM_ENSURE(std::all_of(freqs_mhz.begin(), freqs_mhz.end(),
                          [](double f) { return std::isfinite(f); }),
              "predict: non-finite frequency");
  DSEM_ENSURE(std::isfinite(default_freq_mhz),
              "predict: non-finite default frequency");

  // One sweep over the frequency grid with the baseline clock last: each
  // forest walks every tree once for the whole sweep (bit-identical to
  // predicting row by row).
  std::vector<double> sweep;
  sweep.reserve(freqs_mhz.size() + 1);
  sweep.assign(freqs_mhz.begin(), freqs_mhz.end());
  sweep.push_back(default_freq_mhz);

  Prediction out;
  out.time_s = time_model_->predict_sweep(prefix, sweep);
  out.energy_j = energy_model_->predict_sweep(prefix, sweep);
  if (log_targets_) {
    for (double& t : out.time_s) {
      t = std::exp(t);
    }
    for (double& e : out.energy_j) {
      e = std::exp(e);
    }
  }
  const double t_base = out.time_s.back();
  const double e_base = out.energy_j.back();
  out.time_s.pop_back();
  out.energy_j.pop_back();
  DSEM_ENSURE(t_base > 0.0 && e_base > 0.0,
              "non-positive predicted baseline");

  out.freqs_mhz.assign(freqs_mhz.begin(), freqs_mhz.end());
  out.speedup.reserve(freqs_mhz.size());
  out.norm_energy.reserve(freqs_mhz.size());
  for (std::size_t i = 0; i < freqs_mhz.size(); ++i) {
    out.speedup.push_back(t_base / out.time_s[i]);
    out.norm_energy.push_back(out.energy_j[i] / e_base);
  }
  return out;
}

} // namespace dsem::core
