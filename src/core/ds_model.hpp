// Domain-specific energy/time model — the paper's contribution (§4.2).
//
// Two regressors (Random Forest by default, per the paper's model
// selection) map [domain features..., frequency] to raw execution time
// and energy. At prediction time the model is evaluated over all
// frequency configurations and the *predicted* value at the default
// frequency serves as the baseline for speedup and normalized energy
// (§4.2.3), from which the predicted Pareto-optimal frequency set follows.
#pragma once

#include <memory>

#include "common/json.hpp"
#include "core/dataset.hpp"
#include "ml/forest.hpp"

namespace dsem::core {

/// A model's view of one workload across the frequency schedule.
struct Prediction {
  std::vector<double> freqs_mhz;
  std::vector<double> time_s;      ///< empty for models predicting ratios only
  std::vector<double> energy_j;    ///< empty for models predicting ratios only
  std::vector<double> speedup;
  std::vector<double> norm_energy;

  /// Indices of the predicted Pareto-optimal frequency configurations.
  std::vector<std::size_t> pareto_indices() const;
};

class HybridModel;

/// The one per-input curve model: the paper's domain-specific family over
/// [domain features..., frequency], and the implementation the hybrid
/// family (core/hybrid_model.hpp) runs over its fused prefix.
class DomainSpecificModel {
public:
  /// Uses clones of `prototype` for the time and energy regressors.
  /// With `log_targets` (default), the regressors fit log(time)/log(energy):
  /// tree-ensemble blending then averages *shapes* geometrically, so input
  /// magnitude differences cancel exactly in the predicted speedup and
  /// normalized-energy ratios (see bench/ablation_log_targets).
  explicit DomainSpecificModel(const ml::Regressor& prototype,
                               bool log_targets = true);

  /// Paper default: Random Forest with library-default hyperparameters.
  DomainSpecificModel();

  /// Trains on dataset rows selected by `rows` (all rows when empty).
  void train(const Dataset& dataset, std::span<const std::size_t> rows = {});

  bool trained() const noexcept { return trained_; }

  /// Regressor query width: prefix features + 1 (the frequency column).
  std::size_t input_width() const noexcept { return input_width_; }

  /// Predicts the full curve for one input across `freqs`, with speedup /
  /// normalized energy baselined on the prediction at `default_freq_mhz`.
  /// `prefix` is everything before the frequency column (the domain
  /// features here, the fused vector for the hybrid family) and must have
  /// input_width() - 1 entries; any other width is a contract_error, as
  /// is a non-finite frequency or default frequency. Both regressors are
  /// queried through ml::Regressor::predict_sweep over `freqs_mhz` plus
  /// the default clock: a forest walks each tree once per call, not once
  /// per clock, with results bit-identical to row-by-row predict_one.
  Prediction predict(std::span<const double> prefix,
                     std::span<const double> freqs_mhz,
                     double default_freq_mhz) const;

  const ml::Regressor& time_model() const { return *time_model_; }

  /// Serializes the trained model (both regressors, via ml/serialize) so
  /// it can be stored in a "dsem-model-v1" artifact (serve/artifact.hpp).
  /// Round-trips bit-identically: from_json(to_json()) predicts the same
  /// values bit for bit. Throws for untrained models.
  json::Value to_json() const;
  /// `input_width` is the regressors' query width (prefix features + the
  /// frequency column); every tree split is checked against it.
  static DomainSpecificModel from_json(const json::Value& value,
                                       std::size_t input_width);

private:
  friend class HybridModel;

  /// `rows`, or every row of a non-empty `dataset` when `rows` is empty
  /// (the train() convention).
  static std::vector<std::size_t>
  selected_rows(const Dataset& dataset, std::span<const std::size_t> rows);

  /// The shared fit: `x` holds one query row per entry of `rows`, whose
  /// time/energy targets come from `dataset`.
  void fit(const ml::Matrix& x, const Dataset& dataset,
           std::span<const std::size_t> rows);

  std::unique_ptr<ml::Regressor> time_model_;
  std::unique_ptr<ml::Regressor> energy_model_;
  bool log_targets_ = true;
  bool trained_ = false;
  std::size_t input_width_ = 0;
};

} // namespace dsem::core
