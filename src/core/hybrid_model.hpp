// Hybrid static+dynamic energy/time model — the third model family
// (DSO-style; DESIGN.md §7.13).
//
// Where the domain-specific model maps [Table-2 features..., frequency] to
// time/energy and the general-purpose baseline maps static code features
// to ratios, the hybrid family fuses both sides: its regressors consume
// [domain features..., hybrid block..., frequency], with the hybrid block
// (core/kernel_features.hpp) carrying per-kernel static mix, launch
// geometry, and the dynamic profile of one noise-free default-clock run.
// The dynamic half gives it what pure input-feature models lack off the
// training grid: the execution model's own scale estimate, so
// extrapolation to unseen input sizes anchors on physics instead of tree
// boundaries (Afzal et al., arXiv 2607.00819).
//
// The hybrid family is the domain-specific curve model over a wider
// prefix: this class only builds the fused prefix (one per input group)
// and delegates the fit, the batched curve predict and the baseline
// normalisation to its DomainSpecificModel. Serving reaches it through
// serve::ModelArtifact::predict, which rebuilds the workload from the
// request's domain features.
//
// Training and prediction are bit-identical for any thread-pool size: the
// fused features are pure arithmetic and the regressors inherit the ml::
// determinism contract.
#pragma once

#include "common/json.hpp"
#include "core/dataset.hpp"
#include "core/ds_model.hpp"
#include "core/kernel_features.hpp"
#include "ml/forest.hpp"

namespace dsem::core {

class HybridModel {
public:
  /// Uses clones of `prototype` for the time and energy regressors; with
  /// `log_targets` (default) they fit log(time)/log(energy) — the same
  /// geometric shape-blending rationale as the domain-specific family.
  explicit HybridModel(const ml::Regressor& prototype, bool log_targets = true);

  /// Random Forest with the paper-default hyperparameters.
  HybridModel();

  /// Trains on dataset rows selected by `rows` (all rows when empty).
  /// `workloads` must be the list (same order) build_dataset consumed —
  /// each group's fused features are recomputed from its workload on
  /// `spec` at the group's default clock.
  void train(const Dataset& dataset,
             std::span<const std::unique_ptr<Workload>> workloads,
             const sim::DeviceSpec& spec,
             std::span<const std::size_t> rows = {});

  bool trained() const noexcept { return model_.trained(); }

  /// Predicts the full curve for one workload across `freqs_mhz`, with
  /// speedup / normalized energy baselined on the prediction at
  /// `default_freq_mhz` (§4.2.3).
  Prediction predict(const Workload& workload, const sim::DeviceSpec& spec,
                     std::span<const double> freqs_mhz,
                     double default_freq_mhz) const;

  /// Regressor input width: fused features + 1 (frequency column).
  std::size_t input_width() const noexcept { return model_.input_width(); }

  /// Serializes the trained model (ml/serialize) for the "dsem-model-v1"
  /// hybrid payload. Round-trips byte-stably and predicts bit-identically
  /// after from_json(to_json()). Throws for untrained models.
  json::Value to_json() const;
  static HybridModel from_json(const json::Value& value);

private:
  DomainSpecificModel model_;
};

} // namespace dsem::core
