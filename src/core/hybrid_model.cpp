#include "core/hybrid_model.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

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
    : model_(prototype, log_targets) {}

HybridModel::HybridModel()
    : HybridModel(ml::RandomForestRegressor(default_forest_params())) {}

void HybridModel::train(const Dataset& dataset,
                        std::span<const std::unique_ptr<Workload>> workloads,
                        const sim::DeviceSpec& spec,
                        std::span<const std::size_t> rows) {
  const std::vector<std::size_t> selected =
      DomainSpecificModel::selected_rows(dataset, rows);
  DSEM_ENSURE(workloads.size() == dataset.num_groups(),
              "hybrid train: workload list does not match dataset groups");
  trace::Span span("train.hybrid", trace::cat::kTrain);
  span.value(static_cast<double>(selected.size()));
  metrics::ScopedTimer timer("train.hybrid_s");

  // One fused prefix per group (input), computed only for groups that
  // contribute training rows: domain features plus the default-clock
  // static+dynamic block of that group's workload.
  std::vector<std::vector<double>> fused(dataset.num_groups());
  std::size_t width = 0;
  for (const std::size_t r : selected) {
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
  ml::Matrix x(selected.size(), width + 1);
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const std::size_t r = selected[i];
    const std::vector<double>& prefix =
        fused[static_cast<std::size_t>(dataset.groups[r])];
    auto row = x.row(i);
    std::copy(prefix.begin(), prefix.end(), row.begin());
    row.back() = dataset.x.row(r)[freq_col];
  }
  model_.fit(x, dataset, selected);
}

Prediction HybridModel::predict(const Workload& workload,
                                const sim::DeviceSpec& spec,
                                std::span<const double> freqs_mhz,
                                double default_freq_mhz) const {
  return model_.predict(fused_feature_vector(workload, spec, default_freq_mhz),
                        freqs_mhz, default_freq_mhz);
}

json::Value HybridModel::to_json() const {
  // The DS payload plus the fused width, in the stored key order.
  json::Value curve = model_.to_json();
  auto out = json::Value::object();
  out.set("log_targets", std::move(curve.at("log_targets")));
  out.set("input_width", static_cast<double>(model_.input_width()));
  out.set("time", std::move(curve.at("time")));
  out.set("energy", std::move(curve.at("energy")));
  return out;
}

HybridModel HybridModel::from_json(const json::Value& value) {
  const double width = value.at("input_width").as_number();
  DSEM_ENSURE(width >= 2.0 && width == std::floor(width),
              "hybrid payload: bad input_width");
  HybridModel model;
  model.model_ = DomainSpecificModel::from_json(
      value, static_cast<std::size_t>(width));
  return model;
}

} // namespace dsem::core
