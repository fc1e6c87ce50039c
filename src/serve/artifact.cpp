#include "serve/artifact.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/workload.hpp"
#include "sim/device_spec.hpp"

namespace dsem::serve {

core::Prediction ModelArtifact::predict(std::span<const double> features,
                                        std::span<const double> freqs) const {
  DSEM_ENSURE(is_advisable(), "artifact " + key.to_string() +
                                  ": predictions need a domain-specific or "
                                  "hybrid model");
  DSEM_ENSURE(features.size() == feature_names.size(),
              "artifact " + key.to_string() + ": feature count mismatch");
  DSEM_ENSURE(std::all_of(features.begin(), features.end(),
                          [](double f) { return std::isfinite(f); }),
              "artifact " + key.to_string() + ": non-finite feature");
  if (ds != nullptr) {
    return ds->predict(features, freqs, default_freq_mhz);
  }
  // The canonical workload the features describe, on the device preset
  // the key names: the construction the hybrid training run used.
  const auto workload = core::workload_from_features(key.application, features);
  return hybrid->predict(*workload, sim::preset_by_name(key.device), freqs,
                         default_freq_mhz);
}

json::Value ModelArtifact::to_json() const {
  DSEM_ENSURE(holds_one_model(), "artifact must hold exactly one model");
  DSEM_ENSURE(!key.application.empty() && !key.device.empty(),
              "artifact key must name an application and a device");
  DSEM_ENSURE(!freqs_mhz.empty(), "artifact without a frequency schedule");
  DSEM_ENSURE(default_freq_mhz > 0.0, "artifact without a default clock");

  auto out = json::Value::object();
  out.set("schema", kModelSchema);
  out.set("kind", ds      ? "domain-specific"
                  : gp    ? "general-purpose"
                          : "hybrid");
  out.set("application", key.application);
  out.set("device", key.device);
  out.set("origin", origin);
  auto names = json::Value::array();
  for (const std::string& name : feature_names) {
    names.push_back(name);
  }
  out.set("feature_names", std::move(names));
  auto freqs = json::Value::array();
  for (const double f : freqs_mhz) {
    freqs.push_back(f);
  }
  out.set("freqs_mhz", std::move(freqs));
  out.set("default_freq_mhz", default_freq_mhz);
  out.set("model", ds      ? ds->to_json()
                   : gp    ? gp->to_json()
                           : hybrid->to_json());
  return out;
}

ModelArtifact ModelArtifact::from_json(const json::Value& value) {
  DSEM_ENSURE(value.is_object(), "model artifact: not a JSON object");
  const json::Value* schema = value.find("schema");
  DSEM_ENSURE(schema != nullptr && schema->is_string(),
              "model artifact: missing schema tag");
  DSEM_ENSURE(schema->as_string() == kModelSchema,
              "model artifact: unsupported schema \"" + schema->as_string() +
                  "\" (this build reads " + kModelSchema + ")");

  ModelArtifact artifact;
  artifact.key.application = value.at("application").as_string();
  artifact.key.device = value.at("device").as_string();
  artifact.origin = value.at("origin").as_string();
  for (const json::Value& name : value.at("feature_names").as_array()) {
    artifact.feature_names.push_back(name.as_string());
  }
  for (const json::Value& f : value.at("freqs_mhz").as_array()) {
    artifact.freqs_mhz.push_back(f.as_number());
  }
  artifact.default_freq_mhz = value.at("default_freq_mhz").as_number();
  DSEM_ENSURE(!artifact.freqs_mhz.empty(),
              "model artifact: empty frequency schedule");
  DSEM_ENSURE(artifact.default_freq_mhz > 0.0,
              "model artifact: non-positive default clock");

  const std::string& kind = value.at("kind").as_string();
  if (kind == "domain-specific") {
    artifact.ds = std::make_shared<core::DomainSpecificModel>(
        core::DomainSpecificModel::from_json(
            value.at("model"), artifact.feature_names.size() + 1));
  } else if (kind == "general-purpose") {
    artifact.gp = std::make_shared<core::GeneralPurposeModel>(
        core::GeneralPurposeModel::from_json(value.at("model")));
  } else if (kind == "hybrid") {
    artifact.hybrid = std::make_shared<core::HybridModel>(
        core::HybridModel::from_json(value.at("model")));
  } else {
    throw contract_error("model artifact: unknown kind \"" + kind + "\"");
  }
  return artifact;
}

void ModelArtifact::save_file(const std::string& path) const {
  json::write_file(path, to_json());
}

ModelArtifact ModelArtifact::load_file(const std::string& path) {
  // Origin is kept exactly as stored so save → load → save is byte-equal.
  return from_json(json::read_file(path));
}

} // namespace dsem::serve
