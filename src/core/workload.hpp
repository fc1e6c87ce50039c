// Application workloads as the energy-modeling layer sees them.
//
// A workload is "one application run with one concrete input": it knows
// its domain-specific feature vector (Table 2), can submit its kernel
// sequence to a queue (SimOnly fast path), and exposes the aggregate
// static profile the general-purpose model consumes (Table 1 features).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cronos/grid.hpp"
#include "ligen/dock.hpp"
#include "sim/kernel_profile.hpp"
#include "synergy/queue.hpp"

namespace dsem::core {

/// One launch class of a workload's run: a kernel's per-item profile, its
/// launch geometry, and how often the run launches it. The list of these
/// is the per-kernel view the hybrid feature extractor consumes
/// (core/kernel_features.hpp); `launches * work_items` summed over the
/// list is the run's total work.
struct KernelLaunch {
  sim::KernelProfile profile;
  std::size_t work_items = 0;
  double launches = 1.0;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Short identifier, e.g. "160x64x64" or "89x20x10000".
  virtual std::string name() const = 0;

  /// Application this workload belongs to ("cronos" / "ligen").
  virtual std::string application() const = 0;

  /// Domain-specific features (Table 2), in the documented order.
  virtual std::vector<double> domain_features() const = 0;

  /// Names matching domain_features(), for table output.
  virtual std::vector<std::string> feature_names() const = 0;

  /// Submit the full kernel sequence of one run (no host numerics).
  virtual void submit(synergy::Queue& queue) const = 0;

  /// Work-weighted aggregate of the run's kernel profiles (per work-item),
  /// i.e. the static code features available without executing.
  virtual sim::KernelProfile aggregate_profile() const = 0;

  /// The distinct kernel launch classes of one run, with launch counts and
  /// geometry. Submitting the workload issues exactly these launches (in
  /// some order); consumers must not depend on the list's order — the
  /// hybrid feature extractor canonicalizes it.
  virtual std::vector<KernelLaunch> kernel_launches() const = 0;
};

/// Cronos run: `steps` timesteps of the MHD solver on a given grid.
class CronosWorkload final : public Workload {
public:
  explicit CronosWorkload(cronos::GridDims dims, int steps = 10,
                          int num_vars = 8);

  std::string name() const override { return dims_.to_string(); }
  std::string application() const override { return "cronos"; }
  std::vector<double> domain_features() const override;
  std::vector<std::string> feature_names() const override;
  void submit(synergy::Queue& queue) const override;
  sim::KernelProfile aggregate_profile() const override;
  std::vector<KernelLaunch> kernel_launches() const override;

  const cronos::GridDims& dims() const noexcept { return dims_; }
  int steps() const noexcept { return steps_; }

private:
  cronos::GridDims dims_;
  int steps_;
  int num_vars_;
};

/// LiGen run: screening of `ligands` ligands of a given structure.
class LigenWorkload final : public Workload {
public:
  LigenWorkload(int ligands, int atoms, int fragments,
                ligen::DockingParams params = {},
                std::size_t batch_size = 4096);

  std::string name() const override;
  std::string application() const override { return "ligen"; }
  std::vector<double> domain_features() const override;
  std::vector<std::string> feature_names() const override;
  void submit(synergy::Queue& queue) const override;
  sim::KernelProfile aggregate_profile() const override;
  std::vector<KernelLaunch> kernel_launches() const override;

  int ligands() const noexcept { return ligands_; }
  int atoms() const noexcept { return atoms_; }
  int fragments() const noexcept { return fragments_; }

private:
  int ligands_;
  int atoms_;
  int fragments_;
  ligen::DockingParams params_;
  std::size_t batch_size_;
};

/// Rebuilds a workload from its application name and Table-2 feature
/// vector, using the canonical run shapes of the serving training sets
/// (cronos: 10 solver steps; ligen: default docking parameters and batch
/// size). This is how the serving layer recovers per-kernel features for
/// hybrid-model queries that carry only domain features
/// (serve::ModelArtifact::predict). Features are rounded to the nearest
/// integer; throws for unknown applications and for values that do not
/// round to a positive int (non-finite, < 0.5, or > INT_MAX).
std::unique_ptr<Workload>
workload_from_features(const std::string& application,
                       std::span<const double> features);

} // namespace dsem::core
