#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dsem::ml {

RandomForestRegressor::RandomForestRegressor(ForestParams params)
    : params_(params) {
  DSEM_ENSURE(params.n_estimators > 0, "n_estimators must be positive");
}

void RandomForestRegressor::fit(const Matrix& x, std::span<const double> y) {
  DSEM_ENSURE(x.rows() == y.size(), "fit: X/y size mismatch");
  DSEM_ENSURE(x.rows() > 0, "fit: empty dataset");
  metrics::ScopedTimer timer("ml.forest.fit_s");
  const std::size_t n = x.rows();
  const auto n_trees = static_cast<std::size_t>(params_.n_estimators);
  ThreadPool& pool =
      params_.pool != nullptr ? *params_.pool : ThreadPool::global();

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.min_samples_split = params_.min_samples_split;
  tp.min_samples_leaf = params_.min_samples_leaf;
  tp.max_features = params_.max_features;
  tp.pool = params_.pool;

  trees_.assign(n_trees, DecisionTreeRegressor(tp));

  // Sort every feature once and share the result: each tree re-sorts its
  // bootstrap in O(k·n) from this order instead of O(k·n log n) from
  // scratch (DESIGN.md §7.10).
  const auto presorted = detail::Presorted::build(x, y, params_.pool);

  // Derive one independent seed per tree up front so results do not depend
  // on scheduling order (CP.2: no shared mutable RNG across tasks).
  SplitMix64 seeder(params_.seed);
  std::vector<std::uint64_t> seeds(n_trees);
  for (auto& s : seeds) {
    s = seeder.next();
  }

  parallel_for(pool, 0, n_trees, [&](std::size_t t) {
    Rng rng(seeds[t]);
    TreeParams tree_params = tp;
    tree_params.seed = rng();

    // One bootstrap buffer per worker thread, fully rewritten per tree:
    // a forest draws hundreds of samples back to back, and the per-tree
    // allocation shows up on small fits where the draw itself is cheap.
    static thread_local std::vector<std::size_t> sample;
    sample.resize(n);
    if (params_.bootstrap) {
      for (auto& idx : sample) {
        idx = rng.uniform_int(n);
      }
    } else {
      std::iota(sample.begin(), sample.end(), 0);
    }
    DecisionTreeRegressor tree(tree_params);
    tree.fit_presorted(presorted, y, sample);
    trees_[t] = std::move(tree);
  });
}

RandomForestRegressor
RandomForestRegressor::from_trees(ForestParams params,
                                  std::vector<DecisionTreeRegressor> trees) {
  DSEM_ENSURE(trees.size() == static_cast<std::size_t>(params.n_estimators),
              "from_trees: tree count does not match n_estimators");
  for (const DecisionTreeRegressor& tree : trees) {
    DSEM_ENSURE(tree.node_count() > 0, "from_trees: unfitted tree");
  }
  RandomForestRegressor forest(params);
  forest.trees_ = std::move(trees);
  return forest;
}

double RandomForestRegressor::predict_one(std::span<const double> x) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  double acc = 0.0;
  for (const auto& tree : trees_) {
    acc += tree.predict_one(x);
  }
  return acc / static_cast<double>(trees_.size());
}

std::vector<double> RandomForestRegressor::predict_many(const Matrix& x) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  std::vector<double> out(x.rows(), 0.0);
  const auto run = [&](std::size_t lo, std::size_t hi) {
    // Tree-outer: one tree's node array stays hot across the whole chunk.
    // Each row still sums trees in ascending order — the predict_one sum.
    for (const auto& tree : trees_) {
      for (std::size_t r = lo; r < hi; ++r) {
        out[r] += tree.predict_one(x.row(r));
      }
    }
    const auto scale = static_cast<double>(trees_.size());
    for (std::size_t r = lo; r < hi; ++r) {
      out[r] /= scale;
    }
  };
  if (x.rows() >= 256) {
    ThreadPool& pool =
        params_.pool != nullptr ? *params_.pool : ThreadPool::global();
    parallel_for_chunks(pool, 0, x.rows(), run);
  } else {
    run(0, x.rows());
  }
  return out;
}

std::vector<double>
RandomForestRegressor::predict_sweep(std::span<const double> prefix,
                                     std::span<const double> sweep) const {
  DSEM_ENSURE(!trees_.empty(), "predict on unfitted RandomForestRegressor");
  const std::size_t n = sweep.size();
  // Stable argsort with NaN last: a strict weak order over every double,
  // under which `x <= threshold` holds on a prefix of every sorted range.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [sweep](std::size_t a, std::size_t b) {
                     return sweep[a] < sweep[b] ||
                            (std::isnan(sweep[b]) && !std::isnan(sweep[a]));
                   });
  std::vector<double> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted[i] = sweep[order[i]];
  }
  std::vector<double> acc(n, 0.0);
  for (const auto& tree : trees_) {
    tree.accumulate_sweep(prefix, sorted, acc);
  }
  const auto scale = static_cast<double>(trees_.size());
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[order[i]] = acc[i] / scale;
  }
  return out;
}

} // namespace dsem::ml
