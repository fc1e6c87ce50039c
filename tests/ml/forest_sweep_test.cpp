// Bit-equality of the frequency-interval forest walk (DESIGN.md §7.10).
//
// RandomForestRegressor::predict_sweep walks each tree once per sweep,
// carrying a sorted range of the last column, instead of once per row.
// Its contract is exact: out[i] is predict_one([prefix..., sweep[i]]) bit
// for bit, which also makes it equal to predict_many over the same rows
// (the oracle). These 50-seed property tests fit forests and single trees
// on data with heavy value ties, so split thresholds coincide with sweep
// values and the `x <= threshold` tie routing is exercised on both sides.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/forest.hpp"
#include "ml/linear.hpp"
#include "ml/svr.hpp"
#include "ml/tree.hpp"

namespace dsem::ml {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Training data over k columns whose last column is the sweep column:
// every value sits on a coarse grid (ties within and across rows), rows
// repeat, and the last column takes a clock-like schedule of 12 values.
// `constant_sweep` pins the last column so no tree can split on it.
std::pair<Matrix, std::vector<double>>
sweep_data(std::size_t n, std::size_t k, std::uint64_t seed,
           bool constant_sweep = false) {
  Rng rng(seed);
  Matrix x(n, k);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.uniform() < 0.15) { // duplicate a previous row
      const std::size_t src = rng.uniform_int(i);
      for (std::size_t j = 0; j < k; ++j) {
        x(i, j) = x(src, j);
      }
      y[i] = y[src];
      continue;
    }
    for (std::size_t j = 0; j + 1 < k; ++j) {
      x(i, j) = std::floor(rng.uniform(0.0, 6.0));
    }
    x(i, k - 1) = constant_sweep
                      ? 900.0
                      : 300.0 + 100.0 * std::floor(rng.uniform(0.0, 12.0));
    const double clock = x(i, k - 1);
    y[i] = (k > 1 ? x(i, 0) : 1.0) * 1000.0 / clock +
           std::floor(rng.uniform(0.0, 3.0));
  }
  return {std::move(x), std::move(y)};
}

// Every threshold of a split on `feature`, across all trees.
std::vector<double> split_thresholds(const RandomForestRegressor& forest,
                                     int feature) {
  std::vector<double> out;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    for (const TreeNode& node : forest.tree(t).nodes()) {
      if (node.feature == feature) {
        out.push_back(node.threshold);
      }
    }
  }
  return out;
}

// The sweeps each case is checked on: unsorted with duplicates, exactly
// the last-column thresholds and their neighbours, out-of-range and
// infinite values, one element, and NaN mixed in.
std::vector<std::vector<double>>
sweeps_for(const RandomForestRegressor& forest, int sweep_feature,
           std::uint64_t seed) {
  Rng rng(derive_seed(seed, 3));
  std::vector<std::vector<double>> sweeps;

  std::vector<double> unsorted;
  for (int i = 0; i < 40; ++i) {
    unsorted.push_back(250.0 + 50.0 * std::floor(rng.uniform(0.0, 28.0)));
  }
  unsorted.push_back(unsorted.front()); // guaranteed duplicate
  sweeps.push_back(unsorted);

  std::vector<double> at_thresholds;
  for (const double t : split_thresholds(forest, sweep_feature)) {
    at_thresholds.push_back(t);
    at_thresholds.push_back(std::nextafter(t, -kInf));
    at_thresholds.push_back(std::nextafter(t, kInf));
  }
  std::reverse(at_thresholds.begin(), at_thresholds.end());
  if (!at_thresholds.empty()) {
    sweeps.push_back(at_thresholds);
  }

  sweeps.push_back({-1e300, 0.0, -0.0, 1e300, -kInf, kInf, 1.0, 5000.0});
  sweeps.push_back({unsorted[3]});
  sweeps.push_back({kInf});
  const double nan = std::nan("");
  sweeps.push_back({700.0, nan, 200.0, nan, 1500.0});
  sweeps.push_back({nan, 1500.0, 300.0, nan, 900.0, 600.0, 1200.0, nan, 450.0});
  return sweeps;
}

std::vector<double> prefix_for(const Matrix& x, std::uint64_t seed) {
  const std::size_t width = x.cols() - 1;
  Rng rng(derive_seed(seed, 5));
  if (seed % 2 == 0) { // a training row's prefix: prefix splits tie too
    const auto row = x.row(rng.uniform_int(x.rows()));
    return {row.begin(), row.begin() + static_cast<std::ptrdiff_t>(width)};
  }
  std::vector<double> prefix(width);
  for (double& v : prefix) {
    v = std::floor(rng.uniform(-1.0, 7.0)) + (rng.uniform() < 0.3 ? 0.5 : 0.0);
  }
  return prefix;
}

Matrix sweep_rows(std::span<const double> prefix,
                  std::span<const double> sweep) {
  Matrix rows(sweep.size(), prefix.size() + 1);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::copy(prefix.begin(), prefix.end(), rows.row(i).begin());
    rows(i, prefix.size()) = sweep[i];
  }
  return rows;
}

// Stricter than ==: tells -0.0 from 0.0, and equal NaNs (the base path
// with a non-finite sweep value) compare equal.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// predict_sweep against predict_one row by row and against predict_many.
void expect_sweep_matches_rows(const Regressor& model,
                               std::span<const double> prefix,
                               std::span<const double> sweep,
                               std::uint64_t seed) {
  const std::vector<double> swept = model.predict_sweep(prefix, sweep);
  const Matrix rows = sweep_rows(prefix, sweep);
  const std::vector<double> batch = model.predict_many(rows);
  ASSERT_EQ(swept.size(), sweep.size()) << "seed " << seed;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double one = model.predict_one(rows.row(i));
    ASSERT_TRUE(same_bits(swept[i], one))
        << model.name() << " seed " << seed << " row " << i << " sweep value "
        << sweep[i] << ": " << swept[i] << " vs predict_one " << one;
    ASSERT_TRUE(same_bits(swept[i], batch[i]))
        << model.name() << " seed " << seed << " row " << i;
  }
}

ForestParams forest_params(std::uint64_t seed) {
  ForestParams params;
  params.n_estimators = 1 + static_cast<int>(seed % 12);
  params.seed = seed * 31;
  if (seed % 3 == 1) {
    params.max_features = 1; // subsampling: some trees skip the sweep column
  }
  if (seed % 4 == 2) {
    params.max_depth = 5;
  }
  if (seed % 5 == 3) {
    params.min_samples_leaf = 3;
  }
  params.bootstrap = seed % 7 != 0;
  return params;
}

TEST(ForestSweep, ForestMatchesRowByRowOnTiedData) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t k = 1 + seed % 4; // k = 1: the prefix is empty
    const auto [x, y] = sweep_data(40 + (seed % 5) * 37, k, seed);
    RandomForestRegressor forest(forest_params(seed));
    forest.fit(x, y);
    ASSERT_FALSE(split_thresholds(forest, static_cast<int>(k - 1)).empty())
        << "seed " << seed << ": no split on the sweep column";

    const std::vector<double> prefix = prefix_for(x, seed);
    for (const auto& sweep : sweeps_for(forest, static_cast<int>(k - 1), seed)) {
      expect_sweep_matches_rows(forest, prefix, sweep, seed);
    }
  }
}

TEST(ForestSweep, SingleTreesMatchRowByRow) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t k = 2 + seed % 3;
    const auto [x, y] = sweep_data(30 + (seed % 4) * 41, k, derive_seed(seed, 9));
    TreeParams params;
    params.seed = seed;
    params.max_depth = seed % 3 == 0 ? 4 : 0;
    DecisionTreeRegressor tree(params);
    tree.fit(x, y);

    // The tree's own walk: every row gains exactly its predict_one leaf,
    // added once onto whatever the accumulator held.
    ForestParams one;
    one.n_estimators = 1;
    const auto forest = RandomForestRegressor::from_trees(one, {tree});
    const std::vector<double> prefix = prefix_for(x, seed);
    for (const auto& sweep : sweeps_for(forest, static_cast<int>(k - 1), seed)) {
      std::vector<double> sorted = sweep;
      std::sort(sorted.begin(), sorted.end(), [](double a, double b) {
        return a < b || (std::isnan(b) && !std::isnan(a));
      });
      std::vector<double> acc(sorted.size());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        acc[i] = static_cast<double>(i) * 0.25 - 3.0;
      }
      const std::vector<double> base = acc;
      tree.accumulate_sweep(prefix, sorted, acc);
      const Matrix rows = sweep_rows(prefix, sorted);
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        ASSERT_TRUE(same_bits(acc[i], base[i] + tree.predict_one(rows.row(i))))
            << "seed " << seed << " row " << i;
      }
      // A one-tree forest through predict_sweep.
      expect_sweep_matches_rows(forest, prefix, sweep, seed);
    }
  }
}

TEST(ForestSweep, TreesThatNeverSplitOnTheSweepColumn) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::size_t k = 2 + seed % 3;
    const auto [x, y] = sweep_data(60, k, seed, /*constant_sweep=*/true);
    RandomForestRegressor forest(forest_params(seed));
    forest.fit(x, y);
    ASSERT_TRUE(split_thresholds(forest, static_cast<int>(k - 1)).empty());

    const std::vector<double> prefix = prefix_for(x, seed);
    for (const auto& sweep : sweeps_for(forest, static_cast<int>(k - 1), seed)) {
      expect_sweep_matches_rows(forest, prefix, sweep, seed);
      const std::vector<double> swept = forest.predict_sweep(prefix, sweep);
      for (const double v : swept) {
        EXPECT_TRUE(same_bits(v, swept.front())) << "seed " << seed;
      }
    }
  }
}

TEST(ForestSweep, NonForestRegressorsTakeTheBaseRowPath) {
  const auto [x, y] = sweep_data(80, 3, 7);
  LinearRegressor linear;
  linear.fit(x, y);
  SvrRbf svr(10.0, 0.05, 0.5, 40);
  svr.fit(x, y);
  DecisionTreeRegressor tree;
  tree.fit(x, y);
  RandomForestRegressor forest(forest_params(4));
  forest.fit(x, y);
  const std::vector<double> prefix = prefix_for(x, 2);
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (const auto& sweep : sweeps_for(forest, 2, seed)) {
      expect_sweep_matches_rows(linear, prefix, sweep, seed);
      expect_sweep_matches_rows(svr, prefix, sweep, seed);
      expect_sweep_matches_rows(tree, prefix, sweep, seed);
    }
  }
}

TEST(ForestSweep, EmptySweepAndUnfittedForest) {
  const auto [x, y] = sweep_data(50, 3, 11);
  RandomForestRegressor forest(forest_params(5));
  const std::vector<double> prefix = {1.0, 2.0};
  const std::vector<double> sweep = {500.0};
  EXPECT_THROW((void)forest.predict_sweep(prefix, sweep), contract_error);
  forest.fit(x, y);
  EXPECT_TRUE(forest.predict_sweep(prefix, {}).empty());
}

} // namespace
} // namespace dsem::ml
