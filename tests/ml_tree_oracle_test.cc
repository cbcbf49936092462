// Bitwise differential of ml::TreeFitter against the per-node builder it
// replaced (tree_builder_oracle.{h,cc}): on seeded fixtures with bootstrap
// duplicates, tie-heavy integer columns, constant and NaN columns (NaN in
// row 0 included) and the min_samples_leaf / max_features / max_bins
// edges, every tree and every prediction must be identical to the bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "ml/ops/tree_builder.h"
#include "tree_builder_oracle.h"

namespace hyppo::ml {
namespace {

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

void ExpectSameTree(const FlatTree& want, const FlatTree& got) {
  EXPECT_EQ(want.feature, got.feature);
  EXPECT_EQ(want.left, got.left);
  EXPECT_EQ(want.right, got.right);
  EXPECT_EQ(Bits(want.threshold), Bits(got.threshold));
  EXPECT_EQ(Bits(want.value), Bits(got.value));
}

int64_t InternalNodes(const FlatTree& tree) {
  int64_t count = 0;
  for (int32_t f : tree.feature) {
    count += f >= 0 ? 1 : 0;
  }
  return count;
}

// Column c cycles through the value kinds the builders must agree on.
double FixtureValue(const Dataset& data, int64_t row, int64_t col,
                    Rng& rng) {
  switch (col % 8) {
    case 0:
      return rng.Gaussian();
    case 1:
      return static_cast<double>(rng.UniformInt(0, 3));  // heavy ties
    case 2:
      return 2.5;  // constant
    case 3:
      return row == 0 || rng.Bernoulli(0.2) ? std::nan("")
                                            : rng.Uniform(-1.0, 1.0);
    case 4:
      return static_cast<double>(rng.UniformInt(-2, 2)) * 0.0;  // +-0
    case 5:
      return rng.Bernoulli(0.1) ? std::nan("")
                                : static_cast<double>(rng.UniformInt(0, 9));
    case 6:
      return std::round(rng.Gaussian() * 4.0) / 4.0;
    default:
      // Column 1 with its ties broken by descending row: at the end of each
      // run of column 1 both split the rows alike, with equal gains summed
      // in another order, so the order within runs decides the winner.
      return data.at(row, col - 6) - 1e-9 * static_cast<double>(row);
  }
}

Dataset MakeFixture(int64_t rows, int64_t cols, bool classifier, Rng& rng) {
  Dataset data(rows, cols);
  std::vector<double> target(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double signal = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double v = FixtureValue(data, r, c, rng);
      data.at(r, c) = v;
      if (!std::isnan(v)) {
        signal += (c % 2 == 0 ? 1.0 : -0.5) * v;
      }
    }
    const double noisy = signal + 0.5 * rng.Gaussian();
    // Rounded regression targets keep (value, target) ties common; their
    // large, inexact scale makes every sum depend on its order.
    target[static_cast<size_t>(r)] =
        classifier ? (noisy > 0.0 ? 1.0 : 0.0)
                   : std::round(noisy * 2.0) * 12345.6789 + 0.1;
  }
  data.set_target(std::move(target));
  return data;
}

std::vector<int64_t> AllRows(int64_t n) {
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

std::vector<int64_t> Bootstrap(int64_t n, int64_t m, Rng& rng) {
  std::vector<int64_t> rows(static_cast<size_t>(m));
  for (auto& row : rows) {
    row = static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(n)));
  }
  return rows;
}

// Builds `rows` with the fitter and the oracle and checks tree and
// predictions bitwise; returns the tree's internal node count.
int64_t ExpectMatchesOracle(const Dataset& data, TreeFitter& fitter,
                            const std::vector<double>& targets,
                            const std::vector<int64_t>& rows,
                            const TreeOptions& options, uint64_t seed) {
  auto want = oracle::BuildTree(data, targets, rows, options, seed);
  auto got = fitter.Build(targets, rows, seed);
  EXPECT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!want.ok() || !got.ok()) {
    return 0;
  }
  ExpectSameTree(*want, *got);
  std::vector<double> want_pred(static_cast<size_t>(data.rows()), 0.25);
  std::vector<double> got_pred = want_pred;
  oracle::AccumulateTreePredictions(*want, data, 0.7, want_pred);
  AccumulateTreePredictions(*got, data, 0.7, got_pred);
  EXPECT_EQ(Bits(want_pred), Bits(got_pred));
  return InternalNodes(*got);
}

TEST(TreeFitterOracle, SeededFixturesMatchBitwise) {
  const int32_t bins_choices[] = {2, 3, 7, 64, 255, 256};
  int64_t splits = 0;
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int64_t n = rng.UniformInt(1, 240);
    const int64_t d = rng.UniformInt(1, 10);
    const bool classifier = rng.Bernoulli(0.5);
    const Dataset data = MakeFixture(n, d, classifier, rng);
    TreeOptions options;
    options.histogram = seed % 2 == 0;
    options.classifier = classifier;
    options.max_depth = static_cast<int32_t>(rng.UniformInt(0, 7));
    options.min_samples_leaf =
        rng.Bernoulli(0.1) ? n : rng.UniformInt(1, 8);
    options.min_samples_split = rng.UniformInt(0, 12);
    options.max_features = rng.UniformInt(0, d + 1);
    options.max_bins = bins_choices[rng.NextBelow(6)];
    auto fitter = TreeFitter::Make(data, options);
    ASSERT_TRUE(fitter.ok()) << fitter.status().ToString();
    // One fitter serves every tree: full rows, a bootstrap sample with
    // duplicates, and a smaller subsample.
    splits += ExpectMatchesOracle(data, *fitter, data.target(), AllRows(n),
                                  options, rng.Next());
    splits += ExpectMatchesOracle(data, *fitter, data.target(),
                                  Bootstrap(n, n, rng), options, rng.Next());
    splits += ExpectMatchesOracle(data, *fitter, data.target(),
                                  Bootstrap(n, (n + 1) / 2, rng), options,
                                  rng.Next());
  }
  EXPECT_GT(splits, 500);  // the fixtures grow real trees
}

TEST(TreeFitterOracle, OptionEdgesMatchBitwise) {
  Rng rng(77);
  const int64_t n = 150;
  const int64_t d = 7;
  const Dataset data = MakeFixture(n, d, /*classifier=*/false, rng);
  for (bool histogram : {false, true}) {
    for (int32_t max_bins : {2, 256}) {
      for (int64_t min_leaf : {int64_t{1}, n / 2, n}) {
        for (int64_t max_features : {int64_t{0}, int64_t{1}, d, d + 3}) {
          SCOPED_TRACE(std::to_string(histogram) + " bins " +
                       std::to_string(max_bins) + " leaf " +
                       std::to_string(min_leaf) + " features " +
                       std::to_string(max_features));
          TreeOptions options;
          options.histogram = histogram;
          options.max_bins = max_bins;
          options.min_samples_leaf = min_leaf;
          options.min_samples_split = 2;
          options.max_features = max_features;
          auto fitter = TreeFitter::Make(data, options);
          ASSERT_TRUE(fitter.ok());
          ExpectMatchesOracle(data, *fitter, data.target(),
                              Bootstrap(n, n, rng), options, rng.Next());
        }
      }
    }
  }
}

TEST(TreeFitterOracle, BoostingResidualTargetsMatchBitwise) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 31);
    const Dataset data = MakeFixture(200, 8, /*classifier=*/false, rng);
    TreeOptions options;
    options.histogram = seed % 2 == 0;
    options.max_depth = 3;
    auto fitter = TreeFitter::Make(data, options);
    ASSERT_TRUE(fitter.ok());
    const std::vector<int64_t> rows = AllRows(data.rows());
    std::vector<double> residual = data.target();
    for (int stage = 0; stage < 8; ++stage) {
      // Each stage fits the residuals the previous stages left, so the
      // fitter re-sorts every run of equal values by new targets.
      auto want = oracle::BuildTree(data, residual, rows, options, 5);
      auto got = fitter->Build(residual, rows, 5);
      ASSERT_TRUE(want.ok() && got.ok());
      ExpectSameTree(*want, *got);
      std::vector<double> stage_pred(residual.size(), 0.0);
      AccumulateTreePredictions(*got, data, 1.0, stage_pred);
      for (size_t i = 0; i < residual.size(); ++i) {
        residual[i] -= 0.1 * stage_pred[i];
      }
    }
  }
}

// More than 65536 rows: the fitter switches to 32-bit row indices.
TEST(TreeFitterOracle, LargeInputMatchesBitwise) {
  Rng rng(9);
  const Dataset data = MakeFixture(70000, 3, /*classifier=*/true, rng);
  for (bool histogram : {false, true}) {
    TreeOptions options;
    options.histogram = histogram;
    options.max_depth = 3;
    auto fitter = TreeFitter::Make(data, options);
    ASSERT_TRUE(fitter.ok());
    EXPECT_GT(ExpectMatchesOracle(data, *fitter, data.target(),
                                  Bootstrap(data.rows(), data.rows(), rng),
                                  options, 3),
              0);
  }
}

TEST(TreeFitterOracle, RejectsBadInputs) {
  Rng rng(4);
  const Dataset data = MakeFixture(20, 3, /*classifier=*/true, rng);
  for (int32_t max_bins : {-1, 0, 1, 257}) {
    TreeOptions options;
    options.max_bins = max_bins;
    EXPECT_FALSE(TreeFitter::Make(data, options).ok()) << max_bins;
  }
  auto fitter = TreeFitter::Make(data, TreeOptions());
  ASSERT_TRUE(fitter.ok());
  EXPECT_FALSE(fitter->Build(data.target(), {}, 1).ok());
  EXPECT_FALSE(fitter->Build(data.target(), {0, 20}, 1).ok());
  EXPECT_FALSE(fitter->Build({1.0, 0.0}, {0, 1}, 1).ok());
}

}  // namespace
}  // namespace hyppo::ml
