// Bitwise differential of ml::TreeFitter against the per-node builder it
// replaced (tree_builder_oracle.{h,cc}): on seeded fixtures with bootstrap
// duplicates, tie-heavy integer columns, constant and NaN columns (NaN in
// row 0 included) and the min_samples_leaf / max_features / max_bins
// edges, every tree and every prediction must be identical to the bit.
// The histogram bin codes, computed by arithmetic, must also equal the
// std::upper_bound search on the columns where a guess from a value's
// offset is most likely to be off.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
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

// Columns that stress the arithmetic bin codes, `rows` values each.
std::vector<std::vector<double>> BinningColumns(size_t rows, int32_t max_bins,
                                                Rng& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<std::vector<double>> columns;
  const auto add = [&](auto value_of) {
    std::vector<double> col(rows);
    for (size_t r = 0; r < rows; ++r) {
      col[r] = value_of(r);
    }
    columns.push_back(std::move(col));
  };
  add([&](size_t) { return rng.Gaussian(); });
  // Every edge of a [-1, 3] column, and its neighbours either side, with
  // the range's ends kept so the edges stay the same.
  {
    std::vector<double> base = {-1.0, 3.0};
    std::vector<double> edges;
    std::vector<uint8_t> codes(base.size());
    BinColumn(base.data(), base.size(), max_bins, edges, codes.data());
    std::vector<double> on_edges = {-1.0, 3.0};
    for (double e : edges) {
      on_edges.insert(on_edges.end(), {e, std::nextafter(e, -inf),
                                       std::nextafter(e, inf)});
    }
    add([&](size_t r) { return on_edges[r % on_edges.size()]; });
  }
  // Signed zeros, as the minimum and inside the range.
  add([&](size_t r) { return r % 2 == 0 ? -0.0 : 0.0 + (r % 5 == 1); });
  add([&](size_t r) { return r % 3 == 0 ? -0.0 : (r % 3 == 1 ? 0.0 : -2.0); });
  // NaN, in row 0 and scattered.
  add([&](size_t r) {
    return r == 0 || rng.Bernoulli(0.2) ? nan : rng.Uniform(-5.0, 5.0);
  });
  // Constant, all-NaN, constant with NaN.
  add([](size_t) { return 2.5; });
  add([&](size_t) { return nan; });
  add([&](size_t r) { return r % 4 == 0 ? nan : 7.0; });
  // Two values, far apart and one ulp apart.
  add([](size_t r) { return r % 2 == 0 ? -1e300 : 1e300; });
  add([](size_t r) { return r % 2 == 0 ? 1.0 : std::nextafter(1.0, 2.0); });
  // Subnormal ranges: too narrow to divide by, and subnormal edges.
  add([&](size_t r) { return static_cast<double>(r % 7) * tiny; });
  add([&](size_t) { return rng.Uniform(0.0, 3e-306); });
  // Ranges whose width overflows to infinity.
  add([&](size_t r) { return r % 3 == 0 ? -1.5e308 : rng.Uniform(0.0, 1.5e308); });
  add([&](size_t r) { return r % 5 == 0 ? inf : rng.Gaussian(); });
  add([&](size_t r) { return r % 5 == 0 ? -inf : rng.Gaussian(); });
  return columns;
}

TEST(TreeFitterOracle, ArithmeticBinCodesMatchUpperBound) {
  const size_t rows = 300;
  for (int32_t max_bins : {2, 3, 64, 255, 256}) {
    Rng rng(static_cast<uint64_t>(max_bins));
    const std::vector<std::vector<double>> columns =
        BinningColumns(rows, max_bins, rng);
    for (size_t c = 0; c < columns.size(); ++c) {
      SCOPED_TRACE("max_bins " + std::to_string(max_bins) + " column " +
                   std::to_string(c));
      const std::vector<double>& col = columns[c];
      std::vector<double> edges = {42.0};  // cleared by BinColumn
      std::vector<uint8_t> codes(rows, 99);
      BinColumn(col.data(), rows, max_bins, edges, codes.data());
      EXPECT_TRUE(edges.empty() ||
                  edges.size() == static_cast<size_t>(max_bins - 1));
      for (size_t r = 0; r < rows; ++r) {
        const size_t want = static_cast<size_t>(
            std::upper_bound(edges.begin(), edges.end(), col[r]) -
            edges.begin());
        ASSERT_EQ(codes[r], want) << "row " << r << " value " << col[r];
      }
    }
    // The same columns, fitted: trees and predictions match the oracle,
    // which bins every row by search.
    Dataset data(static_cast<int64_t>(rows),
                 static_cast<int64_t>(columns.size()));
    std::vector<double> target(rows);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < columns.size(); ++c) {
        data.at(static_cast<int64_t>(r), static_cast<int64_t>(c)) =
            columns[c][r];
      }
      target[r] = rng.Gaussian();
    }
    data.set_target(std::move(target));
    TreeOptions options;
    options.histogram = true;
    options.max_bins = max_bins;
    options.min_samples_leaf = 1;
    options.min_samples_split = 2;
    auto fitter = TreeFitter::Make(data, options);
    ASSERT_TRUE(fitter.ok());
    EXPECT_GT(ExpectMatchesOracle(data, *fitter, data.target(),
                                  AllRows(data.rows()), options, 1),
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
