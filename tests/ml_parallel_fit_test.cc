// Thread-count differential of the tree-model fits: a fit run with no
// pool, with a pool of no workers (one thread) and with a pool of three
// workers (four threads) must produce the same op-state and the same
// predictions, byte for byte. Forests grow their trees concurrently and
// every tree fit sorts or bins its columns concurrently above
// ml::TreeFitter::kFanOutMinCells cells, so the shapes are the `tree_fit`
// bench shapes, both above the floor. Single trees and boosting stages
// also scan large nodes' features concurrently; the wide shape's upper
// nodes are above ml::TreeFitter::kScanFanOutMinCells, and a constructed
// fit checks that the concurrent scan keeps the serial scan's margin rule.
// Columns carry ties and NaN so the exact fitter's tie-handling and NaN
// paths run in the fan-out too. The per-column operators (QuantileTransformer fit
// and transform, SimpleImputer fit) get the same differential above
// ml::kColumnFanOutMinCells.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/ops/ops.h"
#include "ml/ops/tree_builder.h"
#include "ml/registry.h"
#include "storage/serialization.h"

namespace hyppo {
namespace {

struct FitCase {
  const char* impl;
  int64_t rows;
  int64_t cols;
};

// Gaussian features with a linear-rule target; every third column is
// rounded to a few values (ties), and about 1% of values are NaN.
ml::DatasetPtr FitData(int64_t rows, int64_t cols, bool regression) {
  Rng rng(static_cast<uint64_t>(rows * 131 + cols));
  auto data = std::make_shared<ml::Dataset>(rows, cols);
  std::vector<double> target(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      double v = rng.Gaussian();
      dot += (c % 3 == 0 ? 1.0 : -0.5) * v;
      if (c % 3 == 1) {
        v = std::round(2.0 * v);
      }
      if (rng.NextBelow(100) == 0) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
      data->at(r, c) = v;
    }
    target[static_cast<size_t>(r)] =
        regression ? dot + 0.1 * rng.Gaussian() : (dot > 0.0 ? 1.0 : 0.0);
  }
  data->set_target(std::move(target));
  return data;
}

// Small ensembles keep the wide shape affordable under the sanitizers;
// a forest still has more trees than the four-thread pool has slots.
ml::Config FitConfig(const std::string& impl) {
  ml::Config config;
  if (impl.find("RandomForest") != std::string::npos) {
    config.SetInt("n_estimators", 6);
    config.SetInt("max_depth", 6);
  } else if (impl.find("GradientBoosting") != std::string::npos) {
    config.SetInt("n_estimators", 3);
    config.SetInt("max_depth", 3);
  } else {
    config.SetInt("max_depth", 5);
  }
  return config;
}

struct FitBytes {
  std::string state;
  std::string predictions;
};

FitBytes FitAndPredict(const ml::PhysicalOperator& op,
                       const ml::DatasetPtr& data, const ml::Config& config,
                       ThreadPool* pool) {
  FitBytes bytes;
  ml::TaskInputs fit_inputs;
  fit_inputs.datasets.push_back(data);
  fit_inputs.pool = pool;
  auto fitted = op.Execute(ml::MlTask::kFit, fit_inputs, config);
  EXPECT_TRUE(fitted.ok()) << fitted.status();
  if (!fitted.ok()) {
    return bytes;
  }
  auto state = storage::SerializePayload(fitted->states.at(0));
  EXPECT_TRUE(state.ok()) << state.status();
  bytes.state = state.ok() ? *state : "";
  ml::TaskInputs predict_inputs;
  predict_inputs.datasets.push_back(data);
  predict_inputs.states.push_back(fitted->states.at(0));
  auto predicted = op.Execute(ml::MlTask::kPredict, predict_inputs, config);
  EXPECT_TRUE(predicted.ok()) << predicted.status();
  if (!predicted.ok()) {
    return bytes;
  }
  auto preds = storage::SerializePayload(predicted->predictions.at(0));
  EXPECT_TRUE(preds.ok()) << preds.status();
  bytes.predictions = preds.ok() ? *preds : "";
  return bytes;
}

class ParallelFitOracleTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(ParallelFitOracleTest, SameBytesAtEveryThreadCount) {
  const FitCase& c = GetParam();
  ASSERT_GE(c.rows * c.cols, ml::TreeFitter::kFanOutMinCells);
  auto op = ml::OperatorRegistry::Global().Get(c.impl);
  ASSERT_TRUE(op.ok()) << op.status();
  const std::string impl = c.impl;
  const bool regression = impl.find("Regressor") != std::string::npos;
  const ml::DatasetPtr data = FitData(c.rows, c.cols, regression);
  const ml::Config config = FitConfig(impl);

  const FitBytes serial = FitAndPredict(**op, data, config, nullptr);
  ASSERT_FALSE(serial.state.empty());
  ASSERT_FALSE(serial.predictions.empty());
  ThreadPool one_thread(0);
  ThreadPool four_threads(3);
  for (ThreadPool* pool : {&one_thread, &four_threads}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->num_workers() + 1));
    const FitBytes got = FitAndPredict(**op, data, config, pool);
    EXPECT_TRUE(got.state == serial.state) << "op-state bytes differ";
    EXPECT_TRUE(got.predictions == serial.predictions)
        << "prediction bytes differ";
  }
}

std::vector<FitCase> AllCases() {
  const char* const kImpls[] = {
      "skl.RandomForestClassifier",   "lgb.RandomForestClassifier",
      "skl.RandomForestRegressor",    "lgb.RandomForestRegressor",
      "skl.DecisionTreeClassifier",   "lgb.DecisionTreeClassifier",
      "skl.GradientBoostingRegressor", "lgb.GradientBoostingRegressor",
  };
  // The wide shape's root and upper nodes scan over the pool.
  static_assert(4000 * 495 >= 8 * ml::TreeFitter::kScanFanOutMinCells);
  std::vector<FitCase> cases;
  for (const auto& [rows, cols] : {std::pair<int64_t, int64_t>{4000, 30},
                                   std::pair<int64_t, int64_t>{4000, 495}}) {
    for (const char* impl : kImpls) {
      cases.push_back({impl, rows, cols});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<FitCase>& info) {
  std::string name = info.param.impl;
  for (char& ch : name) {
    if (ch == '.') {
      ch = '_';
    }
  }
  return name + "_" + std::to_string(info.param.rows) + "x" +
         std::to_string(info.param.cols);
}

INSTANTIATE_TEST_SUITE_P(TreeFits, ParallelFitOracleTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Gains of feature value column `x` at each boundary between distinct
// values, computed as the fitter's scan does (targets summed in value
// order, node sum in row order); `x` must hold distinct values.
std::vector<double> BoundaryGains(const std::vector<double>& x,
                                  const std::vector<double>& t) {
  const auto score = [](double sum, double count) {
    return sum * sum / count;
  };
  std::vector<size_t> order(x.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&x](size_t a, size_t b) { return x[a] < x[b]; });
  double total = 0.0;
  for (double target : t) {
    total += target;
  }
  const double n = static_cast<double>(t.size());
  std::vector<double> gains;
  double left_sum = 0.0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    left_sum += t[order[i]];
    const double left_n = static_cast<double>(i + 1);
    gains.push_back(score(left_sum, left_n) +
                    score(total - left_sum, n - left_n) - score(total, n));
  }
  return gains;
}

// Two informative features among constant ones, whose gains are within the
// 1e-12 margin of each other. Scanned in feature order, feature 0 sets the
// best at its first boundary; feature 1's first boundary is within the
// margin of it and its last beats it by more. So the serial rule picks
// feature 1's last boundary, but keeping each feature's own best (feature
// 1's first boundary, which its last does not beat by the margin) and then
// reducing in order would pick feature 0. The constant columns put the
// root node above the scan floor.
TEST(ParallelFitMarginTest, ConcurrentScanKeepsTheSerialMarginRule) {
  const std::vector<double> t = {-7.5e-13,          0.0,    1.00000000000075,
                                 2.5e-13,           1.00000000000075,
                                 1.0000000000005};
  const std::vector<double> x0 = {2, 4, 3, 0, 5, 1};
  const std::vector<double> x1 = {5, 0, 1, 2, 3, 4};
  const std::vector<double> g0 = BoundaryGains(x0, t);
  const std::vector<double> g1 = BoundaryGains(x1, t);
  // The construction: g0[0] leads; g1[0] and g1[4] against it.
  ASSERT_GT(g0[0], 1e-12);
  ASSERT_LE(*std::max_element(g0.begin(), g0.end()), g0[0] + 1e-12);
  ASSERT_GT(g1[0], g0[0]);
  ASSERT_LE(g1[0], g0[0] + 1e-12);
  ASSERT_GT(g1[4], g0[0] + 1e-12);
  ASSERT_LE(g1[4], g1[0] + 1e-12);
  ASSERT_EQ(*std::max_element(g1.begin(), g1.end()), g1[4]);

  const int64_t rows = static_cast<int64_t>(t.size());
  const int64_t cols =
      ml::TreeFitter::kScanFanOutMinCells / rows + 2;
  ml::Dataset data(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      data.at(r, c) = 1.0;
    }
    data.at(r, 0) = x0[static_cast<size_t>(r)];
    data.at(r, cols - 1) = x1[static_cast<size_t>(r)];
  }
  std::vector<int64_t> all_rows(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    all_rows[static_cast<size_t>(r)] = r;
  }
  ThreadPool one_thread(0);
  ThreadPool four_threads(3);
  for (bool histogram : {false, true}) {
    SCOPED_TRACE(histogram ? "histogram" : "exact");
    ml::TreeOptions options;
    options.histogram = histogram;
    options.max_depth = 1;
    options.min_samples_leaf = 1;
    options.min_samples_split = 2;
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one_thread,
                             &four_threads}) {
      auto fitter = ml::TreeFitter::Make(data, options, pool);
      ASSERT_TRUE(fitter.ok()) << fitter.status();
      auto tree = fitter->Build(t, all_rows, 1);
      ASSERT_TRUE(tree.ok()) << tree.status();
      ASSERT_EQ(tree->feature.size(), 3u);
      EXPECT_EQ(tree->feature[0], cols - 1);
      // Feature 1's last boundary lies between its values 4 and 5.
      EXPECT_GT(tree->threshold[0], 4.0);
      EXPECT_LT(tree->threshold[0], 5.0);
    }
  }
}

// Per-column operators: Gaussian columns with rounded (tied) columns and
// about 3% NaN.
ml::DatasetPtr ColumnData(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  auto data = std::make_shared<ml::Dataset>(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      double v = rng.Gaussian() * static_cast<double>(c + 1);
      if (c % 4 == 1) {
        v = std::round(v);
      }
      if (rng.NextBelow(32) == 0) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
      data->at(r, c) = v;
    }
  }
  return data;
}

struct ColumnOpBytes {
  std::string state;
  std::string transformed;
};

ColumnOpBytes FitAndTransform(const ml::PhysicalOperator& op,
                              const ml::DatasetPtr& train,
                              const ml::DatasetPtr& apply,
                              const ml::Config& config, ThreadPool* pool) {
  ColumnOpBytes bytes;
  ml::TaskInputs fit_inputs;
  fit_inputs.datasets.push_back(train);
  fit_inputs.pool = pool;
  auto fitted = op.Execute(ml::MlTask::kFit, fit_inputs, config);
  EXPECT_TRUE(fitted.ok()) << fitted.status();
  if (!fitted.ok()) {
    return bytes;
  }
  auto state = storage::SerializePayload(fitted->states.at(0));
  EXPECT_TRUE(state.ok()) << state.status();
  bytes.state = state.ok() ? *state : "";
  ml::TaskInputs transform_inputs;
  transform_inputs.datasets.push_back(apply);
  transform_inputs.states.push_back(fitted->states.at(0));
  transform_inputs.pool = pool;
  auto transformed =
      op.Execute(ml::MlTask::kTransform, transform_inputs, config);
  EXPECT_TRUE(transformed.ok()) << transformed.status();
  if (!transformed.ok()) {
    return bytes;
  }
  auto out = storage::SerializePayload(transformed->datasets.at(0));
  EXPECT_TRUE(out.ok()) << out.status();
  bytes.transformed = out.ok() ? *out : "";
  return bytes;
}

TEST(ParallelColumnOpsTest, SameBytesAtEveryThreadCount) {
  const ml::DatasetPtr train = ColumnData(2200, 30, 5);
  const ml::DatasetPtr apply = ColumnData(2300, 30, 6);
  ASSERT_GE(train->rows() * train->cols(), ml::kColumnFanOutMinCells);
  ASSERT_GE(apply->rows() * apply->cols(), ml::kColumnFanOutMinCells);
  struct ColumnOpCase {
    const char* impl;
    const char* key;
    const char* value;
  };
  const ColumnOpCase cases[] = {
      {"skl.QuantileTransformer", "n_quantiles", "50"},
      {"tfl.QuantileTransformer", "n_quantiles", "50"},
      {"skl.SimpleImputer", "strategy", "mean"},
      {"tfl.SimpleImputer", "strategy", "mean"},
      {"skl.SimpleImputer", "strategy", "median"},
      {"tfl.SimpleImputer", "strategy", "median"},
  };
  ThreadPool one_thread(0);
  ThreadPool four_threads(3);
  for (const ColumnOpCase& c : cases) {
    SCOPED_TRACE(std::string(c.impl) + " " + c.key + "=" + c.value);
    auto op = ml::OperatorRegistry::Global().Get(c.impl);
    ASSERT_TRUE(op.ok()) << op.status();
    ml::Config config;
    config.Set(c.key, c.value);
    const ColumnOpBytes serial =
        FitAndTransform(**op, train, apply, config, nullptr);
    ASSERT_FALSE(serial.state.empty());
    ASSERT_FALSE(serial.transformed.empty());
    for (ThreadPool* pool : {&one_thread, &four_threads}) {
      SCOPED_TRACE("threads=" + std::to_string(pool->num_workers() + 1));
      const ColumnOpBytes got =
          FitAndTransform(**op, train, apply, config, pool);
      EXPECT_TRUE(got.state == serial.state) << "op-state bytes differ";
      EXPECT_TRUE(got.transformed == serial.transformed)
          << "transformed bytes differ";
    }
  }
}

}  // namespace
}  // namespace hyppo
