// Thread-count differential of the tree-model fits: a fit run with no
// pool, with a pool of no workers (one thread) and with a pool of three
// workers (four threads) must produce the same op-state and the same
// predictions, byte for byte. Forests grow their trees concurrently and
// every tree fit sorts or bins its columns concurrently above
// ml::TreeFitter::kFanOutMinCells cells, so the shapes are the `tree_fit`
// bench shapes, both above the floor. Columns carry ties and NaN so the
// exact fitter's tie-handling and NaN paths run in the fan-out too.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
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

}  // namespace
}  // namespace hyppo
