#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "ml/kernels/kernels.h"
#include "ml/metrics.h"
#include "ml/registry.h"

namespace hyppo::ml {
namespace {

DatasetPtr RandomData(int64_t rows, int64_t cols, uint64_t seed,
                      bool regression = false) {
  Rng rng(seed);
  auto data = std::make_shared<Dataset>(rows, cols);
  std::vector<double> target(static_cast<size_t>(rows));
  std::vector<double> w(static_cast<size_t>(cols));
  for (auto& v : w) {
    v = rng.Gaussian();
  }
  for (int64_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double value = 3.0 * rng.Gaussian() + static_cast<double>(c);
      data->at(r, c) = value;
      dot += w[static_cast<size_t>(c)] * value;
    }
    target[static_cast<size_t>(r)] =
        regression ? dot + 0.05 * rng.Gaussian() : (dot > 0 ? 1.0 : 0.0);
  }
  data->set_target(std::move(target));
  return data;
}

Result<TaskOutputs> RunOp(const std::string& impl, MlTask task,
                        const TaskInputs& inputs,
                        const Config& config = Config()) {
  HYPPO_ASSIGN_OR_RETURN(const PhysicalOperator* op,
                         OperatorRegistry::Global().Get(impl));
  return op->Execute(task, inputs, config);
}

Result<Dataset> FitTransformSelf(const std::string& impl,
                                 const DatasetPtr& data,
                                 const Config& config = Config()) {
  TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs fit, RunOp(impl, MlTask::kFit, fit_in,
                                              config));
  TaskInputs tr_in;
  tr_in.states = fit.states;
  tr_in.datasets.push_back(data);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs out,
                         RunOp(impl, MlTask::kTransform, tr_in, config));
  return *out.datasets[0];
}

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, StandardScalerCentersAndScalesTrainingData) {
  DatasetPtr data = RandomData(400, 5, GetParam());
  auto scaled = FitTransformSelf("skl.StandardScaler", data);
  ASSERT_TRUE(scaled.ok());
  for (int64_t c = 0; c < scaled->cols(); ++c) {
    double sum = 0.0;
    double sq = 0.0;
    for (int64_t r = 0; r < scaled->rows(); ++r) {
      sum += scaled->at(r, c);
      sq += scaled->at(r, c) * scaled->at(r, c);
    }
    const double n = static_cast<double>(scaled->rows());
    EXPECT_NEAR(sum / n, 0.0, 1e-9);
    EXPECT_NEAR(sq / n, 1.0, 1e-9);
  }
}

TEST_P(SeedSweep, MinMaxScalerMapsTrainingDataToUnitRange) {
  DatasetPtr data = RandomData(300, 4, GetParam());
  auto scaled = FitTransformSelf("tfl.MinMaxScaler", data);
  ASSERT_TRUE(scaled.ok());
  for (int64_t c = 0; c < scaled->cols(); ++c) {
    double mn = 1e300;
    double mx = -1e300;
    for (int64_t r = 0; r < scaled->rows(); ++r) {
      mn = std::min(mn, scaled->at(r, c));
      mx = std::max(mx, scaled->at(r, c));
    }
    EXPECT_NEAR(mn, 0.0, 1e-12);
    EXPECT_NEAR(mx, 1.0, 1e-12);
  }
}

TEST_P(SeedSweep, RobustScalerZerosTheMedian) {
  DatasetPtr data = RandomData(301, 3, GetParam());
  auto scaled = FitTransformSelf("skl.RobustScaler", data);
  ASSERT_TRUE(scaled.ok());
  for (int64_t c = 0; c < scaled->cols(); ++c) {
    std::vector<double> col(scaled->col_data(c),
                            scaled->col_data(c) + scaled->rows());
    std::nth_element(col.begin(), col.begin() + col.size() / 2, col.end());
    EXPECT_NEAR(col[col.size() / 2], 0.0, 1e-9);
  }
}

TEST_P(SeedSweep, ImputerLeavesNoMissingValues) {
  Rng rng(GetParam());
  auto raw = std::make_shared<Dataset>(200, 4);
  for (int64_t r = 0; r < 200; ++r) {
    for (int64_t c = 0; c < 4; ++c) {
      raw->at(r, c) = rng.Bernoulli(0.2) ? std::nan("") : rng.Gaussian();
    }
  }
  raw->set_target(std::vector<double>(200, 0.0));
  for (const char* impl : {"skl.SimpleImputer", "tfl.SimpleImputer"}) {
    for (const char* strategy : {"mean", "median"}) {
      Config config;
      config.Set("strategy", strategy);
      auto filled = FitTransformSelf(impl, raw, config);
      ASSERT_TRUE(filled.ok()) << filled.status();
      for (int64_t r = 0; r < filled->rows(); ++r) {
        for (int64_t c = 0; c < filled->cols(); ++c) {
          EXPECT_FALSE(std::isnan(filled->at(r, c)))
              << impl << " " << strategy;
        }
      }
    }
  }
}

TEST_P(SeedSweep, PcaComponentsAreOrthonormal) {
  DatasetPtr data = RandomData(300, 6, GetParam());
  TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  Config config;
  config.SetInt("n_components", 3);
  auto fit = RunOp("skl.PCA", MlTask::kFit, fit_in, config);
  ASSERT_TRUE(fit.ok());
  const auto* state =
      dynamic_cast<const VectorState*>(fit->states[0].get());
  ASSERT_NE(state, nullptr);
  const std::vector<double>& comp = state->vec("components");
  const int64_t d = 6;
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      const double dot =
          kernels::Dot(comp.data() + i * d, comp.data() + j * d, d);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-8) << i << "," << j;
    }
  }
}

TEST_P(SeedSweep, PcaProjectionsAreDecorrelated) {
  DatasetPtr data = RandomData(500, 5, GetParam());
  Config config;
  config.SetInt("n_components", 3);
  auto projected = FitTransformSelf("skl.PCA", data, config);
  ASSERT_TRUE(projected.ok());
  // Off-diagonal covariance of the projections vanishes.
  const int64_t n = projected->rows();
  for (int64_t i = 0; i < projected->cols(); ++i) {
    for (int64_t j = i + 1; j < projected->cols(); ++j) {
      double mi = 0.0;
      double mj = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        mi += projected->at(r, i);
        mj += projected->at(r, j);
      }
      mi /= static_cast<double>(n);
      mj /= static_cast<double>(n);
      double cov = 0.0;
      double vi = 0.0;
      double vj = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        cov += (projected->at(r, i) - mi) * (projected->at(r, j) - mj);
        vi += (projected->at(r, i) - mi) * (projected->at(r, i) - mi);
        vj += (projected->at(r, j) - mj) * (projected->at(r, j) - mj);
      }
      EXPECT_LT(std::fabs(cov) / std::sqrt(vi * vj), 1e-6);
    }
  }
}

TEST_P(SeedSweep, BoostingTrainingErrorDecreasesWithStages) {
  DatasetPtr data = RandomData(500, 4, GetParam(), /*regression=*/true);
  double previous = 1e300;
  for (int64_t stages : {5, 20, 60}) {
    Config config;
    config.SetInt("n_estimators", stages);
    config.SetInt("max_depth", 3);
    TaskInputs fit_in;
    fit_in.datasets.push_back(data);
    auto fit = RunOp("lgb.GradientBoostingRegressor", MlTask::kFit, fit_in,
                   config);
    ASSERT_TRUE(fit.ok());
    TaskInputs pr_in;
    pr_in.states = fit->states;
    pr_in.datasets.push_back(data);
    auto pr = RunOp("lgb.GradientBoostingRegressor", MlTask::kPredict, pr_in,
                  config);
    ASSERT_TRUE(pr.ok());
    const double rmse = *Rmse(*pr->predictions[0], data->target());
    EXPECT_LT(rmse, previous + 1e-12) << stages << " stages";
    previous = rmse;
  }
}

TEST_P(SeedSweep, ForestIsDeterministicPerSeed) {
  DatasetPtr data = RandomData(300, 4, GetParam());
  auto predict_with_seed = [&](int64_t seed) {
    Config config;
    config.SetInt("n_estimators", 8);
    config.SetInt("seed", seed);
    TaskInputs fit_in;
    fit_in.datasets.push_back(data);
    auto fit = RunOp("skl.RandomForestClassifier", MlTask::kFit, fit_in,
                   config);
    fit.status().Abort("fit");
    TaskInputs pr_in;
    pr_in.states = fit->states;
    pr_in.datasets.push_back(data);
    auto pr = RunOp("skl.RandomForestClassifier", MlTask::kPredict, pr_in,
                  config);
    pr.status().Abort("predict");
    return *pr->predictions[0];
  };
  EXPECT_EQ(predict_with_seed(5), predict_with_seed(5));
  EXPECT_NE(predict_with_seed(5), predict_with_seed(6));
}

TEST_P(SeedSweep, KMeansPredictMatchesTransformArgmin) {
  DatasetPtr data = RandomData(250, 3, GetParam());
  Config config;
  config.SetInt("n_clusters", 4);
  config.SetInt("seed", 2);
  TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  auto fit = RunOp("skl.KMeans", MlTask::kFit, fit_in, config);
  ASSERT_TRUE(fit.ok());
  TaskInputs in;
  in.states = fit->states;
  in.datasets.push_back(data);
  auto distances = RunOp("skl.KMeans", MlTask::kTransform, in, config);
  auto assignment = RunOp("skl.KMeans", MlTask::kPredict, in, config);
  ASSERT_TRUE(distances.ok() && assignment.ok());
  const Dataset& dist = *distances->datasets[0];
  const std::vector<double>& assign = *assignment->predictions[0];
  for (int64_t r = 0; r < dist.rows(); ++r) {
    int64_t argmin = 0;
    for (int64_t c = 1; c < dist.cols(); ++c) {
      if (dist.at(r, c) < dist.at(r, argmin)) {
        argmin = c;
      }
    }
    EXPECT_EQ(static_cast<int64_t>(assign[static_cast<size_t>(r)]), argmin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------------
// Non-parameterized operator properties.

TEST(OperatorPropertyTest, NormalizerMakesUnitRows) {
  DatasetPtr data = RandomData(100, 5, 3);
  auto normalized = FitTransformSelf("skl.Normalizer", data);
  ASSERT_TRUE(normalized.ok());
  for (int64_t r = 0; r < normalized->rows(); ++r) {
    double sq = 0.0;
    for (int64_t c = 0; c < normalized->cols(); ++c) {
      sq += normalized->at(r, c) * normalized->at(r, c);
    }
    EXPECT_NEAR(std::sqrt(sq), 1.0, 1e-12);
  }
}

TEST(OperatorPropertyTest, BinarizerOutputsZeroOne) {
  DatasetPtr data = RandomData(100, 3, 4);
  Config config;
  config.SetDouble("threshold", 0.5);
  auto binary = FitTransformSelf("skl.Binarizer", data, config);
  ASSERT_TRUE(binary.ok());
  for (int64_t r = 0; r < binary->rows(); ++r) {
    for (int64_t c = 0; c < binary->cols(); ++c) {
      const double value = binary->at(r, c);
      EXPECT_TRUE(value == 0.0 || value == 1.0);
    }
  }
}

TEST(OperatorPropertyTest, VarianceThresholdDropsConstantColumns) {
  auto data = std::make_shared<Dataset>(50, 3);
  Rng rng(5);
  for (int64_t r = 0; r < 50; ++r) {
    data->at(r, 0) = rng.Gaussian();
    data->at(r, 1) = 7.0;  // constant
    data->at(r, 2) = rng.Gaussian();
  }
  data->set_target(std::vector<double>(50, 0.0));
  auto reduced = FitTransformSelf("skl.VarianceThreshold",
                                  DatasetPtr(data));
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->cols(), 2);
  EXPECT_EQ(reduced->column_names()[0], "f0");
  EXPECT_EQ(reduced->column_names()[1], "f2");
}

TEST(OperatorPropertyTest, PolynomialFeaturesComputesProducts) {
  auto data = std::make_shared<Dataset>(2, 2);
  data->at(0, 0) = 2.0;
  data->at(0, 1) = 3.0;
  data->at(1, 0) = -1.0;
  data->at(1, 1) = 4.0;
  Config config;
  config.SetInt("degree", 2);
  auto expanded =
      FitTransformSelf("skl.PolynomialFeatures", DatasetPtr(data), config);
  ASSERT_TRUE(expanded.ok());
  // columns: f0, f1, f0*f0, f0*f1, f1*f1.
  ASSERT_EQ(expanded->cols(), 5);
  EXPECT_DOUBLE_EQ(expanded->at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(expanded->at(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(expanded->at(0, 4), 9.0);
  EXPECT_DOUBLE_EQ(expanded->at(1, 3), -4.0);
  EXPECT_EQ(expanded->column_names()[3], "f0*f1");
}

TEST(OperatorPropertyTest, TaxiFeaturesHaversineSane) {
  std::vector<std::string> names = {"pickup_lat", "pickup_lon",
                                    "dropoff_lat", "dropoff_lon"};
  auto data =
      std::make_shared<Dataset>(Dataset::WithColumns(2, std::move(names)));
  // Row 0: identical points -> 0 km. Row 1: 1 degree of latitude ~111 km.
  data->at(0, 0) = 40.75;
  data->at(0, 1) = -73.97;
  data->at(0, 2) = 40.75;
  data->at(0, 3) = -73.97;
  data->at(1, 0) = 40.0;
  data->at(1, 1) = -74.0;
  data->at(1, 2) = 41.0;
  data->at(1, 3) = -74.0;
  data->set_target({1.0, 2.0});
  auto out = FitTransformSelf("skl.TaxiFeatures", DatasetPtr(data));
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->cols(), 7);
  const int64_t haversine_col = 4;
  EXPECT_NEAR(out->at(0, haversine_col), 0.0, 1e-9);
  EXPECT_NEAR(out->at(1, haversine_col), 111.2, 1.0);
}

TEST(OperatorPropertyTest, LogTargetAppliesLog1p) {
  auto data = std::make_shared<Dataset>(3, 1);
  data->set_target({0.0, 99.0, 1e6});
  auto out = FitTransformSelf("skl.LogTarget", DatasetPtr(data));
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->target()[0], 0.0);
  EXPECT_DOUBLE_EQ(out->target()[1], std::log1p(99.0));
  EXPECT_DOUBLE_EQ(out->target()[2], std::log1p(1e6));
}

TEST(OperatorPropertyTest, SplitPartitionsAllRowsExactlyOnce) {
  DatasetPtr data = RandomData(100, 2, 8);
  Config config;
  config.SetDouble("test_size", 0.3);
  TaskInputs in;
  in.datasets.push_back(data);
  auto out = RunOp("skl.TrainTestSplit", MlTask::kSplit, in, config);
  ASSERT_TRUE(out.ok());
  const Dataset& train = *out->datasets[0];
  const Dataset& test = *out->datasets[1];
  EXPECT_EQ(train.rows() + test.rows(), 100);
  // The multiset of target values is preserved (rows neither duplicated
  // nor dropped) — targets are distinct with probability 1 here.
  std::multiset<double> original(data->target().begin(),
                                 data->target().end());
  std::multiset<double> combined(train.target().begin(),
                                 train.target().end());
  combined.insert(test.target().begin(), test.target().end());
  EXPECT_EQ(original, combined);
}

TEST(OperatorPropertyTest, LinearModelsRecoverPlantedWeights) {
  // y = 2 x0 - 3 x1 + 1: LinearRegression recovers the coefficients.
  Rng rng(6);
  auto data = std::make_shared<Dataset>(200, 2);
  std::vector<double> target(200);
  for (int64_t r = 0; r < 200; ++r) {
    const double x0 = rng.Gaussian();
    const double x1 = rng.Gaussian();
    data->at(r, 0) = x0;
    data->at(r, 1) = x1;
    target[static_cast<size_t>(r)] = 2.0 * x0 - 3.0 * x1 + 1.0;
  }
  data->set_target(std::move(target));
  TaskInputs fit_in;
  fit_in.datasets.push_back(DatasetPtr(data));
  auto fit = RunOp("skl.LinearRegression", MlTask::kFit, fit_in);
  ASSERT_TRUE(fit.ok());
  const auto* state =
      dynamic_cast<const VectorState*>(fit->states[0].get());
  ASSERT_NE(state, nullptr);
  EXPECT_NEAR(state->vec("weights")[0], 2.0, 1e-6);
  EXPECT_NEAR(state->vec("weights")[1], -3.0, 1e-6);
  EXPECT_NEAR(state->scalar("intercept"), 1.0, 1e-6);
}

TEST(OperatorPropertyTest, LassoShrinksIrrelevantCoefficients) {
  // y depends only on x0; with enough L1, the x1 weight becomes 0.
  Rng rng(9);
  auto data = std::make_shared<Dataset>(300, 2);
  std::vector<double> target(300);
  for (int64_t r = 0; r < 300; ++r) {
    data->at(r, 0) = rng.Gaussian();
    data->at(r, 1) = rng.Gaussian();
    target[static_cast<size_t>(r)] = 1.5 * data->at(r, 0);
  }
  data->set_target(std::move(target));
  Config config;
  config.SetDouble("alpha", 0.5);
  TaskInputs fit_in;
  fit_in.datasets.push_back(DatasetPtr(data));
  auto fit = RunOp("skl.Lasso", MlTask::kFit, fit_in, config);
  ASSERT_TRUE(fit.ok());
  const auto* state =
      dynamic_cast<const VectorState*>(fit->states[0].get());
  ASSERT_NE(state, nullptr);
  EXPECT_NEAR(state->vec("weights")[1], 0.0, 1e-6);
  EXPECT_GT(state->vec("weights")[0], 0.5);
}

}  // namespace
}  // namespace hyppo::ml
