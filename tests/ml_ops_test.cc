#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/registry.h"

namespace hyppo::ml {
namespace {

DatasetPtr RandomDataset(int64_t rows, int64_t cols, uint64_t seed,
                         bool with_nans = false, bool regression = false) {
  Rng rng(seed);
  auto data = std::make_shared<Dataset>(rows, cols);
  std::vector<double> target(static_cast<size_t>(rows), 0.0);
  std::vector<double> w(static_cast<size_t>(cols));
  for (auto& v : w) {
    v = rng.Gaussian();
  }
  for (int64_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double value = rng.Gaussian() + (c % 2 == 0 ? 1.0 : -0.5);
      data->at(r, c) = value;
      dot += w[static_cast<size_t>(c)] * value;
    }
    target[static_cast<size_t>(r)] =
        regression ? dot + 0.1 * rng.Gaussian() : (dot > 0.0 ? 1.0 : 0.0);
  }
  if (with_nans) {
    for (int64_t r = 0; r < rows; ++r) {
      if (rng.Bernoulli(0.07)) {
        data->at(r, 0) = std::nan("");
      }
    }
  }
  data->set_target(std::move(target));
  return data;
}

Result<TaskOutputs> RunTask(const std::string& impl, MlTask task,
                            const TaskInputs& inputs, const Config& config) {
  auto op = OperatorRegistry::Global().Get(impl);
  if (!op.ok()) {
    return op.status();
  }
  return (*op)->Execute(task, inputs, config);
}

// Fits one impl and transforms held-out data with it.
Result<Dataset> FitTransform(const std::string& impl, const DatasetPtr& train,
                             const DatasetPtr& apply, const Config& config) {
  TaskInputs fit_in;
  fit_in.datasets.push_back(train);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs fit_out,
                         RunTask(impl, MlTask::kFit, fit_in, config));
  TaskInputs tr_in;
  tr_in.states = fit_out.states;
  tr_in.datasets.push_back(apply);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs tr_out,
                         RunTask(impl, MlTask::kTransform, tr_in, config));
  return *tr_out.datasets[0];
}

// ---------------------------------------------------------------------------
// Exact-equivalence property: for these logical operators, any two
// registered implementations produce numerically identical transforms
// (paper §III-C2: equivalent tasks produce identical results on the same
// input). This is the property the augmenter's name-collision equivalence
// relies on.

struct TransformCase {
  const char* logical_op;
  const char* config;  // "k=v;k=v"
  double tolerance;
};

Config ParseTestConfig(const std::string& text) {
  Config config;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find(';', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string pair = text.substr(start, end - start);
    const size_t eq = pair.find('=');
    if (eq != std::string::npos) {
      config.Set(pair.substr(0, eq), pair.substr(eq + 1));
    }
    start = end + 1;
  }
  return config;
}

class TransformEquivalenceTest
    : public ::testing::TestWithParam<TransformCase> {};

TEST_P(TransformEquivalenceTest, ImplementationsAgree) {
  const TransformCase& test_case = GetParam();
  const Config config = ParseTestConfig(test_case.config);
  const bool needs_nans =
      std::string(test_case.logical_op) == "SimpleImputer";
  DatasetPtr train = RandomDataset(300, 6, 11, needs_nans);
  DatasetPtr apply = RandomDataset(120, 6, 12, needs_nans);
  const auto impls =
      OperatorRegistry::Global().ImplsFor(test_case.logical_op);
  ASSERT_GE(impls.size(), 2u) << test_case.logical_op;
  auto reference =
      FitTransform(impls[0]->impl_name(), train, apply, config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (size_t i = 1; i < impls.size(); ++i) {
    auto other = FitTransform(impls[i]->impl_name(), train, apply, config);
    ASSERT_TRUE(other.ok()) << other.status();
    ASSERT_EQ(other->rows(), reference->rows());
    ASSERT_EQ(other->cols(), reference->cols());
    double max_diff = 0.0;
    for (int64_t r = 0; r < reference->rows(); ++r) {
      for (int64_t c = 0; c < reference->cols(); ++c) {
        max_diff = std::max(max_diff, std::fabs(reference->at(r, c) -
                                                other->at(r, c)));
      }
    }
    EXPECT_LE(max_diff, test_case.tolerance)
        << impls[i]->impl_name() << " vs " << impls[0]->impl_name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Preprocessors, TransformEquivalenceTest,
    ::testing::Values(
        TransformCase{"StandardScaler", "", 1e-9},
        TransformCase{"MinMaxScaler", "", 1e-12},
        TransformCase{"RobustScaler", "", 1e-9},
        TransformCase{"MaxAbsScaler", "", 1e-12},
        TransformCase{"SimpleImputer", "strategy=mean", 1e-9},
        TransformCase{"SimpleImputer", "strategy=median", 1e-9},
        TransformCase{"PolynomialFeatures", "degree=2", 1e-12},
        TransformCase{"VarianceThreshold", "threshold=0.0", 1e-12},
        TransformCase{"QuantileTransformer", "n_quantiles=50", 1e-12},
        TransformCase{"PCA", "n_components=3", 1e-6}),
    [](const ::testing::TestParamInfo<TransformCase>& info) {
      std::string name = info.param.logical_op;
      const std::string config = info.param.config;
      if (!config.empty()) {
        name += "_";
        for (char c : config) {
          name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// QuantileTransformer and NaN: as in scikit-learn, the fit ignores NaN and
// the transform maps NaN to NaN, in every column (the last one included,
// whose grid ends the state's quantile vector); a column of NaN alone
// transforms to NaN. The tfl sort-and-sweep transform equals the skl
// binary search to the bit, on ties and on values exactly on grid points.

std::vector<uint64_t> ColumnBits(const Dataset& data, int64_t c) {
  std::vector<uint64_t> bits(static_cast<size_t>(data.rows()));
  std::memcpy(bits.data(), data.col_data(c),
              bits.size() * sizeof(double));
  return bits;
}

Result<OpStatePtr> FitState(const std::string& impl, const DatasetPtr& data,
                            const Config& config) {
  TaskInputs inputs;
  inputs.datasets.push_back(data);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs out,
                         RunTask(impl, MlTask::kFit, inputs, config));
  return out.states[0];
}

Result<Dataset> TransformWith(const std::string& impl, const OpStatePtr& state,
                              const DatasetPtr& data) {
  TaskInputs inputs;
  inputs.states.push_back(state);
  inputs.datasets.push_back(data);
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs out,
                         RunTask(impl, MlTask::kTransform, inputs, Config()));
  return *out.datasets[0];
}

TEST(QuantileTransformerTest, FitIgnoresNanAndTransformKeepsIt) {
  const double nan = std::nan("");
  // Columns: NaN in row 0 and scattered; NaN alone; NaN scattered (last).
  const int64_t rows = 40;
  auto train = std::make_shared<Dataset>(rows, 3);
  auto present = std::make_shared<Dataset>(rows - 8, 3);  // NaN rows dropped
  Rng rng(21);
  int64_t kept = 0;
  for (int64_t r = 0; r < rows; ++r) {
    const bool missing = r % 5 == 0;
    const double a = rng.Gaussian();
    const double b = rng.Uniform(-3.0, 3.0);
    train->at(r, 0) = missing ? nan : a;
    train->at(r, 1) = nan;
    train->at(r, 2) = missing ? nan : b;
    if (!missing) {
      present->at(kept, 0) = a;
      present->at(kept, 1) = 0.0;
      present->at(kept, 2) = b;
      ++kept;
    }
  }
  ASSERT_EQ(kept, present->rows());
  auto apply = std::make_shared<Dataset>(6, 3);
  const double values[] = {nan, -0.5, 0.0, 0.7, nan, 9.0};
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      apply->at(r, c) = values[r];
    }
  }
  Config config;
  config.SetInt("n_quantiles", 10);
  std::vector<Dataset> outputs;
  for (const char* impl :
       {"skl.QuantileTransformer", "tfl.QuantileTransformer"}) {
    SCOPED_TRACE(impl);
    auto state = FitState(impl, train, config);
    ASSERT_TRUE(state.ok()) << state.status();
    auto clean_state = FitState(impl, present, config);
    ASSERT_TRUE(clean_state.ok()) << clean_state.status();
    const auto& quantiles =
        dynamic_cast<const VectorState&>(**state).vec("quantiles");
    const auto& clean_quantiles =
        dynamic_cast<const VectorState&>(**clean_state).vec("quantiles");
    ASSERT_EQ(quantiles.size(), 30u);
    for (size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(quantiles[k], clean_quantiles[k]) << k;
      EXPECT_TRUE(std::isnan(quantiles[10 + k])) << k;
      EXPECT_EQ(quantiles[20 + k], clean_quantiles[20 + k]) << k;
    }
    auto out = TransformWith(impl, *state, apply);
    ASSERT_TRUE(out.ok()) << out.status();
    for (int64_t r = 0; r < 6; ++r) {
      const bool missing = std::isnan(values[r]);
      EXPECT_EQ(std::isnan(out->at(r, 0)), missing) << r;
      EXPECT_TRUE(std::isnan(out->at(r, 1))) << r;
      EXPECT_EQ(std::isnan(out->at(r, 2)), missing) << r;
      if (!missing) {
        EXPECT_GE(out->at(r, 2), 0.0);
        EXPECT_LE(out->at(r, 2), 1.0);
      }
    }
    outputs.push_back(std::move(*out));
  }
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_EQ(ColumnBits(outputs[0], c), ColumnBits(outputs[1], c)) << c;
  }
}

TEST(QuantileTransformerTest, TflSweepEqualsSklSearchOnTiesAndGridPoints) {
  const int64_t rows = 200;
  auto train = std::make_shared<Dataset>(rows, 2);
  Rng rng(8);
  for (int64_t r = 0; r < rows; ++r) {
    train->at(r, 0) = std::round(rng.Gaussian() * 2.0);  // few values
    train->at(r, 1) = rng.Gaussian();
  }
  Config config;
  config.SetInt("n_quantiles", 25);
  auto state = FitState("skl.QuantileTransformer", train, config);
  ASSERT_TRUE(state.ok()) << state.status();
  const auto& grid =
      dynamic_cast<const VectorState&>(**state).vec("quantiles");
  // Every grid point of both columns, each next to its neighbours, the
  // training values themselves (ties) and values outside the range.
  std::vector<double> probes = {-1e9, 1e9, -0.0, 0.0};
  for (double g : grid) {
    probes.insert(probes.end(), {g, g, std::nextafter(g, -1e300),
                                 std::nextafter(g, 1e300)});
  }
  for (int64_t r = 0; r < rows; ++r) {
    probes.push_back(train->at(r, 0));
    probes.push_back(train->at(r, 1));
  }
  auto apply =
      std::make_shared<Dataset>(static_cast<int64_t>(probes.size()), 2);
  for (size_t i = 0; i < probes.size(); ++i) {
    // Column 1 sees the probes in reverse, so the sweep's sort does work.
    apply->at(static_cast<int64_t>(i), 0) = probes[i];
    apply->at(static_cast<int64_t>(i), 1) = probes[probes.size() - 1 - i];
  }
  auto skl = TransformWith("skl.QuantileTransformer", *state, apply);
  auto tfl = TransformWith("tfl.QuantileTransformer", *state, apply);
  ASSERT_TRUE(skl.ok()) << skl.status();
  ASSERT_TRUE(tfl.ok()) << tfl.status();
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_EQ(ColumnBits(*skl, c), ColumnBits(*tfl, c)) << c;
  }
}

// ---------------------------------------------------------------------------
// Exact-equivalence for predictions of deterministic models.

class PredictEquivalenceTest
    : public ::testing::TestWithParam<TransformCase> {};

TEST_P(PredictEquivalenceTest, ImplementationsAgreeOnPredictions) {
  const TransformCase& test_case = GetParam();
  const Config config = ParseTestConfig(test_case.config);
  DatasetPtr train = RandomDataset(400, 5, 21, false, /*regression=*/true);
  DatasetPtr test = RandomDataset(150, 5, 22, false, /*regression=*/true);
  const auto impls =
      OperatorRegistry::Global().ImplsFor(test_case.logical_op);
  ASSERT_GE(impls.size(), 2u);
  std::vector<std::vector<double>> predictions;
  for (const PhysicalOperator* op : impls) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(train);
    auto fit_out = op->Execute(MlTask::kFit, fit_in, config);
    ASSERT_TRUE(fit_out.ok()) << op->impl_name() << ": " << fit_out.status();
    TaskInputs pr_in;
    pr_in.states = fit_out->states;
    pr_in.datasets.push_back(test);
    auto pr_out = op->Execute(MlTask::kPredict, pr_in, config);
    ASSERT_TRUE(pr_out.ok()) << pr_out.status();
    predictions.push_back(*pr_out->predictions[0]);
  }
  for (size_t i = 1; i < predictions.size(); ++i) {
    double max_diff = 0.0;
    for (size_t r = 0; r < predictions[0].size(); ++r) {
      max_diff =
          std::max(max_diff, std::fabs(predictions[0][r] - predictions[i][r]));
    }
    EXPECT_LE(max_diff, test_case.tolerance) << impls[i]->impl_name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    LinearModels, PredictEquivalenceTest,
    ::testing::Values(
        TransformCase{"LinearRegression", "", 1e-5},
        TransformCase{"Ridge", "alpha=1.0", 1e-5},
        TransformCase{"Lasso", "alpha=0.05", 2e-3},
        TransformCase{"ElasticNet", "alpha=0.05;l1_ratio=0.5", 2e-3},
        TransformCase{"LogisticRegression", "alpha=0.001", 1e-4}),
    [](const ::testing::TestParamInfo<TransformCase>& info) {
      return std::string(info.param.logical_op);
    });

// ---------------------------------------------------------------------------
// Statistical equivalence for stochastic / discretized operators (SVM,
// trees, forests, boosting, k-means): both implementations must reach
// similar quality, not bitwise equality (§III-C2, note on stochastic
// tasks).

TEST(StatisticalEquivalenceTest, LinearSvmImplsAgreeOnMostLabels) {
  DatasetPtr train = RandomDataset(600, 5, 31);
  DatasetPtr test = RandomDataset(300, 5, 32);
  Config config;
  config.SetDouble("C", 1.0);
  std::vector<std::vector<double>> preds;
  for (const char* impl : {"skl.LinearSVM", "lib.LinearSVM"}) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(train);
    auto fit_out = RunTask(impl, MlTask::kFit, fit_in, config);
    ASSERT_TRUE(fit_out.ok()) << fit_out.status();
    TaskInputs pr_in;
    pr_in.states = fit_out->states;
    pr_in.datasets.push_back(test);
    auto pr_out = RunTask(impl, MlTask::kPredict, pr_in, config);
    ASSERT_TRUE(pr_out.ok());
    preds.push_back(*pr_out->predictions[0]);
  }
  int agree = 0;
  for (size_t i = 0; i < preds[0].size(); ++i) {
    agree += (preds[0][i] == preds[1][i]) ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(agree) / preds[0].size(), 0.9);
}

struct TreeCase {
  const char* logical_op;
  const char* config;
  bool classification;
  double min_quality;  // accuracy or R2 both impls must reach
};

class TreeEquivalenceTest : public ::testing::TestWithParam<TreeCase> {};

TEST_P(TreeEquivalenceTest, BothImplsLearnTheConcept) {
  const TreeCase& test_case = GetParam();
  const Config config = ParseTestConfig(test_case.config);
  // Train and test must share the underlying concept: slice one dataset.
  DatasetPtr full =
      RandomDataset(1100, 5, 41, false, !test_case.classification);
  std::vector<int64_t> train_rows(800);
  std::vector<int64_t> test_rows(300);
  for (int64_t i = 0; i < 800; ++i) {
    train_rows[static_cast<size_t>(i)] = i;
  }
  for (int64_t i = 0; i < 300; ++i) {
    test_rows[static_cast<size_t>(i)] = 800 + i;
  }
  DatasetPtr train =
      std::make_shared<const Dataset>(full->SelectRows(train_rows));
  DatasetPtr test =
      std::make_shared<const Dataset>(full->SelectRows(test_rows));
  const auto impls =
      OperatorRegistry::Global().ImplsFor(test_case.logical_op);
  ASSERT_GE(impls.size(), 2u);
  for (const PhysicalOperator* op : impls) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(train);
    auto fit_out = op->Execute(MlTask::kFit, fit_in, config);
    ASSERT_TRUE(fit_out.ok()) << op->impl_name() << ": " << fit_out.status();
    TaskInputs pr_in;
    pr_in.states = fit_out->states;
    pr_in.datasets.push_back(test);
    auto pr_out = op->Execute(MlTask::kPredict, pr_in, config);
    ASSERT_TRUE(pr_out.ok());
    const std::vector<double>& preds = *pr_out->predictions[0];
    if (test_case.classification) {
      auto quality = Accuracy(preds, test->target());
      EXPECT_GE(*quality, test_case.min_quality) << op->impl_name();
    } else {
      auto quality = R2(preds, test->target());
      EXPECT_GE(*quality, test_case.min_quality) << op->impl_name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Trees, TreeEquivalenceTest,
    ::testing::Values(
        TreeCase{"DecisionTreeClassifier", "max_depth=6", true, 0.75},
        TreeCase{"DecisionTreeRegressor", "max_depth=6", false, 0.5},
        TreeCase{"RandomForestClassifier",
                 "n_estimators=15;max_depth=7;seed=3", true, 0.78},
        TreeCase{"RandomForestRegressor",
                 "n_estimators=15;max_depth=7;seed=3", false, 0.55},
        TreeCase{"GradientBoostingRegressor",
                 "n_estimators=40;max_depth=3;learning_rate=0.15", false,
                 0.6}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return std::string(info.param.logical_op);
    });

// ---------------------------------------------------------------------------
// Tree edge cases: NaN feature values and out-of-range options.

// Fits `impl` as a depth-1 tree on one feature column.
Result<OpStatePtr> FitStump(const std::string& impl,
                            const std::vector<double>& values,
                            const std::vector<double>& targets) {
  auto data = std::make_shared<Dataset>(
      static_cast<int64_t>(values.size()), 1);
  for (size_t r = 0; r < values.size(); ++r) {
    data->at(static_cast<int64_t>(r), 0) = values[r];
  }
  data->set_target(targets);
  TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  const Config config = ParseTestConfig(
      "max_depth=1;min_samples_leaf=1;min_samples_split=2;max_bins=8");
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs out,
                         RunTask(impl, MlTask::kFit, fit_in, config));
  return out.states[0];
}

// NaN sorts after every number: wherever the NaN row sits, `impl` splits
// the numbers 1,2 | 3,4,5 (exact midpoint 2.5; histogram edge 2.5 of 8
// bins over the non-NaN range [1, 5]) and sends the NaN row right.
void ExpectSplitIgnoresNanRowPosition(const std::string& impl) {
  const double nan = std::nan("");
  // value -> target: 1->0, 2->0, 3->1, 4->1, 5->1, NaN->0.
  const std::vector<std::pair<std::vector<double>, std::vector<double>>>
      orders = {{{3, nan, 1, 2, 4, 5}, {1, 0, 0, 0, 1, 1}},
                {{nan, 3, 1, 2, 4, 5}, {0, 1, 0, 0, 1, 1}},
                {{3, 1, 2, 4, 5, nan}, {1, 0, 0, 1, 1, 0}}};
  for (size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE(impl + " order " + std::to_string(o));
    auto state = FitStump(impl, orders[o].first, orders[o].second);
    ASSERT_TRUE(state.ok()) << state.status();
    const auto* ts = dynamic_cast<const TreeState*>(state->get());
    ASSERT_NE(ts, nullptr);
    ASSERT_EQ(ts->tree.feature.size(), 3u);
    EXPECT_EQ(ts->tree.feature[0], 0);
    EXPECT_EQ(ts->tree.threshold[0], 2.5);
    EXPECT_EQ(ts->tree.value[static_cast<size_t>(ts->tree.left[0])], 0.0);
    EXPECT_EQ(ts->tree.value[static_cast<size_t>(ts->tree.right[0])], 0.75);
  }
}

TEST(TreeNanTest, ExactSplitIgnoresNanRowPosition) {
  ExpectSplitIgnoresNanRowPosition("skl.DecisionTreeRegressor");
}

TEST(TreeNanTest, HistogramSplitIgnoresNanRowPosition) {
  ExpectSplitIgnoresNanRowPosition("lgb.DecisionTreeRegressor");
}

TEST(TreeOptionsTest, OutOfRangeOptionsAreInvalidArguments) {
  DatasetPtr data = RandomDataset(60, 3, 17);
  TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  const auto fit = [&](const std::string& impl, const std::string& config) {
    return RunTask(impl, MlTask::kFit, fit_in, ParseTestConfig(config))
        .status();
  };
  for (const char* impl :
       {"lgb.RandomForestClassifier", "skl.RandomForestClassifier",
        "lgb.DecisionTreeClassifier", "skl.GradientBoostingRegressor",
        "lgb.GradientBoostingRegressor"}) {
    SCOPED_TRACE(impl);
    for (const char* bad : {"max_bins=-1", "max_bins=0", "max_bins=1",
                            "max_bins=257"}) {
      EXPECT_TRUE(fit(impl, bad).IsInvalidArgument()) << bad;
    }
    EXPECT_TRUE(fit(impl, "max_bins=2").ok());
    EXPECT_TRUE(fit(impl, "max_bins=256").ok());
  }
  for (const char* impl :
       {"skl.RandomForestRegressor", "lgb.RandomForestClassifier",
        "skl.GradientBoostingRegressor", "lgb.GradientBoostingRegressor"}) {
    EXPECT_TRUE(fit(impl, "n_estimators=0").IsInvalidArgument()) << impl;
    EXPECT_TRUE(fit(impl, "n_estimators=-2").IsInvalidArgument()) << impl;
  }
}

TEST(KMeansTest, ImplsProduceSimilarInertia) {
  DatasetPtr data = RandomDataset(500, 4, 51);
  Config config;
  config.SetInt("n_clusters", 4);
  config.SetInt("seed", 9);
  double inertias[2];
  int index = 0;
  for (const char* impl : {"skl.KMeans", "tfl.KMeans"}) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(data);
    auto fit_out = RunTask(impl, MlTask::kFit, fit_in, config);
    ASSERT_TRUE(fit_out.ok()) << fit_out.status();
    // Inertia: sum of squared min distances, via transform.
    TaskInputs tr_in;
    tr_in.states = fit_out->states;
    tr_in.datasets.push_back(data);
    auto tr_out = RunTask(impl, MlTask::kTransform, tr_in, config);
    ASSERT_TRUE(tr_out.ok());
    const Dataset& distances = *tr_out->datasets[0];
    double inertia = 0.0;
    for (int64_t r = 0; r < distances.rows(); ++r) {
      double best = distances.at(r, 0);
      for (int64_t c = 1; c < distances.cols(); ++c) {
        best = std::min(best, distances.at(r, c));
      }
      inertia += best * best;
    }
    inertias[index++] = inertia;
  }
  // Mini-batch k-means is approximate: allow 40% slack.
  EXPECT_LT(std::fabs(inertias[0] - inertias[1]) /
                std::max(inertias[0], inertias[1]),
            0.4);
}

// ---------------------------------------------------------------------------
// Split, ensembles, evaluator, registry.

TEST(SplitTest, ImplsProduceIdenticalPartitions) {
  DatasetPtr data = RandomDataset(200, 3, 61);
  Config config;
  config.SetDouble("test_size", 0.25);
  config.SetInt("seed", 5);
  std::vector<TaskOutputs> outs;
  for (const char* impl : {"skl.TrainTestSplit", "tfl.TrainTestSplit"}) {
    TaskInputs in;
    in.datasets.push_back(data);
    auto out = RunTask(impl, MlTask::kSplit, in, config);
    ASSERT_TRUE(out.ok()) << out.status();
    ASSERT_EQ(out->datasets.size(), 2u);
    outs.push_back(*out);
  }
  for (int part = 0; part < 2; ++part) {
    const Dataset& a = *outs[0].datasets[static_cast<size_t>(part)];
    const Dataset& b = *outs[1].datasets[static_cast<size_t>(part)];
    ASSERT_EQ(a.rows(), b.rows());
    for (int64_t r = 0; r < a.rows(); ++r) {
      for (int64_t c = 0; c < a.cols(); ++c) {
        ASSERT_DOUBLE_EQ(a.at(r, c), b.at(r, c));
      }
    }
    for (int64_t r = 0; r < a.rows(); ++r) {
      ASSERT_DOUBLE_EQ(a.target()[static_cast<size_t>(r)],
                       b.target()[static_cast<size_t>(r)]);
    }
  }
  EXPECT_EQ(outs[0].datasets[1]->rows(), 50);
  EXPECT_EQ(outs[0].datasets[0]->rows(), 150);
}

TEST(SplitTest, RejectsBadTestSize) {
  DatasetPtr data = RandomDataset(20, 2, 62);
  Config config;
  config.SetDouble("test_size", 1.5);
  TaskInputs in;
  in.datasets.push_back(data);
  EXPECT_TRUE(RunTask("skl.TrainTestSplit", MlTask::kSplit, in, config)
                  .status()
                  .IsInvalidArgument());
}

TEST(EnsembleTest, VotingAveragesBaseModels) {
  DatasetPtr train = RandomDataset(300, 4, 71, false, true);
  DatasetPtr test = RandomDataset(100, 4, 72, false, true);
  // Fit two base regressors.
  std::vector<OpStatePtr> states;
  std::vector<std::vector<double>> base_preds;
  for (const char* impl : {"skl.Ridge", "skl.LinearRegression"}) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(train);
    auto fit_out = RunTask(impl, MlTask::kFit, fit_in, Config());
    ASSERT_TRUE(fit_out.ok());
    states.push_back(fit_out->states[0]);
    TaskInputs pr_in;
    pr_in.states = fit_out->states;
    pr_in.datasets.push_back(test);
    auto pr_out = RunTask(impl, MlTask::kPredict, pr_in, Config());
    base_preds.push_back(*pr_out->predictions[0]);
  }
  TaskInputs ens_fit;
  ens_fit.states = states;
  auto ens_state =
      RunTask("skl.VotingRegressor", MlTask::kFit, ens_fit, Config());
  ASSERT_TRUE(ens_state.ok()) << ens_state.status();
  TaskInputs ens_pr;
  ens_pr.states = ens_state->states;
  ens_pr.datasets.push_back(test);
  auto ens_out =
      RunTask("skl.VotingRegressor", MlTask::kPredict, ens_pr, Config());
  ASSERT_TRUE(ens_out.ok()) << ens_out.status();
  const std::vector<double>& combined = *ens_out->predictions[0];
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_NEAR(combined[i], 0.5 * (base_preds[0][i] + base_preds[1][i]),
                1e-9);
  }
}

TEST(EnsembleTest, StackingBeatsOrMatchesWorstBase) {
  DatasetPtr train = RandomDataset(500, 4, 81, false, true);
  DatasetPtr test = RandomDataset(200, 4, 82, false, true);
  std::vector<OpStatePtr> states;
  double worst_rmse = 0.0;
  for (const char* impl : {"skl.Ridge", "skl.DecisionTreeRegressor"}) {
    TaskInputs fit_in;
    fit_in.datasets.push_back(train);
    auto fit_out = RunTask(impl, MlTask::kFit, fit_in, Config());
    ASSERT_TRUE(fit_out.ok());
    states.push_back(fit_out->states[0]);
    TaskInputs pr_in;
    pr_in.states = fit_out->states;
    pr_in.datasets.push_back(test);
    auto pr_out = RunTask(impl, MlTask::kPredict, pr_in, Config());
    worst_rmse =
        std::max(worst_rmse, *Rmse(*pr_out->predictions[0], test->target()));
  }
  TaskInputs ens_fit;
  ens_fit.states = states;
  ens_fit.datasets.push_back(train);
  auto ens_state =
      RunTask("skl.StackingRegressor", MlTask::kFit, ens_fit, Config());
  ASSERT_TRUE(ens_state.ok()) << ens_state.status();
  TaskInputs ens_pr;
  ens_pr.states = ens_state->states;
  ens_pr.datasets.push_back(test);
  auto ens_out =
      RunTask("skl.StackingRegressor", MlTask::kPredict, ens_pr, Config());
  ASSERT_TRUE(ens_out.ok());
  const double stacked_rmse =
      *Rmse(*ens_out->predictions[0], test->target());
  EXPECT_LE(stacked_rmse, worst_rmse * 1.05);
}

TEST(EvaluatorTest, ComputesConfiguredMetric) {
  auto test = RandomDataset(50, 2, 91, false, true);
  auto preds = std::make_shared<const std::vector<double>>(test->target());
  TaskInputs in;
  in.predictions.push_back(preds);
  in.datasets.push_back(test);
  Config config;
  config.Set("metric", "rmse");
  auto out = RunTask("skl.Evaluator", MlTask::kEvaluate, in, config);
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->values.size(), 1u);
  EXPECT_DOUBLE_EQ(out->values[0], 0.0);
}

TEST(RegistryTest, CatalogIsComprehensive) {
  OperatorRegistry& registry = OperatorRegistry::Global();
  // The paper's dictionary holds ~40 operators; ours registers 40+
  // implementations over 25+ logical operators.
  EXPECT_GE(registry.size(), 40u);
  EXPECT_GE(registry.LogicalOps().size(), 24u);
  // Every logical operator has at least one impl; the optimizable ones
  // have two or more.
  int multi_impl = 0;
  for (const std::string& lop : registry.LogicalOps()) {
    const auto impls = registry.ImplsFor(lop);
    EXPECT_GE(impls.size(), 1u) << lop;
    if (impls.size() >= 2) {
      ++multi_impl;
    }
  }
  EXPECT_GE(multi_impl, 18);
}

TEST(RegistryTest, LookupAndErrors) {
  OperatorRegistry& registry = OperatorRegistry::Global();
  auto op = registry.Get("skl.StandardScaler");
  ASSERT_TRUE(op.ok());
  EXPECT_EQ((*op)->logical_op(), "StandardScaler");
  EXPECT_EQ((*op)->framework(), "skl");
  EXPECT_TRUE(registry.Get("nope.Missing").status().IsNotFound());
}

TEST(RegistryTest, CostHintsPositiveAndShapeMonotone) {
  OperatorRegistry& registry = OperatorRegistry::Global();
  for (const std::string& lop : registry.LogicalOps()) {
    for (const PhysicalOperator* op : registry.ImplsFor(lop)) {
      for (MlTask task : {MlTask::kFit, MlTask::kTransform, MlTask::kPredict,
                          MlTask::kSplit, MlTask::kEvaluate}) {
        if (!op->SupportsTask(task)) {
          continue;
        }
        const double small = op->CostHint(task, 1000, 10, Config());
        const double large = op->CostHint(task, 100000, 10, Config());
        EXPECT_GT(small, 0.0) << op->impl_name();
        EXPECT_GE(large, small) << op->impl_name();
      }
    }
  }
}

TEST(OperatorTest, ArityValidation) {
  DatasetPtr data = RandomDataset(30, 2, 95);
  TaskInputs empty;
  EXPECT_TRUE(RunTask("skl.StandardScaler", MlTask::kFit, empty, Config())
                  .status()
                  .IsInvalidArgument());
  TaskInputs just_data;
  just_data.datasets.push_back(data);
  EXPECT_TRUE(
      RunTask("skl.StandardScaler", MlTask::kTransform, just_data, Config())
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(RunTask("skl.StandardScaler", MlTask::kPredict, just_data,
                      Config())
                  .status()
                  .IsInvalidArgument());
}

TEST(OperatorTest, TaskNamesRoundTrip) {
  for (MlTask task : {MlTask::kSplit, MlTask::kFit, MlTask::kTransform,
                      MlTask::kPredict, MlTask::kEvaluate}) {
    auto parsed = MlTaskFromString(MlTaskToString(task));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, task);
  }
  EXPECT_TRUE(MlTaskFromString("bogus").status().IsInvalidArgument());
}

}  // namespace
}  // namespace hyppo::ml
