// Depth-cut differential of the tree models: a decision tree or random
// forest fitted with max_depth K and cut at depth k (ml::CutModelAtDepth)
// must be the model fitted directly with max_depth k, byte for byte, and
// predict the same bytes. Every pair k < K in 3..10 is checked for exact
// (skl) and histogram (lgb) fits on the HIGGS (4000 x 30, classification)
// and TAXI (2000 x 11, regression) datasets the benchmarks use. Forests
// subsample features at every node, so this also checks that a node's
// sample depends only on its path (ml::ChildSampleSeed). One descent of
// the depth-K model (ml::PredictAtDepths) must predict, for every k < K,
// the bytes the model cut at k predicts.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/ops/tree_builder.h"
#include "ml/registry.h"
#include "storage/serialization.h"
#include "workload/datagen.h"

namespace hyppo {
namespace {

constexpr int kShallowest = 3;
constexpr int kDeepest = 10;

struct Fitted {
  ml::OpStatePtr state;
  std::string state_bytes;
  std::string prediction_bytes;
};

ml::Config DepthConfig(const std::string& impl, int depth) {
  ml::Config config;
  config.SetInt("max_depth", depth);
  if (impl.find("RandomForest") != std::string::npos) {
    config.SetInt("n_estimators", 4);
    config.SetInt("seed", 17);
  }
  return config;
}

// Serializes `state` and the predictions `op` makes with it on `data`.
Fitted Describe(const ml::PhysicalOperator& op, const ml::DatasetPtr& data,
                const ml::Config& config, ml::OpStatePtr state) {
  Fitted out;
  auto bytes = storage::SerializePayload(state);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  out.state_bytes = bytes.ok() ? *bytes : "";
  ml::TaskInputs inputs;
  inputs.datasets.push_back(data);
  inputs.states.push_back(state);
  auto predicted = op.Execute(ml::MlTask::kPredict, inputs, config);
  EXPECT_TRUE(predicted.ok()) << predicted.status();
  if (predicted.ok()) {
    auto preds = storage::SerializePayload(predicted->predictions.at(0));
    EXPECT_TRUE(preds.ok()) << preds.status();
    out.prediction_bytes = preds.ok() ? *preds : "";
  }
  out.state = std::move(state);
  return out;
}

void CheckEveryDepthPair(const workload::UseCase& use_case, double multiplier,
                         const std::string& impl) {
  SCOPED_TRACE(impl);
  auto data = workload::GenerateUseCase(use_case, multiplier, 7);
  ASSERT_TRUE(data.ok()) << data.status();
  auto op = ml::OperatorRegistry::Global().Get(impl);
  ASSERT_TRUE(op.ok()) << op.status();
  ASSERT_TRUE(ml::IsDepthCuttable((*op)->logical_op()));
  std::map<int, Fitted> direct;
  for (int depth = kShallowest; depth <= kDeepest; ++depth) {
    const ml::Config config = DepthConfig(impl, depth);
    ml::TaskInputs inputs;
    inputs.datasets.push_back(*data);
    auto fitted = (*op)->Execute(ml::MlTask::kFit, inputs, config);
    ASSERT_TRUE(fitted.ok()) << fitted.status();
    direct[depth] = Describe(**op, *data, config, fitted->states.at(0));
  }
  // The deepest fit must reach past the shallowest depth, or every cut
  // would be trivially equal.
  ASSERT_NE(direct[kDeepest].state_bytes, direct[kShallowest].state_bytes);
  for (int deep = kShallowest + 1; deep <= kDeepest; ++deep) {
    std::vector<int32_t> depths;
    std::vector<std::string> cut_predictions;
    for (int shallow = kShallowest; shallow < deep; ++shallow) {
      auto cut = ml::CutModelAtDepth(*direct[deep].state, shallow);
      ASSERT_TRUE(cut.ok()) << cut.status();
      const Fitted derived =
          Describe(**op, *data, DepthConfig(impl, shallow), *cut);
      EXPECT_EQ(derived.state_bytes, direct[shallow].state_bytes)
          << "max_depth " << deep << " cut at " << shallow;
      EXPECT_EQ(derived.prediction_bytes, direct[shallow].prediction_bytes)
          << "max_depth " << deep << " cut at " << shallow;
      depths.push_back(shallow);
      cut_predictions.push_back(derived.prediction_bytes);
    }
    // The uncut depth too, listed first: heads follow the listed order.
    depths.insert(depths.begin(), deep);
    cut_predictions.insert(cut_predictions.begin(),
                           direct[deep].prediction_bytes);
    auto descent = ml::PredictAtDepths(*direct[deep].state, **data, depths);
    ASSERT_TRUE(descent.ok()) << descent.status();
    ASSERT_EQ(descent->size(), depths.size());
    for (size_t i = 0; i < depths.size(); ++i) {
      auto bytes = storage::SerializePayload(ml::PredictionsPtr(
          std::make_shared<const std::vector<double>>((*descent)[i])));
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      EXPECT_EQ(*bytes, cut_predictions[i])
          << "max_depth " << deep << " descent head at " << depths[i];
    }
  }
}

TEST(DepthCutTest, HiggsTreesAndForestsCutToDirectFits) {
  for (const char* impl :
       {"skl.DecisionTreeClassifier", "lgb.DecisionTreeClassifier",
        "skl.RandomForestClassifier", "lgb.RandomForestClassifier"}) {
    CheckEveryDepthPair(workload::UseCase::Higgs(), 0.005, impl);
  }
}

TEST(DepthCutTest, TaxiTreesAndForestsCutToDirectFits) {
  for (const char* impl :
       {"skl.DecisionTreeRegressor", "lgb.DecisionTreeRegressor",
        "skl.RandomForestRegressor", "lgb.RandomForestRegressor"}) {
    CheckEveryDepthPair(workload::UseCase::Taxi(), 0.002, impl);
  }
}

TEST(DepthCutTest, CutRenumbersInPreOrder) {
  // Root (depth 0) splits; its left child (depth 1) splits into two
  // leaves; its right child is a leaf. Ids are in pre-order.
  ml::FlatTree tree;
  tree.feature = {0, 1, -1, -1, -1};
  tree.threshold = {0.5, 1.5, 0.0, 0.0, 0.0};
  tree.left = {1, 2, -1, -1, -1};
  tree.right = {4, 3, -1, -1, -1};
  tree.value = {10.0, 11.0, 12.0, 13.0, 14.0};

  const ml::FlatTree root = ml::CutTreeAtDepth(tree, 0);
  EXPECT_EQ(root.feature, std::vector<int32_t>{-1});
  EXPECT_EQ(root.value, std::vector<double>{10.0});

  const ml::FlatTree one = ml::CutTreeAtDepth(tree, 1);
  EXPECT_EQ(one.feature, (std::vector<int32_t>{0, -1, -1}));
  EXPECT_EQ(one.threshold, (std::vector<double>{0.5, 0.0, 0.0}));
  EXPECT_EQ(one.left, (std::vector<int32_t>{1, -1, -1}));
  EXPECT_EQ(one.right, (std::vector<int32_t>{2, -1, -1}));
  EXPECT_EQ(one.value, (std::vector<double>{10.0, 11.0, 14.0}));

  const ml::FlatTree whole = ml::CutTreeAtDepth(tree, 2);
  EXPECT_EQ(whole.feature, tree.feature);
  EXPECT_EQ(whole.threshold, tree.threshold);
  EXPECT_EQ(whole.left, tree.left);
  EXPECT_EQ(whole.right, tree.right);
  EXPECT_EQ(whole.value, tree.value);
}

TEST(DepthCutTest, OnlyTreeAndForestModelsCut) {
  EXPECT_FALSE(ml::IsDepthCuttable("GradientBoostingRegressor"));
  ml::ForestState boosted("GradientBoostingRegressor");
  EXPECT_TRUE(ml::CutModelAtDepth(boosted, 2).status().IsInvalidArgument());
  ml::VectorState scaler("DecisionTreeRegressor");
  EXPECT_TRUE(ml::CutModelAtDepth(scaler, 2).status().IsInvalidArgument());
  const ml::Dataset empty;
  EXPECT_TRUE(
      ml::PredictAtDepths(boosted, empty, {2}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ml::PredictAtDepths(scaler, empty, {2}).status().IsInvalidArgument());
  ml::ForestState forest("RandomForestRegressor");
  EXPECT_TRUE(
      ml::PredictAtDepths(forest, empty, {-1}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hyppo
