#include <memory>
#include <numeric>

#include "ml/operator.h"
#include "ml/ops/ops.h"
#include "ml/ops/tree_builder.h"

namespace hyppo::ml {

namespace {

// DecisionTreeClassifier / DecisionTreeRegressor.
// skl: exact sort-based split finding. lgb: histogram split finding
// (LightGBM-style). Classifier leaves hold positive-class fractions, so
// predictions are probabilities.
class DecisionTreeOp final : public Estimator {
 public:
  DecisionTreeOp(std::string logical_op, std::string framework,
                 bool classifier, bool histogram)
      : Estimator(std::move(logical_op), std::move(framework),
                  /*transforms=*/false, /*predicts=*/true),
        classifier_(classifier),
        histogram_(histogram) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double n = static_cast<double>(rows);
    const double d = static_cast<double>(cols);
    const double depth =
        static_cast<double>(config.GetInt("max_depth", 6));
    if (task == MlTask::kFit) {
      return TreeLevelSeconds(histogram_, n, d) * depth;
    }
    return 3e-9 * n * depth;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* pool) const override {
    if (!data.has_target()) {
      return Status::InvalidArgument(impl_name() +
                                     ".fit: dataset has no target");
    }
    TreeOptions options;
    options.max_depth = static_cast<int32_t>(config.GetInt("max_depth", 6));
    options.min_samples_leaf = config.GetInt("min_samples_leaf", 5);
    options.min_samples_split = config.GetInt("min_samples_split", 10);
    options.histogram = histogram_;
    options.max_bins = static_cast<int32_t>(config.GetInt("max_bins", 64));
    options.classifier = classifier_;
    std::vector<int64_t> rows(static_cast<size_t>(data.rows()));
    std::iota(rows.begin(), rows.end(), 0);
    HYPPO_ASSIGN_OR_RETURN(TreeFitter fitter,
                           TreeFitter::Make(data, options, pool));
    HYPPO_ASSIGN_OR_RETURN(FlatTree tree,
                           fitter.Build(data.target(), rows, /*seed=*/1));
    auto state = std::make_shared<TreeState>(logical_op());
    state->tree = std::move(tree);
    state->is_classifier = classifier_;
    return OpStatePtr(std::move(state));
  }

  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    const auto* ts = dynamic_cast<const TreeState*>(&state);
    if (ts == nullptr) {
      return Status::InvalidArgument(impl_name() +
                                     ".predict: incompatible op-state");
    }
    std::vector<double> preds(static_cast<size_t>(data.rows()), 0.0);
    AccumulateTreePredictions(ts->tree, data, 1.0, preds);
    return preds;
  }

 private:
  bool classifier_;
  bool histogram_;
};

}  // namespace

Status RegisterTreeOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<DecisionTreeOp>(
      "DecisionTreeClassifier", "skl", /*classifier=*/true,
      /*histogram=*/false)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<DecisionTreeOp>(
      "DecisionTreeClassifier", "lgb", /*classifier=*/true,
      /*histogram=*/true)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<DecisionTreeOp>(
      "DecisionTreeRegressor", "skl", /*classifier=*/false,
      /*histogram=*/false)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<DecisionTreeOp>(
      "DecisionTreeRegressor", "lgb", /*classifier=*/false,
      /*histogram=*/true)));
  return Status::OK();
}

}  // namespace hyppo::ml
