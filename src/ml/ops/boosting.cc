#include <memory>
#include <numeric>

#include "ml/kernels/kernels.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"
#include "ml/ops/tree_builder.h"

namespace hyppo::ml {

namespace {

// GradientBoostingRegressor: stage-wise least-squares boosting.
// skl grows exact trees; lgb grows histogram trees (the LightGBM the
// paper's setup uses). F0 = mean(y); each stage fits a shallow tree to the
// residuals and is added with the learning rate.
class GradientBoostingOp final : public Estimator {
 public:
  GradientBoostingOp(std::string framework, bool histogram)
      : Estimator("GradientBoostingRegressor", std::move(framework),
                  /*transforms=*/false, /*predicts=*/true),
        histogram_(histogram) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double n = static_cast<double>(rows);
    const double d = static_cast<double>(cols);
    const double stages =
        static_cast<double>(config.GetInt("n_estimators", 30));
    const double depth = static_cast<double>(config.GetInt("max_depth", 3));
    if (task == MlTask::kFit) {
      return stages * (TreeLevelSeconds(histogram_, n, d) * depth +
                       3e-9 * n * depth);
    }
    return 3e-9 * n * depth * stages;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* pool) const override {
    if (!data.has_target()) {
      return Status::InvalidArgument(impl_name() +
                                     ".fit: dataset has no target");
    }
    const int64_t n_estimators = config.GetInt("n_estimators", 30);
    if (n_estimators < 1) {
      return Status::InvalidArgument(impl_name() +
                                     ".fit: n_estimators must be >= 1");
    }
    const double learning_rate = config.GetDouble("learning_rate", 0.1);
    TreeOptions options;
    options.max_depth = static_cast<int32_t>(config.GetInt("max_depth", 3));
    options.min_samples_leaf = config.GetInt("min_samples_leaf", 5);
    options.min_samples_split = config.GetInt("min_samples_split", 10);
    options.histogram = histogram_;
    options.max_bins = static_cast<int32_t>(config.GetInt("max_bins", 64));
    const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 5));
    HYPPO_ASSIGN_OR_RETURN(TreeFitter fitter,
                           TreeFitter::Make(data, options, pool));

    auto state = std::make_shared<ForestState>(logical_op());
    const double mean = kernels::Sum(data.target().data(), data.rows()) /
                        static_cast<double>(data.rows());
    state->base_prediction = mean;

    std::vector<double> residual = data.target();
    for (double& r : residual) {
      r -= mean;
    }
    std::vector<int64_t> rows(static_cast<size_t>(data.rows()));
    std::iota(rows.begin(), rows.end(), 0);
    std::vector<double> stage_pred(static_cast<size_t>(data.rows()));
    for (int64_t t = 0; t < n_estimators; ++t) {
      HYPPO_ASSIGN_OR_RETURN(FlatTree tree,
                             fitter.Build(residual, rows, seed));
      std::fill(stage_pred.begin(), stage_pred.end(), 0.0);
      AccumulateTreePredictions(tree, data, 1.0, stage_pred);
      kernels::Axpy(-learning_rate, stage_pred.data(), residual.data(),
                    static_cast<int64_t>(residual.size()));
      state->trees.push_back(std::move(tree));
      state->tree_weights.push_back(learning_rate);
    }
    return OpStatePtr(std::move(state));
  }

  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    const auto* fs = dynamic_cast<const ForestState*>(&state);
    if (fs == nullptr) {
      return Status::InvalidArgument(impl_name() +
                                     ".predict: incompatible op-state");
    }
    std::vector<double> preds(static_cast<size_t>(data.rows()),
                              fs->base_prediction);
    for (size_t t = 0; t < fs->trees.size(); ++t) {
      AccumulateTreePredictions(fs->trees[t], data, fs->tree_weights[t],
                                preds);
    }
    return preds;
  }

 private:
  bool histogram_;
};

}  // namespace

Status RegisterBoostingOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(
      std::make_unique<GradientBoostingOp>("skl", /*histogram=*/false)));
  HYPPO_RETURN_NOT_OK(registry.Register(
      std::make_unique<GradientBoostingOp>("lgb", /*histogram=*/true)));
  return Status::OK();
}

}  // namespace hyppo::ml
