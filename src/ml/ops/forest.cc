#include <cmath>
#include <memory>

#include "common/rng.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"
#include "ml/ops/tree_builder.h"

namespace hyppo::ml {

namespace {

// RandomForestClassifier / RandomForestRegressor: bagging over decision
// trees with per-tree feature subsampling. skl grows exact trees; lgb grows
// histogram trees. Deterministic given the `seed` config.
class RandomForestOp final : public Estimator {
 public:
  RandomForestOp(std::string logical_op, std::string framework,
                 bool classifier, bool histogram)
      : Estimator(std::move(logical_op), std::move(framework),
                  /*transforms=*/false, /*predicts=*/true),
        classifier_(classifier),
        histogram_(histogram) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double n = static_cast<double>(rows);
    const double d = static_cast<double>(cols);
    const double trees =
        static_cast<double>(config.GetInt("n_estimators", 20));
    const double depth =
        static_cast<double>(config.GetInt("max_depth", 8));
    if (task == MlTask::kFit) {
      // Feature subsampling halves the per-level cost.
      return trees * TreeLevelSeconds(histogram_, n, d) * depth * 0.5;
    }
    return 3e-9 * n * depth * trees;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* pool) const override {
    if (!data.has_target()) {
      return Status::InvalidArgument(impl_name() +
                                     ".fit: dataset has no target");
    }
    const int64_t n_estimators = config.GetInt("n_estimators", 20);
    if (n_estimators < 1) {
      return Status::InvalidArgument(impl_name() +
                                     ".fit: n_estimators must be >= 1");
    }
    const uint64_t seed = static_cast<uint64_t>(config.GetInt("seed", 3));
    TreeOptions options;
    options.max_depth = static_cast<int32_t>(config.GetInt("max_depth", 8));
    options.min_samples_leaf = config.GetInt("min_samples_leaf", 3);
    options.min_samples_split = config.GetInt("min_samples_split", 6);
    options.histogram = histogram_;
    options.max_bins = static_cast<int32_t>(config.GetInt("max_bins", 64));
    options.classifier = classifier_;
    const int64_t default_features =
        classifier_
            ? static_cast<int64_t>(
                  std::ceil(std::sqrt(static_cast<double>(data.cols()))))
            : std::max<int64_t>(1, data.cols() / 3);
    options.max_features = config.GetInt("max_features", default_features);
    HYPPO_ASSIGN_OR_RETURN(TreeFitter fitter,
                           TreeFitter::Make(data, options, pool, n_estimators));
    // Draw every tree's bootstrap sample and seed serially, as one stream:
    // keep a copy of the generator where each tree's sample starts, and
    // skip past it (each NextBelow consumes one Next) to the tree's seed.
    // The copies replay the samples when the trees grow, in any order.
    const uint64_t rows = static_cast<uint64_t>(data.rows());
    Rng rng(seed);
    std::vector<Rng> sample_starts;
    std::vector<uint64_t> tree_seeds;
    sample_starts.reserve(static_cast<size_t>(n_estimators));
    tree_seeds.reserve(static_cast<size_t>(n_estimators));
    for (int64_t t = 0; t < n_estimators; ++t) {
      sample_starts.push_back(rng);
      for (uint64_t r = 0; r < rows; ++r) {
        rng.Next();
      }
      tree_seeds.push_back(rng.Next());
    }
    // Tree t's bootstrap sample, with replacement.
    auto bootstrap = [&sample_starts, rows](int64_t t,
                                            std::vector<int64_t>& sample) {
      Rng replay = sample_starts[static_cast<size_t>(t)];
      for (int64_t& row : sample) {
        row = static_cast<int64_t>(replay.NextBelow(rows));
      }
    };
    HYPPO_ASSIGN_OR_RETURN(
        std::vector<FlatTree> trees,
        fitter.BuildEach(data.target(), tree_seeds, bootstrap));
    auto state = std::make_shared<ForestState>(logical_op());
    state->is_classifier = classifier_;
    state->trees = std::move(trees);
    state->tree_weights.assign(static_cast<size_t>(n_estimators),
                               1.0 / static_cast<double>(n_estimators));
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
  bool classifier_;
  bool histogram_;
};

}  // namespace

Status RegisterForestOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<RandomForestOp>(
      "RandomForestClassifier", "skl", /*classifier=*/true,
      /*histogram=*/false)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<RandomForestOp>(
      "RandomForestClassifier", "lgb", /*classifier=*/true,
      /*histogram=*/true)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<RandomForestOp>(
      "RandomForestRegressor", "skl", /*classifier=*/false,
      /*histogram=*/false)));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<RandomForestOp>(
      "RandomForestRegressor", "lgb", /*classifier=*/false,
      /*histogram=*/true)));
  return Status::OK();
}

}  // namespace hyppo::ml
