#ifndef HYPPO_ML_OP_STATE_H_
#define HYPPO_ML_OP_STATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hyppo::ml {

/// \brief The fitted internal state of a physical operator — the `op-state`
/// artifact kind of the paper (e.g. a scaler's mean/std, a model's weights).
///
/// Op-states are immutable once produced by a `fit` task and shared by
/// pointer between history, storage, and downstream tasks. SizeBytes() is
/// the value the materializer charges against the storage budget; the paper
/// observes op-states are typically ~KBytes, orders of magnitude smaller
/// than train/test data, which is why they materialize so well (Fig. 5).
class OpState {
 public:
  explicit OpState(std::string logical_op)
      : logical_op_(std::move(logical_op)) {}
  virtual ~OpState() = default;

  OpState(const OpState&) = delete;
  OpState& operator=(const OpState&) = delete;

  const std::string& logical_op() const { return logical_op_; }

  /// Serialized footprint in bytes.
  virtual int64_t SizeBytes() const = 0;

 private:
  std::string logical_op_;
};

using OpStatePtr = std::shared_ptr<const OpState>;

/// \brief Op-state holding named dense vectors and scalars.
///
/// Covers scalers, imputers, PCA (components flattened), linear models
/// (weights + intercept), k-means (centroids flattened), and feature
/// selectors (kept indices).
class VectorState final : public OpState {
 public:
  explicit VectorState(std::string logical_op)
      : OpState(std::move(logical_op)) {}

  std::map<std::string, std::vector<double>> vectors;
  std::map<std::string, double> scalars;

  const std::vector<double>& vec(const std::string& key) const {
    static const std::vector<double> kEmpty;
    auto it = vectors.find(key);
    return it == vectors.end() ? kEmpty : it->second;
  }
  double scalar(const std::string& key, double fallback = 0.0) const {
    auto it = scalars.find(key);
    return it == scalars.end() ? fallback : it->second;
  }

  int64_t SizeBytes() const override;
};

/// \brief A single decision tree in flattened array form.
///
/// Node i: feature[i] < 0 marks a leaf with prediction value[i]; otherwise
/// the node splits on feature[i] at threshold[i] with children left[i] and
/// right[i].
struct FlatTree {
  std::vector<int32_t> feature;
  std::vector<double> threshold;
  std::vector<int32_t> left;
  std::vector<int32_t> right;
  std::vector<double> value;

  int64_t SizeBytes() const {
    return static_cast<int64_t>(feature.size() * (4 + 8 + 4 + 4 + 8));
  }
};

/// \brief Op-state of a single decision tree.
class TreeState final : public OpState {
 public:
  explicit TreeState(std::string logical_op)
      : OpState(std::move(logical_op)) {}

  FlatTree tree;
  bool is_classifier = false;

  int64_t SizeBytes() const override { return 16 + tree.SizeBytes(); }
};

/// \brief Op-state of tree ensembles (random forests, gradient boosting).
class ForestState final : public OpState {
 public:
  explicit ForestState(std::string logical_op)
      : OpState(std::move(logical_op)) {}

  std::vector<FlatTree> trees;
  /// Per-tree multiplier (1/n for forests, learning rate for boosting).
  std::vector<double> tree_weights;
  double base_prediction = 0.0;
  bool is_classifier = false;

  int64_t SizeBytes() const override;
};

/// \brief Op-state of model ensembles (voting/stacking): references the
/// base model states plus meta-learner weights.
class EnsembleState final : public OpState {
 public:
  explicit EnsembleState(std::string logical_op)
      : OpState(std::move(logical_op)) {}

  /// Base estimators, in order.
  std::vector<OpStatePtr> base_states;
  /// Logical ops of the base estimators (needed to dispatch predict).
  std::vector<std::string> base_logical_ops;
  /// Physical impl names of the base estimators.
  std::vector<std::string> base_impls;
  /// Meta weights: voting uses uniform weights, stacking learns them.
  std::vector<double> meta_weights;
  double meta_intercept = 0.0;

  int64_t SizeBytes() const override;
};

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OP_STATE_H_
