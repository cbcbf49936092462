#ifndef HYPPO_ML_OPERATOR_H_
#define HYPPO_ML_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/config.h"
#include "ml/dataset.h"
#include "ml/op_state.h"

namespace hyppo {
class ThreadPool;
}  // namespace hyppo

namespace hyppo::ml {

/// \brief Fundamental task types exposed by physical operators (paper
/// §III-A: "there exist some fundamental tasks that are common across
/// physical implementations; we call these task types").
enum class MlTask {
  kSplit,      ///< data -> (train, test)
  kFit,        ///< data [+ states] -> op-state
  kTransform,  ///< op-state + data -> data
  kPredict,    ///< op-state [+ states] + data -> predictions
  kEvaluate,   ///< predictions + data(target) -> value
};

/// Stable lower-case name ("fit", "transform", ...).
const char* MlTaskToString(MlTask task);

/// Parses a task-type name; returns InvalidArgument on unknown names.
Result<MlTask> MlTaskFromString(const std::string& name);

using PredictionsPtr = std::shared_ptr<const std::vector<double>>;

/// \brief Reproducibility contract of a physical implementation.
///
/// `kDeterministic` implementations produce byte-identical payloads for
/// identical (inputs, config) — the contract the executor differential and
/// chaos suites enforce, and the property fault-recovery re-execution
/// depends on. `kNonDeterministic` marks implementations whose output may
/// vary across runs (wall-clock seeding, unordered iteration, thread
/// scheduling); the static determinism lint rejects them on bitwise paths.
enum class Determinism {
  kDeterministic = 0,
  kNonDeterministic = 1,
};

const char* DeterminismToString(Determinism determinism);

/// \brief How tightly implementations of one logical operator agree.
///
/// `kExact` families produce byte-identical outputs across every
/// registered implementation (e.g. both split implementations derive the
/// same permutation from the seed). `kNumeric` families agree only up to
/// floating-point tolerance (e.g. two-pass vs streaming variance). The
/// equivalence soundness audit requires the class to be consistent across
/// a logical operator's implementations.
enum class Tolerance {
  kExact = 0,
  kNumeric = 1,
};

const char* ToleranceToString(Tolerance tolerance);

/// Artifacts consumed by one task execution, grouped by kind. Order within
/// each kind follows the task's tail order in the pipeline.
struct TaskInputs {
  std::vector<DatasetPtr> datasets;
  std::vector<OpStatePtr> states;
  std::vector<PredictionsPtr> predictions;
  /// The executor's pool, which an operator may split its own work over
  /// (see ThreadPool); null runs the operator serially. Outputs must not
  /// depend on it.
  ThreadPool* pool = nullptr;
};

/// Artifacts produced by one task execution.
struct TaskOutputs {
  std::vector<DatasetPtr> datasets;
  std::vector<OpStatePtr> states;
  std::vector<PredictionsPtr> predictions;
  std::vector<double> values;
};

/// \brief A physical operator: one concrete implementation of a logical
/// operator in some emulated framework (paper §III-A).
///
/// Implementations of the same logical operator are *equivalent*: given the
/// same inputs they produce numerically equivalent outputs (tests enforce
/// this), but at different costs — the property HYPPO's augmenter exploits.
/// Framework names mirror the paper's setup: "skl" (scikit-learn-like
/// exact algorithms) and "tfl" (TensorFlow-like iterative/streaming
/// algorithms); a few operators add a third ("lgb", histogram trees).
class PhysicalOperator {
 public:
  PhysicalOperator(std::string logical_op, std::string framework)
      : logical_op_(std::move(logical_op)), framework_(std::move(framework)) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  const std::string& logical_op() const { return logical_op_; }
  const std::string& framework() const { return framework_; }
  /// Fully qualified implementation name, e.g. "skl.StandardScaler".
  std::string impl_name() const { return framework_ + "." + logical_op_; }

  /// Reproducibility contract; all builtins are deterministic.
  Determinism determinism() const { return determinism_; }
  /// Cross-implementation agreement class for this logical operator.
  Tolerance tolerance() const { return tolerance_; }

  /// True if this implementation exposes the given task type.
  virtual bool SupportsTask(MlTask task) const = 0;

  /// Runs one task. Input arity/kinds are validated and reported as
  /// InvalidArgument.
  virtual Result<TaskOutputs> Execute(MlTask task, const TaskInputs& inputs,
                                      const Config& config) const = 0;

  /// \brief Analytic cost estimate in seconds for the given input shape.
  ///
  /// This is the "known cost formula parameterized by the input data size"
  /// of paper §IV-G; the cost estimator uses it until enough observations
  /// are collected, then switches to learned bucket statistics.
  virtual double CostHint(MlTask task, int64_t rows, int64_t cols,
                          const Config& config) const;

 protected:
  /// Subclass constructors declare their contract; defaults are the common
  /// case (seed-derived determinism, float-tolerant cross-impl agreement).
  void set_determinism(Determinism determinism) { determinism_ = determinism; }
  void set_tolerance(Tolerance tolerance) { tolerance_ = tolerance; }

 private:
  std::string logical_op_;
  std::string framework_;
  Determinism determinism_ = Determinism::kDeterministic;
  Tolerance tolerance_ = Tolerance::kNumeric;
};

/// \brief Convenience base for fit/transform/predict estimators.
///
/// Subclasses override DoFit and one of DoTransform / DoPredict; Execute
/// performs arity validation and dispatch.
class Estimator : public PhysicalOperator {
 public:
  Estimator(std::string logical_op, std::string framework, bool transforms,
            bool predicts)
      : PhysicalOperator(std::move(logical_op), std::move(framework)),
        transforms_(transforms),
        predicts_(predicts) {}

  bool SupportsTask(MlTask task) const override;
  Result<TaskOutputs> Execute(MlTask task, const TaskInputs& inputs,
                              const Config& config) const override;

 protected:
  /// `pool` is TaskInputs::pool: null, or a pool the fit or transform may
  /// fan out over.
  virtual Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                                   ThreadPool* pool) const = 0;
  virtual Result<Dataset> DoTransform(const OpState& state,
                                      const Dataset& data,
                                      ThreadPool* pool) const;
  virtual Result<std::vector<double>> DoPredict(const OpState& state,
                                                const Dataset& data) const;

 private:
  bool transforms_;
  bool predicts_;
};

/// Dispatches a predict call for an arbitrary fitted state through the
/// global registry (used by ensemble operators to run base models).
Result<std::vector<double>> PredictWithImpl(const std::string& impl_name,
                                            const OpState& state,
                                            const Dataset& data);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OPERATOR_H_
