#include "ml/operator.h"

#include "ml/registry.h"

namespace hyppo::ml {

const char* MlTaskToString(MlTask task) {
  switch (task) {
    case MlTask::kSplit:
      return "split";
    case MlTask::kFit:
      return "fit";
    case MlTask::kTransform:
      return "transform";
    case MlTask::kPredict:
      return "predict";
    case MlTask::kEvaluate:
      return "evaluate";
  }
  return "unknown";
}

Result<MlTask> MlTaskFromString(const std::string& name) {
  if (name == "split") return MlTask::kSplit;
  if (name == "fit") return MlTask::kFit;
  if (name == "transform") return MlTask::kTransform;
  if (name == "predict") return MlTask::kPredict;
  if (name == "evaluate") return MlTask::kEvaluate;
  return Status::InvalidArgument("unknown task type '" + name + "'");
}

const char* DeterminismToString(Determinism determinism) {
  switch (determinism) {
    case Determinism::kDeterministic:
      return "deterministic";
    case Determinism::kNonDeterministic:
      return "non-deterministic";
  }
  return "unknown";
}

const char* ToleranceToString(Tolerance tolerance) {
  switch (tolerance) {
    case Tolerance::kExact:
      return "exact";
    case Tolerance::kNumeric:
      return "numeric";
  }
  return "unknown";
}

double PhysicalOperator::CostHint(MlTask task, int64_t rows, int64_t cols,
                                  const Config& /*config*/) const {
  // Generic fallback: linear in the number of cells, fit 10x heavier.
  const double cells = static_cast<double>(rows) * static_cast<double>(cols);
  switch (task) {
    case MlTask::kFit:
      return 1e-7 * cells;
    case MlTask::kTransform:
    case MlTask::kPredict:
      return 1e-8 * cells;
    case MlTask::kSplit:
      return 5e-9 * cells;
    case MlTask::kEvaluate:
      return 1e-9 * static_cast<double>(rows);
  }
  return 1e-8 * cells;
}

bool Estimator::SupportsTask(MlTask task) const {
  switch (task) {
    case MlTask::kFit:
      return true;
    case MlTask::kTransform:
      return transforms_;
    case MlTask::kPredict:
      return predicts_;
    default:
      return false;
  }
}

Result<TaskOutputs> Estimator::Execute(MlTask task, const TaskInputs& inputs,
                                       const Config& config) const {
  TaskOutputs outputs;
  switch (task) {
    case MlTask::kFit: {
      if (inputs.datasets.size() != 1) {
        return Status::InvalidArgument(impl_name() +
                                       ".fit expects exactly one dataset");
      }
      HYPPO_ASSIGN_OR_RETURN(OpStatePtr state,
                             DoFit(*inputs.datasets[0], config, inputs.pool));
      outputs.states.push_back(std::move(state));
      return outputs;
    }
    case MlTask::kTransform: {
      if (!transforms_) {
        return Status::InvalidArgument(impl_name() +
                                       " does not support transform");
      }
      if (inputs.datasets.size() != 1 || inputs.states.size() != 1) {
        return Status::InvalidArgument(
            impl_name() + ".transform expects one op-state and one dataset");
      }
      HYPPO_ASSIGN_OR_RETURN(
          Dataset data,
          DoTransform(*inputs.states[0], *inputs.datasets[0], inputs.pool));
      outputs.datasets.push_back(
          std::make_shared<const Dataset>(std::move(data)));
      return outputs;
    }
    case MlTask::kPredict: {
      if (!predicts_) {
        return Status::InvalidArgument(impl_name() +
                                       " does not support predict");
      }
      if (inputs.datasets.size() != 1 || inputs.states.size() != 1) {
        return Status::InvalidArgument(
            impl_name() + ".predict expects one op-state and one dataset");
      }
      HYPPO_ASSIGN_OR_RETURN(
          std::vector<double> preds,
          DoPredict(*inputs.states[0], *inputs.datasets[0]));
      outputs.predictions.push_back(
          std::make_shared<const std::vector<double>>(std::move(preds)));
      return outputs;
    }
    default:
      return Status::InvalidArgument(impl_name() + " does not support task " +
                                     MlTaskToString(task));
  }
}

Result<Dataset> Estimator::DoTransform(const OpState& /*state*/,
                                       const Dataset& /*data*/,
                                       ThreadPool* /*pool*/) const {
  return Status::NotImplemented(impl_name() + " transform");
}

Result<std::vector<double>> Estimator::DoPredict(
    const OpState& /*state*/, const Dataset& /*data*/) const {
  return Status::NotImplemented(impl_name() + " predict");
}

Result<std::vector<double>> PredictWithImpl(const std::string& impl_name,
                                            const OpState& state,
                                            const Dataset& data) {
  HYPPO_ASSIGN_OR_RETURN(const PhysicalOperator* op,
                         OperatorRegistry::Global().Get(impl_name));
  TaskInputs inputs;
  // The dataset and the state are owned elsewhere and outlive the call (no
  // predict keeps its inputs); alias them with no-op deleters.
  inputs.datasets.push_back(DatasetPtr(&data, [](const Dataset*) {}));
  inputs.states.push_back(OpStatePtr(&state, [](const OpState*) {}));
  HYPPO_ASSIGN_OR_RETURN(TaskOutputs out,
                         op->Execute(MlTask::kPredict, inputs, Config()));
  if (out.predictions.size() != 1) {
    return Status::Internal(impl_name + " predict produced " +
                            std::to_string(out.predictions.size()) +
                            " outputs");
  }
  return *out.predictions[0];
}

}  // namespace hyppo::ml
