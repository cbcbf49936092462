#ifndef HYPPO_CORE_TASK_H_
#define HYPPO_CORE_TASK_H_

#include <string>

#include "common/result.h"
#include "ml/config.h"
#include "ml/operator.h"

namespace hyppo::core {

/// \brief Task types of hyperedges. Beyond the ML task types this adds
/// `kLoad`: retrieving an artifact from storage (edges out of the source
/// node s), and `kDerive`: turning a fitted model into the model of a
/// sibling fit without fitting (core/derive.h; the augmenter adds these).
enum class TaskType {
  kLoad = 0,
  kSplit,
  kFit,
  kTransform,
  kPredict,
  kEvaluate,
  kDerive,
};

const char* TaskTypeToString(TaskType type);
Result<TaskType> TaskTypeFromString(const std::string& name);

/// Maps a task type other than load and derive to its ML counterpart.
Result<ml::MlTask> ToMlTask(TaskType type);

/// \brief Hyperedge label: the task of one hyperedge (paper §III-C1).
struct TaskInfo {
  /// Logical operator ("StandardScaler"); "__load__" for load tasks.
  std::string logical_op;
  TaskType type = TaskType::kFit;
  /// Operator configuration; participates in artifact naming.
  ml::Config config;
  /// Bound physical implementation ("skl.StandardScaler"). Load tasks
  /// leave this empty. The augmenter creates parallel hyperedges for
  /// alternative implementations of the same logical operator.
  std::string impl;
  /// 1-based DSL source line that declared this task; 0 for tasks built
  /// programmatically. Diagnostic-only: excluded from task signatures and
  /// from history serialization.
  int source_line = 0;
};

inline constexpr const char* kLoadOp = "__load__";

}  // namespace hyppo::core

#endif  // HYPPO_CORE_TASK_H_
