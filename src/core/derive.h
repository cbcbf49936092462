#ifndef HYPPO_CORE_DERIVE_H_
#define HYPPO_CORE_DERIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/graph.h"

namespace hyppo::core {

/// \brief Depth siblings: fits whose models are depth cuts of each other.
///
/// A tree or forest fit (ml::IsDepthCuttable) with max_depth k fits the
/// model its fit with a larger max_depth K, on the same inputs and with an
/// otherwise equal config, cut at depth k (ml::CutModelAtDepth). Such fits
/// are siblings: they share a key, and a `derive` task (TaskType::kDerive)
/// turns the op-state of the depth-K sibling into the op-state of the
/// depth-k one at the cost of about one state copy. The augmenter adds a
/// derive edge from every deeper sibling to every fit of the pipeline
/// (docs/SWEEP.md, "Derive edges"). Predictions of depth siblings on the
/// same data share one `predict_depths` task (TaskType::kPredictDepths),
/// whose single descent of the deepest sibling's model predicts for all of
/// them (ml::PredictAtDepths).
struct DepthSibling {
  /// Logical op, config without max_depth, and input names.
  std::string key;
  int32_t depth = 0;
};

/// Fills `sibling` and returns true when `edge` of `graph` is a fit of a
/// depth-cuttable operator whose config sets max_depth to a non-negative
/// integer (a config relying on the operator's default depth has no
/// siblings).
bool FindDepthSibling(const PipelineGraph& graph, EdgeId edge,
                      DepthSibling* sibling);

/// The max_depth a derive task cuts at, parsed from its config as
/// FindDepthSibling parses a fit's; false when the config sets none.
bool DeriveDepth(const TaskInfo& task, int32_t* depth);

/// The derive task producing the head of the depth-cuttable fit `fit`:
/// same logical op and config, no implementation.
TaskInfo DeriveTaskFor(const TaskInfo& fit);

/// The predict_depths task producing the predictions of `predicts`, the
/// predicts of a group of depth siblings on the same data, in head order:
/// their logical op and config, with max_depth listing each one's value
/// ("3,5,10"), and no implementation.
TaskInfo PredictDepthsTaskFor(const std::vector<const TaskInfo*>& predicts);

/// The depths of a predict_depths task's heads, in head order, parsed
/// from its config; false when the config lists none or a malformed one.
bool PredictDepths(const TaskInfo& task, std::vector<int32_t>* depths);

/// The predict that head `head` of the predict_depths task `task` stands
/// for: its config with max_depth set to the head's listed value, as a
/// predict with no implementation. `head` must be below the number of
/// listed depths.
TaskInfo PredictAtHead(const TaskInfo& task, size_t head);

/// Estimated seconds of a derive task producing an op-state of
/// `state_bytes` bytes: one copy of the cut state.
double DeriveSeconds(int64_t state_bytes);

}  // namespace hyppo::core

#endif  // HYPPO_CORE_DERIVE_H_
