#ifndef HYPPO_CORE_DERIVE_H_
#define HYPPO_CORE_DERIVE_H_

#include <cstdint>
#include <string>

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
/// (docs/SWEEP.md, "Derive edges").
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

/// Estimated seconds of a derive task producing an op-state of
/// `state_bytes` bytes: one copy of the cut state.
double DeriveSeconds(int64_t state_bytes);

}  // namespace hyppo::core

#endif  // HYPPO_CORE_DERIVE_H_
