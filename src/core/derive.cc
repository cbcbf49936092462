#include "core/derive.h"

#include <charconv>
#include <limits>

#include "ml/ops/tree_builder.h"

namespace hyppo::core {

namespace {

constexpr const char* kDepthKey = "max_depth";

// A cut writes the kept nodes of every tree once. Cutting a 12-tree lgb
// forest of max_depth 10 on TAXI 2000 x 11 (108 KB) at depths 3..9 took
// 9-53 us for 4.9-83 KB of output on a 4-core host (best of 20): about
// 5 us plus 1.5 GB/s of output.
constexpr double kDeriveBytesPerSecond = 1.5e9;
constexpr double kDeriveFixedSeconds = 5e-6;

// Parses the whole of `value` as a depth in [0, INT32_MAX].
bool ParseDepth(const std::string& value, int32_t* depth) {
  const char* end = value.data() + value.size();
  int32_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < 0) {
    return false;
  }
  *depth = parsed;
  return true;
}

}  // namespace

bool DeriveDepth(const TaskInfo& task, int32_t* depth) {
  const auto& values = task.config.values();
  const auto it = values.find(kDepthKey);
  return it != values.end() && ParseDepth(it->second, depth);
}

bool FindDepthSibling(const PipelineGraph& graph, EdgeId edge,
                      DepthSibling* sibling) {
  const TaskInfo& task = graph.task(edge);
  if (task.type != TaskType::kFit || !ml::IsDepthCuttable(task.logical_op) ||
      !DeriveDepth(task, &sibling->depth)) {
    return false;
  }
  ml::Config rest = task.config;
  rest.Set(kDepthKey, "*");
  std::string key = task.logical_op;
  key += '|';
  key += rest.ToString();
  key += '|';
  for (NodeId t : graph.ordered_tail(edge)) {
    key += graph.artifact(t).name;
    key += ';';
  }
  sibling->key = std::move(key);
  return true;
}

TaskInfo DeriveTaskFor(const TaskInfo& fit) {
  TaskInfo derive;
  derive.logical_op = fit.logical_op;
  derive.type = TaskType::kDerive;
  derive.config = fit.config;
  return derive;
}

double DeriveSeconds(int64_t state_bytes) {
  return kDeriveFixedSeconds +
         static_cast<double>(state_bytes) / kDeriveBytesPerSecond;
}

}  // namespace hyppo::core
