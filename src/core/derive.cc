#include "core/derive.h"

#include <algorithm>
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

// The comma-separated values of `list`.
std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> values;
  size_t begin = 0;
  while (true) {
    const size_t end = std::min(list.find(',', begin), list.size());
    values.push_back(list.substr(begin, end - begin));
    if (end == list.size()) {
      return values;
    }
    begin = end + 1;
  }
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

TaskInfo PredictDepthsTaskFor(const std::vector<const TaskInfo*>& predicts) {
  TaskInfo task;
  task.logical_op = predicts.front()->logical_op;
  task.type = TaskType::kPredictDepths;
  task.config = predicts.front()->config;
  std::string list;
  for (const TaskInfo* predict : predicts) {
    if (!list.empty()) {
      list += ',';
    }
    list += predict->config.values().at(kDepthKey);
  }
  task.config.Set(kDepthKey, std::move(list));
  return task;
}

bool PredictDepths(const TaskInfo& task, std::vector<int32_t>* depths) {
  const auto& values = task.config.values();
  const auto it = values.find(kDepthKey);
  if (it == values.end()) {
    return false;
  }
  depths->clear();
  for (const std::string& value : SplitList(it->second)) {
    int32_t depth = 0;
    if (!ParseDepth(value, &depth)) {
      return false;
    }
    depths->push_back(depth);
  }
  return true;
}

TaskInfo PredictAtHead(const TaskInfo& task, size_t head) {
  TaskInfo predict = task;
  predict.type = TaskType::kPredict;
  predict.config.Set(kDepthKey,
                     SplitList(task.config.values().at(kDepthKey)).at(head));
  return predict;
}

double DeriveSeconds(int64_t state_bytes) {
  return kDeriveFixedSeconds +
         static_cast<double>(state_bytes) / kDeriveBytesPerSecond;
}

}  // namespace hyppo::core
