#include "core/graph.h"

#include <sstream>

namespace hyppo::core {

const char* ArtifactKindToString(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kSource:
      return "source";
    case ArtifactKind::kRaw:
      return "raw";
    case ArtifactKind::kTrain:
      return "train";
    case ArtifactKind::kTest:
      return "test";
    case ArtifactKind::kData:
      return "data";
    case ArtifactKind::kOpState:
      return "op-state";
    case ArtifactKind::kPredictions:
      return "predictions";
    case ArtifactKind::kValue:
      return "value";
  }
  return "unknown";
}

const char* TaskTypeToString(TaskType type) {
  switch (type) {
    case TaskType::kLoad:
      return "load";
    case TaskType::kSplit:
      return "split";
    case TaskType::kFit:
      return "fit";
    case TaskType::kTransform:
      return "transform";
    case TaskType::kPredict:
      return "predict";
    case TaskType::kEvaluate:
      return "evaluate";
    case TaskType::kDerive:
      return "derive";
  }
  return "unknown";
}

Result<TaskType> TaskTypeFromString(const std::string& name) {
  if (name == "load") return TaskType::kLoad;
  if (name == "split") return TaskType::kSplit;
  if (name == "fit") return TaskType::kFit;
  if (name == "transform") return TaskType::kTransform;
  if (name == "predict") return TaskType::kPredict;
  if (name == "evaluate") return TaskType::kEvaluate;
  if (name == "derive") return TaskType::kDerive;
  return Status::InvalidArgument("unknown task type '" + name + "'");
}

Result<ml::MlTask> ToMlTask(TaskType type) {
  switch (type) {
    case TaskType::kSplit:
      return ml::MlTask::kSplit;
    case TaskType::kFit:
      return ml::MlTask::kFit;
    case TaskType::kTransform:
      return ml::MlTask::kTransform;
    case TaskType::kPredict:
      return ml::MlTask::kPredict;
    case TaskType::kEvaluate:
      return ml::MlTask::kEvaluate;
    case TaskType::kLoad:
      return Status::InvalidArgument("load tasks have no ML counterpart");
    case TaskType::kDerive:
      return Status::InvalidArgument("derive tasks have no ML counterpart");
  }
  return Status::InvalidArgument("unknown task type");
}

PipelineGraph::PipelineGraph() {
  NodeId source = graph_.AddNode();
  (void)source;
  ArtifactInfo info;
  info.name = "__source__";
  info.kind = ArtifactKind::kSource;
  info.display = "s";
  artifacts_.push_back(info);
  by_name_.emplace(info.name, 0);
}

Result<NodeId> PipelineGraph::AddArtifact(ArtifactInfo info) {
  if (info.name.empty()) {
    return Status::InvalidArgument("artifact name must be non-empty");
  }
  if (by_name_.count(info.name) > 0) {
    return Status::AlreadyExists("artifact '" + info.name +
                                 "' already exists");
  }
  NodeId node = graph_.AddNode();
  by_name_.emplace(info.name, node);
  artifacts_.push_back(std::move(info));
  return node;
}

NodeId PipelineGraph::GetOrAddArtifact(const ArtifactInfo& info) {
  auto it = by_name_.find(info.name);
  if (it != by_name_.end()) {
    return it->second;
  }
  Result<NodeId> added = AddArtifact(info);
  return added.ValueOrDie();
}

Result<EdgeId> PipelineGraph::AddTask(TaskInfo info, std::vector<NodeId> tails,
                                      std::vector<NodeId> heads) {
  HYPPO_ASSIGN_OR_RETURN(EdgeId edge, graph_.AddEdge(tails, heads));
  // The structural edge may coalesce duplicates; keep declaration order
  // for executor binding.
  if (tasks_.size() < static_cast<size_t>(edge)) {
    return Status::Internal("task label vector out of sync");
  }
  tasks_.resize(static_cast<size_t>(edge) + 1);
  ordered_tails_.resize(static_cast<size_t>(edge) + 1);
  ordered_heads_.resize(static_cast<size_t>(edge) + 1);
  tasks_[static_cast<size_t>(edge)] = std::move(info);
  ordered_tails_[static_cast<size_t>(edge)] = std::move(tails);
  ordered_heads_[static_cast<size_t>(edge)] = std::move(heads);
  return edge;
}

Result<EdgeId> PipelineGraph::AddLoadTask(NodeId node) {
  if (node == source() || !graph_.IsValidNode(node)) {
    return Status::InvalidArgument("invalid load target node");
  }
  TaskInfo info;
  info.logical_op = kLoadOp;
  info.type = TaskType::kLoad;
  return AddTask(std::move(info), {source()}, {node});
}

Status PipelineGraph::RemoveTask(EdgeId edge) { return graph_.RemoveEdge(edge); }

Result<NodeId> PipelineGraph::FindArtifact(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no artifact named '" + name + "'");
  }
  return it->second;
}

std::vector<NodeId> PipelineGraph::SinkArtifacts() const {
  std::vector<NodeId> sinks;
  for (NodeId v = 1; v < graph_.num_nodes(); ++v) {
    if (graph_.fstar(v).empty()) {
      sinks.push_back(v);
    }
  }
  return sinks;
}

std::string PipelineGraph::TaskSignature(EdgeId edge) const {
  const TaskInfo& info = tasks_[static_cast<size_t>(edge)];
  std::ostringstream os;
  os << info.logical_op << "|" << TaskTypeToString(info.type) << "|"
     << info.config.ToString() << "|" << info.impl << "|";
  for (NodeId t : ordered_tails_[static_cast<size_t>(edge)]) {
    os << artifact(t).name << ",";
  }
  os << "->";
  for (NodeId h : ordered_heads_[static_cast<size_t>(edge)]) {
    os << artifact(h).name << ",";
  }
  return os.str();
}

std::string PipelineGraph::ToDot(const std::string& name) const {
  std::vector<std::string> node_labels;
  node_labels.reserve(static_cast<size_t>(graph_.num_nodes()));
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    const ArtifactInfo& a = artifact(v);
    node_labels.push_back(a.display.empty() ? a.name.substr(0, 8)
                                            : a.display);
  }
  std::vector<std::string> edge_labels;
  edge_labels.reserve(static_cast<size_t>(graph_.num_edge_slots()));
  for (EdgeId e = 0; e < graph_.num_edge_slots(); ++e) {
    if (!graph_.IsLiveEdge(e)) {
      edge_labels.emplace_back();
      continue;
    }
    const TaskInfo& t = task(e);
    edge_labels.push_back(t.logical_op + "." + TaskTypeToString(t.type));
  }
  return graph_.ToDot(name, &node_labels, &edge_labels);
}

}  // namespace hyppo::core
