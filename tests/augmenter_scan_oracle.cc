#include "augmenter_scan_oracle.h"

#include <utility>

#include "hypergraph/algorithms.h"

namespace hyppo::core::oracle {

namespace {

// Adds `task` over `tails`/`heads` unless an edge with its signature is
// already in `aug`.
Status AddUnlessKnown(PipelineGraph& aug, TaskInfo task,
                      std::vector<NodeId> tails, std::vector<NodeId> heads,
                      std::set<std::string>& signatures) {
  HYPPO_ASSIGN_OR_RETURN(
      EdgeId added, aug.AddTask(std::move(task), std::move(tails),
                                std::move(heads)));
  if (!signatures.insert(aug.TaskSignature(added)).second) {
    HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
  }
  return Status::OK();
}

// Splices every history compute edge the scan finds relevant to
// `matched` into `aug`.
Status SpliceHistory(PipelineGraph& aug, const History& history,
                     const std::vector<NodeId>& matched,
                     std::set<std::string>& signatures) {
  if (matched.empty()) {
    return Status::OK();
  }
  const PipelineGraph& hist = history.graph();
  for (EdgeId e : ScanRelevantEdges(history, matched)) {
    if (hist.task(e).type == TaskType::kLoad) {
      continue;
    }
    std::vector<NodeId> tails;
    for (NodeId t : hist.ordered_tail(e)) {
      tails.push_back(aug.GetOrAddArtifact(hist.artifact(t)));
    }
    std::vector<NodeId> heads;
    for (NodeId h : hist.ordered_head(e)) {
      heads.push_back(aug.GetOrAddArtifact(hist.artifact(h)));
    }
    HYPPO_RETURN_NOT_OK(AddUnlessKnown(aug, hist.task(e), std::move(tails),
                                       std::move(heads), signatures));
  }
  return Status::OK();
}

}  // namespace

std::vector<EdgeId> ScanRelevantEdges(const History& history,
                                      const std::vector<NodeId>& matched) {
  const Hypergraph& hg = history.graph().hypergraph();
  const RelevanceClosure closure = BackwardRelevance(hg, matched);
  std::vector<EdgeId> out;
  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (hg.IsLiveEdge(e) && closure.edge_relevant[static_cast<size_t>(e)]) {
      out.push_back(e);
    }
  }
  return out;
}

Status ScanAugmenter::Finish(const History& history,
                             const Augmenter::Options& options,
                             std::set<std::string>& signatures,
                             Augmentation* aug) const {
  PipelineGraph& graph = aug->graph;
  const PipelineGraph& hist = history.graph();
  if (options.use_equivalences) {
    for (EdgeId e : graph.hypergraph().LiveEdges()) {
      const TaskInfo task = graph.task(e);
      if (task.type == TaskType::kLoad) {
        continue;
      }
      for (const std::string& impl :
           dictionary_->ImplsFor(task.logical_op, task.type)) {
        if (impl == task.impl) {
          continue;
        }
        TaskInfo alternative = task;
        alternative.impl = impl;
        HYPPO_RETURN_NOT_OK(AddUnlessKnown(graph, std::move(alternative),
                                           graph.ordered_tail(e),
                                           graph.ordered_head(e), signatures));
      }
    }
  }
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    const ArtifactInfo& artifact = graph.artifact(v);
    bool loadable = artifact.kind == ArtifactKind::kRaw;
    if (!loadable && options.use_materialized) {
      const Result<NodeId> h_node = hist.FindArtifact(artifact.name);
      loadable = h_node.ok() && history.IsMaterialized(*h_node);
    }
    bool has_load = false;
    for (EdgeId e : graph.hypergraph().bstar(v)) {
      has_load = has_load || graph.task(e).type == TaskType::kLoad;
    }
    if (loadable && !has_load) {
      HYPPO_RETURN_NOT_OK(graph.AddLoadTask(v).status());
    }
  }
  std::set<std::string> known;
  for (EdgeId e : hist.hypergraph().LiveEdges()) {
    known.insert(hist.TaskSignature(e));
  }
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    if (graph.task(e).type != TaskType::kLoad &&
        known.count(graph.TaskSignature(e)) == 0) {
      aug->new_tasks.push_back(e);
    }
  }
  const int32_t slots = graph.hypergraph().num_edge_slots();
  aug->edge_weight.assign(static_cast<size_t>(slots), 0.0);
  aug->edge_seconds.assign(static_cast<size_t>(slots), 0.0);
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    aug->edge_seconds[static_cast<size_t>(e)] =
        augmenter_->EdgeSeconds(graph, e, history);
    aug->edge_weight[static_cast<size_t>(e)] =
        augmenter_->EdgeWeight(graph, e, history, options.objective);
  }
  return Status::OK();
}

Result<Augmentation> ScanAugmenter::Augment(
    const Pipeline& pipeline, const History& history,
    const Augmenter::Options& options) const {
  Augmentation aug;
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;
  std::set<std::string> signatures;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    signatures.insert(aug.graph.TaskSignature(e));
  }
  if (options.use_history) {
    std::vector<NodeId> matched;
    for (NodeId v = 1; v < aug.graph.num_artifacts(); ++v) {
      const Result<NodeId> h_node =
          history.graph().FindArtifact(aug.graph.artifact(v).name);
      if (h_node.ok()) {
        matched.push_back(*h_node);
      }
    }
    HYPPO_RETURN_NOT_OK(SpliceHistory(aug.graph, history, matched, signatures));
  }
  HYPPO_RETURN_NOT_OK(Finish(history, options, signatures, &aug));
  return aug;
}

Result<Augmentation> ScanAugmenter::AugmentForRetrieval(
    const History& history, const std::vector<std::string>& target_names,
    const Augmenter::Options& options) const {
  std::vector<NodeId> matched;
  for (const std::string& name : target_names) {
    HYPPO_ASSIGN_OR_RETURN(NodeId node, history.graph().FindArtifact(name));
    matched.push_back(node);
  }
  Augmentation aug;
  std::set<std::string> signatures;
  HYPPO_RETURN_NOT_OK(SpliceHistory(aug.graph, history, matched, signatures));
  HYPPO_RETURN_NOT_OK(Finish(history, options, signatures, &aug));
  for (const std::string& name : target_names) {
    HYPPO_ASSIGN_OR_RETURN(NodeId node, aug.graph.FindArtifact(name));
    aug.targets.push_back(node);
  }
  return aug;
}

}  // namespace hyppo::core::oracle
