#include "augmenter_scan_oracle.h"

#include <utility>

#include "core/derive.h"
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

// The history's fits deeper than a depth-cuttable fit of `pipeline`, found
// by computing the sibling key of every live history edge.
std::vector<NodeId> ScanDeeperSiblings(const Pipeline& pipeline,
                                       const History& history) {
  const PipelineGraph& hist = history.graph();
  std::vector<NodeId> out;
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    DepthSibling fit;
    if (!FindDepthSibling(pipeline.graph, e, &fit)) {
      continue;
    }
    for (EdgeId h : hist.hypergraph().LiveEdges()) {
      DepthSibling other;
      if (FindDepthSibling(hist, h, &other) && other.key == fit.key &&
          other.depth > fit.depth) {
        out.push_back(hist.ordered_head(h)[0]);
      }
    }
  }
  return out;
}

// Adds a derive edge into every depth-cuttable fit head among the first
// `pipeline_nodes` nodes from every deeper sibling fit head, comparing
// every pair of fits.
Status ScanDeriveEdges(PipelineGraph& graph, int32_t pipeline_nodes,
                       std::set<std::string>& signatures) {
  const std::vector<EdgeId> edges = graph.hypergraph().LiveEdges();
  std::set<NodeId> targeted;
  for (EdgeId e : edges) {
    DepthSibling fit;
    const NodeId head =
        FindDepthSibling(graph, e, &fit) ? graph.ordered_head(e)[0] : 0;
    if (head == 0 || head >= pipeline_nodes ||
        !targeted.insert(head).second) {
      continue;
    }
    std::set<NodeId> sources;
    for (EdgeId other : edges) {
      DepthSibling deeper;
      if (!FindDepthSibling(graph, other, &deeper) || deeper.key != fit.key) {
        continue;
      }
      const NodeId from = graph.ordered_head(other)[0];
      if (sources.insert(from).second && deeper.depth > fit.depth) {
        HYPPO_RETURN_NOT_OK(AddUnlessKnown(graph, DeriveTaskFor(graph.task(e)),
                                           {from}, {head}, signatures));
      }
    }
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
                             int32_t pipeline_nodes,
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
    HYPPO_RETURN_NOT_OK(ScanDeriveEdges(graph, pipeline_nodes, signatures));
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
    if (options.use_equivalences) {
      for (NodeId v : ScanDeeperSiblings(pipeline, history)) {
        matched.push_back(v);
      }
    }
    HYPPO_RETURN_NOT_OK(SpliceHistory(aug.graph, history, matched, signatures));
  }
  HYPPO_RETURN_NOT_OK(Finish(history, options,
                             pipeline.graph.num_artifacts(), signatures, &aug));
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
  HYPPO_RETURN_NOT_OK(
      Finish(history, options, /*pipeline_nodes=*/0, signatures, &aug));
  for (const std::string& name : target_names) {
    HYPPO_ASSIGN_OR_RETURN(NodeId node, aug.graph.FindArtifact(name));
    aug.targets.push_back(node);
  }
  return aug;
}

}  // namespace hyppo::core::oracle
