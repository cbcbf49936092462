#include "core/augmenter.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/derive.h"

namespace hyppo::core {

namespace {

// Hit/miss telemetry of one augmentation's probes against the history
// index, flushed to the monitor at the end.
struct ProbeCounts {
  int64_t hits = 0;
  int64_t misses = 0;

  void Count(bool hit) { hit ? ++hits : ++misses; }
};

// Splices the backward-relevant part of the history rooted at `matched`
// (history node ids) into `aug`, deduplicating by task signature.
Status SpliceHistory(PipelineGraph& aug, const History& history,
                     const std::vector<NodeId>& matched,
                     std::set<std::string>& signatures) {
  if (matched.empty()) {
    return Status::OK();
  }
  const PipelineGraph& hist = history.graph();
  // Live history edges backward-relevant to `matched`, ascending; the
  // index visits only the relevant sub-hypergraph.
  for (EdgeId e : history.CollectBackwardRelevantEdges(matched)) {
    const TaskInfo& task = hist.task(e);
    if (task.type == TaskType::kLoad) {
      continue;  // load edges are added uniformly later
    }
    std::vector<NodeId> tails;
    for (NodeId t : hist.ordered_tail(e)) {
      tails.push_back(aug.GetOrAddArtifact(hist.artifact(t)));
    }
    std::vector<NodeId> heads;
    for (NodeId h : hist.ordered_head(e)) {
      heads.push_back(aug.GetOrAddArtifact(hist.artifact(h)));
    }
    TaskInfo copy = task;
    HYPPO_ASSIGN_OR_RETURN(EdgeId added, aug.AddTask(copy, tails, heads));
    if (!signatures.insert(aug.TaskSignature(added)).second) {
      HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
    }
  }
  return Status::OK();
}

// Adds parallel hyperedges for alternative physical implementations from
// the dictionary (equivalent tasks, paper §III-C2 case (b)).
Status AddDictionaryAlternatives(PipelineGraph& aug,
                                 const Dictionary& dictionary,
                                 std::set<std::string>& signatures) {
  const std::vector<EdgeId> existing = aug.hypergraph().LiveEdges();
  for (EdgeId e : existing) {
    // Copy: AddTask below grows the label vectors, which would invalidate
    // a reference into them.
    const TaskInfo task = aug.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    for (const std::string& impl :
         dictionary.ImplsFor(task.logical_op, task.type)) {
      if (impl == task.impl) {
        continue;
      }
      TaskInfo alternative = task;
      alternative.impl = impl;
      std::vector<NodeId> tails = aug.ordered_tail(e);
      std::vector<NodeId> heads = aug.ordered_head(e);
      HYPPO_ASSIGN_OR_RETURN(
          EdgeId added, aug.AddTask(std::move(alternative), std::move(tails),
                                    std::move(heads)));
      if (!signatures.insert(aug.TaskSignature(added)).second) {
        HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
      }
    }
  }
  return Status::OK();
}

// Appends to `matched` the history's fits deeper than a depth-cuttable fit
// of `pipeline` (core/derive.h), one sibling-index probe per such fit, so
// their derivations are spliced in and derive edges can start from them.
void MatchDeeperHistorySiblings(const Pipeline& pipeline,
                                const History& history,
                                std::vector<NodeId>& matched,
                                ProbeCounts* counts) {
  const PipelineGraph& hist = history.graph();
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    DepthSibling sibling;
    if (!FindDepthSibling(pipeline.graph, e, &sibling)) {
      continue;
    }
    const std::vector<EdgeId>& siblings = history.DepthSiblings(sibling.key);
    counts->Count(!siblings.empty());
    for (EdgeId h : siblings) {
      int32_t depth = 0;
      if (DeriveDepth(hist.task(h), &depth) && depth > sibling.depth) {
        matched.push_back(hist.ordered_head(h)[0]);
      }
    }
  }
}

// Adds a derive edge into the head of every depth-cuttable fit among the
// first `pipeline_nodes` nodes (the pipeline's own) from the head of every
// deeper sibling fit in `aug`, whether the pipeline's or the history's.
// Siblings are grouped in one hash map over the augmentation's fits.
Status AddDeriveEdges(PipelineGraph& aug, int32_t pipeline_nodes,
                      std::set<std::string>& signatures) {
  struct Fit {
    EdgeId edge = kInvalidEdge;
    NodeId head = kInvalidNode;
    int32_t depth = 0;
  };
  // Per key, one fit per distinct head, in edge order.
  std::unordered_map<std::string, std::vector<Fit>> groups;
  std::vector<std::pair<std::string, Fit>> targets;
  for (EdgeId e : aug.hypergraph().LiveEdges()) {
    DepthSibling sibling;
    if (!FindDepthSibling(aug, e, &sibling)) {
      continue;
    }
    const Fit fit{e, aug.ordered_head(e)[0], sibling.depth};
    std::vector<Fit>& group = groups[sibling.key];
    if (std::any_of(group.begin(), group.end(),
                    [&](const Fit& f) { return f.head == fit.head; })) {
      continue;
    }
    group.push_back(fit);
    if (fit.head < pipeline_nodes) {
      targets.emplace_back(std::move(sibling.key), fit);
    }
  }
  for (const auto& [key, fit] : targets) {
    for (const Fit& deeper : groups[key]) {
      if (deeper.depth <= fit.depth) {
        continue;
      }
      HYPPO_ASSIGN_OR_RETURN(
          EdgeId added, aug.AddTask(DeriveTaskFor(aug.task(fit.edge)),
                                    {deeper.head}, {fit.head}));
      if (!signatures.insert(aug.TaskSignature(added)).second) {
        HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
      }
    }
  }
  return Status::OK();
}

// Adds one predict_depths edge per group of two or more predictions of
// depth siblings on the same data: the predict edges whose model is the
// head of a depth-cuttable fit, whose config is that fit's, and which
// share the fit's DepthSibling key and their data input. Its tails are the
// deepest sibling's model and the data, its heads every prediction of the
// group in ascending depth (core/derive.h).
Status AddPredictDepthsEdges(PipelineGraph& aug,
                             std::set<std::string>& signatures) {
  struct Prediction {
    EdgeId edge = kInvalidEdge;
    NodeId model = kInvalidNode;
    NodeId head = kInvalidNode;
    int32_t depth = 0;
  };
  // Per key and data input, one predict per distinct head; groups in the
  // order their first predict appears.
  std::unordered_map<std::string, size_t> group_of;
  std::vector<std::pair<NodeId, std::vector<Prediction>>> groups;
  const Hypergraph& hg = aug.hypergraph();
  for (EdgeId e : hg.LiveEdges()) {
    const TaskInfo& task = aug.task(e);
    const std::vector<NodeId>& tails = aug.ordered_tail(e);
    if (task.type != TaskType::kPredict || tails.size() != 2) {
      continue;
    }
    DepthSibling sibling;
    bool found = false;
    for (EdgeId fit : hg.bstar(tails[0])) {
      if (FindDepthSibling(aug, fit, &sibling)) {
        const TaskInfo& fit_task = aug.task(fit);
        found = fit_task.logical_op == task.logical_op &&
                fit_task.config == task.config;
        break;
      }
    }
    if (!found) {
      continue;
    }
    const std::string key = sibling.key + '|' + aug.artifact(tails[1]).name;
    const auto [it, added] = group_of.emplace(key, groups.size());
    if (added) {
      groups.emplace_back(tails[1], std::vector<Prediction>());
    }
    std::vector<Prediction>& group = groups[it->second].second;
    const NodeId head = aug.ordered_head(e)[0];
    if (std::none_of(group.begin(), group.end(),
                     [&](const Prediction& p) { return p.head == head; })) {
      group.push_back(Prediction{e, tails[0], head, sibling.depth});
    }
  }
  for (auto& [data, group] : groups) {
    if (group.size() < 2) {
      continue;
    }
    std::stable_sort(group.begin(), group.end(),
                     [](const Prediction& a, const Prediction& b) {
                       return a.depth < b.depth;
                     });
    std::vector<const TaskInfo*> predicts;
    std::vector<NodeId> heads;
    for (const Prediction& p : group) {
      predicts.push_back(&aug.task(p.edge));
      heads.push_back(p.head);
    }
    // Copied before AddTask grows the label vectors `predicts` points into.
    const TaskInfo task = PredictDepthsTaskFor(predicts);
    HYPPO_ASSIGN_OR_RETURN(
        EdgeId added,
        aug.AddTask(task, {group.back().model, data}, std::move(heads)));
    if (!signatures.insert(aug.TaskSignature(added)).second) {
      HYPPO_RETURN_NOT_OK(aug.RemoveTask(added));
    }
  }
  return Status::OK();
}

// Adds load edges for raw sources and (optionally) artifacts the history
// has materialized.
Status AddLoadEdges(PipelineGraph& aug, const History& history,
                    const Augmenter::Options& options, ProbeCounts* counts) {
  for (NodeId v = 1; v < aug.num_artifacts(); ++v) {
    const ArtifactInfo& artifact = aug.artifact(v);
    bool loadable = artifact.kind == ArtifactKind::kRaw;
    if (!loadable && options.use_materialized) {
      Result<NodeId> h_node = history.FindArtifact(artifact.name);
      counts->Count(h_node.ok());
      if (h_node.ok() && history.IsMaterialized(*h_node)) {
        loadable = true;
      }
    }
    if (!loadable) {
      continue;
    }
    bool has_load = false;
    for (EdgeId e : aug.hypergraph().bstar(v)) {
      if (aug.task(e).type == TaskType::kLoad) {
        has_load = true;
        break;
      }
    }
    if (!has_load) {
      HYPPO_RETURN_NOT_OK(aug.AddLoadTask(v).status());
    }
  }
  return Status::OK();
}

// Collects the compute edges of `graph` whose signature the history has
// not seen, one index probe per edge.
void CollectNewTasks(const PipelineGraph& graph, const History& history,
                     std::vector<EdgeId>& new_tasks, ProbeCounts* counts) {
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    if (graph.task(e).type == TaskType::kLoad) {
      continue;
    }
    const bool known = history.HasTaskSignature(graph.TaskSignature(e));
    counts->Count(known);
    if (!known) {
      new_tasks.push_back(e);
    }
  }
}

}  // namespace

double Augmenter::EdgeSeconds(const PipelineGraph& graph, EdgeId edge,
                              const History& history) const {
  const TaskInfo& task = graph.task(edge);
  if (task.type == TaskType::kLoad) {
    const auto& heads = graph.ordered_head(edge);
    const ArtifactInfo& artifact = graph.artifact(heads[0]);
    const bool raw = artifact.kind == ArtifactKind::kRaw;
    const storage::StorageTier tier =
        raw ? storage::StorageTier::Remote() : storage::StorageTier::Local();
    return tier.LoadSeconds(artifact.size_bytes);
  }
  if (task.type == TaskType::kPredictDepths) {
    // One descent of the deepest model: priced like the cheapest predict
    // of the deepest head (by that predict's observation, if any), never
    // by its own, so it ties with that predict and
    // BatchPlanner::PreferSharedEdges takes it.
    std::vector<int32_t> depths;
    const std::vector<NodeId>& heads = graph.ordered_head(edge);
    if (PredictDepths(task, &depths) && depths.size() == heads.size()) {
      const size_t deepest = static_cast<size_t>(
          std::max_element(depths.begin(), depths.end()) - depths.begin());
      double seconds = -1.0;
      for (EdgeId p : graph.hypergraph().bstar(heads[deepest])) {
        if (graph.task(p).type == TaskType::kPredict) {
          const double predict = EdgeSeconds(graph, p, history);
          seconds = seconds < 0.0 ? predict : std::min(seconds, predict);
        }
      }
      if (seconds >= 0.0) {
        return seconds;
      }
    }
  }
  // Compute or derive edge. Prefer the history's observation for the
  // identical task (matched by head name + impl: the head name fully
  // determines the logical op, type, config, and inputs).
  Result<EdgeId> history_edge = [&]() -> Result<EdgeId> {
    const auto& heads = graph.ordered_head(edge);
    HYPPO_ASSIGN_OR_RETURN(
        NodeId h_node,
        history.FindArtifact(graph.artifact(heads[0]).name));
    for (EdgeId e : history.graph().hypergraph().bstar(h_node)) {
      const TaskInfo& h_task = history.graph().task(e);
      if (h_task.type == task.type && h_task.impl == task.impl) {
        return e;
      }
    }
    return Status::NotFound("no matching history task");
  }();
  if (history_edge.ok() && history.HasTaskObservation(*history_edge)) {
    return history.ObservedTaskSeconds(*history_edge, 0.0);
  }
  if (task.type == TaskType::kDerive) {
    const NodeId to = graph.ordered_head(edge)[0];
    return DeriveSeconds(graph.artifact(to).size_bytes);
  }
  // Estimator over the primary data input's estimated shape.
  int64_t rows = 1;
  int64_t cols = 1;
  for (NodeId in : graph.ordered_tail(edge)) {
    const ArtifactInfo& a = graph.artifact(in);
    if (a.kind != ArtifactKind::kOpState && a.kind != ArtifactKind::kSource) {
      rows = a.rows;
      cols = a.cols;
      break;
    }
  }
  return estimator_->EstimateTaskSeconds(task, rows, cols);
}

double Augmenter::EdgeWeight(const PipelineGraph& graph, EdgeId edge,
                             const History& history,
                             Objective objective) const {
  const double seconds = EdgeSeconds(graph, edge, history);
  if (objective == Objective::kTime) {
    return seconds;
  }
  int64_t input_bytes = 0;
  for (NodeId in : graph.ordered_tail(edge)) {
    if (in != graph.source()) {
      input_bytes += graph.artifact(in).size_bytes;
    }
  }
  return pricing_.TaskPrice(seconds, input_bytes);
}

void Augmenter::WeighAndRecord(const History& history, Objective objective,
                               int64_t index_hits, int64_t index_misses,
                               Augmentation* aug) const {
  const int32_t slots = aug->graph.hypergraph().num_edge_slots();
  aug->edge_weight.assign(static_cast<size_t>(slots), 0.0);
  aug->edge_seconds.assign(static_cast<size_t>(slots), 0.0);
  for (EdgeId e = 0; e < slots; ++e) {
    if (!aug->graph.hypergraph().IsLiveEdge(e)) {
      continue;
    }
    const double seconds = EdgeSeconds(aug->graph, e, history);
    aug->edge_seconds[static_cast<size_t>(e)] = seconds;
    aug->edge_weight[static_cast<size_t>(e)] =
        objective == Objective::kTime
            ? seconds
            : EdgeWeight(aug->graph, e, history, objective);
  }
  if (monitor_ != nullptr) {
    monitor_->RecordIndexHits(index_hits);
    monitor_->RecordIndexMisses(index_misses);
  }
}

Result<Augmentation> Augmenter::Augment(const Pipeline& pipeline,
                                        const History& history,
                                        const Options& options) const {
  Augmentation aug;
  // 1. Start from a copy of the pipeline: P is a subhypergraph of A, with
  //    identical node ids for P's artifacts, so P's targets carry over.
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;

  std::set<std::string> signatures;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    signatures.insert(aug.graph.TaskSignature(e));
  }

  ProbeCounts counts;

  // 2. Splice in every history derivation that can contribute to an
  //    artifact (equivalent to one) in the pipeline. Equivalent artifacts
  //    share canonical names, so matching is a name lookup. With
  //    equivalences, the history's deeper depth siblings of the
  //    pipeline's fits are spliced in too.
  if (options.use_history) {
    std::vector<NodeId> matched;
    for (NodeId v = 1; v < aug.graph.num_artifacts(); ++v) {
      Result<NodeId> h_node = history.FindArtifact(aug.graph.artifact(v).name);
      counts.Count(h_node.ok());
      if (h_node.ok()) {
        matched.push_back(*h_node);
      }
    }
    if (options.use_equivalences) {
      MatchDeeperHistorySiblings(pipeline, history, matched, &counts);
    }
    HYPPO_RETURN_NOT_OK(SpliceHistory(aug.graph, history, matched, signatures));
  }

  // 3. Dictionary alternatives, derive edges from deeper siblings, and
  //    one-descent predictions of sibling predictions on the same data.
  if (options.use_equivalences) {
    HYPPO_RETURN_NOT_OK(
        AddDictionaryAlternatives(aug.graph, *dictionary_, signatures));
    HYPPO_RETURN_NOT_OK(AddDeriveEdges(
        aug.graph, pipeline.graph.num_artifacts(), signatures));
    HYPPO_RETURN_NOT_OK(AddPredictDepthsEdges(aug.graph, signatures));
  }

  // 4. Load edges.
  HYPPO_RETURN_NOT_OK(AddLoadEdges(aug.graph, history, options, &counts));

  // 5. New tasks: compute edges whose signature the history has not seen.
  CollectNewTasks(aug.graph, history, aug.new_tasks, &counts);

  // 6. Weights.
  WeighAndRecord(history, options.objective, counts.hits, counts.misses, &aug);
  return aug;
}

Result<Augmentation> Augmenter::AugmentForRetrieval(
    const History& history, const std::vector<std::string>& target_names,
    const Options& options) const {
  ProbeCounts counts;
  std::vector<NodeId> matched;
  for (const std::string& name : target_names) {
    Result<NodeId> node = history.FindArtifact(name);
    counts.Count(node.ok());
    HYPPO_RETURN_NOT_OK(node.status());
    matched.push_back(*node);
  }
  Augmentation aug;
  std::set<std::string> signatures;
  HYPPO_RETURN_NOT_OK(SpliceHistory(aug.graph, history, matched, signatures));
  if (options.use_equivalences) {
    HYPPO_RETURN_NOT_OK(
        AddDictionaryAlternatives(aug.graph, *dictionary_, signatures));
  }
  HYPPO_RETURN_NOT_OK(AddLoadEdges(aug.graph, history, options, &counts));
  for (const std::string& name : target_names) {
    HYPPO_ASSIGN_OR_RETURN(NodeId node, aug.graph.FindArtifact(name));
    aug.targets.push_back(node);
  }
  // Retrieval plans contain no new tasks from the pipeline's perspective
  // except spliced dictionary alternatives, which stay eligible for
  // exploration.
  CollectNewTasks(aug.graph, history, aug.new_tasks, &counts);
  WeighAndRecord(history, options.objective, counts.hits, counts.misses, &aug);
  return aug;
}

}  // namespace hyppo::core
