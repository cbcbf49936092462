#include "analysis/verifier.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/derive.h"
#include "core/history_io.h"
#include "core/naming.h"

namespace hyppo::analysis {

namespace {

using core::ArtifactInfo;
using core::ArtifactKind;
using core::ArtifactRecord;
using core::Augmentation;
using core::Dictionary;
using core::History;
using core::PipelineGraph;
using core::Plan;
using core::TaskInfo;
using core::TaskType;
using core::TaskTypeToString;

/// Declaration-order node list, deduplicated and sorted — the form the
/// structural Hypergraph stores.
std::vector<NodeId> SortedUnique(std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

bool AllValid(const std::vector<NodeId>& nodes, const Hypergraph& graph) {
  for (NodeId v : nodes) {
    if (!graph.IsValidNode(v)) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> NamesOf(const PipelineGraph& graph,
                                 const std::vector<NodeId>& nodes) {
  std::vector<std::string> names;
  names.reserve(nodes.size());
  for (NodeId v : nodes) {
    names.push_back(graph.artifact(v).name);
  }
  return names;
}

/// The names the lineage of history edge `e` gives its outputs, in head
/// order; false when nothing is left to check. A derive edge's head is
/// named by the fit it stands for: its config as a fit, over the inputs
/// of the fit that produced its tail. A predict_depths edge's head i is
/// named by the predict it stands for: its config with max_depth set to
/// the head's depth, as a predict, over that depth's fit of the same
/// inputs and the edge's data. Either needs the fit of its model tail,
/// which compaction may have dropped.
bool ExpectedOutputNames(const PipelineGraph& graph, EdgeId e,
                         std::vector<std::string>* expected) {
  const Hypergraph& hg = graph.hypergraph();
  const TaskInfo& task = graph.task(e);
  const std::vector<NodeId>& otail = graph.ordered_tail(e);
  const int outputs = static_cast<int>(graph.ordered_head(e).size());
  if (task.type != TaskType::kDerive &&
      task.type != TaskType::kPredictDepths) {
    *expected = core::TaskOutputNames(task, NamesOf(graph, otail), outputs);
    return true;
  }
  if (otail.empty()) {
    return false;
  }
  const std::vector<NodeId>* fit_inputs = nullptr;
  for (EdgeId p : hg.bstar(otail[0])) {
    if (graph.task(p).type == TaskType::kFit) {
      fit_inputs = &graph.ordered_tail(p);
      break;
    }
  }
  if (fit_inputs == nullptr) {
    return false;
  }
  const std::vector<std::string> fit_input_names =
      NamesOf(graph, *fit_inputs);
  if (task.type == TaskType::kDerive) {
    if (otail.size() != 1) {
      return false;
    }
    TaskInfo fit = task;
    fit.type = TaskType::kFit;
    *expected = core::TaskOutputNames(fit, fit_input_names, outputs);
    return true;
  }
  std::vector<int32_t> depths;
  if (otail.size() != 2 || !core::PredictDepths(task, &depths) ||
      static_cast<int>(depths.size()) != outputs) {
    return false;
  }
  expected->clear();
  for (size_t i = 0; i < depths.size(); ++i) {
    const TaskInfo predict = core::PredictAtHead(task, i);
    TaskInfo fit = predict;
    fit.type = TaskType::kFit;
    const std::string model =
        core::TaskOutputNames(fit, fit_input_names, 1)[0];
    expected->push_back(core::TaskOutputNames(
        predict, {model, graph.artifact(otail[1]).name}, 1)[0]);
  }
  return true;
}

}  // namespace

AnalysisReport Verifier::CheckGraph(const PipelineGraph& graph) const {
  AnalysisReport report = CheckHypergraph(graph.hypergraph());

  const Hypergraph& hg = graph.hypergraph();
  const NodeId source = graph.source();

  // The source node s: always node 0, kind kSource, and unique.
  if (hg.num_nodes() == 0) {
    report.AddError("graph.source-node", "graph has no source node");
    return report;
  }
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    const bool is_source_kind = graph.artifact(v).kind == ArtifactKind::kSource;
    if ((v == source) != is_source_kind) {
      report.AddError("graph.source-node",
                      v == source
                          ? "node 0 is not labelled as the source artifact"
                          : "non-zero node labelled with the source kind",
                      EntityKind::kNode, v);
    }
  }

  // Canonical-name lookup must be a bijection onto the nodes.
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    const ArtifactInfo& info = graph.artifact(v);
    if (info.name.empty()) {
      report.AddError("graph.name-lookup", "artifact has an empty name",
                      EntityKind::kNode, v);
      continue;
    }
    Result<NodeId> found = graph.FindArtifact(info.name);
    if (!found.ok()) {
      report.AddError("graph.name-lookup",
                      "artifact name '" + info.name +
                          "' is not resolvable via FindArtifact",
                      EntityKind::kNode, v);
    } else if (*found != v) {
      report.AddError("graph.name-lookup",
                      "artifact name '" + info.name + "' resolves to node " +
                          std::to_string(*found),
                      EntityKind::kNode, v);
    }
  }

  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (!hg.IsLiveEdge(e)) {
      continue;
    }
    const std::vector<NodeId>& otail = graph.ordered_tail(e);
    const std::vector<NodeId>& ohead = graph.ordered_head(e);
    if (!AllValid(otail, hg) || !AllValid(ohead, hg)) {
      report.AddError("graph.ordered-mismatch",
                      "ordered tail/head reference nonexistent nodes",
                      EntityKind::kEdge, e);
      continue;
    }
    // Declaration-order lists must describe the same sets the structural
    // edge stores (the executor binds inputs by declaration order; a
    // divergence silently feeds a task the wrong artifacts).
    if (SortedUnique(otail) != hg.edge(e).tail ||
        SortedUnique(ohead) != hg.edge(e).head) {
      report.AddError("graph.ordered-mismatch",
                      "ordered tail/head disagree with the structural edge",
                      EntityKind::kEdge, e);
      continue;
    }
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      // Load tasks retrieve one artifact from the source s.
      if (otail.size() != 1 || otail[0] != source || ohead.size() != 1 ||
          ohead[0] == source || task.logical_op != core::kLoadOp) {
        report.AddError("graph.load-shape",
                        "load task is not of the form s -> {artifact}",
                        EntityKind::kEdge, e);
      }
    } else {
      // Only load tasks may consume the source node.
      for (NodeId t : otail) {
        if (t == source) {
          report.AddError("graph.source-consumed",
                          "non-load task '" + task.logical_op +
                              "' consumes the source node",
                          EntityKind::kEdge, e);
        }
      }
    }
  }
  return report;
}

AnalysisReport Verifier::CheckPlan(const Augmentation& aug,
                                   const Plan& plan) const {
  PlanSpec spec;
  spec.graph = &aug.graph.hypergraph();
  spec.edges = &plan.edges;
  spec.source = aug.graph.source();
  spec.targets = &aug.targets;
  spec.edge_weight = &aug.edge_weight;
  spec.claimed_cost = plan.cost;
  spec.edge_seconds = &aug.edge_seconds;
  spec.claimed_seconds = plan.seconds;
  spec.cost_tolerance = options_.cost_tolerance;
  AnalysisReport report = CheckPlanStructure(spec);

  if (options_.check_minimality && report.ok()) {
    // A plan is minimal when no edge can be dropped (paper §III-C5
    // property (c)). Quadratic: one B-connectivity pass per plan edge.
    const std::vector<NodeId> sources = {aug.graph.source()};
    for (size_t skip = 0; skip < plan.edges.size(); ++skip) {
      std::vector<EdgeId> reduced;
      reduced.reserve(plan.edges.size() - 1);
      for (size_t i = 0; i < plan.edges.size(); ++i) {
        if (i != skip) {
          reduced.push_back(plan.edges[i]);
        }
      }
      if (aug.graph.hypergraph().AreBConnected(aug.targets, sources,
                                               &reduced)) {
        report.AddWarning("plan.redundant-edge",
                          "plan remains feasible without this edge",
                          EntityKind::kEdge, plan.edges[skip]);
      }
    }
  }
  return report;
}

AnalysisReport Verifier::CheckAugmentation(const Augmentation& aug) const {
  AnalysisReport report = CheckGraph(aug.graph);
  AugmentationSpec spec;
  spec.graph = &aug.graph.hypergraph();
  spec.source = aug.graph.source();
  spec.targets = &aug.targets;
  spec.edge_weight = &aug.edge_weight;
  spec.edge_seconds = &aug.edge_seconds;
  AnalysisReport structure = CheckAugmentationStructure(spec);
  // CheckGraph already ran the hypergraph invariants; keep only the
  // augmentation-level findings to avoid duplicate diagnostics.
  for (const Diagnostic& d : structure.diagnostics()) {
    if (d.check.rfind("augmentation.", 0) == 0) {
      report.Add(d);
    }
  }
  return report;
}

AnalysisReport Verifier::CheckHistory(const History& history,
                                      const Dictionary* dictionary) const {
  const PipelineGraph& graph = history.graph();
  const Hypergraph& hg = graph.hypergraph();
  AnalysisReport report = CheckGraph(graph);

  // Statistics records must cover every artifact node.
  const int32_t num_records = history.num_records();
  if (num_records < hg.num_nodes()) {
    report.AddError("history.record-count",
                    "history holds " + std::to_string(num_records) +
                        " records for " + std::to_string(hg.num_nodes()) +
                        " artifact nodes");
  }

  // Per-artifact record sanity + materialization flags.
  for (NodeId v = 1; v < std::min(hg.num_nodes(), num_records); ++v) {
    const ArtifactRecord& rec = history.record(v);
    if (rec.compute_seconds < 0.0 || rec.compute_observations < 0 ||
        rec.access_count < 0 || rec.version < 1) {
      report.AddError("history.negative-stat",
                      "artifact record holds a negative statistic",
                      EntityKind::kNode, v);
    }
    if (graph.artifact(v).size_bytes < 0) {
      report.AddError("history.negative-stat",
                      "artifact has a negative size estimate",
                      EntityKind::kNode, v);
    }
    if (rec.materialized) {
      // A materialized artifact must be retrievable: its recorded load
      // edge is live and loads exactly this node (paper §IV-H).
      if (!hg.IsLiveEdge(rec.load_edge)) {
        report.AddError("history.materialized-flag",
                        "materialized artifact has no live load edge",
                        EntityKind::kNode, v);
      } else if (graph.task(rec.load_edge).type != TaskType::kLoad ||
                 hg.edge(rec.load_edge).head !=
                     std::vector<NodeId>{v}) {
        report.AddError("history.materialized-flag",
                        "recorded load edge does not load this artifact",
                        EntityKind::kNode, v);
      }
    } else if (rec.load_edge != kInvalidEdge) {
      report.AddError("history.materialized-flag",
                      "non-materialized artifact keeps a load edge id",
                      EntityKind::kNode, v);
    }
    if (history.IsSourceData(v) && !rec.materialized) {
      // Raw datasets are permanently retrievable once registered; a raw
      // node without a load edge is unreachable from s and can never be
      // planned. Legal mid-construction, hence a warning.
      report.AddWarning("history.unregistered-source",
                        "raw dataset was never registered as source data",
                        EntityKind::kNode, v);
    }
  }

  // Load edges seen from the edge side: each must be owned by the record
  // of the artifact it loads (no orphan load edges after eviction).
  std::map<std::string, EdgeId> by_signature;
  for (EdgeId e = 0; e < hg.num_edge_slots(); ++e) {
    if (!hg.IsLiveEdge(e)) {
      continue;
    }
    // Task signatures are the history's dedup key: two live edges with
    // the same signature mean ObserveTask's map went out of sync.
    auto [it, inserted] = by_signature.emplace(graph.TaskSignature(e), e);
    if (!inserted) {
      report.AddError("history.duplicate-signature",
                      "task duplicates the signature of edge " +
                          std::to_string(it->second),
                      EntityKind::kEdge, e);
    }
    const auto [total_seconds, count] = history.TaskObservation(e);
    if (total_seconds < 0.0 || count < 0) {
      report.AddError("history.negative-stat",
                      "task observation holds a negative statistic",
                      EntityKind::kEdge, e);
    }
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      const std::vector<NodeId>& head = hg.edge(e).head;
      if (head.size() == 1 && head[0] < num_records) {
        const ArtifactRecord& rec = history.record(head[0]);
        if (!rec.materialized || rec.load_edge != e) {
          report.AddError("history.materialized-flag",
                          "live load edge not owned by its artifact record",
                          EntityKind::kEdge, e);
        }
      }
      continue;
    }
    // Canonical-name closure (paper §IV-C): every recorded derivation's
    // outputs must carry the lineage hash of its operator + inputs. This
    // is the invariant that makes equivalence discovery a name lookup —
    // a violation silently splits or merges equivalence classes.
    const std::vector<NodeId>& otail = graph.ordered_tail(e);
    const std::vector<NodeId>& ohead = graph.ordered_head(e);
    if (!AllValid(otail, hg) || !AllValid(ohead, hg)) {
      continue;  // reported as graph.ordered-mismatch above
    }
    std::vector<std::string> expected;
    if (!ExpectedOutputNames(graph, e, &expected)) {
      continue;
    }
    for (size_t i = 0; i < ohead.size(); ++i) {
      if (graph.artifact(ohead[i]).name != expected[i]) {
        report.AddError(
            "history.name-closure",
            "output " + std::to_string(i) + " of task '" + task.logical_op +
                "' is named '" + graph.artifact(ohead[i]).name +
                "' but its lineage hashes to '" + expected[i] + "'",
            EntityKind::kEdge, e);
      }
    }
    if (dictionary != nullptr && dictionary->Knows(task.logical_op,
                                                   task.type)) {
      const std::vector<std::string>& impls =
          dictionary->ImplsFor(task.logical_op, task.type);
      if (std::find(impls.begin(), impls.end(), task.impl) == impls.end()) {
        report.AddWarning("history.unknown-impl",
                          "implementation '" + task.impl +
                              "' is not in the dictionary entry for '" +
                              task.logical_op + "." +
                              TaskTypeToString(task.type) + "'",
                          EntityKind::kEdge, e);
      }
    }
  }
  return report;
}

AnalysisReport Verifier::CheckHistoryIndex(const History& history) const {
  AnalysisReport report;
  const PipelineGraph& graph = history.graph();
  const Hypergraph& hg = graph.hypergraph();
  const core::HistoryIndex& index = history.index();

  // Name index: a bijection onto the nodes (source included). Checking
  // both the per-node lookup and the total count catches stale entries
  // left behind by direct graph mutation.
  for (NodeId v = 0; v < hg.num_nodes(); ++v) {
    const std::string& name = graph.artifact(v).name;
    auto it = index.artifact_by_name.find(name);
    if (it == index.artifact_by_name.end()) {
      report.AddError("index.artifact-missing",
                      "artifact '" + name + "' is not in the name index",
                      EntityKind::kNode, v);
    } else if (it->second != v) {
      report.AddError("index.artifact-mismatch",
                      "name index resolves '" + name + "' to node " +
                          std::to_string(it->second),
                      EntityKind::kNode, v);
    }
  }
  if (static_cast<int32_t>(index.artifact_by_name.size()) != hg.num_nodes()) {
    report.AddError("index.artifact-count",
                    "name index holds " +
                        std::to_string(index.artifact_by_name.size()) +
                        " entries for " + std::to_string(hg.num_nodes()) +
                        " nodes");
  }

  // Task-signature index: exactly the live compute edges, keyed by
  // PipelineGraph::TaskSignature. Load edges are derived state and must
  // stay out.
  int32_t live_compute_edges = 0;
  for (EdgeId e : hg.LiveEdges()) {
    if (graph.task(e).type == TaskType::kLoad) {
      continue;
    }
    ++live_compute_edges;
    const std::string signature = graph.TaskSignature(e);
    auto it = index.task_by_signature.find(signature);
    if (it == index.task_by_signature.end()) {
      report.AddError("index.task-missing",
                      "live compute task is not in the signature index",
                      EntityKind::kEdge, e);
    } else if (it->second != e) {
      report.AddError("index.task-mismatch",
                      "signature index resolves this task's signature to "
                      "edge " +
                          std::to_string(it->second),
                      EntityKind::kEdge, e);
    }
  }
  if (static_cast<int32_t>(index.task_by_signature.size()) !=
      live_compute_edges) {
    report.AddError("index.task-count",
                    "signature index holds " +
                        std::to_string(index.task_by_signature.size()) +
                        " entries for " + std::to_string(live_compute_edges) +
                        " live compute edges");
  }

  // Depth-sibling buckets: exactly the live fits that have a depth-sibling
  // key, each in its own key's bucket once.
  std::set<EdgeId> sibling_bucketed;
  for (const auto& [key, edges] : index.fits_by_depth_sibling) {
    for (EdgeId e : edges) {
      core::DepthSibling sibling;
      if (!hg.IsLiveEdge(e) ||
          !core::FindDepthSibling(graph, e, &sibling) || sibling.key != key) {
        report.AddError("index.sibling-mismatch",
                        "depth-sibling bucket lists an edge of another key",
                        EntityKind::kEdge, e);
      } else if (!sibling_bucketed.insert(e).second) {
        report.AddError("index.sibling-duplicate",
                        "edge appears in depth-sibling buckets more than once",
                        EntityKind::kEdge, e);
      }
    }
  }
  for (EdgeId e : hg.LiveEdges()) {
    core::DepthSibling sibling;
    if (sibling_bucketed.count(e) == 0 &&
        core::FindDepthSibling(graph, e, &sibling)) {
      report.AddError("index.sibling-missing",
                      "depth-cuttable fit missing from its sibling bucket",
                      EntityKind::kEdge, e);
    }
  }

  // Statistics records must cover every node. A short records vector —
  // e.g. a node added to the graph behind the History mutators' back, or
  // an unsynchronized Observe racing a reader — would silently clamp the
  // materialized sweep below, so it is an explicit error, not a mask.
  // (A fresh history legitimately holds the source node with no records:
  // the vector is allocated lazily by the first mutator.)
  if (hg.num_nodes() > 1 && history.num_records() < hg.num_nodes()) {
    report.AddError("index.records-short",
                    "history holds " +
                        std::to_string(history.num_records()) +
                        " statistics records for " +
                        std::to_string(hg.num_nodes()) +
                        " nodes; the newest artifacts have no records");
  }

  // Materialized set: exactly the non-source artifacts whose record says
  // materialized.
  for (NodeId v = 1; v < std::min(hg.num_nodes(), history.num_records());
       ++v) {
    const bool expected =
        history.record(v).materialized && !history.IsSourceData(v);
    const bool indexed = index.materialized.count(v) > 0;
    if (expected != indexed) {
      report.AddError("index.materialized-drift",
                      expected
                          ? "materialized artifact missing from the index"
                          : "index lists a non-materialized (or source) "
                            "artifact as materialized",
                      EntityKind::kNode, v);
    }
  }
  for (NodeId v : index.materialized) {
    if (!hg.IsValidNode(v)) {
      report.AddError("index.materialized-drift",
                      "materialized index holds a nonexistent node",
                      EntityKind::kNode, v);
    }
  }
  return report;
}

AnalysisReport Verifier::CheckHistoryRoundTrip(const History& history) const {
  AnalysisReport report;
  Result<std::string> bytes = core::SerializeHistory(history);
  if (!bytes.ok()) {
    report.AddError("history.roundtrip",
                    "serialization failed: " + bytes.status().ToString());
    return report;
  }
  Result<History> restored = core::DeserializeHistory(*bytes);
  if (!restored.ok()) {
    report.AddError("history.roundtrip",
                    "deserialization failed: " +
                        restored.status().ToString());
    return report;
  }
  report.Merge(CheckHistoriesEqual(history, *restored));
  return report;
}

AnalysisReport Verifier::CheckHistoriesEqual(const History& expected,
                                             const History& actual) const {
  AnalysisReport report;
  const PipelineGraph& a = expected.graph();
  const PipelineGraph& b = actual.graph();
  if (a.num_artifacts() != b.num_artifacts()) {
    report.AddError("history.mismatch",
                    "artifact count differs: " +
                        std::to_string(a.num_artifacts()) + " vs " +
                        std::to_string(b.num_artifacts()));
  }
  if (a.num_tasks() != b.num_tasks()) {
    report.AddError("history.mismatch",
                    "task count differs: " + std::to_string(a.num_tasks()) +
                        " vs " + std::to_string(b.num_tasks()));
  }
  // Artifacts and statistics, matched by canonical name.
  for (NodeId v = 1; v < a.num_artifacts(); ++v) {
    const ArtifactInfo& info = a.artifact(v);
    Result<NodeId> found = b.FindArtifact(info.name);
    if (!found.ok()) {
      report.AddError("history.mismatch",
                      "artifact '" + info.name + "' is missing",
                      EntityKind::kNode, v);
      continue;
    }
    const ArtifactInfo& other = b.artifact(*found);
    if (info.kind != other.kind || info.display != other.display ||
        info.size_bytes != other.size_bytes || info.rows != other.rows ||
        info.cols != other.cols) {
      report.AddError("history.mismatch",
                      "metadata of artifact '" + info.name + "' differs",
                      EntityKind::kNode, v);
    }
    if (v >= expected.num_records() || *found >= actual.num_records()) {
      continue;
    }
    const ArtifactRecord& ra = expected.record(v);
    const ArtifactRecord& rb = actual.record(*found);
    // Exact: records are persisted bit for bit.
    if (ra.compute_seconds != rb.compute_seconds ||
        ra.compute_observations != rb.compute_observations ||
        ra.access_count != rb.access_count ||
        ra.last_access_seconds != rb.last_access_seconds ||
        ra.version != rb.version || ra.materialized != rb.materialized) {
      report.AddError("history.mismatch",
                      "record of artifact '" + info.name + "' differs",
                      EntityKind::kNode, v);
    }
  }
  // Tasks and observations, matched by signature (edge ids may be
  // renumbered because load edges are reconstructed).
  std::map<std::string, EdgeId> actual_edges;
  for (EdgeId e : b.hypergraph().LiveEdges()) {
    actual_edges.emplace(b.TaskSignature(e), e);
  }
  for (EdgeId e : a.hypergraph().LiveEdges()) {
    auto it = actual_edges.find(a.TaskSignature(e));
    if (it == actual_edges.end()) {
      report.AddError("history.mismatch",
                      "task '" + a.task(e).logical_op + "' is missing",
                      EntityKind::kEdge, e);
      continue;
    }
    if (expected.TaskObservation(e) != actual.TaskObservation(it->second)) {
      report.AddError("history.mismatch",
                      "observations of task '" + a.task(e).logical_op +
                          "' differ",
                      EntityKind::kEdge, e);
    }
  }
  return report;
}

AnalysisReport Verifier::CheckBudget(const History& history,
                                     int64_t budget_bytes) const {
  AnalysisReport report;
  if (budget_bytes < 0) {
    return report;
  }
  const int64_t used = history.MaterializedBytes();
  if (used > budget_bytes) {
    report.AddError("budget.exceeded",
                    "materialized artifacts hold " + std::to_string(used) +
                        " bytes, over the budget of " +
                        std::to_string(budget_bytes));
  }
  return report;
}

AnalysisReport Verifier::CheckStoreConsistency(
    const History& history, const storage::ArtifactStore& store) const {
  AnalysisReport report;
  std::set<std::string> materialized_names;
  int64_t expected_used = 0;
  for (NodeId v : history.MaterializedArtifacts()) {
    const ArtifactInfo& info = history.graph().artifact(v);
    materialized_names.insert(info.name);
    const Result<int64_t> stored = store.SizeOf(info.name);
    if (!stored.ok()) {
      report.AddError("store.missing-entry",
                      "artifact '" + info.display +
                          "' is marked materialized but has no store entry",
                      EntityKind::kNode, v);
      continue;
    }
    expected_used += *stored;
    if (*stored != info.size_bytes) {
      report.AddError(
          "store.size-mismatch",
          "artifact '" + info.display + "' is charged " +
              std::to_string(*stored) + " bytes in the store but " +
              std::to_string(info.size_bytes) + " in the history",
          EntityKind::kNode, v);
    }
  }
  for (const std::string& key : store.Keys()) {
    if (materialized_names.count(key) == 0) {
      const Result<int64_t> stored = store.SizeOf(key);
      expected_used += stored.ok() ? *stored : 0;
      report.AddError("store.orphan-entry",
                      "store holds '" + key +
                          "' but no history artifact is materialized "
                          "under that name");
    }
  }
  const int64_t used = store.used_bytes();
  if (used != expected_used) {
    report.AddError("store.used-bytes-drift",
                    "store reports " + std::to_string(used) +
                        " used bytes but its entries sum to " +
                        std::to_string(expected_used));
  }
  return report;
}

AnalysisReport Verifier::VerifyHistory(const History& history,
                                       const Dictionary* dictionary,
                                       int64_t budget_bytes) const {
  AnalysisReport report = CheckHistory(history, dictionary);
  report.Merge(CheckHistoryIndex(history));
  if (options_.check_roundtrip) {
    report.Merge(CheckHistoryRoundTrip(history));
  }
  report.Merge(CheckBudget(history, budget_bytes));
  return report;
}

}  // namespace hyppo::analysis
