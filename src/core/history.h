#ifndef HYPPO_CORE_HISTORY_H_
#define HYPPO_CORE_HISTORY_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/graph.h"

namespace hyppo::core {

/// \brief Per-artifact execution statistics kept in the history
/// (paper §III-C4: cost, size, access frequency, version).
struct ArtifactRecord {
  /// Mean observed wall time of tasks that produced this artifact.
  double compute_seconds = 0.0;
  int64_t compute_observations = 0;
  /// How often pipelines requested (used) this artifact.
  int64_t access_count = 0;
  double last_access_seconds = 0.0;
  int64_t version = 1;
  /// Materialization state; a materialized artifact has a live 'load'
  /// hyperedge from the source s.
  bool materialized = false;
  EdgeId load_edge = kInvalidEdge;
};

/// \brief Incrementally maintained hash index over the history graph.
///
/// Every History mutator keeps these maps in sync with the labelled
/// hypergraph, so the augmenter answers its per-submission equivalence
/// queries in O(1) instead of scanning all history nodes/edges (the
/// fig9b plan-overhead flattening). The analysis verifier cross-checks
/// index and graph (Verifier::CheckHistoryIndex); exposed read-only.
struct HistoryIndex {
  /// Canonical artifact name -> node (mirrors the graph's name map,
  /// including the source node).
  std::unordered_map<std::string, NodeId> artifact_by_name;
  /// PipelineGraph::TaskSignature -> compute edge. Load edges are
  /// excluded: they are derived from materialization state instead.
  std::unordered_map<std::string, EdgeId> task_by_signature;
  /// DepthSibling::key -> live fit edges with that key (core/derive.h),
  /// in insertion order: the augmenter's O(1) probe for deeper siblings.
  std::unordered_map<std::string, std::vector<EdgeId>> fits_by_depth_sibling;
  /// Materialized non-source artifacts (ordered: deterministic sweeps).
  std::set<NodeId> materialized;
};

/// \brief The records a History changed since its journal was last
/// cleared: what a durable session appends to its history log
/// (core/history_io.h) instead of rewriting the whole history.
struct HistoryJournal {
  /// Changed artifacts (records and metadata), each once, in order of
  /// first change.
  std::vector<NodeId> artifacts;
  /// Changed compute tasks (new, or a new observation), each once.
  std::vector<EdgeId> tasks;
  /// Compact rebuilt the graph: ids were reassigned and records dropped,
  /// which only a checkpoint can describe.
  bool rebuilt = false;

  bool empty() const {
    return artifacts.empty() && tasks.empty() && !rebuilt;
  }
};

/// \brief The history H: a labelled hypergraph archiving all artifacts and
/// tasks observed across pipeline executions, plus their statistics — the
/// "dual cache" of §III-C4.
///
/// Artifacts are deduplicated by canonical name and tasks by signature, so
/// re-running a pipeline does not grow the graph; it only updates
/// statistics. Raw datasets keep a permanent 'load' edge from s (data
/// sources are never evicted); derived artifacts gain a 'load' edge when
/// materialized and lose it when evicted (§IV-H).
///
/// Every mutator marks the artifact or task it changed in the journal
/// (at most once per record until ClearJournal), so the journal never
/// outgrows the history itself.
///
/// Mutators are single-owner (not thread-safe); concurrent readers are
/// fine between mutations, *including* CollectBackwardRelevantEdges:
/// its marker scratch is thread-local, so concurrent planners
/// (serving::SessionManager holds them under the reader side of the
/// catalog lock) never contend on it.
class History {
 public:
  History();

  const PipelineGraph& graph() const { return graph_; }
  /// Mutable graph access is a test-only backdoor (corruption fixtures):
  /// mutating the graph directly desyncs the index, which
  /// Verifier::CheckHistoryIndex is designed to catch.
  PipelineGraph& graph() { return graph_; }

  /// Finds or creates the artifact node for `info`, updating its metadata
  /// with the (possibly more precise) sizes in `info`.
  NodeId Observe(const ArtifactInfo& info);

  /// Finds or creates the task edge; updates its observed duration.
  /// Tail/head nodes must already exist in the history.
  Result<EdgeId> ObserveTask(const TaskInfo& info,
                             const std::vector<NodeId>& tails,
                             const std::vector<NodeId>& heads,
                             double seconds);

  /// Marks the artifact as retrievable from raw storage (used for dataset
  /// sources). Idempotent. The load edge is permanent.
  Result<EdgeId> RegisterSourceData(NodeId node);

  /// Records that a pipeline accessed (required) this artifact.
  void RecordAccess(NodeId node, double now_seconds);

  /// Records the observed compute duration for an artifact's production.
  void RecordComputeSeconds(NodeId node, double seconds);

  /// Adds a load edge for a newly materialized artifact.
  Status MarkMaterialized(NodeId node);

  /// Removes the load edge of an evicted artifact (the node and all other
  /// incident hyperedges are kept). Fails for data sources.
  Status EvictMaterialized(NodeId node);

  bool IsMaterialized(NodeId node) const {
    return record(node).materialized;
  }
  bool IsSourceData(NodeId node) const {
    return graph_.artifact(node).kind == ArtifactKind::kRaw;
  }

  const ArtifactRecord& record(NodeId node) const {
    return records_[static_cast<size_t>(node)];
  }
  /// Test-only backdoor (corruption fixtures), like the mutable graph():
  /// writes through it bypass the index and the journal.
  ArtifactRecord& record_for_testing(NodeId node) {
    return records_[static_cast<size_t>(node)];
  }

  /// Restores one artifact exactly as the catalog persisted it
  /// (core/history_io.h): creates it when new, overwrites its metadata and
  /// statistics, registers a data source, and evicts it when `saved` is
  /// not materialized. Marking a saved materialized derived artifact is
  /// left to MarkMaterialized, so readers can add load edges last.
  Result<NodeId> RestoreArtifact(const ArtifactInfo& info,
                                 const ArtifactRecord& saved);

  /// Records changed since the last ClearJournal.
  const HistoryJournal& journal() const { return journal_; }
  void ClearJournal();

  // -- Indexed lookups (O(1); backed by the incremental HistoryIndex) ----

  /// Looks up an artifact node by canonical name.
  Result<NodeId> FindArtifact(const std::string& name) const;

  /// True iff a live compute edge with this PipelineGraph::TaskSignature
  /// exists — the augmenter's new-task test, previously an O(E) scan.
  bool HasTaskSignature(const std::string& signature) const {
    return index_.task_by_signature.count(signature) > 0;
  }

  /// Live fit edges whose DepthSibling::key is `key` (empty if none).
  const std::vector<EdgeId>& DepthSiblings(const std::string& key) const;

  /// Read-only view of the index for the analysis verifier.
  const HistoryIndex& index() const { return index_; }

  /// Ascending ids of all live edges backward-relevant to `matched`
  /// (every hyperedge that can participate in deriving one of them,
  /// recursively through tails). Cost is proportional to the relevant
  /// sub-hypergraph, not the history size: marker scratch is epoch-reused
  /// across calls instead of reallocated per submission. Scratch lives in
  /// thread-local storage, so concurrent readers are safe and share-free.
  std::vector<EdgeId> CollectBackwardRelevantEdges(
      const std::vector<NodeId>& matched) const;

  /// All currently materialized (non-source) artifacts, ascending.
  std::vector<NodeId> MaterializedArtifacts() const;

  /// Total bytes of materialized (non-source) artifacts.
  int64_t MaterializedBytes() const;

  // -- Pareto history compaction (§IV-H extension) -----------------------

  struct CompactionOptions {
    /// Compact only when num_artifacts() exceeds this; <= 0 disables.
    int32_t max_nodes = 0;
    /// Compaction target as a fraction of max_nodes (hysteresis: dropping
    /// to exactly max_nodes would re-trigger on the next observation).
    double retain_fraction = 0.75;
  };

  struct CompactionStats {
    int32_t nodes_before = 0;
    int32_t nodes_after = 0;
    int32_t nodes_dropped = 0;
    int32_t edges_dropped = 0;
  };

  /// Drops dominated, unmaterialized derivations so the history stays
  /// bounded as it grows without limit: data sources and materialized
  /// artifacts are always retained, per-criterion anchors of the Pareto
  /// frontier (reuse count, observed compute seconds, recency) are
  /// retained next, and the remaining slots go to the highest combined
  /// scores. Task edges incident to a dropped node are dropped with it.
  ///
  /// Rebuilds the graph: outstanding NodeId/EdgeId handles are
  /// invalidated; canonical names remain the stable keys. Marks the
  /// journal rebuilt. No-op (zero stats) while the history fits.
  /// Recency is the rank of an artifact's last access among the
  /// candidates', so retention does not depend on the clock's unit.
  Result<CompactionStats> Compact(const CompactionOptions& options);

  /// Mean observed duration of a task edge; falls back to `fallback` when
  /// never observed.
  double ObservedTaskSeconds(EdgeId edge, double fallback) const;
  bool HasTaskObservation(EdgeId edge) const;

  /// Raw (total seconds, observation count) of a task edge — used by the
  /// catalog persistence layer (core/history_io.h), which restores them
  /// exactly with SetTaskObservation.
  std::pair<double, int64_t> TaskObservation(EdgeId edge) const;
  void SetTaskObservation(EdgeId edge, double total_seconds, int64_t count);

  /// Number of artifacts excluding the source node.
  int32_t num_artifacts() const { return graph_.num_artifacts() - 1; }
  int32_t num_tasks() const { return graph_.num_tasks(); }

  /// Number of statistics records allocated. Always == the graph's node
  /// count after any History mutator ran; exposed so the verifier can
  /// bounds-check before reading records (src/analysis).
  int32_t num_records() const { return static_cast<int32_t>(records_.size()); }

 private:
  struct EdgeStats {
    double total_seconds = 0.0;
    int64_t count = 0;
  };

  void EnsureRecords() {
    records_.resize(static_cast<size_t>(graph_.num_artifacts()));
  }
  void EnsureEdgeStats() {
    edge_stats_.resize(
        static_cast<size_t>(graph_.hypergraph().num_edge_slots()));
  }
  void IndexArtifact(const std::string& name, NodeId node) {
    index_.artifact_by_name.emplace(name, node);
  }
  void IndexTask(std::string signature, EdgeId edge);
  ArtifactRecord& MutableRecord(NodeId node) {
    return records_[static_cast<size_t>(node)];
  }
  void MarkArtifactChanged(NodeId node);
  void MarkTaskChanged(EdgeId edge);

  PipelineGraph graph_;
  std::vector<ArtifactRecord> records_;
  std::vector<EdgeStats> edge_stats_;
  HistoryIndex index_;
  HistoryJournal journal_;
  /// Membership flags of journal_'s lists, by node / edge id.
  std::vector<char> artifact_in_journal_;
  std::vector<char> task_in_journal_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_HISTORY_H_
