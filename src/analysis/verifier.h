#ifndef HYPPO_ANALYSIS_VERIFIER_H_
#define HYPPO_ANALYSIS_VERIFIER_H_

#include <cstdint>

#include "analysis/diagnostic.h"
#include "analysis/graph_checks.h"
#include "core/augmenter.h"
#include "core/dictionary.h"
#include "core/graph.h"
#include "core/history.h"
#include "core/optimizer.h"
#include "storage/artifact_store.h"

namespace hyppo::analysis {

/// \brief The invariant verifier: static analysis over HYPPO's labelled
/// hypergraphs, plans, and the history catalog.
///
/// Every check returns an AnalysisReport of structured Diagnostics and
/// never mutates its input. The verifier backs three consumers: debug-mode
/// assertions in the executor and plan generator (via the cheaper
/// primitives in graph_checks.h), the `hyppo_lint` CLI, and the
/// corrupted-fixture tests. See docs/ANALYSIS.md for the invariant
/// catalog.
class Verifier {
 public:
  struct Options {
    /// Relative tolerance when recomputing plan cost totals.
    double cost_tolerance = 1e-6;
    /// Also serialize + deserialize the history and diff the result
    /// (catches encoder/decoder drift; costs one full round-trip).
    bool check_roundtrip = true;
    /// Flag redundant plan edges (plan stays valid without them) as
    /// warnings. Quadratic in plan size; meant for lint and tests.
    bool check_minimality = false;
  };

  Verifier() = default;
  explicit Verifier(Options options) : options_(options) {}

  /// Structural hypergraph invariants plus label-layer consistency:
  /// artifact-name lookup is a bijection, ordered tails/heads agree with
  /// the structural edge sets, load tasks have shape s -> {v}.
  AnalysisReport CheckGraph(const core::PipelineGraph& graph) const;

  /// Plan validity over its augmentation (paper §III-C5): every consumed
  /// artifact is produced by an earlier step, loaded, or the source;
  /// targets are derived; claimed cost/seconds match the augmentation's
  /// edge weights.
  AnalysisReport CheckPlan(const core::Augmentation& aug,
                           const core::Plan& plan) const;

  /// Augmentation well-formedness, including after execution-layer
  /// degradation (dead load edges removed by the recovery loop): label
  /// layer + hypergraph invariants, weight-vector sizing, and
  /// B-reachability of every target from the source.
  AnalysisReport CheckAugmentation(const core::Augmentation& aug) const;

  /// History/dictionary consistency (paper §III-C4, §IV-B/C): graph
  /// well-formedness, materialization flags vs load edges, per-artifact
  /// statistics sanity, task-signature dedup, canonical-name closure
  /// (every task's outputs carry the lineage hash of its inputs), and —
  /// when a dictionary is given — implementations resolving inside their
  /// equivalence class.
  AnalysisReport CheckHistory(const core::History& history,
                              const core::Dictionary* dictionary =
                                  nullptr) const;

  /// History-index consistency: the incrementally maintained HistoryIndex
  /// (core/history.h) must mirror the labelled hypergraph exactly —
  /// artifact_by_name is a bijection onto the nodes, task_by_signature
  /// holds exactly the live compute edges keyed by their TaskSignature,
  /// fits_by_depth_sibling buckets exactly the live fits with a
  /// depth-sibling key, and the materialized set equals the records'
  /// materialization flags (data sources excluded). A divergence means
  /// an index-answered equivalence lookup can disagree with the graph.
  AnalysisReport CheckHistoryIndex(const core::History& history) const;

  /// Serialize + deserialize the history and diff the two with
  /// CheckHistoriesEqual.
  AnalysisReport CheckHistoryRoundTrip(const core::History& history) const;

  /// Reports every difference between two histories, matching artifacts
  /// by canonical name and tasks by signature (ids may differ): counts,
  /// artifact metadata, every record field and every task observation,
  /// compared exactly. `actual` is what a persisted copy restored.
  AnalysisReport CheckHistoriesEqual(const core::History& expected,
                                     const core::History& actual) const;

  /// Materializer budget compliance (§IV-H): materialized bytes within
  /// `budget_bytes`. A negative budget skips the check.
  AnalysisReport CheckBudget(const core::History& history,
                             int64_t budget_bytes) const;

  /// Store <-> history consistency: every artifact the history marks
  /// materialized has a store entry whose charged size matches
  /// `ArtifactInfo::size_bytes`, no store entry lacks a materialized
  /// history record (orphans waste budget), and the store's used_bytes
  /// equals the sum of its entries. Backend-independent — holds for the
  /// in-memory store and for a reopened disk store alike.
  AnalysisReport CheckStoreConsistency(
      const core::History& history,
      const storage::ArtifactStore& store) const;

  /// Runs every history-level check: CheckHistory, the round-trip (when
  /// enabled), and budget compliance.
  AnalysisReport VerifyHistory(const core::History& history,
                               const core::Dictionary* dictionary = nullptr,
                               int64_t budget_bytes = -1) const;

 private:
  Options options_;
};

}  // namespace hyppo::analysis

#endif  // HYPPO_ANALYSIS_VERIFIER_H_
