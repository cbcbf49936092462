#ifndef HYPPO_CORE_AUGMENTER_H_
#define HYPPO_CORE_AUGMENTER_H_

#include <vector>

#include "common/result.h"
#include "core/cost_model.h"
#include "core/dictionary.h"
#include "core/graph.h"
#include "core/history.h"
#include "core/monitor.h"
#include "storage/artifact_store.h"

namespace hyppo::core {

/// \brief The augmented pipeline A (paper §IV-D): the pipeline P enriched
/// with every alternative way to derive its artifacts.
///
/// P is a subhypergraph of A. Additional hyperedges come from four
/// sources: (a) 'load' edges for artifacts materialized in the history,
/// (b) equivalent derivations recorded in the history (spliced in via the
/// canonical-name match and backward relevance closure), (c) parallel
/// hyperedges for alternative physical implementations from the
/// dictionary, and (d) 'derive' edges into tree and forest fits from
/// their deeper max_depth siblings, in P or the history (core/derive.h).
/// Some artifacts therefore have multiple incoming hyperedges — the OR
/// semantics that DAGs cannot express.
struct Augmentation {
  PipelineGraph graph;
  std::vector<NodeId> targets;
  /// Edges not recorded in the history (candidates for exploration mode).
  std::vector<EdgeId> new_tasks;
  /// Optimization weight per edge slot (seconds or EUR, per the
  /// augmenter's objective option).
  std::vector<double> edge_weight;
  /// Estimated duration per edge slot in seconds (used by the executor's
  /// simulation mode and by reporting).
  std::vector<double> edge_seconds;
};

/// \brief Builds augmentations from pipelines and the history.
class Augmenter {
 public:
  enum class Objective { kTime, kPrice };

  struct Options {
    /// Add parallel edges for alternative physical implementations and
    /// derive edges between depth siblings (splicing the history's deeper
    /// siblings). Baselines without equivalence support turn this off.
    bool use_equivalences = true;
    /// Splice reusable (identical-artifact) derivations from the history.
    bool use_history = true;
    /// Add load edges for materialized artifacts.
    bool use_materialized = true;
    Objective objective = Objective::kTime;
  };

  Augmenter(const Dictionary* dictionary, const CostEstimator* estimator,
            PricingModel pricing = PricingModel())
      : dictionary_(dictionary), estimator_(estimator), pricing_(pricing) {}

  /// Builds the augmentation of `pipeline` against `history`.
  Result<Augmentation> Augment(const Pipeline& pipeline,
                               const History& history,
                               const Options& options) const;

  /// Builds an augmentation for a retrieval request (paper §V, scenario
  /// 2): the targets are artifacts already recorded in the history; the
  /// augmentation is the backward-relevant part of H (plus dictionary
  /// alternatives and load edges), with the named artifacts as targets.
  Result<Augmentation> AugmentForRetrieval(
      const History& history, const std::vector<std::string>& target_names,
      const Options& options) const;

  /// Computes the optimization weight of one (already labelled) edge —
  /// exposed for baselines that build their own graphs.
  double EdgeWeight(const PipelineGraph& graph, EdgeId edge,
                    const History& history, Objective objective) const;

  /// Estimated duration in seconds of one edge (load edges use the
  /// storage tier models, StorageTier::Remote() for raw data and Local()
  /// for the store; compute edges use history observations, then the
  /// cost estimator).
  double EdgeSeconds(const PipelineGraph& graph, EdgeId edge,
                     const History& history) const;

  /// Attaches a monitor receiving index hit/miss telemetry (not owned).
  void set_monitor(Monitor* monitor) { monitor_ = monitor; }

 private:
  /// The last step of both augmentations: sizes and fills `aug`'s
  /// per-edge seconds and weights, then flushes the augmentation's index
  /// hit/miss counts to the monitor.
  void WeighAndRecord(const History& history, Objective objective,
                      int64_t index_hits, int64_t index_misses,
                      Augmentation* aug) const;

  const Dictionary* dictionary_;
  const CostEstimator* estimator_;
  PricingModel pricing_;
  Monitor* monitor_ = nullptr;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_AUGMENTER_H_
