#ifndef HYPPO_CORE_BATCH_PLANNER_H_
#define HYPPO_CORE_BATCH_PLANNER_H_

#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/optimizer.h"

namespace hyppo::core {

/// \brief Multi-query optimization for pipeline batches (hyperparameter
/// sweeps): a set of related pipelines is folded into ONE hypergraph by
/// task-signature dedup, augmented once against the history, and planned
/// per member (A* members share one lower-bound fixed point).
///
/// A 50-config grid sweep shares whole prefixes (load -> impute -> scale
/// -> split); planning the members one-by-one re-pays augmentation and
/// search 50 times while the executor recomputes the shared prefix until
/// the history catches up. Folding the batch makes the sharing explicit:
/// merged members' plans reference the SAME node and edge ids, so the
/// runtime can combine them into one plan that runs each shared task once
/// (Runtime::RunBatch), and the shared-prefix artifacts
/// accumulate batch-wide access counts (fan-out x recompute cost) before
/// one end-of-batch materialization decision.
class BatchPlanner {
 public:
  struct Options {
    Augmenter::Options augment;
    PlanGenerator::Options search;
  };

  /// One member's plan over the merged augmentation, with its targets
  /// re-expressed in merged-graph node ids.
  struct MemberPlan {
    Plan plan;
    std::vector<NodeId> targets;
  };

  struct Stats {
    /// Task edges merged away by cross-pipeline signature dedup.
    int64_t merged_tasks = 0;
    /// Distinct task edges the merged pipeline kept.
    int64_t distinct_tasks = 0;
    /// Planned edges shared by more than one member plan, counted once
    /// per extra member (3 members planning one edge = 2 hits) — the
    /// work the combined batch execution pays once instead of per member.
    int64_t shared_prefix_hits = 0;
  };

  struct Planned {
    /// The augmentation of the merged batch graph. Every member plan's
    /// edge/node ids refer to it.
    Augmentation merged;
    std::vector<MemberPlan> members;
    Stats stats;
    double optimize_seconds = 0.0;
  };

  /// Folds the batch's task graphs into one pipeline by canonical
  /// artifact name and task signature. `member_targets`, when non-null,
  /// receives each member's targets mapped into merged node ids.
  static Result<Pipeline> MergePipelines(
      const std::vector<Pipeline>& pipelines,
      std::vector<std::vector<NodeId>>* member_targets, Stats* stats);

  /// Merges, augments once, computes lower bounds once (A* only), and
  /// plans every member's targets over the shared augmentation. Members
  /// whose exact search exhausts its expansion budget fall back to greedy
  /// (the same accuracy trade HyppoMethod makes).
  static Result<Planned> PlanBatch(const std::vector<Pipeline>& pipelines,
                                   const History& history,
                                   const Augmenter& augmenter,
                                   const Options& options,
                                   PlanGenerator::SearchStats* stats = nullptr);
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_BATCH_PLANNER_H_
