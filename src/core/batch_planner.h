#ifndef HYPPO_CORE_BATCH_PLANNER_H_
#define HYPPO_CORE_BATCH_PLANNER_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/optimizer.h"

namespace hyppo::core {

/// \brief Multi-query optimization for pipeline batches (hyperparameter
/// sweeps): a set of related pipelines is folded into ONE hypergraph by
/// task-signature dedup, augmented once against the history, and planned
/// per member with the method's own planner (the paper's "individual
/// plans for each request", §IV-E).
///
/// A 50-config grid sweep shares whole prefixes (load -> impute -> scale
/// -> split); planning the members one-by-one re-pays augmentation 50
/// times while the executor recomputes the shared prefix until the
/// history catches up. Folding the batch makes the sharing explicit:
/// merged members' plans reference the SAME node and edge ids, so the
/// runtime can combine them into one plan that runs each shared task once
/// (Runtime::RunBatch), and the shared-prefix artifacts
/// accumulate batch-wide access counts (fan-out x recompute cost) before
/// one end-of-batch materialization decision.
class BatchPlanner {
 public:
  /// Plans the augmentation's targets. Method::MakeReplanner binds the
  /// method's own search, so a batch member is planned exactly as a lone
  /// pipeline would be.
  using Replanner = std::function<Result<Plan>(const Augmentation&)>;

  /// One member's plan over the merged augmentation, with its targets
  /// re-expressed in merged-graph node ids.
  struct MemberPlan {
    Plan plan;
    std::vector<NodeId> targets;
  };

  struct Stats {
    /// Task edges merged away by cross-pipeline signature dedup.
    int64_t merged_tasks = 0;
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

  /// The order PlanMembers plans `members` in: a member whose own
  /// derivation (its targets' ancestors over every edge but derive edges)
  /// holds the tail of a derive edge comes before the members whose own
  /// derivations hold its head; otherwise, and to break a cycle,
  /// submission order.
  static std::vector<size_t> PlanningOrder(
      const Augmentation& aug, const std::vector<MemberPlan>& members);

  /// Plans every member's targets over `aug` with `replan`, in
  /// PlanningOrder: `aug`'s targets are set to each member's in turn, and
  /// every edge an earlier member's plan holds is priced at zero, since
  /// the combined plan runs each edge once (Runtime::RunBatch). Targets
  /// and weights are restored afterwards; each plan lands in its member's
  /// `plan`, priced at the weights its member was planned with. So a
  /// sweep fits its deepest model and derives the shallower ones from it
  /// (core/derive.h). A batch's first plans (PlanBatch) and its recovery
  /// re-plans (Runtime::RunBatch) both come from here.
  static Status PlanMembers(const Replanner& replan, Augmentation* aug,
                            std::vector<MemberPlan>* members);

  /// Merges the batch, augments it once, and plans every member with
  /// PlanMembers over the shared augmentation.
  static Result<Planned> PlanBatch(const std::vector<Pipeline>& pipelines,
                                   const History& history,
                                   const Augmenter& augmenter,
                                   const Augmenter::Options& options,
                                   const Replanner& replan);
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_BATCH_PLANNER_H_
