#include "core/batch_planner.h"

#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/clock.h"

namespace hyppo::core {

Result<Pipeline> BatchPlanner::MergePipelines(
    const std::vector<Pipeline>& pipelines,
    std::vector<std::vector<NodeId>>* member_targets, Stats* stats) {
  if (pipelines.empty()) {
    return Status::InvalidArgument("cannot merge an empty pipeline batch");
  }
  Pipeline merged;
  merged.id = "batch(" + pipelines.front().id + "+" +
              std::to_string(pipelines.size() - 1) + ")";
  if (member_targets != nullptr) {
    member_targets->clear();
    member_targets->reserve(pipelines.size());
  }
  // Artifacts dedup by canonical name, tasks by signature — the same
  // identity the history uses, so two members' shared prefix folds into
  // one sub-hypergraph with one node id per artifact.
  std::set<std::string> signatures;
  std::set<NodeId> merged_target_set;
  for (const Pipeline& pipeline : pipelines) {
    const PipelineGraph& graph = pipeline.graph;
    std::vector<NodeId> to_merged(static_cast<size_t>(graph.num_artifacts()),
                                  kInvalidNode);
    to_merged[static_cast<size_t>(graph.source())] = merged.graph.source();
    for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
      to_merged[static_cast<size_t>(v)] =
          merged.graph.GetOrAddArtifact(graph.artifact(v));
    }
    for (EdgeId e : graph.hypergraph().LiveEdges()) {
      std::vector<NodeId> tails;
      tails.reserve(graph.ordered_tail(e).size());
      for (NodeId t : graph.ordered_tail(e)) {
        tails.push_back(to_merged[static_cast<size_t>(t)]);
      }
      std::vector<NodeId> heads;
      heads.reserve(graph.ordered_head(e).size());
      for (NodeId h : graph.ordered_head(e)) {
        heads.push_back(to_merged[static_cast<size_t>(h)]);
      }
      HYPPO_ASSIGN_OR_RETURN(
          const EdgeId added,
          merged.graph.AddTask(graph.task(e), std::move(tails),
                               std::move(heads)));
      if (!signatures.insert(merged.graph.TaskSignature(added)).second) {
        HYPPO_RETURN_NOT_OK(merged.graph.RemoveTask(added));
        if (stats != nullptr) {
          ++stats->merged_tasks;
        }
      }
    }
    std::vector<NodeId> targets;
    targets.reserve(pipeline.targets.size());
    for (NodeId t : pipeline.targets) {
      const NodeId mt = to_merged[static_cast<size_t>(t)];
      targets.push_back(mt);
      if (merged_target_set.insert(mt).second) {
        merged.targets.push_back(mt);
      }
    }
    if (member_targets != nullptr) {
      member_targets->push_back(std::move(targets));
    }
  }
  if (stats != nullptr) {
    stats->distinct_tasks = merged.graph.num_tasks();
  }
  return merged;
}

Result<BatchPlanner::Planned> BatchPlanner::PlanBatch(
    const std::vector<Pipeline>& pipelines, const History& history,
    const Augmenter& augmenter, const Options& options,
    PlanGenerator::SearchStats* stats) {
  const WallClock clock;
  const Stopwatch stopwatch(clock);
  Planned planned;
  std::vector<std::vector<NodeId>> member_targets;
  HYPPO_ASSIGN_OR_RETURN(
      const Pipeline merged,
      MergePipelines(pipelines, &member_targets, &planned.stats));
  // ONE augmentation over the folded graph: equivalence splices, history
  // reuse, and load edges are discovered once instead of per member (the
  // pipeline is a subhypergraph of its augmentation with identical node
  // ids, so the member target ids carry over).
  HYPPO_ASSIGN_OR_RETURN(
      planned.merged,
      augmenter.Augment(merged, history, options.augment));
  // ONE admissible-bound fixed point, shared by every member search (the
  // bounds depend only on the graph and weights, not the targets). Only
  // A* reads them.
  PlanGenerator::LowerBounds bounds;
  const PlanGenerator::LowerBounds* lb = nullptr;
  if (options.search.strategy == PlanGenerator::Strategy::kAStar) {
    bounds = PlanGenerator::ComputeLowerBounds(planned.merged);
    lb = &bounds;
  }
  const PlanGenerator generator;
  planned.members.reserve(pipelines.size());
  for (std::vector<NodeId>& targets : member_targets) {
    Result<Plan> search = generator.OptimizeForTargets(
        planned.merged, targets, options.search, stats, lb);
    if (!search.ok() && search.status().IsResourceExhausted()) {
      // Accuracy sacrificed for a good plan in linear time (§IV-E), the
      // same trade HyppoMethod makes when its expansion budget runs out.
      PlanGenerator::Options greedy = options.search;
      greedy.strategy = PlanGenerator::Strategy::kGreedy;
      search = generator.OptimizeForTargets(planned.merged, targets, greedy,
                                            stats, lb);
    }
    MemberPlan member;
    HYPPO_ASSIGN_OR_RETURN(member.plan, std::move(search));
    member.targets = std::move(targets);
    planned.members.push_back(std::move(member));
  }
  // Shared-prefix accounting: every plan edge selected by k > 1 members
  // is work the combined batch plan runs once instead of k times.
  std::map<EdgeId, int64_t> selected_by;
  for (const MemberPlan& member : planned.members) {
    for (EdgeId e : member.plan.edges) {
      ++selected_by[e];
    }
  }
  for (const auto& [edge, count] : selected_by) {
    (void)edge;
    if (count > 1) {
      planned.stats.shared_prefix_hits += count - 1;
    }
  }
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

}  // namespace hyppo::core
