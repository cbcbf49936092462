#include "core/batch_planner.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

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
  return merged;
}

std::vector<size_t> BatchPlanner::PlanningOrder(
    const Augmentation& aug, const std::vector<MemberPlan>& members) {
  const PipelineGraph& graph = aug.graph;
  const Hypergraph& hg = graph.hypergraph();
  std::vector<EdgeId> derives;
  for (EdgeId e : hg.LiveEdges()) {
    if (graph.task(e).type == TaskType::kDerive) {
      derives.push_back(e);
    }
  }
  const size_t count = members.size();
  std::vector<size_t> order;
  order.reserve(count);
  if (derives.empty() || count < 2) {
    for (size_t m = 0; m < count; ++m) {
      order.push_back(m);
    }
    return order;
  }
  // Each member's own derivation: its targets' ancestors over every live
  // edge but derive edges.
  std::vector<std::vector<char>> owns(
      count, std::vector<char>(static_cast<size_t>(hg.num_nodes()), 0));
  for (size_t m = 0; m < count; ++m) {
    std::vector<char>& own = owns[m];
    std::vector<NodeId> stack;
    for (NodeId t : members[m].targets) {
      if (own[static_cast<size_t>(t)] == 0) {
        own[static_cast<size_t>(t)] = 1;
        stack.push_back(t);
      }
    }
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (EdgeId e : hg.bstar(v)) {
        if (!hg.IsLiveEdge(e) || graph.task(e).type == TaskType::kDerive) {
          continue;
        }
        for (NodeId t : hg.edge(e).tail) {
          if (own[static_cast<size_t>(t)] == 0) {
            own[static_cast<size_t>(t)] = 1;
            stack.push_back(t);
          }
        }
      }
    }
  }
  // before[a][b]: a derive edge leads from member a's derivation into
  // member b's.
  std::vector<std::vector<char>> before(count, std::vector<char>(count, 0));
  std::vector<int64_t> waiting(count, 0);
  for (EdgeId e : derives) {
    const size_t from = static_cast<size_t>(graph.ordered_tail(e)[0]);
    const size_t to = static_cast<size_t>(graph.ordered_head(e)[0]);
    for (size_t a = 0; a < count; ++a) {
      if (owns[a][from] == 0) {
        continue;
      }
      for (size_t b = 0; b < count; ++b) {
        if (b != a && owns[b][to] != 0 && before[a][b] == 0) {
          before[a][b] = 1;
          ++waiting[b];
        }
      }
    }
  }
  // Kahn's order, lowest index first; a cycle releases its lowest index.
  std::vector<char> done(count, 0);
  while (order.size() < count) {
    size_t next = count;
    for (size_t m = 0; m < count && next == count; ++m) {
      if (done[m] == 0 && waiting[m] == 0) {
        next = m;
      }
    }
    for (size_t m = 0; m < count && next == count; ++m) {
      if (done[m] == 0) {
        next = m;
      }
    }
    done[next] = 1;
    order.push_back(next);
    for (size_t b = 0; b < count; ++b) {
      if (before[next][b] != 0 && done[b] == 0) {
        --waiting[b];
      }
    }
  }
  return order;
}

Status BatchPlanner::PlanMembers(const Replanner& replan, Augmentation* aug,
                                 std::vector<MemberPlan>* members) {
  const std::vector<size_t> order = PlanningOrder(*aug, *members);
  std::vector<NodeId> targets = std::move(aug->targets);
  const std::vector<double> weights = aug->edge_weight;
  Status status = Status::OK();
  for (size_t m : order) {
    MemberPlan& member = (*members)[m];
    aug->targets = member.targets;
    Result<Plan> plan = replan(*aug);
    if (!plan.ok()) {
      status = plan.status();
      break;
    }
    member.plan = std::move(*plan);
    for (EdgeId e : member.plan.edges) {
      aug->edge_weight[static_cast<size_t>(e)] = 0.0;
    }
  }
  aug->targets = std::move(targets);
  aug->edge_weight = weights;
  return status;
}

Result<BatchPlanner::Planned> BatchPlanner::PlanBatch(
    const std::vector<Pipeline>& pipelines, const History& history,
    const Augmenter& augmenter, const Augmenter::Options& options,
    const Replanner& replan) {
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
  HYPPO_ASSIGN_OR_RETURN(planned.merged,
                         augmenter.Augment(merged, history, options));
  planned.members.reserve(member_targets.size());
  for (std::vector<NodeId>& targets : member_targets) {
    planned.members.push_back(MemberPlan{Plan(), std::move(targets)});
  }
  HYPPO_RETURN_NOT_OK(PlanMembers(replan, &planned.merged, &planned.members));
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

}  // namespace hyppo::core
