#include "baselines/sharing.h"

#include <deque>

#include "baselines/dag_reuse.h"
#include "common/clock.h"

namespace hyppo::baselines {

Result<core::Method::Planned> SharingMethod::PlanRetrieval(
    const std::vector<std::string>& artifact_names) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  core::Augmenter::Options options;
  options.use_equivalences = false;
  options.use_materialized = false;  // nothing is ever stored
  options.objective = runtime_->options().objective;
  HYPPO_ASSIGN_OR_RETURN(core::Augmentation aug,
                         runtime_->augmenter().AugmentForRetrieval(
                             runtime_->history(), artifact_names, options));
  // Recompute every requested artifact through its original derivation,
  // deduplicating shared tasks (the essence of subexpression sharing).
  const Hypergraph& graph = aug.graph.hypergraph();
  const std::vector<EdgeId> chosen = OriginalDerivations(aug);
  const std::vector<EdgeId> loads = LoadEdges(aug);
  Planned planned;
  std::vector<bool> needed(static_cast<size_t>(graph.num_nodes()), false);
  std::vector<bool> in_plan(static_cast<size_t>(graph.num_edge_slots()),
                            false);
  std::deque<NodeId> queue;
  for (NodeId t : aug.targets) {
    if (!needed[static_cast<size_t>(t)]) {
      needed[static_cast<size_t>(t)] = true;
      queue.push_back(t);
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    EdgeId e = chosen[static_cast<size_t>(v)];
    if (e == kInvalidEdge) {
      e = loads[static_cast<size_t>(v)];  // raw data: load from source
    }
    if (e == kInvalidEdge) {
      return Status::FailedPrecondition(
          "sharing: artifact has no recorded derivation");
    }
    if (in_plan[static_cast<size_t>(e)]) {
      continue;
    }
    in_plan[static_cast<size_t>(e)] = true;
    planned.plan.edges.push_back(e);
    planned.plan.cost += aug.edge_weight[static_cast<size_t>(e)];
    planned.plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
    for (NodeId u : graph.edge(e).tail) {
      if (u != aug.graph.source() && !needed[static_cast<size_t>(u)]) {
        needed[static_cast<size_t>(u)] = true;
        queue.push_back(u);
      }
    }
  }
  planned.aug = std::move(aug);
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

}  // namespace hyppo::baselines
