#include "baselines/no_optimization.h"

#include "common/clock.h"

namespace hyppo::baselines {

Result<core::Method::Planned> PlanAsWritten(core::Runtime& runtime,
                                            const core::Pipeline& pipeline) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  core::Augmenter::Options options;
  options.use_equivalences = false;
  options.use_history = false;
  options.use_materialized = false;
  options.objective = runtime.options().objective;
  HYPPO_ASSIGN_OR_RETURN(
      core::Augmentation aug,
      runtime.augmenter().Augment(pipeline, runtime.history(), options));
  core::Method::Planned planned;
  planned.plan.edges = aug.graph.hypergraph().LiveEdges();
  for (EdgeId e : planned.plan.edges) {
    planned.plan.cost += aug.edge_weight[static_cast<size_t>(e)];
    planned.plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  planned.aug = std::move(aug);
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

}  // namespace hyppo::baselines
