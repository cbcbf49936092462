#ifndef HYPPO_CORE_OPTIMIZER_H_
#define HYPPO_CORE_OPTIMIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"

namespace hyppo::core {

/// \brief An execution plan: a minimal subhypergraph of the augmentation
/// that B-connects the source to every target (paper §III-C5).
struct Plan {
  std::vector<EdgeId> edges;
  /// Total optimization weight (seconds or EUR, per the augmentation's
  /// objective).
  double cost = 0.0;
  /// Estimated duration in seconds.
  double seconds = 0.0;
};

/// \brief The plan generator (paper §IV-E): solves Problem 1 by searching
/// backwards from the targets to the source over the augmentation.
///
/// Implements Algorithm 1 (OPTIMIZE) with Algorithm 2 (EXPAND). The data
/// structure Q is selectable: a LIFO stack (OPTIMIZE-STACK), a priority
/// queue keyed by partial cost (OPTIMIZE-PRIORITY), the linear-time greedy
/// variant, and an A* extension with an admissible lower bound (the
/// future-work direction of §IV-E, built here as an extension and
/// evaluated in the ablation benches). Every strategy is one serial search
/// on the calling thread, so the returned plan is deterministic. See
/// docs/OPTIMIZER.md.
class PlanGenerator {
 public:
  enum class Strategy { kStack, kPriority, kGreedy, kAStar };

  struct Options {
    Strategy strategy = Strategy::kPriority;
    /// Exploration knob c_exp ∈ [0,1]: mo = ceil(#new_tasks × c_exp) new
    /// tasks are forced into the initial plan (paper §IV-E,
    /// exploration vs exploitation).
    double exploration = 0.0;
    /// Extension (ablation): memoize the best cost per
    /// (visited, frontier) state and prune dominated partial plans.
    /// Keys are full states, so hash collisions can never merge two
    /// distinct states (that would unsoundly prune an optimal plan).
    bool dominance_pruning = false;
    /// Safety valve on EXPAND invocations; the search reports
    /// ResourceExhausted beyond it.
    int64_t max_expansions = 20'000'000;
  };

  struct SearchStats {
    int64_t plans_examined = 0;
    int64_t expansions = 0;
    int64_t pruned_by_bound = 0;
    int64_t pruned_by_dominance = 0;
  };

  static const char* StrategyToString(Strategy strategy);

  /// Finds a minimum-cost plan from the source to `aug.targets`, the one
  /// search entry point: to plan another target set, set the targets of
  /// (a copy of) the augmentation. kStack/kPriority/kAStar return the
  /// optimal plan; kGreedy returns a feasible plan in linear time with no
  /// optimality guarantee. kAStar computes its lower bounds per call.
  Result<Plan> Optimize(const Augmentation& aug, const Options& options,
                        SearchStats* stats = nullptr) const;

  /// \brief Optimality oracle used by tests: the kStack search with
  /// dominance pruning off and no expansion budget. It still prunes
  /// partial plans that already cost at least the best complete plan, so
  /// it enumerates every minimal plan that could beat the incumbent, not
  /// every minimal plan. Its result equals kStack's whenever kStack stays
  /// within its budget, so a kStack-vs-BruteForce comparison checks that
  /// engine against itself. Exponential; only for small graphs.
  Result<Plan> BruteForce(const Augmentation& aug) const;
};

/// \brief Structural verification of one plan against its augmentation —
/// the debug assertion the executor runs on every plan it receives under
/// RuntimeOptions::verify_plans: plan structure, claimed cost totals, and
/// cost-model
/// monotonicity of every edge weight (`cost.non-monotone`). Returns
/// Internal with the full diagnostic listing on failure.
Status VerifyPlanStructure(const Augmentation& aug,
                           const std::vector<NodeId>& targets,
                           const Plan& plan);

/// \brief Structural verification of a (possibly degraded) augmentation:
/// hypergraph invariants, weight-vector sizing, and B-reachability of
/// every target from the source. The runtime's recovery loop runs this
/// after dropping dead load edges, before re-planning.
Status VerifyAugmentationStructure(const Augmentation& aug);

}  // namespace hyppo::core

#endif  // HYPPO_CORE_OPTIMIZER_H_
