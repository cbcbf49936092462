#ifndef HYPPO_CORE_MATERIALIZER_H_
#define HYPPO_CORE_MATERIALIZER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/history.h"
#include "storage/artifact_store.h"

namespace hyppo::core {

/// \brief The history manager's materialization policy (paper §III-D2 and
/// §IV-H): given a storage budget B, choose which artifacts to keep
/// materialized so that the expected cost of future pipelines is
/// minimized.
///
/// The default policy is the paper's Smaller-Penalty-First (SPF) gain
///   gain(v) = freq(v) × cost(v) / load(v)
/// optionally weighted by the plan-locality coefficient
///   pl(v) = 1 / e^(1/depth(v)),
/// solved greedily under the budget (the exact formulation, Problem 2, is
/// an expensive MILP). LRU / LFU / SFF scores are provided for the
/// ablation study.
class Materializer {
 public:
  enum class Policy { kSpf, kLru, kLfu, kSff };

  struct Options {
    int64_t budget_bytes = 0;
    Policy policy = Policy::kSpf;
    /// Weight gains by the plan-locality coefficient (§III-D2). Ablation
    /// knob; on by default as in the paper.
    bool use_plan_locality = true;
  };

  struct Decision {
    /// Artifacts to materialize (not currently stored).
    std::vector<NodeId> to_store;
    /// Currently materialized artifacts to evict.
    std::vector<NodeId> to_evict;
    /// Total bytes stored after applying the decision.
    int64_t selected_bytes = 0;
  };

  explicit Materializer(const Augmenter* augmenter) : augmenter_(augmenter) {}

  /// Chooses the artifact set to keep materialized. `storable` contains
  /// the canonical names of artifacts whose payloads are currently
  /// available (just produced or already stored) — only those can be
  /// newly materialized.
  Decision Decide(const History& history,
                  const std::set<std::string>& storable,
                  const Options& options) const;

  /// Applies a decision: updates the history's load edges and moves
  /// payloads in/out of the artifact store. Policy-independent (static):
  /// baseline methods apply their own decisions through it too.
  ///
  /// Failure-atomic: new artifacts are stored *before* anything is
  /// evicted, and a failed Put rolls the already-stored ones back, so an
  /// error leaves history and store exactly as they were (at the price
  /// of transiently holding old + new bytes during the store phase).
  static Status Apply(History& history, storage::ArtifactStore& store,
                      const Decision& decision,
                      const std::map<std::string, ArtifactPayload>& available);

  /// The SPF gain of one artifact (exposed for tests and benches).
  /// Computes the recompute-cost and depth vectors itself (a whole-history
  /// value iteration); use the precomputed overload when scoring many
  /// nodes.
  double Gain(const History& history, NodeId node,
              const Options& options) const;

  /// SPF gain against precomputed RecomputeCosts() / depth vectors, the
  /// same scoring Decide() uses for its candidate sweep.
  double Gain(const History& history, NodeId node, const Options& options,
              const std::vector<double>& recompute_costs,
              const std::vector<double>& depths) const;

  /// \brief The paper's cost(v) estimate: seconds to *re-compute* each
  /// history artifact if it were evicted, where inputs may be obtained as
  /// cheaply as the current materialization allows (value iteration with
  /// sum-over-tails aggregation; v's own load edge excluded). An observed
  /// task is priced by History::ObservedTaskSeconds, a load or an
  /// unobserved task by Augmenter::EdgeSeconds.
  ///
  /// Public because baseline materialization policies (Collab's
  /// experiment-graph utility) score recreation cost the same way.
  std::vector<double> RecomputeCosts(const History& history) const;

 private:
  const Augmenter* augmenter_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_MATERIALIZER_H_
