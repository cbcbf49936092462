#ifndef HYPPO_CORE_METHOD_H_
#define HYPPO_CORE_METHOD_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/optimizer.h"
#include "core/runtime.h"

namespace hyppo::core {

/// \brief Interface of one optimization method in the experimental
/// comparison: HYPPO and the baselines (NoOptimization, Sharing, Helix,
/// Collab) all implement it against a shared Runtime.
///
/// Run drives the paper's per-pipeline loop (plan, execute, materialize,
/// checkpoint) and RunBatch its multi-query variant; every caller —
/// HyppoSystem, the serving SessionManager, the workload scenarios — goes
/// through them. Subclasses supply the per-stage policy: PlanPipeline
/// (reuse/equivalence decisions) and AfterExecution (materialization).
class Method {
 public:
  struct Planned {
    Augmentation aug;
    Plan plan;
    /// Wall time spent planning (the paper's "optimization overhead",
    /// Fig. 9(b)).
    double optimize_seconds = 0.0;
  };

  explicit Method(Runtime* runtime) : runtime_(runtime) {}
  virtual ~Method() = default;

  Method(const Method&) = delete;
  Method& operator=(const Method&) = delete;

  virtual std::string name() const = 0;

  /// Derives the execution plan for one pipeline.
  virtual Result<Planned> PlanPipeline(const Pipeline& pipeline) = 0;

  /// Applies the method's materialization policy after execution.
  virtual Status AfterExecution(const Pipeline& pipeline,
                                const Planned& planned,
                                const Runtime::ExecutionRecord& record) = 0;

  /// Plans a retrieval request for artifacts already recorded in the
  /// history (scenario 2). Default: NotImplemented.
  virtual Result<Planned> PlanRetrieval(
      const std::vector<std::string>& artifact_names);

  /// Plans a set of related pipelines jointly as one merged hypergraph
  /// (core/batch_planner.h) — the multi-query path for hyperparameter
  /// sweeps. Default: NotImplemented; RunBatch then falls back to its
  /// Run loop, so baselines keep their behavior.
  virtual Result<BatchPlanner::Planned> PlanPipelineBatch(
      const std::vector<Pipeline>& pipelines);

  /// Applies the materialization policy ONCE for a whole executed batch,
  /// with every member's payloads and the batch-wide access statistics
  /// visible to the decision. Default: NotImplemented.
  virtual Status AfterBatchExecution(
      const std::vector<Pipeline>& pipelines,
      const BatchPlanner::Planned& planned,
      const Runtime::BatchExecutionRecord& record);

  /// Re-plans a degraded augmentation during execution-layer recovery
  /// (the runtime dropped dead load edges after storage faults). Default:
  /// linear-time greedy search — always feasible, no optimality guarantee.
  /// HyppoMethod overrides this with its configured search strategy.
  virtual Result<Plan> ReplanAugmentation(const Augmentation& aug);

  /// Binds ReplanAugmentation as a Runtime::Replanner, so a caller of
  /// Runtime::ExecuteAndRecord recovers with this method's search.
  Runtime::Replanner MakeReplanner();

  /// What Run reports for one pipeline, and RunBatch for each member.
  struct Outcome {
    /// The executed plan (a batch member's plan indexes the batch's
    /// merged augmentation).
    Plan plan;
    Runtime::ExecutionRecord record;
    /// Planning wall time; a batch member's is its amortized share.
    double optimize_seconds = 0.0;
    /// Estimated seconds of the pipeline executed exactly as written,
    /// against the history at plan time.
    double baseline_seconds = 0.0;
    /// Names the materialization step newly stored (empty for the
    /// members of a batch, which materializes once: see
    /// BatchOutcome::stored).
    std::vector<std::string> stored;
  };

  struct BatchOutcome {
    /// Per-member outcomes, in submission order.
    std::vector<Outcome> members;
    /// Planning wall time of the whole batch.
    double optimize_seconds = 0.0;
    /// Multi-query telemetry (zero in the sequential fallback):
    /// cross-pipeline task merges, and member plan edges the combined
    /// execution ran once instead of per member
    /// (Runtime::BatchExecutionRecord::shared_prefix_skips).
    int64_t merged_tasks = 0;
    int64_t shared_prefix_skips = 0;
    /// True when the multi-query path ran.
    bool batched = false;
    /// Every name the batch newly stored.
    std::vector<std::string> stored;
  };

  /// Called inside the writer-locked commit section with the canonical
  /// names of the materialized (non-raw) artifacts the plan loads and
  /// the names the materialization step newly stored. The serving layer
  /// attributes reuse and ownership here.
  using CommitHook =
      std::function<void(const std::vector<std::string>& loaded,
                         const std::vector<std::string>& stored)>;

  /// Plans, executes, materializes and persists one pipeline. With a
  /// catalog lock installed (Runtime::set_catalog_mutex), planning holds
  /// its reader side, execution no catalog lock (the runtime takes the
  /// writer side around its own commits and heals stale plans through
  /// MakeReplanner), and materialization plus PersistSession the writer
  /// side.
  Result<Outcome> Run(const Pipeline& pipeline,
                      const CommitHook& on_commit = nullptr);

  /// Runs related pipelines (a hyperparameter sweep) as one batch: merged
  /// plan, one execution of the combined member plans (Runtime::RunBatch),
  /// one materialization and one persist, under Run's locking. With fewer than two members, or
  /// when the method has no PlanPipelineBatch, it loops over Run —
  /// payloads are byte-identical either way, only cost differs.
  Result<BatchOutcome> RunBatch(const std::vector<Pipeline>& pipelines,
                                const CommitHook& on_commit = nullptr);

  Runtime& runtime() { return *runtime_; }

 protected:
  Runtime* runtime_;

 private:
  /// The writer-locked tail of Run/RunBatch: `materialize`, the commit
  /// hook, then PersistSession. Returns the newly stored names.
  Result<std::vector<std::string>> Commit(
      const std::function<Status()>& materialize,
      const std::vector<std::string>& loaded, const CommitHook& on_commit);
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_METHOD_H_
