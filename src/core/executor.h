#ifndef HYPPO_CORE_EXECUTOR_H_
#define HYPPO_CORE_EXECUTOR_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/monitor.h"
#include "core/optimizer.h"
#include "ml/registry.h"
#include "storage/artifact_store.h"
#include "storage/fault_injection.h"

namespace hyppo {
class ThreadPool;
}  // namespace hyppo

namespace hyppo::core {

/// Resolves a raw dataset id (the artifact's display name) to its data —
/// the stand-in for the paper's remote storage locations. Called once per
/// raw-load task in real execution mode.
using DatasetResolver =
    std::function<Result<ml::DatasetPtr>(const std::string& dataset_id)>;

/// \brief Executes plans: runs the plan's tasks in dependency waves, binds
/// artifact payloads to task inputs, runs physical operators (or simulates
/// them), and reports per-task timings for the monitor and the history.
///
/// Failure model: a task that errors (a lost or corrupted store entry, a
/// resolver outage, an operator fault) does NOT abort the run. The
/// executor records the failure, skips the tasks that transitively
/// depended on the dead artifact, and finishes everything else, so the
/// caller sees exactly which load/compute edges failed and which payloads
/// survived. The runtime's recovery loop (core/runtime.h) uses that
/// report to degrade the augmentation and re-plan. Execute() itself only
/// returns a non-OK Status for structural errors (an inexecutable plan).
class Executor {
 public:
  struct Options {
    /// Simulation mode: no operator runs and no load reaches the store or
    /// the resolver; each task charges its estimated duration
    /// (augmentation edge_seconds) and produces placeholder payloads. Used
    /// by the planner-scalability experiments and the paper-scale scenario
    /// sweeps.
    bool simulate = false;
    /// Debug-mode assertion: structurally verify the plan against its
    /// augmentation (src/analysis) before executing anything. Fails with
    /// Internal on a broken plan instead of executing it.
    bool verify_plans = false;
    /// Charge every task, loads and operators alike, its augmentation
    /// estimate (edge_seconds) instead of measured wall time, while still
    /// executing it for real. Makes `total_seconds` bit-identical across
    /// runs and across thread counts — the differential and chaos tests
    /// rely on it.
    bool charge_estimates = false;
    /// Fault-injection hook for every load (store and raw, real and
    /// simulated; each maps through storage::ApplyLoadFault) and every
    /// operator. Null disables the hook.
    storage::FaultInjector* fault_injector = nullptr;
    /// Recovery only: payloads that survived a previous attempt, keyed by
    /// node id of the SAME augmentation. Tasks whose outputs are all
    /// present are skipped (counted in `reused_tasks`), so a recovery
    /// re-execution only pays for what was actually lost.
    const std::map<NodeId, ArtifactPayload>* seed_payloads = nullptr;
  };

  struct TaskRun {
    EdgeId edge = kInvalidEdge;
    double seconds = 0.0;
  };

  /// One task that errored, with the edge it ran for.
  struct TaskFailure {
    EdgeId edge = kInvalidEdge;
    Status status;
  };

  struct ExecutionResult {
    /// Total charged time: measured wall time per task in real runs, the
    /// augmentation's estimates in simulated and charge_estimates runs.
    double total_seconds = 0.0;
    /// Makespan of the wave schedule: the sum over waves of each wave's
    /// longest task, in every mode (simulated, inline or pooled).
    double critical_path_seconds = 0.0;
    std::vector<TaskRun> task_runs;
    /// Payload per produced/loaded artifact node (includes seeded
    /// payloads).
    std::map<NodeId, ArtifactPayload> payloads;
    /// Tasks that errored this run.
    std::vector<TaskFailure> failures;
    /// Tasks never attempted because an upstream failure starved their
    /// inputs.
    std::vector<EdgeId> skipped_edges;
    /// Tasks skipped because every output payload was seeded.
    int64_t reused_tasks = 0;

    bool complete() const { return failures.empty() && skipped_edges.empty(); }
  };

  /// Plans execute in waves: each wave runs every task whose inputs are
  /// all available. `parallelism` threads execute real plans, the calling
  /// thread included (see RuntimeOptions::parallelism). With more than 1,
  /// a wave's tasks run concurrently on the executor's pool, and operators
  /// fan their own work out over the same pool; with 1, and in simulation,
  /// waves run inline on the calling thread. `total_seconds` is the sum
  /// of per-task times (the billable compute the cost model prices);
  /// `critical_path_seconds` is the wave schedule's makespan.
  Executor(storage::ArtifactStore* store, DatasetResolver resolver,
           Monitor* monitor, int parallelism = 1,
           const ml::OperatorRegistry* registry =
               &ml::OperatorRegistry::Global());
  ~Executor();

  /// Executes `plan` over the augmentation it was derived from.
  Result<ExecutionResult> Execute(const Augmentation& aug, const Plan& plan,
                                  const Options& options) const;

 private:
  /// Runs one task reading inputs from `inputs` and writing produced
  /// payloads into `outputs`, the task's private fragment that the wave
  /// merges afterwards. Dispatches on task type and simulation mode,
  /// applies the fault hooks, and returns the task's charge.
  Result<double> RunTask(const Augmentation& aug, EdgeId edge,
                         const std::map<NodeId, ArtifactPayload>& inputs,
                         std::map<NodeId, ArtifactPayload>* outputs,
                         const Options& options) const;

  /// The sub-runners return measured wall seconds. RunLoadTask also
  /// reports the slow-load multiplier its fault decision drew.
  Result<double> RunLoadTask(const PipelineGraph& graph, EdgeId edge,
                             std::map<NodeId, ArtifactPayload>* outputs,
                             const Options& options,
                             double* slow_multiplier) const;
  Result<double> RunComputeTask(
      const PipelineGraph& graph, EdgeId edge,
      const std::map<NodeId, ArtifactPayload>& inputs,
      std::map<NodeId, ArtifactPayload>* outputs) const;
  /// Cuts the input model at the task's max_depth (core/derive.h).
  Result<double> RunDeriveTask(
      const PipelineGraph& graph, EdgeId edge,
      const std::map<NodeId, ArtifactPayload>& inputs,
      std::map<NodeId, ArtifactPayload>* outputs) const;

  /// The executor's pool with parallelism_ - 1 workers, started on first
  /// use; null when parallelism_ <= 1 (operators then run serially).
  ThreadPool* Pool() const;

  storage::ArtifactStore* const store_;
  DatasetResolver resolver_;
  Monitor* monitor_;
  int parallelism_;
  const ml::OperatorRegistry* registry_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_EXECUTOR_H_
