#ifndef HYPPO_CORE_RUNTIME_H_
#define HYPPO_CORE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/augmenter.h"
#include "core/batch_planner.h"
#include "core/cost_model.h"
#include "core/dictionary.h"
#include "core/executor.h"
#include "core/history.h"
#include "core/history_io.h"
#include "core/monitor.h"
#include "storage/artifact_store.h"
#include "storage/fault_injection.h"

namespace hyppo::core {

/// \brief Options shared by every optimization method in an experiment.
struct RuntimeOptions {
  /// Storage budget B in bytes for materialized artifacts.
  int64_t storage_budget_bytes = 64ll << 20;
  /// Simulation mode: tasks charge estimated durations instead of
  /// executing (see Executor::Options::simulate).
  bool simulate = false;
  /// Threads that execute plans for real, the calling thread included:
  /// the executor starts one pool of `parallelism - 1` workers on first
  /// use and keeps it. Executor waves and the operators inside them (tree
  /// fits fan out per column, forest fits per tree) split their work over
  /// that pool; payloads are bitwise identical at every value. Plan search
  /// is serial regardless, so the chosen plan does not depend on this.
  /// Use DefaultParallelism() to size it to the machine.
  int parallelism = 1;
  /// One worker per hardware thread (at least 1 when the hardware
  /// concurrency is unknown).
  static int DefaultParallelism();
  PricingModel pricing;
  Augmenter::Objective objective = Augmenter::Objective::kTime;
  /// Debug-mode invariant verification: the executor checks every plan
  /// it receives with the analysis verifier before running it (once per
  /// plan: the search does not re-check its own output). Tests and the
  /// workload scenarios enable this. The recovery loop also verifies
  /// every degraded augmentation before re-planning.
  bool verify_plans = false;
  /// Self-healing bound: how many degrade-and-re-plan rounds in a row one
  /// execution may take without progress before the first failure
  /// surfaces as an error. A round makes progress when it produces a
  /// payload no earlier round produced or drops a dead materialized
  /// load, so deep pipelines whose faults surface one layer per round
  /// still recover. 0 disables recovery entirely.
  int max_recovery_attempts = 3;
  /// History growth bound: when the history holds more than this many
  /// artifacts after an execution, Pareto compaction (History::Compact)
  /// trims it to History::CompactionOptions::retain_fraction of the
  /// bound, keeping materialized, recently accessed, expensive-to-recompute,
  /// and frequently reused artifacts. <= 0 (default) disables compaction —
  /// the history grows without bound.
  int32_t history_max_artifacts = 0;
  /// Directory of a durable artifact store. Empty (default) keeps the
  /// session in memory; non-empty opens/creates a DiskArtifactStore there
  /// (storage/disk_store.h) and reloads the previous session's history +
  /// materialized set on construction — check Runtime::session_status()
  /// before use.
  std::string store_dir;
};

/// \brief Shared execution state: catalog (dictionary + history), cost
/// estimator, monitor, artifact store, executor, and dataset sources.
///
/// HYPPO and every baseline method operate against the same Runtime, so
/// experiment comparisons differ only in planning and materialization
/// policy — exactly the paper's setup.
class Runtime {
 public:
  /// Produces a fresh plan for a degraded augmentation during recovery.
  /// Typically Method::ReplanAugmentation bound to the active method, so
  /// recovery re-optimizes with the same strategy that planned the
  /// original run.
  using Replanner = BatchPlanner::Replanner;

  explicit Runtime(RuntimeOptions options = RuntimeOptions(),
                   Dictionary dictionary = Dictionary::FromRegistry(
                       ml::OperatorRegistry::Global()));

  const RuntimeOptions& options() const { return options_; }
  const Dictionary& dictionary() const { return dictionary_; }
  History& history() { return history_; }
  const History& history() const { return history_; }
  CostEstimator& estimator() { return estimator_; }
  Monitor& monitor() { return monitor_; }
  const Monitor& monitor() const { return monitor_; }
  storage::ArtifactStore& store() { return *store_; }
  const storage::ArtifactStore& store() const { return *store_; }

  /// OK unless opening the durable store or restoring the previous
  /// session failed (constructors cannot return a Status). An in-memory
  /// runtime is always OK.
  const Status& session_status() const { return session_status_; }
  const Augmenter& augmenter() const { return augmenter_; }
  const Executor& executor() const { return *executor_; }

  /// Registers a raw dataset the executor can resolve by id.
  void RegisterDataset(const std::string& dataset_id, ml::DatasetPtr data);

  /// Registers a lazy dataset source (generated on first load).
  void RegisterDatasetGenerator(
      const std::string& dataset_id,
      std::function<Result<ml::DatasetPtr>()> generator);

  /// Arms chaos mode: hands the injector to the executor's load and
  /// operator hooks. Idempotent per runtime; call before executing.
  /// Persistence and the materializer talk to the store unperturbed.
  void EnableFaultInjection(const storage::FaultPlan& plan);

  /// The active injector, or null when fault injection is disabled.
  storage::FaultInjector* fault_injector() { return fault_injector_.get(); }

  /// Serving hook (serving::SessionManager): when set, every
  /// catalog-mutating section of ExecuteAndRecord — pipeline-structure
  /// recording, post-execution history/estimator observations, recovery
  /// degradation, and Pareto compaction — takes the writer side of this
  /// lock. Concurrent sessions plan under the reader side against a
  /// consistent history snapshot while executions commit serially; task
  /// execution itself (operator runs, store I/O) stays outside the lock.
  /// Null (default): single-owner, no locking. The mutex must outlive
  /// every execution.
  void set_catalog_mutex(std::shared_mutex* mutex) { catalog_mutex_ = mutex; }
  /// The reader / writer side of the catalog lock; an empty guard that
  /// locks nothing when no mutex is installed.
  std::shared_lock<std::shared_mutex> LockCatalogShared() const {
    return catalog_mutex_ != nullptr
               ? std::shared_lock<std::shared_mutex>(*catalog_mutex_)
               : std::shared_lock<std::shared_mutex>();
  }
  std::unique_lock<std::shared_mutex> LockCatalog() const {
    return catalog_mutex_ != nullptr
               ? std::unique_lock<std::shared_mutex>(*catalog_mutex_)
               : std::unique_lock<std::shared_mutex>();
  }

  struct ExecutionRecord {
    /// Charged execution time of the plan in seconds (including recovery
    /// attempts — failed work is billed like the paper's monetary model
    /// bills retried cloud tasks).
    double seconds = 0.0;
    /// Payloads of every artifact produced or loaded, by canonical name.
    std::map<std::string, ArtifactPayload> payloads_by_name;
    /// Degrade-and-re-plan rounds this execution needed (0 = clean run).
    int replans = 0;
    /// Task-level failures absorbed across all attempts.
    int64_t failed_tasks = 0;
  };

  /// Executes `plan` and records everything into the history: artifact
  /// observations (sizes), task observations (durations), access counts
  /// for the pipeline's artifacts, and source-data registrations. The
  /// pipeline's *structure* is recorded even for tasks the plan skipped,
  /// so future augmentations can splice these derivations.
  ///
  /// When tasks fail and `replan` is provided, the runtime self-heals: it
  /// drops the dead load edges from a copy of the augmentation, purges the
  /// rotten artifacts from the store and the history, re-plans over the
  /// degraded augmentation, and re-executes reusing every payload that
  /// survived — bounded by RuntimeOptions::max_recovery_attempts rounds
  /// without progress, after which the first failure's Status is
  /// returned. Without a replanner the
  /// first failure surfaces immediately.
  Result<ExecutionRecord> ExecuteAndRecord(const Pipeline& pipeline,
                                           const Augmentation& aug,
                                           const Plan& plan,
                                           const Replanner& replan = nullptr);

  /// Variant for retrieval requests (no defining pipeline; only the plan's
  /// own artifacts are recorded/accessed).
  Result<ExecutionRecord> ExecutePlanOnly(const Augmentation& aug,
                                          const Plan& plan,
                                          const Replanner& replan = nullptr);

  struct BatchExecutionRecord {
    /// Per-member records, in submission order. A member carries the
    /// seconds of the plan edges it contributed to the combined plan and
    /// the payloads its own plan touches; the first member also carries
    /// the recovery rounds (replans, failed tasks, and the runs of edges
    /// only a recovery plan contains) and every payload no member plan
    /// touches.
    std::vector<ExecutionRecord> members;
    /// Total charged seconds across the batch (the members' sum).
    double seconds = 0.0;
    /// Member plan edges the combined plan dropped because an earlier
    /// kept edge already produces every one of their heads: the
    /// shared-prefix work the batch runs once (also recorded as
    /// Monitor::num_shared_prefix_hits).
    int64_t shared_prefix_skips = 0;
  };

  /// Executes a batch planned by BatchPlanner::PlanBatch as ONE execution
  /// over the merged augmentation: the member plans combine into one plan
  /// (members in submission order, each member's edges in plan order, an
  /// edge kept unless kept edges already produce all of its heads), so a
  /// shared prefix runs once, and the batch commits once. Every member
  /// pipeline's structure is recorded up front, and the commit records
  /// one access per member for every artifact that member's plan touches
  /// (per-member access counts are what give shared artifacts their
  /// batch-wide fan-out in the materializer's scoring). Recovery re-plans
  /// each member's targets over the degraded augmentation
  /// (BatchPlanner::PlanMembers with `replan`) and combines the plans the
  /// same way. Compaction runs once, after the batch's observations, as
  /// for a single execution. `pipelines` are the original members,
  /// aligned with `members`.
  Result<BatchExecutionRecord> RunBatch(
      const std::vector<Pipeline>& pipelines, const Augmentation& merged,
      const std::vector<BatchPlanner::MemberPlan>& members,
      const Replanner& replan = nullptr);

  /// Cumulative charged seconds so far — the experiment's logical clock
  /// (drives LRU timestamps). Atomic so concurrent sessions can read it
  /// while one commits.
  double now_seconds() const {
    return cumulative_seconds_.load(std::memory_order_relaxed);
  }

  /// Persists the catalog (history + materialized payloads) to a
  /// directory in the store_dir layout (core/history_io.h), the history as
  /// a checkpoint; a later session — or another user's — can LoadCatalog
  /// and reuse everything (across-experiments reuse, paper §I). The
  /// directory must not be a live store_dir.
  Status SaveCatalog(const std::string& directory) const;

  /// Replaces this runtime's history and store with a saved catalog,
  /// reconciled against the catalog's store (core::ReconcileWithStore);
  /// entries no history artifact claims are not copied. A durable runtime
  /// checkpoints the loaded history into its store_dir.
  Status LoadCatalog(const std::string& directory);

  /// Appends what the history changed since the last persist to the
  /// durable store directory's history log (core::HistoryLog), so a
  /// restarted session reloads its materialized set. Payloads are already
  /// durable — the materializer's Puts land on disk as they happen. Runs
  /// under the catalog writer lock when one is installed (Method::Run
  /// does). No-op for in-memory runtimes.
  Status PersistSession();

 private:
  /// Reloads the store_dir's history (core::ReadHistory; an empty history
  /// when it has none), cuts a torn log tail, and reconciles the history
  /// with the recovered store (core::ReconcileWithStore): history entries
  /// without a matching store payload are evicted, and store entries the
  /// history does not claim are dropped.
  Status RestoreSession();
  /// The one execution path: runs the combination of `members`' plans
  /// over `aug` (a lone plan runs as given) with self-healing recovery,
  /// then commits observations, accesses and compaction once. Every
  /// member plan refers to `aug`'s node and edge ids; `aug.targets` must
  /// cover every member's targets.
  Result<BatchExecutionRecord> ExecuteInternal(
      const Augmentation& aug,
      const std::vector<BatchPlanner::MemberPlan>& members,
      const Replanner& replan);
  /// Fail-fast admission (analysis/static): a malformed pipeline is
  /// rejected with source-located diagnostics before it touches the
  /// history, the planner, or the shared-store budget. Bitwise
  /// reproduction becomes a hard requirement once fault injection is
  /// armed (recovery re-executes tasks and must reproduce payloads).
  Status CheckSubmission(const Pipeline& pipeline) const;
  /// Mirrors the pipeline structure into the history without durations.
  Status RecordPipelineStructure(const Pipeline& pipeline);
  /// Degrades `aug` in place after `failures`: dead materialized-artifact
  /// loads lose their load edge and the rotten copies are purged from the
  /// store and the history; everything else is transient and retried.
  /// Returns how many load edges it dropped.
  Result<int64_t> DegradeAfterFailures(
      const std::vector<Executor::TaskFailure>& failures, Augmentation* aug);

  RuntimeOptions options_;
  Dictionary dictionary_;
  History history_;
  CostEstimator estimator_;
  Monitor monitor_;
  /// InMemoryArtifactStore, or a DiskArtifactStore on options_.store_dir
  /// when it is set. Never replaced after construction (the executor
  /// holds a pointer).
  std::unique_ptr<storage::ArtifactStore> store_;
  Status session_status_;
  /// Appends the durable session's history; empty for in-memory runtimes.
  std::optional<HistoryLog> history_log_;
  /// Chaos-mode injector (EnableFaultInjection); null when disabled.
  std::unique_ptr<storage::FaultInjector> fault_injector_;
  Augmenter augmenter_;
  std::unique_ptr<Executor> executor_;
  std::map<std::string, std::function<Result<ml::DatasetPtr>()>> sources_;
  std::map<std::string, ml::DatasetPtr> resolved_sources_;
  /// Guards the lazy source cache: parallel plan execution may resolve
  /// raw loads concurrently.
  std::mutex sources_mutex_;
  /// Serving catalog lock (see set_catalog_mutex); null = single-owner.
  std::shared_mutex* catalog_mutex_ = nullptr;
  /// Mutated only under the catalog writer lock (when one is installed);
  /// atomic so readers need no lock.
  std::atomic<double> cumulative_seconds_{0.0};
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_RUNTIME_H_
