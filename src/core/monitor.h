#ifndef HYPPO_CORE_MONITOR_H_
#define HYPPO_CORE_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/artifact.h"
#include "core/cost_model.h"
#include "core/task.h"

namespace hyppo::core {

/// \brief Execution monitor (paper §IV-F): collects task traces, feeds the
/// cost estimator, and aggregates the per-task-type / per-artifact-kind
/// statistics reported in the paper's Fig. 5 study.
///
/// Thread-safe: concurrent serving sessions (src/serving) record task
/// runs and telemetry outside the catalog lock, so counters are atomics
/// and the aggregate maps are guarded by an internal mutex. The map
/// accessors return references; read them only after concurrent
/// execution has quiesced (end of a scenario / session batch).
class Monitor {
 public:
  explicit Monitor(CostEstimator* estimator = nullptr)
      : estimator_(estimator) {}

  struct Aggregate {
    double total_seconds = 0.0;
    int64_t total_bytes = 0;
    int64_t count = 0;

    double MeanSeconds() const {
      return count > 0 ? total_seconds / static_cast<double>(count) : 0.0;
    }
    double MeanBytes() const {
      return count > 0
                 ? static_cast<double>(total_bytes) / static_cast<double>(count)
                 : 0.0;
    }
  };

  /// Records one executed task; forwards the observation to the cost
  /// estimator when attached.
  void RecordTask(const std::string& impl, TaskType type, int64_t rows,
                  int64_t cols, double seconds);

  /// Records one produced artifact with its observed size and the compute
  /// time attributed to it.
  void RecordArtifact(ArtifactKind kind, int64_t size_bytes,
                      double compute_seconds);

  /// Recovery telemetry (execution-layer self-healing): one replan per
  /// degrade-and-re-optimize round.
  void RecordReplan() { Add(&num_replans_, 1); }
  /// Tasks that errored during execution (before recovery retried them).
  void RecordTaskFailures(int64_t count) { Add(&num_task_failures_, count); }
  /// Tasks a recovery attempt skipped because their payloads survived.
  void RecordRecoveredTasks(int64_t count) {
    Add(&num_recovered_tasks_, count);
  }
  /// Faults injected by an attached storage::FaultInjector.
  void RecordInjectedFaults(int64_t count) {
    Add(&num_injected_faults_, count);
  }
  /// History-index telemetry: augmentation-time equivalence probes that
  /// found (hit) / did not find (miss) an indexed entry.
  void RecordIndexHits(int64_t count) { Add(&num_index_hits_, count); }
  void RecordIndexMisses(int64_t count) { Add(&num_index_misses_, count); }
  /// Search states the optimizer's dominance structure discarded.
  void RecordStatesPruned(int64_t count) { Add(&num_states_pruned_, count); }
  /// History artifacts dropped by History::Compact.
  void RecordHistoryCompacted(int64_t count) {
    Add(&num_history_compacted_, count);
  }
  /// Serving telemetry (src/serving): planned loads of materialized
  /// non-raw artifacts (reuse of earlier work), and the subset whose
  /// artifact a *different* session materialized (cross-session reuse —
  /// the multi-tenant payoff).
  void RecordReuseLoads(int64_t count) { Add(&num_reuse_loads_, count); }
  void RecordCrossSessionLoads(int64_t count) {
    Add(&num_cross_session_loads_, count);
  }
  /// Batch-planning telemetry (core/batch_planner.h): task edges merged
  /// away by cross-pipeline signature dedup when a batch's graphs fold
  /// into one hypergraph, member plan edges a batch execution dropped
  /// because an earlier member's plan already produces their outputs
  /// (BatchExecutionRecord::shared_prefix_skips), and wall time
  /// spent planning batches (stored at microsecond resolution so the
  /// counter stays a lock-free integer).
  void RecordBatchMergedTasks(int64_t count) {
    Add(&num_batch_merged_tasks_, count);
  }
  void RecordSharedPrefixHits(int64_t count) {
    Add(&num_shared_prefix_hits_, count);
  }
  void RecordBatchPlanSeconds(double seconds) {
    Add(&batch_plan_micros_, static_cast<int64_t>(seconds * 1e6));
  }

  const std::map<TaskType, Aggregate>& by_task_type() const {
    return by_task_type_;
  }
  const std::map<ArtifactKind, Aggregate>& by_artifact_kind() const {
    return by_artifact_kind_;
  }
  int64_t num_task_records() const { return Get(num_task_records_); }
  int64_t num_replans() const { return Get(num_replans_); }
  int64_t num_task_failures() const { return Get(num_task_failures_); }
  int64_t num_recovered_tasks() const { return Get(num_recovered_tasks_); }
  int64_t num_injected_faults() const { return Get(num_injected_faults_); }
  int64_t num_index_hits() const { return Get(num_index_hits_); }
  int64_t num_index_misses() const { return Get(num_index_misses_); }
  int64_t num_states_pruned() const { return Get(num_states_pruned_); }
  int64_t num_history_compacted() const {
    return Get(num_history_compacted_);
  }
  int64_t num_reuse_loads() const { return Get(num_reuse_loads_); }
  int64_t num_cross_session_loads() const {
    return Get(num_cross_session_loads_);
  }
  int64_t num_batch_merged_tasks() const {
    return Get(num_batch_merged_tasks_);
  }
  int64_t num_shared_prefix_hits() const {
    return Get(num_shared_prefix_hits_);
  }
  double batch_plan_seconds() const {
    return static_cast<double>(Get(batch_plan_micros_)) * 1e-6;
  }

 private:
  static void Add(std::atomic<int64_t>* counter, int64_t count) {
    counter->fetch_add(count, std::memory_order_relaxed);
  }
  static int64_t Get(const std::atomic<int64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  CostEstimator* estimator_;
  /// Guards the aggregate maps (counters are lock-free atomics).
  mutable std::mutex aggregates_mutex_;
  std::map<TaskType, Aggregate> by_task_type_;
  std::map<ArtifactKind, Aggregate> by_artifact_kind_;
  std::atomic<int64_t> num_task_records_{0};
  std::atomic<int64_t> num_replans_{0};
  std::atomic<int64_t> num_task_failures_{0};
  std::atomic<int64_t> num_recovered_tasks_{0};
  std::atomic<int64_t> num_injected_faults_{0};
  std::atomic<int64_t> num_index_hits_{0};
  std::atomic<int64_t> num_index_misses_{0};
  std::atomic<int64_t> num_states_pruned_{0};
  std::atomic<int64_t> num_history_compacted_{0};
  std::atomic<int64_t> num_reuse_loads_{0};
  std::atomic<int64_t> num_cross_session_loads_{0};
  std::atomic<int64_t> num_batch_merged_tasks_{0};
  std::atomic<int64_t> num_shared_prefix_hits_{0};
  std::atomic<int64_t> batch_plan_micros_{0};
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_MONITOR_H_
