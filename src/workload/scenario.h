#ifndef HYPPO_WORKLOAD_SCENARIO_H_
#define HYPPO_WORKLOAD_SCENARIO_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/method.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

namespace hyppo::workload {

/// Creates one optimization method bound to a fresh runtime. Each method
/// in a comparison gets its own runtime (own history, store, estimator),
/// as in the paper's per-method experiment runs.
using MethodFactory =
    std::function<std::unique_ptr<core::Method>(core::Runtime*)>;

/// Factories for the paper's five methods.
MethodFactory MakeNoOptimizationFactory();
MethodFactory MakeSharingFactory();
MethodFactory MakeHelixFactory();
MethodFactory MakeCollabFactory();
MethodFactory MakeHyppoFactory();

/// \brief Configuration of the iterative-execution scenario (paper §V-B1).
struct ScenarioConfig {
  UseCase use_case = UseCase::Higgs();
  int num_pipelines = 20;
  /// Storage budget as a fraction of the raw dataset size (the paper's
  /// B = 0.01 ... 1.0 sweep).
  double budget_factor = 0.1;
  double dataset_multiplier = 0.01;
  uint64_t seed = 42;
  /// Simulation mode (default): deterministic cost-model execution, used
  /// for the paper-shaped sweeps. Off = real ML execution.
  bool simulate = true;
  /// Invariant verification (on by default): every plan is checked before
  /// execution, and the final history must verify clean (src/analysis).
  bool verify = true;
  /// Execution threads, the caller included
  /// (core::RuntimeOptions::parallelism); 0 = all hardware threads.
  int parallelism = 1;
  /// Chaos knob: probability of injected execution-layer faults (store
  /// loads vanishing/corrupting/slowing, resolver outages, operator
  /// failures; see storage::FaultPlan::Uniform). 0 disables injection.
  /// Failures are absorbed by the runtime's self-healing recovery loop.
  double fault_rate = 0.0;
  /// Seed of the fault plan; 0 reuses `seed`.
  uint64_t fault_seed = 0;
  /// Durable session directory. Empty (default) keeps artifacts in the
  /// in-memory store; non-empty puts a disk-backed store under
  /// this path and persists the history after every pipeline, so a later
  /// run pointed at the same directory resumes with its materialized set.
  std::string store_dir;
  /// Concurrent client sessions sharing one runtime (history + store).
  /// 1 (default) keeps the classic single-owner loop; > 1 partitions the
  /// pipeline sequence round-robin across this many sessions driven
  /// concurrently by serving::SessionManager, so sessions reuse each
  /// other's materialized artifacts (docs/SERVING.md).
  int sessions = 1;
};

/// \brief Result of running one pipeline sequence under one method.
struct SequenceResult {
  std::string method;
  std::vector<double> per_pipeline_seconds;
  double cumulative_seconds = 0.0;    // the paper's cet
  double optimize_seconds = 0.0;      // total planning overhead
  double price_eur = 0.0;             // cet x 0.00018 + B_GB x 0.023
  int64_t budget_bytes = 0;
  int64_t stored_artifacts = 0;       // after the last pipeline
  int64_t history_artifacts = 0;
  /// Cumulative seconds after each pipeline (for #pipelines sweeps).
  std::vector<double> cumulative_after;
  /// Self-healing telemetry (non-zero only with a fault_rate or real
  /// storage faults): task failures absorbed and faults injected. The
  /// runtime's Monitor holds every other counter.
  int64_t failed_tasks = 0;
  int64_t injected_faults = 0;
  /// Serving telemetry (ScenarioConfig::sessions > 1): how many sessions
  /// drove the sequence, planned loads of materialized artifacts
  /// (reuse), and the subset another session materialized (cross-session
  /// reuse).
  int sessions = 1;
  int64_t reuse_loads = 0;
  int64_t cross_session_loads = 0;
};

/// Runs scenario 1: execute `num_pipelines` sequentially, materializing
/// after each under the method's policy.
Result<SequenceResult> RunIterativeScenario(const MethodFactory& factory,
                                            const ScenarioConfig& config);

/// \brief Scenario 2 (paper §V-B2): retrieval of artifacts and models from a
/// steady-state history built by `history_pipelines` executions.
struct RetrievalConfig {
  UseCase use_case = UseCase::Higgs();
  int history_pipelines = 20;
  double budget_factor = 0.1;  // 0 disables materialization
  double dataset_multiplier = 0.01;
  uint64_t seed = 42;
  bool simulate = true;
  /// See ScenarioConfig::verify.
  bool verify = true;
  /// See ScenarioConfig::parallelism.
  int parallelism = 1;
  /// See ScenarioConfig::fault_rate / fault_seed.
  double fault_rate = 0.0;
  uint64_t fault_seed = 0;
  /// See ScenarioConfig::store_dir.
  std::string store_dir;
  int request_size = 4;    // artifacts per request
  int num_requests = 50;
  bool models_only = false;  // request fitted models only
};

struct RetrievalResult {
  std::string method;
  double mean_request_seconds = 0.0;
  double total_seconds = 0.0;
  double mean_optimize_seconds = 0.0;
  /// Fraction of history artifacts materialized (paper: HYPPO 83% etc.).
  double stored_fraction = 0.0;
};

Result<RetrievalResult> RunRetrievalScenario(const MethodFactory& factory,
                                             const RetrievalConfig& config);

/// \brief Scenario 3 (paper §V-B3): ensemble workloads over models
/// trained by a pre-built history.
struct EnsembleConfig {
  int history_pipelines = 30;
  int ensemble_pipelines = 10;
  double budget_factor = 0.1;
  double dataset_multiplier = 0.01;
  uint64_t seed = 42;
  bool simulate = true;
  /// See ScenarioConfig::verify.
  bool verify = true;
  /// See ScenarioConfig::parallelism.
  int parallelism = 1;
  /// See ScenarioConfig::fault_rate / fault_seed.
  double fault_rate = 0.0;
  uint64_t fault_seed = 0;
  /// See ScenarioConfig::store_dir.
  std::string store_dir;
};

Result<SequenceResult> RunEnsembleScenario(const MethodFactory& factory,
                                           const EnsembleConfig& config);

/// \brief Fig. 5 study: per-artifact-kind and per-task-type aggregates
/// plus the materializer's stored-fraction-by-kind breakdown, collected
/// while running scenario 1 under HYPPO.
struct TypeStudyRow {
  std::string label;
  double mean_seconds = 0.0;
  double mean_bytes = 0.0;
  int64_t count = 0;
  double stored_fraction = 0.0;
};
struct TypeStudyResult {
  std::vector<TypeStudyRow> artifact_kinds;
  std::vector<TypeStudyRow> task_types;
  int64_t budget_bytes = 0;
  int64_t stored_bytes = 0;
  double storage_price_eur = 0.0;
};
Result<TypeStudyResult> RunTypeStudy(const ScenarioConfig& config);

}  // namespace hyppo::workload

#endif  // HYPPO_WORKLOAD_SCENARIO_H_
