#ifndef HYPPO_SERVING_SESSION_MANAGER_H_
#define HYPPO_SERVING_SESSION_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/hyppo.h"
#include "core/method.h"
#include "core/runtime.h"
#include "storage/fault_injection.h"

namespace hyppo::serving {

/// Creates the per-session optimization method bound to the shared
/// runtime (the serving analogue of workload::MethodFactory). Defaults
/// to HyppoMethod with ServingOptions::method when unset.
using MethodMaker =
    std::function<std::unique_ptr<core::Method>(core::Runtime*)>;

/// \brief Configuration of a multi-tenant serving runtime.
struct ServingOptions {
  /// Options of the one shared Runtime (history + store + estimator)
  /// every session plans against and commits into.
  core::RuntimeOptions runtime;
  /// Planning options of the default per-session HyppoMethod.
  core::HyppoMethod::Options method;
  /// Overrides the per-session method (baselines, instrumented methods).
  MethodMaker make_method;
  /// Admission control: at most this many sessions execute concurrently;
  /// excess submissions queue FIFO. <= 0 disables the gate.
  int max_in_flight_sessions = 8;
  /// Chaos knob: probability of injected storage/compute faults, shared
  /// by all sessions (storage::FaultPlan::Uniform). 0 disables.
  double fault_rate = 0.0;
  uint64_t fault_seed = 1;
};

/// \brief One client's work: an ordered pipeline sequence submitted under
/// a stable session id.
struct SessionRequest {
  std::string session_id;
  std::vector<core::Pipeline> pipelines;
  /// Submit the pipelines as one hyperparameter sweep (Method::RunBatch):
  /// the session plans them as a batch (merged hypergraph, one
  /// augmentation, each member planned by the method's own planner) and
  /// executes the combined member plans once, so a shared prefix runs
  /// once. Methods without a batch path fall back to the ordered
  /// sequential loop; payloads are byte-identical either way.
  bool as_sweep = false;
};

/// \brief Per-session outcome and telemetry.
struct SessionReport {
  std::string session_id;
  /// First error the session hit; pipelines after it are not executed.
  /// A failed as_sweep request reports none of its pipelines.
  Status status = Status::OK();
  int32_t pipelines_completed = 0;
  /// Charged execution seconds per completed pipeline, in submission
  /// order (the per-session latency profile).
  std::vector<double> per_pipeline_seconds;
  /// Totals across the sequence.
  double charged_seconds = 0.0;
  double optimize_seconds = 0.0;
  /// Wall-clock seconds from submission to completion, including the
  /// admission-queue wait below.
  double wall_seconds = 0.0;
  double queue_seconds = 0.0;
  /// Planned loads of materialized non-raw artifacts (reuse), and the
  /// subset first materialized by a *different* session (cross-session
  /// reuse — the multi-tenant payoff). Counted when a run commits.
  int64_t reuse_loads = 0;
  int64_t cross_session_loads = 0;
  /// Degrade-and-re-plan rounds summed over the sequence.
  int64_t replans = 0;
  /// Serialized-payload-ready target payloads by canonical name (the
  /// differential tests compare these byte-for-byte across topologies).
  std::map<std::string, storage::ArtifactPayload> target_payloads;
};

/// \brief Multi-tenant serving runtime: N concurrent client sessions
/// against one shared Runtime (history + artifact store + estimator), so
/// one session's materialized artifacts serve every other session's
/// equivalent plans (docs/SERVING.md).
///
/// Locking contract (the catalog lock, a reader/writer lock the manager
/// installs into the shared runtime; Method::Run and Method::RunBatch
/// take it):
///  - PLAN under the reader side: a session's method sees a consistent
///    history snapshot; any number of sessions plan concurrently.
///  - COMMIT under the writer side: Runtime::ExecuteAndRecord takes it
///    internally around every catalog mutation (structure recording,
///    observation recording, recovery degradation, compaction), and the
///    method's run takes it around the materializer's decide+apply, the
///    manager's ownership bookkeeping and the durable checkpoint.
///  - EXECUTE outside the lock: operator runs and store I/O are already
///    internally synchronized, so heavy work never blocks planners.
///
/// A plan can go stale between planning and execution (another session's
/// materializer evicted an artifact the plan loads). That surfaces as a
/// load failure and is absorbed by the runtime's existing self-healing
/// recovery loop — degrade, re-plan, re-execute — so conflict resolution
/// reuses the chaos machinery instead of adding a second mechanism.
class SessionManager {
 public:
  explicit SessionManager(ServingOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// The shared runtime (register datasets here before serving).
  core::Runtime& runtime() { return *runtime_; }
  const core::Runtime& runtime() const { return *runtime_; }

  /// Forwarded Runtime::session_status(): a durable store that failed to
  /// open (e.g. its directory is locked by another live manager) makes
  /// every session fail fast with this status.
  const Status& session_status() const { return runtime_->session_status(); }

  /// Runs one session's sequence to completion on the calling thread
  /// (blocks in the admission queue when the gate is full). Thread-safe:
  /// sessions run concurrently from any number of threads.
  SessionReport RunSession(const SessionRequest& request);

  /// Runs every request on its own thread and returns the reports in
  /// request order.
  std::vector<SessionReport> RunSessions(
      const std::vector<SessionRequest>& requests);

  /// \brief Aggregate serving statistics across all sessions so far.
  struct Stats {
    int64_t sessions_completed = 0;
    /// Sessions that waited in the admission queue before running.
    int64_t sessions_queued = 0;
    /// High-water mark of concurrently executing sessions.
    int max_observed_in_flight = 0;
    int64_t pipelines_completed = 0;
  };
  Stats stats() const;

 private:
  /// Blocks until an in-flight slot frees up (FIFO by ticket). Records
  /// the wait into `report`.
  void Admit(SessionReport* report);
  void Release();
  std::unique_ptr<core::Method> MakeMethod();

  ServingOptions options_;
  std::unique_ptr<core::Runtime> runtime_;
  /// The catalog reader/writer lock installed into runtime_.
  mutable std::shared_mutex catalog_mutex_;
  /// Which session first materialized each artifact name; read and
  /// written only by the commit hook, under catalog_mutex_'s writer side.
  std::unordered_map<std::string, std::string> materialized_by_;

  /// Admission gate (FIFO tickets) + aggregate stats.
  mutable std::mutex admission_mutex_;
  std::condition_variable admission_cv_;
  uint64_t next_ticket_ = 0;
  uint64_t serving_ticket_ = 0;
  int in_flight_ = 0;
  Stats stats_;
};

}  // namespace hyppo::serving

#endif  // HYPPO_SERVING_SESSION_MANAGER_H_
