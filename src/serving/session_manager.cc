#include "serving/session_manager.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/clock.h"

namespace hyppo::serving {

SessionManager::SessionManager(ServingOptions options)
    : options_(std::move(options)),
      runtime_(std::make_unique<core::Runtime>(options_.runtime)) {
  runtime_->set_catalog_mutex(&catalog_mutex_);
  if (options_.fault_rate > 0.0) {
    runtime_->EnableFaultInjection(storage::FaultPlan::Uniform(
        options_.fault_seed, options_.fault_rate));
  }
}

SessionManager::~SessionManager() = default;

std::unique_ptr<core::Method> SessionManager::MakeMethod() {
  if (options_.make_method) {
    return options_.make_method(runtime_.get());
  }
  return std::make_unique<core::HyppoMethod>(runtime_.get(),
                                             options_.method);
}

void SessionManager::Admit(SessionReport* report) {
  const WallClock clock;
  const Stopwatch wait(clock);
  std::unique_lock<std::mutex> lock(admission_mutex_);
  const uint64_t ticket = next_ticket_++;
  const int max_in_flight = options_.max_in_flight_sessions;
  bool queued = false;
  // FIFO by ticket: a session runs once every earlier ticket has been
  // admitted and a slot is free, so the gate cannot starve anyone.
  while (ticket != serving_ticket_ ||
         (max_in_flight > 0 && in_flight_ >= max_in_flight)) {
    queued = true;
    admission_cv_.wait(lock);
  }
  ++serving_ticket_;
  ++in_flight_;
  stats_.max_observed_in_flight =
      std::max(stats_.max_observed_in_flight, in_flight_);
  if (queued) {
    ++stats_.sessions_queued;
    report->queue_seconds = wait.Elapsed();
  }
  // The next ticket may already be admissible (gate not full).
  admission_cv_.notify_all();
}

void SessionManager::Release() {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  --in_flight_;
  admission_cv_.notify_all();
}

SessionReport SessionManager::RunSession(const SessionRequest& request) {
  SessionReport report;
  report.session_id = request.session_id;
  const WallClock clock;
  const Stopwatch total(clock);
  if (!session_status().ok()) {
    report.status = session_status();
    return report;
  }
  Admit(&report);
  std::unique_ptr<core::Method> method = MakeMethod();
  // Runs in Method::Run's writer-locked commit: classify the plan's reuse
  // loads by owning session, then claim what this commit newly stored.
  // emplace keeps the first materializer on re-materialization after an
  // eviction by the same name — ownership is first-writer-wins.
  const core::Method::CommitHook on_commit =
      [&](const std::vector<std::string>& loaded,
          const std::vector<std::string>& stored) {
        for (const std::string& name : loaded) {
          ++report.reuse_loads;
          const auto owner = materialized_by_.find(name);
          if (owner != materialized_by_.end() &&
              owner->second != request.session_id) {
            ++report.cross_session_loads;
          }
        }
        for (const std::string& name : stored) {
          materialized_by_.emplace(name, request.session_id);
        }
      };
  const auto accumulate = [&](const core::Pipeline& pipeline,
                              const core::Method::Outcome& outcome) {
    report.per_pipeline_seconds.push_back(outcome.record.seconds);
    report.charged_seconds += outcome.record.seconds;
    report.optimize_seconds += outcome.optimize_seconds;
    report.replans += outcome.record.replans;
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      const auto it = outcome.record.payloads_by_name.find(name);
      if (it != outcome.record.payloads_by_name.end()) {
        report.target_payloads[name] = it->second;
      }
    }
    ++report.pipelines_completed;
  };
  if (request.as_sweep) {
    Result<core::Method::BatchOutcome> batch =
        method->RunBatch(request.pipelines, on_commit);
    if (batch.ok()) {
      for (size_t i = 0; i < request.pipelines.size(); ++i) {
        accumulate(request.pipelines[i], batch->members[i]);
      }
    } else {
      report.status = batch.status();
    }
  } else {
    for (const core::Pipeline& pipeline : request.pipelines) {
      Result<core::Method::Outcome> outcome =
          method->Run(pipeline, on_commit);
      if (!outcome.ok()) {
        report.status = outcome.status();
        break;
      }
      accumulate(pipeline, *outcome);
    }
  }
  Release();
  report.wall_seconds = total.Elapsed();
  runtime_->monitor().RecordReuseLoads(report.reuse_loads);
  runtime_->monitor().RecordCrossSessionLoads(report.cross_session_loads);
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    ++stats_.sessions_completed;
    stats_.pipelines_completed += report.pipelines_completed;
  }
  return report;
}

std::vector<SessionReport> SessionManager::RunSessions(
    const std::vector<SessionRequest>& requests) {
  std::vector<SessionReport> reports(requests.size());
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([this, &requests, &reports, i] {
      reports[i] = RunSession(requests[i]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return reports;
}

SessionManager::Stats SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  return stats_;
}

}  // namespace hyppo::serving
