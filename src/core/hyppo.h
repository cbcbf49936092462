#ifndef HYPPO_CORE_HYPPO_H_
#define HYPPO_CORE_HYPPO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/materializer.h"
#include "core/method.h"
#include "core/parser.h"

namespace hyppo::core {

/// \brief The HYPPO method (paper §IV): augments each pipeline with
/// equivalences, reuse opportunities, and materialized-artifact loads;
/// searches the augmentation for the minimum-cost plan; and materializes
/// artifacts by SPF gain under the storage budget.
class HyppoMethod final : public Method {
 public:
  struct Options {
    PlanGenerator::Options search;
    Materializer::Options materialization;
    Augmenter::Options augment;
  };

  explicit HyppoMethod(Runtime* runtime);
  HyppoMethod(Runtime* runtime, Options options);

  std::string name() const override { return "HYPPO"; }

  Result<Planned> PlanPipeline(const Pipeline& pipeline) override;
  Status AfterExecution(const Pipeline& pipeline, const Planned& planned,
                        const Runtime::ExecutionRecord& record) override;
  Result<Planned> PlanRetrieval(
      const std::vector<std::string>& artifact_names) override;
  /// Multi-query optimization: folds the batch into one hypergraph,
  /// augments once, and plans each member with ReplanAugmentation
  /// (core/batch_planner.h). Feeds the monitor's batch counters.
  Result<BatchPlanner::Planned> PlanPipelineBatch(
      const std::vector<Pipeline>& pipelines) override;
  /// One materialization decision for the whole batch: shared-prefix
  /// artifacts carry fan-out-many access counts by now, so the SPF gain
  /// scores them with their batch-wide benefit.
  Status AfterBatchExecution(
      const std::vector<Pipeline>& pipelines,
      const BatchPlanner::Planned& planned,
      const Runtime::BatchExecutionRecord& record) override;
  /// The configured search with its greedy fallback: plans every
  /// augmentation and every batch member, and re-plans degraded ones
  /// during recovery.
  Result<Plan> ReplanAugmentation(const Augmentation& aug) override;

  const PlanGenerator::SearchStats& last_search_stats() const {
    return last_stats_;
  }

 private:
  /// Searches `aug` and packages the plan; `stopwatch` started before
  /// augmentation, so optimize_seconds covers both.
  Result<Planned> PlanAugmentation(Augmentation aug,
                                   const Stopwatch& stopwatch);
  /// Decide + Apply over the payloads an execution made available.
  Status Materialize(const std::map<std::string, ArtifactPayload>& available);

  Options options_;
  PlanGenerator generator_;
  Materializer materializer_;
  PlanGenerator::SearchStats last_stats_;
};

/// \brief User-facing facade: owns a Runtime and a HyppoMethod and exposes
/// the paper's end-to-end loop — submit code, get an optimized plan, run
/// it, and let the history manager materialize artifacts.
class HyppoSystem {
 public:
  struct Options {
    RuntimeOptions runtime;
    HyppoMethod::Options method;
  };

  HyppoSystem();
  explicit HyppoSystem(Options options);

  /// Parses pipeline DSL code (see core/parser.h).
  Result<Pipeline> Parse(const std::string& code, const std::string& id);

  struct RunReport {
    Plan plan;
    /// Charged execution time of the optimized plan, in seconds.
    double execute_seconds = 0.0;
    /// Planning overhead in seconds.
    double optimize_seconds = 0.0;
    /// Estimated time the un-optimized pipeline would have taken.
    double baseline_seconds = 0.0;
    /// Number of tasks in the executed plan.
    int32_t tasks_executed = 0;
    /// Payloads of the pipeline's targets, by canonical name.
    std::map<std::string, ArtifactPayload> target_payloads;
  };

  /// Optimizes, executes, records, materializes and checkpoints one
  /// pipeline (Method::Run).
  Result<RunReport> RunPipeline(const Pipeline& pipeline);

  struct BatchRunReport {
    /// Per-member reports, in submission order. In batch mode each
    /// member's optimize_seconds is its amortized share of the one batch
    /// plan.
    std::vector<RunReport> reports;
    /// Planning overhead for the whole batch (one merged augmentation +
    /// per-member searches in batch mode; summed per-pipeline planning
    /// in the sequential fallback).
    double optimize_seconds = 0.0;
    /// Total charged execution seconds across members.
    double execute_seconds = 0.0;
    /// Batch-mode telemetry (all zero in the sequential fallback):
    /// cross-pipeline task merges, and member plan edges the combined
    /// execution ran once instead of per member.
    int64_t merged_tasks = 0;
    int64_t shared_prefix_skips = 0;
    /// True when the multi-query path ran.
    bool batched = false;
  };

  /// Optimizes and executes a set of related pipelines as one batch (a
  /// hyperparameter sweep): merged plan, one execution of the combined
  /// member plans, one batch-wide
  /// materialization decision (Method::RunBatch). With fewer than two
  /// members it runs them as RunPipeline would.
  Result<BatchRunReport> RunBatch(const std::vector<Pipeline>& pipelines);

  /// Convenience: parse + run.
  Result<RunReport> RunCode(const std::string& code, const std::string& id);

  /// Scenario-2 style retrieval: derive previously recorded artifacts at
  /// minimum cost.
  Result<RunReport> RetrieveArtifacts(
      const std::vector<std::string>& artifact_names);

  Runtime& runtime() { return *runtime_; }
  HyppoMethod& method() { return *method_; }

  /// Registers a raw dataset source.
  void RegisterDataset(const std::string& dataset_id, ml::DatasetPtr data) {
    runtime_->RegisterDataset(dataset_id, data);
  }

 private:
  /// The one report builder behind RunPipeline and RunBatch.
  static RunReport MakeReport(const Pipeline& pipeline,
                              Method::Outcome outcome);

  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<HyppoMethod> method_;
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_HYPPO_H_
