#include "core/hyppo.h"

#include <set>

#include "common/clock.h"

namespace hyppo::core {

Result<Method::Planned> Method::PlanRetrieval(
    const std::vector<std::string>& /*artifact_names*/) {
  return Status::NotImplemented(name() + " does not support retrieval plans");
}

Result<BatchPlanner::Planned> Method::PlanPipelineBatch(
    const std::vector<Pipeline>& /*pipelines*/) {
  return Status::NotImplemented(name() + " does not support batch plans");
}

Status Method::AfterBatchExecution(
    const std::vector<Pipeline>& /*pipelines*/,
    const BatchPlanner::Planned& /*planned*/,
    const Runtime::BatchExecutionRecord& /*record*/) {
  return Status::NotImplemented(name() +
                                " does not support batch materialization");
}

Result<Plan> Method::ReplanAugmentation(const Augmentation& aug) {
  PlanGenerator generator;
  PlanGenerator::Options options;
  options.strategy = PlanGenerator::Strategy::kGreedy;
  options.verify_plans = runtime_->options().verify_plans;
  return generator.Optimize(aug, options);
}

Runtime::Replanner Method::MakeReplanner() {
  return [this](const Augmentation& aug) { return ReplanAugmentation(aug); };
}

HyppoMethod::HyppoMethod(Runtime* runtime)
    : HyppoMethod(runtime, Options()) {}

HyppoMethod::HyppoMethod(Runtime* runtime, Options options)
    : Method(runtime),
      options_(options),
      materializer_(&runtime->augmenter()) {
  options_.materialization.budget_bytes =
      runtime->options().storage_budget_bytes;
  options_.augment.objective = runtime->options().objective;
  // Production default: dominance pruning keeps the exact search fast on
  // alternative-rich augmentations without changing the returned optimum
  // (the scalability benches run the paper-faithful un-pruned variants
  // explicitly). A bounded expansion budget backs the search with a
  // greedy fallback.
  options_.search.dominance_pruning = true;
  if (options_.search.max_expansions > 200'000) {
    options_.search.max_expansions = 200'000;
  }
  options_.search.verify_plans = runtime->options().verify_plans;
}

Result<Method::Planned> HyppoMethod::PlanAugmentation(Augmentation aug) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  // last_stats_ accumulates across searches; the monitor wants this
  // search's contribution, so record the delta.
  const int64_t pruned_before = last_stats_.pruned_by_dominance;
  Result<Plan> search = generator_.Optimize(aug, options_.search,
                                            &last_stats_);
  if (!search.ok() && search.status().IsResourceExhausted()) {
    // Accuracy sacrificed for a good plan in linear time (§IV-E).
    PlanGenerator::Options greedy = options_.search;
    greedy.strategy = PlanGenerator::Strategy::kGreedy;
    search = generator_.Optimize(aug, greedy, &last_stats_);
  }
  runtime_->monitor().RecordStatesPruned(last_stats_.pruned_by_dominance -
                                         pruned_before);
  HYPPO_ASSIGN_OR_RETURN(Plan plan, std::move(search));
  Planned planned;
  planned.aug = std::move(aug);
  planned.plan = std::move(plan);
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

Result<Plan> HyppoMethod::ReplanAugmentation(const Augmentation& aug) {
  const int64_t pruned_before = last_stats_.pruned_by_dominance;
  Result<Plan> search = generator_.Optimize(aug, options_.search,
                                            &last_stats_);
  if (!search.ok() && search.status().IsResourceExhausted()) {
    PlanGenerator::Options greedy = options_.search;
    greedy.strategy = PlanGenerator::Strategy::kGreedy;
    search = generator_.Optimize(aug, greedy, &last_stats_);
  }
  runtime_->monitor().RecordStatesPruned(last_stats_.pruned_by_dominance -
                                         pruned_before);
  return search;
}

Result<Method::Planned> HyppoMethod::PlanPipeline(const Pipeline& pipeline) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(
      Augmentation aug,
      runtime_->augmenter().Augment(pipeline, runtime_->history(),
                                    options_.augment));
  HYPPO_ASSIGN_OR_RETURN(Planned planned, PlanAugmentation(std::move(aug)));
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

Result<Method::Planned> HyppoMethod::PlanRetrieval(
    const std::vector<std::string>& artifact_names) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(
      Augmentation aug,
      runtime_->augmenter().AugmentForRetrieval(
          runtime_->history(), artifact_names, options_.augment));
  HYPPO_ASSIGN_OR_RETURN(Planned planned, PlanAugmentation(std::move(aug)));
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

Result<BatchPlanner::Planned> HyppoMethod::PlanPipelineBatch(
    const std::vector<Pipeline>& pipelines) {
  const int64_t pruned_before = last_stats_.pruned_by_dominance;
  BatchPlanner::Options options;
  options.augment = options_.augment;
  options.search = options_.search;
  Result<BatchPlanner::Planned> planned = BatchPlanner::PlanBatch(
      pipelines, runtime_->history(), runtime_->augmenter(), options,
      &last_stats_);
  runtime_->monitor().RecordStatesPruned(last_stats_.pruned_by_dominance -
                                         pruned_before);
  if (planned.ok()) {
    runtime_->monitor().RecordBatchMergedTasks(planned->stats.merged_tasks);
    runtime_->monitor().RecordBatchPlanSeconds(planned->optimize_seconds);
  }
  return planned;
}

Status HyppoMethod::AfterBatchExecution(
    const std::vector<Pipeline>& /*pipelines*/,
    const BatchPlanner::Planned& /*planned*/,
    const Runtime::BatchExecutionRecord& record) {
  Materializer::Options options = options_.materialization;
  options.budget_bytes = runtime_->options().storage_budget_bytes;
  std::set<std::string> storable;
  std::map<std::string, ArtifactPayload> available;
  for (const Runtime::ExecutionRecord& member : record.members) {
    for (const auto& [name, payload] : member.payloads_by_name) {
      storable.insert(name);
      available.emplace(name, payload);
    }
  }
  Materializer::Decision decision =
      materializer_.Decide(runtime_->history(), storable, options);
  return materializer_.Apply(runtime_->history(), runtime_->store(), decision,
                             available);
}

Status HyppoMethod::AfterExecution(const Pipeline& /*pipeline*/,
                                   const Planned& /*planned*/,
                                   const Runtime::ExecutionRecord& record) {
  Materializer::Options options = options_.materialization;
  options.budget_bytes = runtime_->options().storage_budget_bytes;
  std::set<std::string> storable;
  std::map<std::string, ArtifactPayload> available;
  for (const auto& [name, payload] : record.payloads_by_name) {
    storable.insert(name);
    available.emplace(name, payload);
  }
  Materializer::Decision decision =
      materializer_.Decide(runtime_->history(), storable, options);
  return materializer_.Apply(runtime_->history(), runtime_->store(), decision,
                             available);
}

HyppoSystem::HyppoSystem() : HyppoSystem(Options()) {}

HyppoSystem::HyppoSystem(Options options)
    : runtime_(std::make_unique<Runtime>(options.runtime)),
      method_(std::make_unique<HyppoMethod>(runtime_.get(), options.method)) {
}

Result<Pipeline> HyppoSystem::Parse(const std::string& code,
                                    const std::string& id) {
  return ParsePipeline(code, id, runtime_->dictionary());
}

Result<HyppoSystem::RunReport> HyppoSystem::RunPipeline(
    const Pipeline& pipeline) {
  HYPPO_RETURN_NOT_OK(runtime_->session_status());
  HYPPO_ASSIGN_OR_RETURN(Method::Planned planned,
                         method_->PlanPipeline(pipeline));
  // Baseline estimate: executing the pipeline exactly as written.
  double baseline = 0.0;
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    baseline += runtime_->augmenter().EdgeSeconds(pipeline.graph, e,
                                                  runtime_->history());
  }
  HYPPO_ASSIGN_OR_RETURN(
      Runtime::ExecutionRecord record,
      runtime_->ExecuteAndRecord(pipeline, planned.aug, planned.plan,
                                 method_->MakeReplanner()));
  HYPPO_RETURN_NOT_OK(method_->AfterExecution(pipeline, planned, record));
  // Durable sessions checkpoint the history after every pipeline: the
  // payloads are already on disk, and the snapshot makes them reloadable.
  HYPPO_RETURN_NOT_OK(runtime_->PersistSession());
  RunReport report;
  report.plan = planned.plan;
  report.execute_seconds = record.seconds;
  report.optimize_seconds = planned.optimize_seconds;
  report.baseline_seconds = baseline;
  report.tasks_executed = static_cast<int32_t>(planned.plan.edges.size());
  for (NodeId t : pipeline.targets) {
    const std::string& name = pipeline.graph.artifact(t).name;
    auto it = record.payloads_by_name.find(name);
    if (it != record.payloads_by_name.end()) {
      report.target_payloads.emplace(name, it->second);
    }
  }
  return report;
}

Result<HyppoSystem::BatchRunReport> HyppoSystem::RunBatch(
    const std::vector<Pipeline>& pipelines) {
  HYPPO_RETURN_NOT_OK(runtime_->session_status());
  BatchRunReport batch;
  if (!runtime_->options().batch_planning || pipelines.size() < 2) {
    // Sequential fallback: the baseline the sweep bench compares against.
    batch.reports.reserve(pipelines.size());
    for (const Pipeline& pipeline : pipelines) {
      HYPPO_ASSIGN_OR_RETURN(RunReport report, RunPipeline(pipeline));
      batch.optimize_seconds += report.optimize_seconds;
      batch.execute_seconds += report.execute_seconds;
      batch.reports.push_back(std::move(report));
    }
    return batch;
  }
  HYPPO_ASSIGN_OR_RETURN(BatchPlanner::Planned planned,
                         method_->PlanPipelineBatch(pipelines));
  HYPPO_ASSIGN_OR_RETURN(
      Runtime::BatchExecutionRecord record,
      runtime_->RunBatch(pipelines, planned.merged, planned.members,
                         method_->MakeReplanner()));
  HYPPO_RETURN_NOT_OK(
      method_->AfterBatchExecution(pipelines, planned, record));
  HYPPO_RETURN_NOT_OK(runtime_->PersistSession());
  batch.batched = true;
  batch.optimize_seconds = planned.optimize_seconds;
  batch.execute_seconds = record.seconds;
  batch.merged_tasks = planned.stats.merged_tasks;
  batch.shared_prefix_hits = planned.stats.shared_prefix_hits;
  batch.shared_prefix_skips = record.shared_prefix_skips;
  batch.reports.reserve(pipelines.size());
  const double amortized =
      planned.optimize_seconds / static_cast<double>(pipelines.size());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const Pipeline& pipeline = pipelines[i];
    RunReport report;
    report.plan = planned.members[i].plan;
    report.execute_seconds = record.members[i].seconds;
    report.optimize_seconds = amortized;
    for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
      report.baseline_seconds += runtime_->augmenter().EdgeSeconds(
          pipeline.graph, e, runtime_->history());
    }
    report.tasks_executed =
        static_cast<int32_t>(planned.members[i].plan.edges.size());
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      const auto it = record.members[i].payloads_by_name.find(name);
      if (it != record.members[i].payloads_by_name.end()) {
        report.target_payloads.emplace(name, it->second);
      }
    }
    batch.reports.push_back(std::move(report));
  }
  return batch;
}

Result<HyppoSystem::RunReport> HyppoSystem::RunCode(const std::string& code,
                                                    const std::string& id) {
  HYPPO_ASSIGN_OR_RETURN(Pipeline pipeline, Parse(code, id));
  return RunPipeline(pipeline);
}

Result<HyppoSystem::RunReport> HyppoSystem::RetrieveArtifacts(
    const std::vector<std::string>& artifact_names) {
  HYPPO_ASSIGN_OR_RETURN(Method::Planned planned,
                         method_->PlanRetrieval(artifact_names));
  HYPPO_ASSIGN_OR_RETURN(
      Runtime::ExecutionRecord record,
      runtime_->ExecutePlanOnly(planned.aug, planned.plan,
                                method_->MakeReplanner()));
  RunReport report;
  report.plan = planned.plan;
  report.execute_seconds = record.seconds;
  report.optimize_seconds = planned.optimize_seconds;
  report.tasks_executed = static_cast<int32_t>(planned.plan.edges.size());
  for (const std::string& name : artifact_names) {
    auto it = record.payloads_by_name.find(name);
    if (it != record.payloads_by_name.end()) {
      report.target_payloads.emplace(name, it->second);
    }
  }
  return report;
}

}  // namespace hyppo::core
