#include "core/hyppo.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "common/clock.h"

namespace hyppo::core {

namespace {

// Estimated seconds of executing the pipeline exactly as written.
double BaselineSeconds(const Runtime& runtime, const Pipeline& pipeline) {
  double seconds = 0.0;
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    seconds += runtime.augmenter().EdgeSeconds(pipeline.graph, e,
                                               runtime.history());
  }
  return seconds;
}

// Appends the names of the materialized (non-raw) artifacts `plan` loads:
// the reuse the plan makes of earlier work.
void AppendLoadedNames(const Augmentation& aug, const Plan& plan,
                       std::vector<std::string>* names) {
  for (EdgeId e : plan.edges) {
    if (aug.graph.task(e).type != TaskType::kLoad) {
      continue;
    }
    const ArtifactInfo& info =
        aug.graph.artifact(aug.graph.ordered_head(e)[0]);
    if (info.kind != ArtifactKind::kRaw) {
      names->push_back(info.name);
    }
  }
}

std::set<std::string> MaterializedNames(const History& history) {
  std::set<std::string> names;
  for (NodeId v : history.MaterializedArtifacts()) {
    names.insert(history.graph().artifact(v).name);
  }
  return names;
}

}  // namespace

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
  return generator.Optimize(aug, options);
}

Runtime::Replanner Method::MakeReplanner() {
  return [this](const Augmentation& aug) { return ReplanAugmentation(aug); };
}

Result<Method::Outcome> Method::Run(const Pipeline& pipeline,
                                    const CommitHook& on_commit) {
  HYPPO_RETURN_NOT_OK(runtime_->session_status());
  Outcome outcome;
  std::vector<std::string> loaded;
  Result<Planned> planned = [&] {
    const auto lock = runtime_->LockCatalogShared();
    Result<Planned> p = PlanPipeline(pipeline);
    if (p.ok()) {
      outcome.baseline_seconds = BaselineSeconds(*runtime_, pipeline);
      AppendLoadedNames(p->aug, p->plan, &loaded);
    }
    return p;
  }();
  HYPPO_RETURN_NOT_OK(planned.status());
  HYPPO_ASSIGN_OR_RETURN(
      outcome.record,
      runtime_->ExecuteAndRecord(pipeline, planned->aug, planned->plan,
                                 MakeReplanner()));
  const auto materialize = [&] {
    return AfterExecution(pipeline, *planned, outcome.record);
  };
  HYPPO_ASSIGN_OR_RETURN(outcome.stored,
                         Commit(materialize, loaded, on_commit));
  outcome.plan = std::move(planned->plan);
  outcome.optimize_seconds = planned->optimize_seconds;
  return outcome;
}

Result<Method::BatchOutcome> Method::RunBatch(
    const std::vector<Pipeline>& pipelines, const CommitHook& on_commit) {
  HYPPO_RETURN_NOT_OK(runtime_->session_status());
  BatchOutcome batch;
  std::vector<std::string> loaded;
  Result<BatchPlanner::Planned> planned =
      Status::NotImplemented("a batch needs at least two members");
  if (pipelines.size() >= 2) {
    const auto lock = runtime_->LockCatalogShared();
    planned = PlanPipelineBatch(pipelines);
    if (planned.ok()) {
      batch.members.resize(pipelines.size());
      for (size_t i = 0; i < pipelines.size(); ++i) {
        batch.members[i].baseline_seconds =
            BaselineSeconds(*runtime_, pipelines[i]);
        AppendLoadedNames(planned->merged, planned->members[i].plan,
                          &loaded);
      }
    }
  }
  if (!planned.ok()) {
    if (!planned.status().IsNotImplemented()) {
      return planned.status();
    }
    for (const Pipeline& pipeline : pipelines) {
      HYPPO_ASSIGN_OR_RETURN(Outcome outcome, Run(pipeline, on_commit));
      batch.optimize_seconds += outcome.optimize_seconds;
      batch.stored.insert(batch.stored.end(), outcome.stored.begin(),
                          outcome.stored.end());
      batch.members.push_back(std::move(outcome));
    }
    return batch;
  }
  HYPPO_ASSIGN_OR_RETURN(
      Runtime::BatchExecutionRecord record,
      runtime_->RunBatch(pipelines, planned->merged, planned->members,
                         MakeReplanner()));
  const auto materialize = [&] {
    return AfterBatchExecution(pipelines, *planned, record);
  };
  HYPPO_ASSIGN_OR_RETURN(batch.stored,
                         Commit(materialize, loaded, on_commit));
  batch.batched = true;
  batch.optimize_seconds = planned->optimize_seconds;
  batch.merged_tasks = planned->stats.merged_tasks;
  batch.shared_prefix_skips = record.shared_prefix_skips;
  const double amortized =
      planned->optimize_seconds / static_cast<double>(pipelines.size());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    Outcome& member = batch.members[i];
    member.plan = std::move(planned->members[i].plan);
    member.record = std::move(record.members[i]);
    member.optimize_seconds = amortized;
  }
  return batch;
}

Result<std::vector<std::string>> Method::Commit(
    const std::function<Status()>& materialize,
    const std::vector<std::string>& loaded, const CommitHook& on_commit) {
  const auto lock = runtime_->LockCatalog();
  const std::set<std::string> before = MaterializedNames(runtime_->history());
  HYPPO_RETURN_NOT_OK(materialize());
  const std::set<std::string> after = MaterializedNames(runtime_->history());
  std::vector<std::string> stored;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(stored));
  if (on_commit) {
    on_commit(loaded, stored);
  }
  // Durable sessions persist the history after every commit: the payloads
  // are already on disk, and the appended log frame makes them reloadable.
  HYPPO_RETURN_NOT_OK(runtime_->PersistSession());
  return stored;
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
}

Result<Plan> HyppoMethod::ReplanAugmentation(const Augmentation& aug) {
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
  return search;
}

Result<Method::Planned> HyppoMethod::PlanAugmentation(
    Augmentation aug, const Stopwatch& stopwatch) {
  HYPPO_ASSIGN_OR_RETURN(Plan plan, ReplanAugmentation(aug));
  Planned planned;
  planned.aug = std::move(aug);
  planned.plan = std::move(plan);
  planned.optimize_seconds = stopwatch.Elapsed();
  return planned;
}

Result<Method::Planned> HyppoMethod::PlanPipeline(const Pipeline& pipeline) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(
      Augmentation aug,
      runtime_->augmenter().Augment(pipeline, runtime_->history(),
                                    options_.augment));
  return PlanAugmentation(std::move(aug), stopwatch);
}

Result<Method::Planned> HyppoMethod::PlanRetrieval(
    const std::vector<std::string>& artifact_names) {
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(
      Augmentation aug,
      runtime_->augmenter().AugmentForRetrieval(
          runtime_->history(), artifact_names, options_.augment));
  return PlanAugmentation(std::move(aug), stopwatch);
}

Result<BatchPlanner::Planned> HyppoMethod::PlanPipelineBatch(
    const std::vector<Pipeline>& pipelines) {
  HYPPO_ASSIGN_OR_RETURN(
      BatchPlanner::Planned planned,
      BatchPlanner::PlanBatch(pipelines, runtime_->history(),
                              runtime_->augmenter(), options_.augment,
                              MakeReplanner()));
  runtime_->monitor().RecordBatchMergedTasks(planned.stats.merged_tasks);
  runtime_->monitor().RecordBatchPlanSeconds(planned.optimize_seconds);
  return planned;
}

Status HyppoMethod::AfterBatchExecution(
    const std::vector<Pipeline>& /*pipelines*/,
    const BatchPlanner::Planned& /*planned*/,
    const Runtime::BatchExecutionRecord& record) {
  std::map<std::string, ArtifactPayload> available;
  for (const Runtime::ExecutionRecord& member : record.members) {
    available.insert(member.payloads_by_name.begin(),
                     member.payloads_by_name.end());
  }
  return Materialize(available);
}

Status HyppoMethod::AfterExecution(const Pipeline& /*pipeline*/,
                                   const Planned& /*planned*/,
                                   const Runtime::ExecutionRecord& record) {
  return Materialize(record.payloads_by_name);
}

Status HyppoMethod::Materialize(
    const std::map<std::string, ArtifactPayload>& available) {
  std::set<std::string> storable;
  for (const auto& [name, payload] : available) {
    storable.insert(storable.end(), name);
  }
  const Materializer::Decision decision = materializer_.Decide(
      runtime_->history(), storable, options_.materialization);
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

HyppoSystem::RunReport HyppoSystem::MakeReport(const Pipeline& pipeline,
                                               Method::Outcome outcome) {
  RunReport report;
  report.execute_seconds = outcome.record.seconds;
  report.optimize_seconds = outcome.optimize_seconds;
  report.baseline_seconds = outcome.baseline_seconds;
  report.tasks_executed = static_cast<int32_t>(outcome.plan.edges.size());
  report.plan = std::move(outcome.plan);
  for (NodeId t : pipeline.targets) {
    const std::string& name = pipeline.graph.artifact(t).name;
    const auto it = outcome.record.payloads_by_name.find(name);
    if (it != outcome.record.payloads_by_name.end()) {
      report.target_payloads.emplace(name, it->second);
    }
  }
  return report;
}

Result<HyppoSystem::RunReport> HyppoSystem::RunPipeline(
    const Pipeline& pipeline) {
  HYPPO_ASSIGN_OR_RETURN(Method::Outcome outcome, method_->Run(pipeline));
  return MakeReport(pipeline, std::move(outcome));
}

Result<HyppoSystem::BatchRunReport> HyppoSystem::RunBatch(
    const std::vector<Pipeline>& pipelines) {
  HYPPO_ASSIGN_OR_RETURN(Method::BatchOutcome outcome,
                         method_->RunBatch(pipelines));
  BatchRunReport batch;
  batch.optimize_seconds = outcome.optimize_seconds;
  batch.merged_tasks = outcome.merged_tasks;
  batch.shared_prefix_skips = outcome.shared_prefix_skips;
  batch.batched = outcome.batched;
  batch.reports.reserve(pipelines.size());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    RunReport report = MakeReport(pipelines[i], std::move(outcome.members[i]));
    batch.execute_seconds += report.execute_seconds;
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
