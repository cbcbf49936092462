#include "workload/scenario.h"

#include <algorithm>
#include <functional>
#include <set>

#include "analysis/verifier.h"
#include "baselines/collab.h"
#include "baselines/helix.h"
#include "baselines/no_optimization.h"
#include "baselines/sharing.h"
#include "core/hyppo.h"
#include "serving/session_manager.h"
#include "storage/fault_injection.h"

namespace hyppo::workload {

namespace {

// What every scenario runtime is built from, whether one method drives it
// alone (MakeRuntime) or a SessionManager shares it (DriveSessions).
struct RuntimeSetup {
  core::RuntimeOptions options;
  /// Seed of the fault plan: the configured one, or the scenario seed.
  uint64_t fault_seed = 0;
  std::string dataset_id;
  std::function<Result<ml::DatasetPtr>()> dataset;
};

RuntimeSetup SetUpRuntime(const UseCase& use_case, double multiplier,
                          double budget_factor, bool simulate, uint64_t seed,
                          bool verify, int parallelism, uint64_t fault_seed,
                          const std::string& store_dir) {
  RuntimeSetup setup;
  // The storage budget is a fraction of the use case's dataset bytes.
  const int64_t dataset_bytes =
      use_case.RowsAt(multiplier) * (use_case.paper_cols + 1) * 8;
  setup.options.storage_budget_bytes = static_cast<int64_t>(
      static_cast<double>(dataset_bytes) * budget_factor);
  setup.options.simulate = simulate;
  setup.options.verify_plans = verify;
  setup.options.parallelism = parallelism <= 0
                                  ? core::RuntimeOptions::DefaultParallelism()
                                  : parallelism;
  setup.options.store_dir = store_dir;
  setup.fault_seed = fault_seed != 0 ? fault_seed : seed;
  setup.dataset_id = use_case.DatasetId(multiplier);
  setup.dataset = [use_case, multiplier, seed]() -> Result<ml::DatasetPtr> {
    return GenerateUseCase(use_case, multiplier, seed);
  };
  return setup;
}

Result<std::unique_ptr<core::Runtime>> MakeRuntime(
    const UseCase& use_case, double multiplier, double budget_factor,
    bool simulate, uint64_t seed, bool verify, int parallelism,
    double fault_rate = 0.0, uint64_t fault_seed = 0,
    const std::string& store_dir = "") {
  const RuntimeSetup setup =
      SetUpRuntime(use_case, multiplier, budget_factor, simulate, seed,
                   verify, parallelism, fault_seed, store_dir);
  auto runtime = std::make_unique<core::Runtime>(setup.options);
  // A durable session that failed to open (unwritable or locked
  // directory) must fail the scenario up front, not at the first
  // materialization.
  HYPPO_RETURN_NOT_OK(runtime->session_status());
  runtime->RegisterDatasetGenerator(setup.dataset_id, setup.dataset);
  if (fault_rate > 0.0) {
    runtime->EnableFaultInjection(
        storage::FaultPlan::Uniform(setup.fault_seed, fault_rate));
  }
  return runtime;
}

// Copies the runtime's self-healing telemetry into a sequence result.
void CollectRecoveryStats(const core::Runtime& runtime,
                          SequenceResult* result) {
  const core::Monitor& monitor = runtime.monitor();
  result->failed_tasks = monitor.num_task_failures();
  result->injected_faults = monitor.num_injected_faults();
  result->reuse_loads = monitor.num_reuse_loads();
  result->cross_session_loads = monitor.num_cross_session_loads();
}

// End-of-run invariant audit: the history the scenario grew (plus the
// materializer's storage decisions) must verify clean, including a
// serialization round-trip and the storage-budget bound.
Status VerifyRuntimeHistory(const core::Runtime& runtime) {
  if (!runtime.options().verify_plans) {
    return Status::OK();
  }
  const analysis::Verifier verifier;
  analysis::AnalysisReport report = verifier.VerifyHistory(
      runtime.history(), &runtime.dictionary(),
      runtime.options().storage_budget_bytes);
  // Store <-> history consistency: every materialized artifact is backed
  // by a store entry of matching charged size, and vice versa.
  report.Merge(
      verifier.CheckStoreConsistency(runtime.history(), runtime.store()));
  if (!report.ok()) {
    return Status::Internal("history verification failed (" +
                            report.Summary() + "):\n" + report.ToString());
  }
  return Status::OK();
}

Result<SequenceResult> DrivePipelines(
    core::Method& method, core::Runtime& runtime,
    const std::vector<core::Pipeline>& pipelines) {
  SequenceResult result;
  result.method = method.name();
  result.budget_bytes = runtime.options().storage_budget_bytes;
  for (const core::Pipeline& pipeline : pipelines) {
    HYPPO_ASSIGN_OR_RETURN(const core::Method::Outcome outcome,
                           method.Run(pipeline));
    result.per_pipeline_seconds.push_back(outcome.record.seconds);
    result.cumulative_seconds += outcome.record.seconds;
    result.optimize_seconds += outcome.optimize_seconds;
    result.cumulative_after.push_back(result.cumulative_seconds);
  }
  result.price_eur = runtime.options().pricing.ExperimentPrice(
      result.cumulative_seconds, result.budget_bytes);
  result.stored_artifacts =
      static_cast<int64_t>(runtime.history().MaterializedArtifacts().size());
  result.history_artifacts = runtime.history().num_artifacts();
  CollectRecoveryStats(runtime, &result);
  HYPPO_RETURN_NOT_OK(VerifyRuntimeHistory(runtime));
  return result;
}

// Multi-session variant of DrivePipelines: the sequence is partitioned
// round-robin across `config.sessions` concurrent sessions of one
// serving::SessionManager, so later pipelines load artifacts earlier
// sessions materialized (cross-session reuse).
Result<SequenceResult> DriveSessions(const MethodFactory& factory,
                                     const ScenarioConfig& config,
                                     std::vector<core::Pipeline> pipelines) {
  const int num_sessions = config.sessions;
  const RuntimeSetup setup = SetUpRuntime(
      config.use_case, config.dataset_multiplier, config.budget_factor,
      config.simulate, config.seed, config.verify, config.parallelism,
      config.fault_seed, config.store_dir);
  serving::ServingOptions options;
  options.runtime = setup.options;
  options.make_method = factory;
  options.max_in_flight_sessions = num_sessions;
  options.fault_rate = config.fault_rate;
  options.fault_seed = setup.fault_seed;
  serving::SessionManager manager(options);
  HYPPO_RETURN_NOT_OK(manager.session_status());
  manager.runtime().RegisterDatasetGenerator(setup.dataset_id,
                                             setup.dataset);

  std::vector<serving::SessionRequest> requests(
      static_cast<size_t>(num_sessions));
  for (int s = 0; s < num_sessions; ++s) {
    requests[static_cast<size_t>(s)].session_id =
        "session-" + std::to_string(s);
  }
  for (size_t i = 0; i < pipelines.size(); ++i) {
    requests[i % static_cast<size_t>(num_sessions)].pipelines.push_back(
        std::move(pipelines[i]));
  }
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(requests);

  SequenceResult result;
  result.method = factory(&manager.runtime())->name();
  result.sessions = num_sessions;
  result.budget_bytes = manager.runtime().options().storage_budget_bytes;
  // Reassemble the per-pipeline latencies in original submission order
  // (session s holds original indices s, s + N, s + 2N, ...).
  size_t total_pipelines = 0;
  for (const serving::SessionRequest& request : requests) {
    total_pipelines += request.pipelines.size();
  }
  result.per_pipeline_seconds.assign(total_pipelines, 0.0);
  for (size_t s = 0; s < reports.size(); ++s) {
    const serving::SessionReport& report = reports[s];
    HYPPO_RETURN_NOT_OK(report.status);
    for (size_t k = 0; k < report.per_pipeline_seconds.size(); ++k) {
      const size_t original = k * static_cast<size_t>(num_sessions) + s;
      result.per_pipeline_seconds[original] = report.per_pipeline_seconds[k];
    }
    result.optimize_seconds += report.optimize_seconds;
  }
  for (double seconds : result.per_pipeline_seconds) {
    result.cumulative_seconds += seconds;
    result.cumulative_after.push_back(result.cumulative_seconds);
  }
  result.price_eur = manager.runtime().options().pricing.ExperimentPrice(
      result.cumulative_seconds, result.budget_bytes);
  result.stored_artifacts = static_cast<int64_t>(
      manager.runtime().history().MaterializedArtifacts().size());
  result.history_artifacts = manager.runtime().history().num_artifacts();
  CollectRecoveryStats(manager.runtime(), &result);
  HYPPO_RETURN_NOT_OK(VerifyRuntimeHistory(manager.runtime()));
  return result;
}

}  // namespace

MethodFactory MakeNoOptimizationFactory() {
  return [](core::Runtime* runtime) -> std::unique_ptr<core::Method> {
    return std::make_unique<baselines::NoOptimizationMethod>(runtime);
  };
}

MethodFactory MakeSharingFactory() {
  return [](core::Runtime* runtime) -> std::unique_ptr<core::Method> {
    return std::make_unique<baselines::SharingMethod>(runtime);
  };
}

MethodFactory MakeHelixFactory() {
  return [](core::Runtime* runtime) -> std::unique_ptr<core::Method> {
    return std::make_unique<baselines::HelixMethod>(runtime);
  };
}

MethodFactory MakeCollabFactory() {
  return [](core::Runtime* runtime) -> std::unique_ptr<core::Method> {
    return std::make_unique<baselines::CollabMethod>(runtime);
  };
}

MethodFactory MakeHyppoFactory() {
  return [](core::Runtime* runtime) -> std::unique_ptr<core::Method> {
    return std::make_unique<core::HyppoMethod>(runtime);
  };
}

Result<SequenceResult> RunIterativeScenario(const MethodFactory& factory,
                                            const ScenarioConfig& config) {
  // The same seed yields the same pipeline sequence for every method.
  PipelineGenerator generator(config.use_case, config.dataset_multiplier,
                              config.seed);
  std::vector<core::Pipeline> pipelines;
  pipelines.reserve(static_cast<size_t>(config.num_pipelines));
  for (int i = 0; i < config.num_pipelines; ++i) {
    HYPPO_ASSIGN_OR_RETURN(core::Pipeline pipeline, generator.Next());
    pipelines.push_back(std::move(pipeline));
  }
  if (config.sessions > 1) {
    return DriveSessions(factory, config, std::move(pipelines));
  }
  HYPPO_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Runtime> runtime,
      MakeRuntime(config.use_case, config.dataset_multiplier,
                  config.budget_factor, config.simulate, config.seed,
                  config.verify, config.parallelism, config.fault_rate,
                  config.fault_seed, config.store_dir));
  std::unique_ptr<core::Method> method = factory(runtime.get());
  return DrivePipelines(*method, *runtime, pipelines);
}

Result<RetrievalResult> RunRetrievalScenario(const MethodFactory& factory,
                                             const RetrievalConfig& config) {
  HYPPO_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Runtime> runtime,
      MakeRuntime(config.use_case, config.dataset_multiplier,
                  config.budget_factor, config.simulate, config.seed,
                  config.verify, config.parallelism, config.fault_rate,
                  config.fault_seed, config.store_dir));
  std::unique_ptr<core::Method> method = factory(runtime.get());
  PipelineGenerator generator(config.use_case, config.dataset_multiplier,
                              config.seed);
  // Build the steady-state history.
  for (int i = 0; i < config.history_pipelines; ++i) {
    HYPPO_ASSIGN_OR_RETURN(const core::Pipeline pipeline, generator.Next());
    HYPPO_RETURN_NOT_OK(method->Run(pipeline).status());
  }
  // Candidate artifacts for requests.
  const core::History& history = runtime->history();
  static const std::set<std::string> kModelOps = {
      "LinearSVM", "LogisticRegression", "RandomForestClassifier",
      "DecisionTreeClassifier", "Ridge", "Lasso", "LinearRegression",
      "DecisionTreeRegressor", "RandomForestRegressor",
      "GradientBoostingRegressor", "StackingRegressor", "VotingRegressor"};
  std::vector<std::string> candidates;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    const core::ArtifactInfo& info = history.graph().artifact(v);
    if (info.kind == core::ArtifactKind::kRaw ||
        info.kind == core::ArtifactKind::kSource) {
      continue;
    }
    if (config.models_only) {
      if (info.kind != core::ArtifactKind::kOpState) {
        continue;
      }
      // Model states only: look for a producing fit task of a model op.
      bool is_model = false;
      for (EdgeId e : history.graph().hypergraph().bstar(v)) {
        if (kModelOps.count(history.graph().task(e).logical_op) > 0) {
          is_model = true;
          break;
        }
      }
      if (!is_model) {
        continue;
      }
    }
    candidates.push_back(info.name);
  }
  if (candidates.empty()) {
    return Status::FailedPrecondition("no retrievable artifacts in history");
  }
  Rng rng(config.seed + 1);
  RetrievalResult result;
  result.method = method->name();
  for (int r = 0; r < config.num_requests; ++r) {
    std::set<std::string> request;
    for (int k = 0; k < config.request_size; ++k) {
      request.insert(candidates[rng.NextBelow(candidates.size())]);
    }
    std::vector<std::string> names(request.begin(), request.end());
    HYPPO_ASSIGN_OR_RETURN(core::Method::Planned planned,
                           method->PlanRetrieval(names));
    HYPPO_ASSIGN_OR_RETURN(
        core::Runtime::ExecutionRecord record,
        runtime->ExecutePlanOnly(planned.aug, planned.plan,
                                 method->MakeReplanner()));
    result.total_seconds += record.seconds;
    result.mean_optimize_seconds += planned.optimize_seconds;
  }
  result.mean_request_seconds =
      result.total_seconds / static_cast<double>(config.num_requests);
  result.mean_optimize_seconds /= static_cast<double>(config.num_requests);
  int64_t total = 0;
  int64_t stored = 0;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    const core::ArtifactInfo& info = history.graph().artifact(v);
    if (info.kind == core::ArtifactKind::kRaw ||
        info.kind == core::ArtifactKind::kSource) {
      continue;
    }
    ++total;
    if (history.IsMaterialized(v)) {
      ++stored;
    }
  }
  result.stored_fraction =
      total > 0 ? static_cast<double>(stored) / static_cast<double>(total)
                : 0.0;
  HYPPO_RETURN_NOT_OK(VerifyRuntimeHistory(*runtime));
  HYPPO_RETURN_NOT_OK(runtime->PersistSession());
  return result;
}

Result<SequenceResult> RunEnsembleScenario(const MethodFactory& factory,
                                           const EnsembleConfig& config) {
  const UseCase use_case = UseCase::Taxi();
  HYPPO_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Runtime> runtime,
      MakeRuntime(use_case, config.dataset_multiplier, config.budget_factor,
                  config.simulate, config.seed, config.verify,
                  config.parallelism, config.fault_rate, config.fault_seed,
                  config.store_dir));
  std::unique_ptr<core::Method> method = factory(runtime.get());
  PipelineGenerator generator(use_case, config.dataset_multiplier,
                              config.seed);
  // History of ordinary exploratory pipelines; remember their specs so
  // ensembles can extend them.
  for (int i = 0; i < config.history_pipelines; ++i) {
    HYPPO_ASSIGN_OR_RETURN(const core::Pipeline pipeline, generator.Next());
    HYPPO_RETURN_NOT_OK(method->Run(pipeline).status());
  }
  // Ensemble workloads: each picks a past preprocessing prefix, reuses its
  // model plus fresh variants, and stacks/votes them.
  Rng rng(config.seed + 7);
  std::vector<core::Pipeline> pipelines;
  const std::vector<PipelineSpec> history_specs = generator.history_specs();
  for (int i = 0; i < config.ensemble_pipelines; ++i) {
    const PipelineSpec& base =
        history_specs[rng.NextBelow(history_specs.size())];
    std::vector<StageSpec> models;
    models.push_back(base.model);
    const int extra = 1 + static_cast<int>(rng.NextBelow(2));
    // Prefer other models from history sharing the same preprocessing (the
    // "models trained in the past" of §V-B3); fall back to fresh variants.
    for (const PipelineSpec& other : history_specs) {
      if (static_cast<int>(models.size()) > extra &&
          models.size() >= 2) {
        break;
      }
      if (other.PrefixSignature() == base.PrefixSignature() &&
          other.model.Signature() != base.model.Signature()) {
        models.push_back(other.model);
      }
    }
    while (models.size() < 2 ||
           static_cast<int>(models.size()) < 1 + extra) {
      StageSpec fresh = generator.RandomModel();
      bool duplicate = false;
      for (const StageSpec& m : models) {
        if (m.Signature() == fresh.Signature()) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        models.push_back(fresh);
      }
    }
    const std::string ensemble_op =
        rng.Bernoulli(0.5) ? "StackingRegressor" : "VotingRegressor";
    HYPPO_ASSIGN_OR_RETURN(
        core::Pipeline pipeline,
        generator.BuildEnsemblePipeline(base, models, ensemble_op,
                                        "ens-" + std::to_string(i)));
    pipelines.push_back(std::move(pipeline));
  }
  return DrivePipelines(*method, *runtime, pipelines);
}

Result<TypeStudyResult> RunTypeStudy(const ScenarioConfig& config) {
  HYPPO_ASSIGN_OR_RETURN(
      std::unique_ptr<core::Runtime> runtime,
      MakeRuntime(config.use_case, config.dataset_multiplier,
                  config.budget_factor, config.simulate, config.seed,
                  config.verify, config.parallelism, 0.0, 0,
                  config.store_dir));
  core::HyppoMethod method(runtime.get());
  PipelineGenerator generator(config.use_case, config.dataset_multiplier,
                              config.seed);
  for (int i = 0; i < config.num_pipelines; ++i) {
    HYPPO_ASSIGN_OR_RETURN(const core::Pipeline pipeline, generator.Next());
    HYPPO_RETURN_NOT_OK(method.Run(pipeline).status());
  }
  TypeStudyResult result;
  result.budget_bytes = runtime->options().storage_budget_bytes;
  const core::History& history = runtime->history();
  // Stored fraction per artifact kind.
  std::map<core::ArtifactKind, std::pair<int64_t, int64_t>> stored_by_kind;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    const core::ArtifactInfo& info = history.graph().artifact(v);
    if (info.kind == core::ArtifactKind::kRaw ||
        info.kind == core::ArtifactKind::kSource) {
      continue;
    }
    auto& [stored, total] = stored_by_kind[info.kind];
    ++total;
    if (history.IsMaterialized(v)) {
      ++stored;
      result.stored_bytes += info.size_bytes;
    }
  }
  for (const auto& [kind, agg] : runtime->monitor().by_artifact_kind()) {
    TypeStudyRow row;
    row.label = core::ArtifactKindToString(kind);
    row.mean_seconds = agg.MeanSeconds();
    row.mean_bytes = agg.MeanBytes();
    row.count = agg.count;
    auto it = stored_by_kind.find(kind);
    if (it != stored_by_kind.end() && it->second.second > 0) {
      row.stored_fraction = static_cast<double>(it->second.first) /
                            static_cast<double>(it->second.second);
    }
    result.artifact_kinds.push_back(row);
  }
  for (const auto& [type, agg] : runtime->monitor().by_task_type()) {
    TypeStudyRow row;
    row.label = core::TaskTypeToString(type);
    row.mean_seconds = agg.MeanSeconds();
    row.count = agg.count;
    result.task_types.push_back(row);
  }
  result.storage_price_eur = runtime->options().pricing.ExperimentPrice(
      0.0, result.budget_bytes);
  HYPPO_RETURN_NOT_OK(VerifyRuntimeHistory(*runtime));
  return result;
}

}  // namespace hyppo::workload
