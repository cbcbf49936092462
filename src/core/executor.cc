#include "core/executor.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <variant>

#include "common/thread_pool.h"
#include "core/derive.h"
#include "hypergraph/algorithms.h"
#include "ml/ops/tree_builder.h"

namespace hyppo::core {

namespace {

// Splits input payloads by kind in declaration order.
Result<ml::TaskInputs> BindInputs(
    const PipelineGraph& graph, EdgeId edge,
    const std::map<NodeId, ArtifactPayload>& payloads) {
  ml::TaskInputs inputs;
  for (NodeId in : graph.ordered_tail(edge)) {
    if (in == graph.source()) {
      continue;
    }
    auto it = payloads.find(in);
    if (it == payloads.end()) {
      return Status::Internal("input artifact '" +
                              graph.artifact(in).display +
                              "' has no payload; plan order is broken");
    }
    const ArtifactPayload& payload = it->second;
    if (const auto* dataset = std::get_if<ml::DatasetPtr>(&payload)) {
      inputs.datasets.push_back(*dataset);
    } else if (const auto* state = std::get_if<ml::OpStatePtr>(&payload)) {
      inputs.states.push_back(*state);
    } else if (const auto* preds =
                   std::get_if<ml::PredictionsPtr>(&payload)) {
      inputs.predictions.push_back(*preds);
    } else {
      return Status::Internal("unsupported input payload kind for task " +
                              graph.task(edge).logical_op);
    }
  }
  return inputs;
}

// Primary data shape of a task's inputs, for monitoring.
void InputShape(const PipelineGraph& graph, EdgeId edge, int64_t* rows,
                int64_t* cols) {
  *rows = 1;
  *cols = 1;
  for (NodeId in : graph.ordered_tail(edge)) {
    const ArtifactInfo& a = graph.artifact(in);
    if (a.kind != ArtifactKind::kOpState && a.kind != ArtifactKind::kSource) {
      *rows = a.rows;
      *cols = a.cols;
      return;
    }
  }
}

// Every head node already has a payload (recovered from a prior attempt).
bool AllHeadsPresent(const std::map<NodeId, ArtifactPayload>& payloads,
                     const std::vector<NodeId>& heads) {
  for (NodeId head : heads) {
    if (payloads.count(head) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

Executor::Executor(storage::ArtifactStore* store, DatasetResolver resolver,
                   Monitor* monitor, int parallelism,
                   const ml::OperatorRegistry* registry)
    : store_(store),
      resolver_(std::move(resolver)),
      monitor_(monitor),
      parallelism_(parallelism),
      registry_(registry) {}

Executor::~Executor() = default;

ThreadPool* Executor::Pool() const {
  if (parallelism_ <= 1) {
    return nullptr;
  }
  std::call_once(pool_once_, [this]() {
    pool_ = std::make_unique<ThreadPool>(parallelism_ - 1);
  });
  return pool_.get();
}

Result<double> Executor::RunLoadTask(
    const PipelineGraph& graph, EdgeId edge,
    std::map<NodeId, ArtifactPayload>* outputs, const Options& options,
    double* slow_multiplier) const {
  const NodeId head = graph.ordered_head(edge)[0];
  const ArtifactInfo& artifact = graph.artifact(head);
  const bool raw = artifact.kind == ArtifactKind::kRaw;
  if (raw && !options.simulate && !resolver_) {
    return Status::FailedPrecondition(
        "no dataset resolver registered for raw load of '" +
        artifact.display + "'");
  }
  // Simulated loads touch neither the store nor the resolver: a scalar
  // stands in for the payload.
  const auto load = [&]() -> Result<ArtifactPayload> {
    if (options.simulate) {
      return ArtifactPayload(0.0);
    }
    if (!raw) {
      return store_->Get(artifact.name);
    }
    HYPPO_ASSIGN_OR_RETURN(ml::DatasetPtr dataset, resolver_(artifact.display));
    return ArtifactPayload(std::move(dataset));
  };
  const std::string& key = raw ? artifact.display : artifact.name;
  const storage::FaultInjector::Decision fault =
      options.fault_injector == nullptr
          ? storage::FaultInjector::Decision{}
          : options.fault_injector->Decide(
                raw ? storage::FaultSite::kResolver
                    : storage::FaultSite::kStoreLoad,
                key);
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(ArtifactPayload payload,
                         storage::ApplyLoadFault(fault, key, load));
  const double seconds = stopwatch.Elapsed();
  // A load must hold data; an empty payload means the store entry rotted
  // (or an injected fault corrupted it).
  if (std::holds_alternative<std::monostate>(payload)) {
    return Status::IoError("corrupted payload for artifact '" +
                           artifact.display + "'");
  }
  (*outputs)[head] = options.simulate ? ArtifactPayload(std::monostate{})
                                      : std::move(payload);
  *slow_multiplier = fault.slow_multiplier;
  return seconds;
}

Result<double> Executor::RunComputeTask(
    const PipelineGraph& graph, EdgeId edge,
    const std::map<NodeId, ArtifactPayload>& inputs,
    std::map<NodeId, ArtifactPayload>* outputs) const {
  const TaskInfo& task = graph.task(edge);
  HYPPO_ASSIGN_OR_RETURN(const ml::PhysicalOperator* op,
                         registry_->Get(task.impl));
  HYPPO_ASSIGN_OR_RETURN(ml::MlTask ml_task, ToMlTask(task.type));
  HYPPO_ASSIGN_OR_RETURN(ml::TaskInputs bound,
                         BindInputs(graph, edge, inputs));
  bound.pool = Pool();
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(ml::TaskOutputs produced,
                         op->Execute(ml_task, bound, task.config));
  const double seconds = stopwatch.Elapsed();
  // Bind outputs to head nodes: flattened in (datasets, states,
  // predictions, values) order, which matches head declaration order for
  // every operator in the catalog (each task type emits one kind).
  std::vector<ArtifactPayload> flat;
  for (auto& dataset : produced.datasets) {
    flat.emplace_back(std::move(dataset));
  }
  for (auto& state : produced.states) {
    flat.emplace_back(std::move(state));
  }
  for (auto& preds : produced.predictions) {
    flat.emplace_back(std::move(preds));
  }
  for (double value : produced.values) {
    flat.emplace_back(value);
  }
  const std::vector<NodeId>& heads = graph.ordered_head(edge);
  if (flat.size() != heads.size()) {
    return Status::Internal(
        task.impl + "." + TaskTypeToString(task.type) + " produced " +
        std::to_string(flat.size()) + " outputs for " +
        std::to_string(heads.size()) + " declared artifacts");
  }
  for (size_t i = 0; i < heads.size(); ++i) {
    (*outputs)[heads[i]] = std::move(flat[i]);
  }
  return seconds;
}

Result<double> Executor::RunDeriveTask(
    const PipelineGraph& graph, EdgeId edge,
    const std::map<NodeId, ArtifactPayload>& inputs,
    std::map<NodeId, ArtifactPayload>* outputs) const {
  const TaskInfo& task = graph.task(edge);
  const NodeId from = graph.ordered_tail(edge)[0];
  const auto it = inputs.find(from);
  const ml::OpStatePtr* state =
      it == inputs.end() ? nullptr : std::get_if<ml::OpStatePtr>(&it->second);
  if (state == nullptr || *state == nullptr) {
    return Status::Internal("derive input '" + graph.artifact(from).display +
                            "' holds no op-state; plan order is broken");
  }
  int32_t depth = 0;
  if (!DeriveDepth(task, &depth)) {
    return Status::InvalidArgument(task.logical_op +
                                   ".derive: config sets no max_depth");
  }
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(ml::OpStatePtr derived,
                         ml::CutModelAtDepth(**state, depth));
  const double seconds = stopwatch.Elapsed();
  (*outputs)[graph.ordered_head(edge)[0]] = std::move(derived);
  return seconds;
}

Result<double> Executor::RunPredictDepthsTask(
    const PipelineGraph& graph, EdgeId edge,
    const std::map<NodeId, ArtifactPayload>& inputs,
    std::map<NodeId, ArtifactPayload>* outputs) const {
  const TaskInfo& task = graph.task(edge);
  HYPPO_ASSIGN_OR_RETURN(ml::TaskInputs bound,
                         BindInputs(graph, edge, inputs));
  if (bound.states.size() != 1 || bound.datasets.size() != 1) {
    return Status::Internal(task.logical_op +
                            ".predict_depths expects one op-state and one "
                            "dataset");
  }
  std::vector<int32_t> depths;
  const std::vector<NodeId>& heads = graph.ordered_head(edge);
  if (!PredictDepths(task, &depths) || depths.size() != heads.size()) {
    return Status::InvalidArgument(
        task.logical_op + ".predict_depths: config lists no max_depth per "
                          "head");
  }
  WallClock clock;
  Stopwatch stopwatch(clock);
  HYPPO_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> predictions,
      ml::PredictAtDepths(*bound.states[0], *bound.datasets[0], depths));
  const double seconds = stopwatch.Elapsed();
  for (size_t i = 0; i < heads.size(); ++i) {
    (*outputs)[heads[i]] = ml::PredictionsPtr(
        std::make_shared<const std::vector<double>>(
            std::move(predictions[i])));
  }
  return seconds;
}

Result<double> Executor::RunTask(
    const Augmentation& aug, EdgeId edge,
    const std::map<NodeId, ArtifactPayload>& inputs,
    std::map<NodeId, ArtifactPayload>* outputs, const Options& options) const {
  const PipelineGraph& graph = aug.graph;
  const TaskInfo& task = graph.task(edge);
  // `seconds` is the task's measured wall time (0 when simulated).
  double seconds = 0.0;
  double slow_multiplier = 1.0;
  if (task.type == TaskType::kLoad) {
    HYPPO_ASSIGN_OR_RETURN(
        seconds,
        RunLoadTask(graph, edge, outputs, options, &slow_multiplier));
  } else if (options.fault_injector != nullptr &&
             options.fault_injector
                     ->Decide(storage::FaultSite::kCompute,
                              graph.TaskSignature(edge))
                     .kind != storage::FaultKind::kNone) {
    return Status::Internal("injected fault: operator " + task.impl + "." +
                            TaskTypeToString(task.type) + " failed");
  } else if (options.simulate) {
    for (NodeId head : graph.ordered_head(edge)) {
      (*outputs)[head] = std::monostate{};
    }
  } else if (task.type == TaskType::kDerive) {
    HYPPO_ASSIGN_OR_RETURN(seconds,
                           RunDeriveTask(graph, edge, inputs, outputs));
  } else if (task.type == TaskType::kPredictDepths) {
    HYPPO_ASSIGN_OR_RETURN(
        seconds, RunPredictDepthsTask(graph, edge, inputs, outputs));
  } else {
    HYPPO_ASSIGN_OR_RETURN(seconds,
                           RunComputeTask(graph, edge, inputs, outputs));
  }
  // The one charging rule, for loads and operators alike: simulated runs
  // and charge_estimates runs charge the augmentation's estimate, real
  // runs the measured time. A slow-load fault scales the charge.
  const bool estimated = options.simulate || options.charge_estimates;
  return slow_multiplier *
         (estimated ? aug.edge_seconds[static_cast<size_t>(edge)] : seconds);
}

Result<Executor::ExecutionResult> Executor::Execute(
    const Augmentation& aug, const Plan& plan,
    const Options& options) const {
  if (options.verify_plans) {
    HYPPO_RETURN_NOT_OK(VerifyPlanStructure(aug, aug.targets, plan));
  }
  const PipelineGraph& graph = aug.graph;
  const Hypergraph& hg = graph.hypergraph();
  // Reject an inexecutable plan before running any of it.
  HYPPO_RETURN_NOT_OK(
      BTopologicalEdgeOrder(hg, plan.edges, {graph.source()}).status());

  std::vector<bool> in_plan(static_cast<size_t>(hg.num_edge_slots()), false);
  std::vector<int32_t> missing_tail(static_cast<size_t>(hg.num_edge_slots()),
                                    0);
  for (EdgeId e : plan.edges) {
    in_plan[static_cast<size_t>(e)] = true;
    missing_tail[static_cast<size_t>(e)] =
        static_cast<int32_t>(hg.edge(e).tail.size());
  }
  std::vector<bool> available(static_cast<size_t>(hg.num_nodes()), false);
  std::vector<bool> fired(static_cast<size_t>(hg.num_edge_slots()), false);
  std::deque<EdgeId> ready;
  auto mark_available = [&](NodeId node) {
    if (available[static_cast<size_t>(node)]) {
      return;
    }
    available[static_cast<size_t>(node)] = true;
    for (EdgeId e : hg.fstar(node)) {
      if (in_plan[static_cast<size_t>(e)] &&
          --missing_tail[static_cast<size_t>(e)] == 0) {
        ready.push_back(e);
      }
    }
  };

  ExecutionResult result;
  if (options.seed_payloads != nullptr) {
    result.payloads = *options.seed_payloads;
  }
  mark_available(graph.source());
  // Recovered payloads satisfy consumers even when their producing task
  // is starved this attempt.
  for (const auto& [node, payload] : result.payloads) {
    mark_available(node);
  }
  for (EdgeId e : plan.edges) {
    if (hg.edge(e).tail.empty() && !fired[static_cast<size_t>(e)]) {
      ready.push_back(e);
    }
  }

  // Simulated tasks only charge estimates, so simulation needs no threads.
  ThreadPool* pool = options.simulate ? nullptr : Pool();
  struct WaveOutcome {
    EdgeId edge = kInvalidEdge;
    Result<double> seconds = Status::Internal("not run");
    std::map<NodeId, ArtifactPayload> outputs;
  };
  while (!ready.empty()) {
    // One wave: everything currently ready runs concurrently against the
    // frozen payload map; outputs merge afterwards.
    std::vector<EdgeId> candidates(ready.begin(), ready.end());
    ready.clear();
    std::vector<EdgeId> wave;
    wave.reserve(candidates.size());
    for (EdgeId e : candidates) {
      if (fired[static_cast<size_t>(e)]) {
        continue;
      }
      fired[static_cast<size_t>(e)] = true;
      if (options.seed_payloads != nullptr &&
          AllHeadsPresent(result.payloads, graph.ordered_head(e))) {
        ++result.reused_tasks;
        for (NodeId head : graph.ordered_head(e)) {
          mark_available(head);
        }
        continue;
      }
      wave.push_back(e);
    }
    if (wave.empty()) {
      continue;
    }
    std::vector<WaveOutcome> outcomes(wave.size());
    for (size_t i = 0; i < wave.size(); ++i) {
      outcomes[i].edge = wave[i];
    }
    const auto run = [&](int64_t i) {
      WaveOutcome& outcome = outcomes[static_cast<size_t>(i)];
      outcome.seconds = RunTask(aug, outcome.edge, result.payloads,
                                &outcome.outputs, options);
    };
    // Without a pool the wave runs inline. A width-1 wave runs on this
    // thread either way, leaving every worker free for the operator's own
    // fan-out.
    if (pool == nullptr) {
      for (size_t i = 0; i < outcomes.size(); ++i) {
        run(static_cast<int64_t>(i));
      }
    } else {
      pool->ParallelFor(static_cast<int64_t>(outcomes.size()), run);
    }
    double wave_max = 0.0;
    for (WaveOutcome& outcome : outcomes) {
      if (!outcome.seconds.ok()) {
        // The task died; its heads stay unavailable so dependants starve
        // into skipped_edges instead of running on garbage.
        result.failures.push_back(
            TaskFailure{outcome.edge, outcome.seconds.status()});
        continue;
      }
      const double seconds = *outcome.seconds;
      result.total_seconds += seconds;
      wave_max = std::max(wave_max, seconds);
      result.task_runs.push_back(TaskRun{outcome.edge, seconds});
      if (monitor_ != nullptr) {
        int64_t rows = 1;
        int64_t cols = 1;
        InputShape(graph, outcome.edge, &rows, &cols);
        monitor_->RecordTask(graph.task(outcome.edge).impl,
                             graph.task(outcome.edge).type, rows, cols,
                             seconds);
      }
      for (auto& [node, payload] : outcome.outputs) {
        result.payloads[node] = std::move(payload);
      }
      for (NodeId head : graph.ordered_head(outcome.edge)) {
        mark_available(head);
      }
    }
    result.critical_path_seconds += wave_max;
  }
  // Plan edges that never became ready were starved by a failure (or
  // fully covered by recovered payloads).
  for (EdgeId e : plan.edges) {
    if (fired[static_cast<size_t>(e)]) {
      continue;
    }
    if (options.seed_payloads != nullptr &&
        AllHeadsPresent(result.payloads, graph.ordered_head(e))) {
      ++result.reused_tasks;
    } else {
      result.skipped_edges.push_back(e);
    }
  }
  return result;
}

}  // namespace hyppo::core
