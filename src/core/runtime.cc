#include "core/runtime.h"

#include <algorithm>
#include <set>
#include <thread>

#include "analysis/static/static_analyzer.h"
#include "core/history_io.h"
#include "storage/disk_store.h"

namespace hyppo::core {

namespace {

// Member plans combined into one plan over their shared augmentation.
struct CombinedPlan {
  Plan plan;
  // The member that contributed each edge slot's edge (0 for edges no
  // member plan kept).
  std::vector<size_t> owner;
  // Member plan edges dropped because kept edges already produce all of
  // their heads.
  int64_t dropped = 0;
};

// Takes the members in order and each member's edges in plan order, and
// keeps an edge unless kept edges already produce every one of its heads.
// A lone plan runs as given.
CombinedPlan CombinePlans(
    const Augmentation& aug,
    const std::vector<BatchPlanner::MemberPlan>& members) {
  CombinedPlan combined;
  combined.owner.assign(
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots()), 0);
  if (members.size() == 1) {
    combined.plan = members.front().plan;
    return combined;
  }
  std::set<NodeId> produced;
  for (size_t m = 0; m < members.size(); ++m) {
    for (EdgeId e : members[m].plan.edges) {
      const std::vector<NodeId>& heads = aug.graph.ordered_head(e);
      if (std::all_of(heads.begin(), heads.end(), [&](NodeId h) {
            return produced.count(h) > 0;
          })) {
        ++combined.dropped;
        continue;
      }
      produced.insert(heads.begin(), heads.end());
      combined.plan.edges.push_back(e);
      combined.plan.cost += aug.edge_weight[static_cast<size_t>(e)];
      combined.plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
      combined.owner[static_cast<size_t>(e)] = m;
    }
  }
  return combined;
}

}  // namespace

int RuntimeOptions::DefaultParallelism() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

Runtime::Runtime(RuntimeOptions options, Dictionary dictionary)
    : options_(std::move(options)),
      dictionary_(std::move(dictionary)),
      estimator_(&ml::OperatorRegistry::Global()),
      monitor_(&estimator_),
      augmenter_(&dictionary_, &estimator_, options_.pricing) {
  augmenter_.set_monitor(&monitor_);
  if (options_.store_dir.empty()) {
    store_ = std::make_unique<storage::InMemoryArtifactStore>();
  } else {
    auto disk =
        std::make_unique<storage::DiskArtifactStore>(options_.store_dir);
    session_status_ = disk->init_status();
    store_ = std::move(disk);
    if (session_status_.ok()) {
      session_status_ = RestoreSession();
    }
  }
  executor_ = std::make_unique<Executor>(
      store_.get(),
      [this](const std::string& dataset_id) -> Result<ml::DatasetPtr> {
        std::lock_guard<std::mutex> lock(sources_mutex_);
        auto cached = resolved_sources_.find(dataset_id);
        if (cached != resolved_sources_.end()) {
          return cached->second;
        }
        auto it = sources_.find(dataset_id);
        if (it == sources_.end()) {
          return Status::NotFound("no registered dataset '" + dataset_id +
                                  "'");
        }
        HYPPO_ASSIGN_OR_RETURN(ml::DatasetPtr data, it->second());
        resolved_sources_.emplace(dataset_id, data);
        return data;
      },
      &monitor_, options_.parallelism);
}

void Runtime::RegisterDataset(const std::string& dataset_id,
                              ml::DatasetPtr data) {
  sources_[dataset_id] = [data]() -> Result<ml::DatasetPtr> { return data; };
}

void Runtime::RegisterDatasetGenerator(
    const std::string& dataset_id,
    std::function<Result<ml::DatasetPtr>()> generator) {
  sources_[dataset_id] = std::move(generator);
}

void Runtime::EnableFaultInjection(const storage::FaultPlan& plan) {
  fault_injector_ = std::make_unique<storage::FaultInjector>(plan);
}

Result<int64_t> Runtime::DegradeAfterFailures(
    const std::vector<Executor::TaskFailure>& failures, Augmentation* aug) {
  int64_t dropped = 0;
  for (const Executor::TaskFailure& failure : failures) {
    const TaskInfo& task = aug->graph.task(failure.edge);
    if (task.type != TaskType::kLoad) {
      continue;  // operator fault: transient, the retry re-runs it
    }
    const NodeId head = aug->graph.ordered_head(failure.edge)[0];
    const ArtifactInfo& artifact = aug->graph.artifact(head);
    if (artifact.kind == ArtifactKind::kRaw) {
      continue;  // resolver outage: transient, the source is not ours
    }
    // The materialized copy is dead: drop the load edge so no re-plan
    // trusts it, and purge the entry from the store and the history.
    HYPPO_RETURN_NOT_OK(aug->graph.RemoveTask(failure.edge));
    ++dropped;
    (void)store_->Evict(artifact.name);
    Result<NodeId> h_node = history_.graph().FindArtifact(artifact.name);
    if (h_node.ok()) {
      (void)history_.EvictMaterialized(*h_node);
    }
  }
  return dropped;
}

Result<Runtime::BatchExecutionRecord> Runtime::ExecuteInternal(
    const Augmentation& aug,
    const std::vector<BatchPlanner::MemberPlan>& members,
    const Replanner& replan) {
  Executor::Options exec_options;
  exec_options.simulate = options_.simulate;
  exec_options.verify_plans = options_.verify_plans;
  exec_options.fault_injector = fault_injector_.get();

  const int64_t faults_before =
      fault_injector_ ? fault_injector_->counters().total() : 0;

  // A run is charged to the member that contributed its edge; edges only
  // a recovery plan contains are charged to the first member, which also
  // carries the recovery counters.
  const CombinedPlan combined = CombinePlans(aug, members);
  BatchExecutionRecord batch;
  batch.members.resize(members.size());
  batch.shared_prefix_skips = combined.dropped;
  ExecutionRecord& lead = batch.members.front();
  std::vector<Executor::TaskRun> all_runs;
  std::map<NodeId, ArtifactPayload> surviving;

  // Attempt 0 runs the combined plan. On failures, recovery degrades a
  // copy of the augmentation (node/edge ids stay stable under edge
  // removal, so payloads and task runs keep referring to `aug`), re-plans
  // every member's targets, and re-executes the combined re-plan seeded
  // with every surviving payload.
  //
  // The bound counts re-plans since the last round that made progress: a
  // new surviving payload or a dropped dead load. Both are finite, so the
  // loop terminates, and a deep pipeline whose faults surface one layer
  // per round does not exhaust the bound.
  Augmentation degraded;
  std::vector<BatchPlanner::MemberPlan> replanned;
  const Augmentation* current_aug = &aug;
  Plan current_plan = combined.plan;
  int stalled_rounds = 0;
  for (int attempt = 0;; ++attempt) {
    HYPPO_ASSIGN_OR_RETURN(
        Executor::ExecutionResult result,
        executor_->Execute(*current_aug, current_plan, exec_options));
    for (const Executor::TaskRun& run : result.task_runs) {
      batch.members[combined.owner[static_cast<size_t>(run.edge)]].seconds +=
          run.seconds;
    }
    all_runs.insert(all_runs.end(), result.task_runs.begin(),
                    result.task_runs.end());
    const size_t known_payloads = surviving.size();
    for (auto& [node, payload] : result.payloads) {
      surviving[node] = std::move(payload);
    }
    if (surviving.size() > known_payloads) {
      stalled_rounds = 0;
    }
    if (attempt > 0) {
      monitor_.RecordRecoveredTasks(result.reused_tasks);
    }
    if (result.complete()) {
      break;
    }
    lead.failed_tasks += static_cast<int64_t>(result.failures.size());
    monitor_.RecordTaskFailures(static_cast<int64_t>(result.failures.size()));
    if (!replan || stalled_rounds >= options_.max_recovery_attempts) {
      if (!result.failures.empty()) {
        return result.failures.front().status;
      }
      return Status::Internal(
          "execution left " + std::to_string(result.skipped_edges.size()) +
          " tasks unexecuted with no failure to recover from");
    }
    if (attempt == 0) {
      degraded = aug;
      replanned = members;
      current_aug = &degraded;
    }
    {
      // Degradation purges rotten history/store entries: a catalog
      // mutation, serialized against concurrent sessions' planning.
      const auto commit = LockCatalog();
      HYPPO_ASSIGN_OR_RETURN(const int64_t dropped,
                             DegradeAfterFailures(result.failures, &degraded));
      stalled_rounds = dropped > 0 ? 0 : stalled_rounds + 1;
    }
    if (options_.verify_plans) {
      HYPPO_RETURN_NOT_OK(VerifyAugmentationStructure(degraded));
    }
    ++lead.replans;
    monitor_.RecordReplan();
    HYPPO_RETURN_NOT_OK(
        BatchPlanner::PlanMembers(replan, &degraded, &replanned));
    current_plan = CombinePlans(degraded, replanned).plan;
    exec_options.seed_payloads = &surviving;
  }
  if (fault_injector_) {
    monitor_.RecordInjectedFaults(fault_injector_->counters().total() -
                                  faults_before);
  }
  for (const ExecutionRecord& member : batch.members) {
    batch.seconds += member.seconds;
  }

  // Commit phase: everything below mutates the shared catalog (history
  // records + estimator feedback via the monitor already landed, clock,
  // compaction), so it runs under the writer lock while concurrent
  // sessions' planners wait on the reader side.
  const auto commit = LockCatalog();
  cumulative_seconds_.store(
      cumulative_seconds_.load(std::memory_order_relaxed) + batch.seconds,
      std::memory_order_relaxed);

  // Refresh artifact metadata with observed payload sizes, then record
  // artifacts, tasks, and durations into the history. Each member whose
  // plan touches an artifact accesses it once; the first member claims
  // the payloads no member plan touches (recovery-only derivations).
  const PipelineGraph& graph = aug.graph;
  std::vector<std::set<NodeId>> touched(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    for (EdgeId e : members[m].plan.edges) {
      touched[m].insert(graph.ordered_tail(e).begin(),
                        graph.ordered_tail(e).end());
      touched[m].insert(graph.ordered_head(e).begin(),
                        graph.ordered_head(e).end());
    }
  }
  std::map<NodeId, NodeId> to_history;
  for (const auto& [node, payload] : surviving) {
    ArtifactInfo info = graph.artifact(node);
    const int64_t observed = storage::PayloadSizeBytes(payload);
    if (observed > 0) {
      info.size_bytes = observed;
      if (const auto* dataset = std::get_if<ml::DatasetPtr>(&payload)) {
        info.rows = (*dataset)->rows();
        info.cols = (*dataset)->cols();
      }
    }
    const NodeId h_node = history_.Observe(info);
    to_history[node] = h_node;
    if (info.kind == ArtifactKind::kRaw) {
      HYPPO_RETURN_NOT_OK(history_.RegisterSourceData(h_node).status());
    }
    bool claimed = false;
    for (size_t m = 0; m < members.size(); ++m) {
      if (touched[m].count(node) > 0) {
        history_.RecordAccess(h_node, now_seconds());
        batch.members[m].payloads_by_name[info.name] = payload;
        claimed = true;
      }
    }
    if (!claimed) {
      history_.RecordAccess(h_node, now_seconds());
      lead.payloads_by_name[info.name] = payload;
    }
  }
  for (const Executor::TaskRun& run : all_runs) {
    const TaskInfo& task = graph.task(run.edge);
    if (task.type == TaskType::kLoad) {
      continue;  // load edges are managed by materialization state
    }
    std::vector<NodeId> tails;
    for (NodeId t : graph.ordered_tail(run.edge)) {
      if (t == graph.source()) {
        continue;
      }
      auto it = to_history.find(t);
      if (it == to_history.end()) {
        to_history[t] = history_.Observe(graph.artifact(t));
        it = to_history.find(t);
      }
      tails.push_back(it->second);
    }
    std::vector<NodeId> heads;
    for (NodeId h : graph.ordered_head(run.edge)) {
      auto it = to_history.find(h);
      if (it == to_history.end()) {
        to_history[h] = history_.Observe(graph.artifact(h));
        it = to_history.find(h);
      }
      heads.push_back(it->second);
      history_.RecordComputeSeconds(it->second, run.seconds);
      const ArtifactInfo& produced = history_.graph().artifact(it->second);
      monitor_.RecordArtifact(produced.kind, produced.size_bytes,
                              run.seconds);
    }
    HYPPO_RETURN_NOT_OK(
        history_.ObserveTask(task, tails, heads, run.seconds).status());
  }

  // Bound history growth: compaction runs after all of this execution's
  // observations landed, so the Pareto criteria see fresh access times and
  // durations. The materializer only consumes canonical names (never node
  // ids) after this returns, so rebuilding the history here is safe.
  if (options_.history_max_artifacts > 0 &&
      history_.num_artifacts() > options_.history_max_artifacts) {
    History::CompactionOptions copts;
    copts.max_nodes = options_.history_max_artifacts;
    HYPPO_ASSIGN_OR_RETURN(History::CompactionStats cstats,
                           history_.Compact(copts));
    monitor_.RecordHistoryCompacted(cstats.nodes_dropped);
  }
  return batch;
}

Status Runtime::RecordPipelineStructure(const Pipeline& pipeline) {
  const PipelineGraph& graph = pipeline.graph;
  std::map<NodeId, NodeId> to_history;
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    const ArtifactInfo& info = graph.artifact(v);
    const NodeId h_node = history_.Observe(info);
    to_history[v] = h_node;
    history_.RecordAccess(h_node, now_seconds());
    if (info.kind == ArtifactKind::kRaw) {
      HYPPO_RETURN_NOT_OK(history_.RegisterSourceData(h_node).status());
    }
  }
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    std::vector<NodeId> tails;
    for (NodeId t : graph.ordered_tail(e)) {
      if (t != graph.source()) {
        tails.push_back(to_history[t]);
      }
    }
    std::vector<NodeId> heads;
    for (NodeId h : graph.ordered_head(e)) {
      heads.push_back(to_history[h]);
    }
    HYPPO_RETURN_NOT_OK(
        history_.ObserveTask(task, tails, heads, /*seconds=*/-1.0).status());
  }
  return Status::OK();
}

Status Runtime::CheckSubmission(const Pipeline& pipeline) const {
  analysis::StaticAnalyzerOptions sa_options;
  sa_options.require_bitwise = fault_injector_ != nullptr;
  const analysis::StaticAnalyzer analyzer(sa_options);
  const analysis::AnalysisReport report = analyzer.AnalyzePipeline(
      pipeline.graph, dictionary_, ml::OperatorRegistry::Global());
  if (!report.ok()) {
    return Status::InvalidArgument(
        "static analysis rejected pipeline '" + pipeline.id + "' (" +
        report.Summary() + "):\n" + report.ToString());
  }
  return Status::OK();
}

Result<Runtime::ExecutionRecord> Runtime::ExecuteAndRecord(
    const Pipeline& pipeline, const Augmentation& aug, const Plan& plan,
    const Replanner& replan) {
  HYPPO_RETURN_NOT_OK(CheckSubmission(pipeline));
  {
    // Structure recording mutates the history; commit it under the
    // serving catalog writer lock (no-op single-owner).
    const auto commit = LockCatalog();
    HYPPO_RETURN_NOT_OK(RecordPipelineStructure(pipeline));
  }
  return ExecutePlanOnly(aug, plan, replan);
}

Result<Runtime::ExecutionRecord> Runtime::ExecutePlanOnly(
    const Augmentation& aug, const Plan& plan, const Replanner& replan) {
  HYPPO_ASSIGN_OR_RETURN(
      BatchExecutionRecord record,
      ExecuteInternal(aug, {BatchPlanner::MemberPlan{plan, aug.targets}},
                      replan));
  return std::move(record.members.front());
}

Result<Runtime::BatchExecutionRecord> Runtime::RunBatch(
    const std::vector<Pipeline>& pipelines, const Augmentation& merged,
    const std::vector<BatchPlanner::MemberPlan>& members,
    const Replanner& replan) {
  if (pipelines.empty()) {
    return Status::InvalidArgument("cannot execute an empty batch");
  }
  if (pipelines.size() != members.size()) {
    return Status::InvalidArgument(
        "batch has " + std::to_string(pipelines.size()) + " pipelines but " +
        std::to_string(members.size()) + " member plans");
  }
  for (const Pipeline& pipeline : pipelines) {
    HYPPO_RETURN_NOT_OK(CheckSubmission(pipeline));
  }
  {
    // Per-member structure recording is deliberate: each member accesses
    // its full prefix, so a shared artifact accumulates fan-out-many
    // access counts before the batch-wide materialization decision.
    const auto commit = LockCatalog();
    for (const Pipeline& pipeline : pipelines) {
      HYPPO_RETURN_NOT_OK(RecordPipelineStructure(pipeline));
    }
  }
  HYPPO_ASSIGN_OR_RETURN(BatchExecutionRecord batch,
                         ExecuteInternal(merged, members, replan));
  monitor_.RecordSharedPrefixHits(batch.shared_prefix_skips);
  return batch;
}

Status Runtime::SaveCatalog(const std::string& directory) const {
  // Payloads first and the history last, in PersistSession's order: a
  // crash part-way leaves unclaimed entries the next reconcile drops.
  storage::DiskArtifactStore catalog(directory);
  HYPPO_RETURN_NOT_OK(catalog.init_status());
  const std::vector<std::string> live = store_->Keys();
  for (const std::string& key : catalog.Keys()) {
    if (!std::binary_search(live.begin(), live.end(), key)) {
      HYPPO_RETURN_NOT_OK(catalog.Evict(key));
    }
  }
  for (const std::string& key : live) {
    HYPPO_ASSIGN_OR_RETURN(storage::ArtifactPayload payload,
                           store_->Get(key));
    HYPPO_ASSIGN_OR_RETURN(int64_t size_bytes, store_->SizeOf(key));
    HYPPO_RETURN_NOT_OK(catalog.Put(key, std::move(payload), size_bytes));
  }
  return WriteCheckpoint(history_, directory).status();
}

Status Runtime::LoadCatalog(const std::string& directory) {
  // Read every claimed payload before touching the runtime, so a failed
  // load leaves it as it was. The live store object must survive (the
  // executor holds a pointer to it), so commit by refilling it.
  HYPPO_ASSIGN_OR_RETURN(StoredHistory stored, ReadHistory(directory));
  if (stored.files.log_bytes == 0) {
    return Status::IoError("no history in '" + directory + "'");
  }
  History& history = stored.history;
  storage::DiskArtifactStore catalog(directory);
  HYPPO_RETURN_NOT_OK(catalog.init_status());
  HYPPO_RETURN_NOT_OK(ReconcileWithStore(&history, catalog).status());
  std::vector<std::pair<NodeId, ArtifactPayload>> claimed;
  for (NodeId v : history.MaterializedArtifacts()) {
    HYPPO_ASSIGN_OR_RETURN(ArtifactPayload payload,
                           catalog.Get(history.graph().artifact(v).name));
    claimed.emplace_back(v, std::move(payload));
  }
  for (const std::string& key : store_->Keys()) {
    HYPPO_RETURN_NOT_OK(store_->Evict(key));
  }
  for (auto& [v, payload] : claimed) {
    const ArtifactInfo& info = history.graph().artifact(v);
    HYPPO_RETURN_NOT_OK(
        store_->Put(info.name, std::move(payload), info.size_bytes));
  }
  history_ = std::move(history);
  // A durable session's log describes the history just replaced: only a
  // checkpoint describes the loaded one.
  return history_log_ ? history_log_->Checkpoint(&history_) : Status::OK();
}

Status Runtime::RestoreSession() {
  // Without a history log (a fresh store, or a crash before the first
  // PersistSession) the history is empty, and reconciling against it drops
  // payloads the materializer already Put instead of leaving them charged
  // as orphans.
  HYPPO_ASSIGN_OR_RETURN(StoredHistory stored,
                         ReadHistory(options_.store_dir));
  HYPPO_ASSIGN_OR_RETURN(history_log_,
                         HistoryLog::Resume(options_.store_dir, stored));
  // Evictions the reconcile makes land in the journal, so the next
  // PersistSession logs them.
  HYPPO_ASSIGN_OR_RETURN(const std::vector<std::string> unclaimed,
                         ReconcileWithStore(&stored.history, *store_));
  for (const std::string& key : unclaimed) {
    HYPPO_RETURN_NOT_OK(store_->Evict(key));
  }
  history_ = std::move(stored.history);
  return Status::OK();
}

Status Runtime::PersistSession() {
  if (options_.store_dir.empty()) {
    return Status::OK();
  }
  HYPPO_RETURN_NOT_OK(session_status_);
  return history_log_->Persist(&history_);
}

}  // namespace hyppo::core
