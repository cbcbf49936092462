// End-to-end benchmark of the HYPPO system with real execution.
//
// Runs one named workload against the public API (simulate = false),
// checks every output, and prints the run's metrics as one JSON object on
// the last line of stdout. Untraced runs (--trace 0) report end-to-end
// metrics; traced runs (--trace 1) wrap every call the benchmark makes
// into the system in spans and report per-layer metrics. See README.md
// for the workloads, the metrics, and which layer each one measures.
//
//   hyppo_perfbench --workload explore-higgs --seed 1 --seconds 30
//                   --trace 0 [--trace-out spans.json] [--work-dir DIR]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "common/string_util.h"
#include "core/hyppo.h"
#include "ml/kernels/kernels.h"
#include "serving/session_manager.h"
#include "storage/artifact_store.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"
#include "workload/sweep_generator.h"

namespace {

namespace fs = std::filesystem;
namespace core = hyppo::core;
namespace workload = hyppo::workload;
namespace serving = hyppo::serving;
using hyppo::Result;
using hyppo::Status;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Command line

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".bench_build/work";
};

// Set-ups timed before each round; setup_s is the fastest of the run's.
constexpr int kSetUpsPerRound = 8;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Spans: one per call the benchmark makes into the system, kept in memory
// and written out when the run ends. Disabled tracers record nothing.

struct Span {
  std::string name;
  int64_t request = -1;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* name, int parent, int64_t request) {
    if (!enabled_) {
      return -1;
    }
    const double start = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, request, parent, start, start});
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    const double end = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = end;
  }

  // Read only after every traced thread has finished.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t request)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// Self time of every span: its duration minus the union of its children's
// intervals (clipped to the span).
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start,
                                                              span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cursor = spans[i].start;
    for (const auto& [start, end] : intervals) {
      const double from = std::max(cursor, start);
      const double to = std::min(end, spans[i].end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, double origin,
                const std::string& path) {
  std::error_code error;
  fs::create_directories(fs::path(path).parent_path(), error);
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const std::vector<double> self = SelfTimes(spans);
  out << "[\n";
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"name\": \"%s\", \"request\": %lld, "
                  "\"parent\": %d, \"start\": %.9f, \"end\": %.9f, "
                  "\"self\": %.9f}%s\n",
                  i, hyppo::JsonEscape(s.name).c_str(),
                  static_cast<long long>(s.request), s.parent,
                  s.start - origin, s.end - origin, self[i],
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-layer values by name, accumulated across rounds; LayerMetricNames()
// gives the reported ones their units.
using LayerValues = std::map<std::string, double>;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Bytes this process passed to write() so far (/proc/self/io wchar).
int64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") {
      return value;
    }
  }
  return 0;
}

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code error;
  for (const auto& entry : fs::recursive_directory_iterator(dir, error)) {
    if (entry.is_regular_file(error)) {
      total += static_cast<int64_t>(entry.file_size(error));
    }
  }
  return total;
}

// Operator seconds by ML task type, as the monitor aggregates them.
struct MlSeconds {
  double fit = 0.0;
  double transform = 0.0;
  double predict = 0.0;
  double evaluate = 0.0;
  /// Every measured operator: the above plus splits. Load tasks are left
  /// out because they are charged the storage tier's modelled time.
  double operators = 0.0;
  double ml() const { return fit + transform + predict + evaluate; }
};

MlSeconds ReadMlSeconds(const core::Monitor& monitor) {
  MlSeconds out;
  for (const auto& [type, aggregate] : monitor.by_task_type()) {
    if (type != core::TaskType::kLoad) {
      out.operators += aggregate.total_seconds;
    }
    switch (type) {
      case core::TaskType::kFit:
        out.fit += aggregate.total_seconds;
        break;
      case core::TaskType::kTransform:
        out.transform += aggregate.total_seconds;
        break;
      case core::TaskType::kPredict:
        out.predict += aggregate.total_seconds;
        break;
      case core::TaskType::kEvaluate:
        out.evaluate += aggregate.total_seconds;
        break;
      default:
        break;
    }
  }
  return out;
}

std::set<std::string> MaterializedNames(const core::History& history) {
  std::set<std::string> names;
  for (hyppo::NodeId v : history.MaterializedArtifacts()) {
    names.insert(history.graph().artifact(v).name);
  }
  return names;
}

// Names of the materialized (non-raw) artifacts a plan loads: the reuse
// the plan chose.
std::vector<std::string> ReuseLoads(const core::Augmentation& aug,
                                    const core::Plan& plan) {
  std::vector<std::string> names;
  for (hyppo::EdgeId e : plan.edges) {
    if (aug.graph.task(e).type != core::TaskType::kLoad) {
      continue;
    }
    const core::ArtifactInfo& info =
        aug.graph.artifact(aug.graph.ordered_head(e)[0]);
    if (info.kind != core::ArtifactKind::kRaw) {
      names.push_back(info.name);
    }
  }
  return names;
}

// Every target of `pipeline` must come back with a real payload.
bool HasAllTargets(
    const core::Pipeline& pipeline,
    const std::map<std::string, hyppo::storage::ArtifactPayload>& payloads) {
  for (hyppo::NodeId t : pipeline.targets) {
    auto it = payloads.find(pipeline.graph.artifact(t).name);
    if (it == payloads.end() ||
        std::holds_alternative<std::monostate>(it->second)) {
      return false;
    }
  }
  return true;
}

// End-of-round audit: history invariants (with a serialization round trip
// and the budget bound) and history <-> store consistency.
Status VerifyCatalog(const core::Runtime& runtime) {
  const int64_t budget = runtime.options().storage_budget_bytes;
  const hyppo::analysis::Verifier verifier;
  hyppo::analysis::AnalysisReport report =
      verifier.VerifyHistory(runtime.history(), &runtime.dictionary(), budget);
  report.Merge(
      verifier.CheckStoreConsistency(runtime.history(), runtime.store()));
  if (!report.ok()) {
    return Status::Internal("catalog verification failed (" +
                            report.Summary() + "):\n" + report.ToString());
  }
  if (runtime.store().used_bytes() > budget) {
    return Status::Internal(
        "store holds " + std::to_string(runtime.store().used_bytes()) +
        " bytes, over the budget of " + std::to_string(budget));
  }
  return Status::OK();
}

// What a run hands back to main, accumulated over its rounds.
struct Outcome {
  double setup_seconds = 0.0;
  double measured_seconds = 0.0;
  int rounds = 0;
  std::vector<double> latencies;  // completed requests, seconds
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t pipelines = 0;  // completed pipelines (sweep members count)
  Status gate = Status::OK();  // first correctness-gate violation
  LayerValues layers;          // per-layer metrics (traced runs)
  /// Per request, ML operator seconds over its latency (traced runs).
  std::vector<double> request_ml_share;
  std::vector<std::string> notes;  // printed before the result
};

void Gate(Outcome* outcome, const Status& status) {
  if (outcome->gate.ok() && !status.ok()) {
    outcome->gate = status;
  }
}

// Records one round's request count, time and median latency for the
// report, so drift between rounds shows.
void AddRoundNote(Outcome* outcome, double elapsed, size_t requests) {
  const size_t n = std::min(requests, outcome->latencies.size());
  const std::vector<double> round(outcome->latencies.end() - n,
                                  outcome->latencies.end());
  char line[160];
  std::snprintf(line, sizeof(line),
                "round %d: %zu requests in %.3f s, latency p50 %.6f s",
                outcome->rounds, requests, elapsed, Median(round));
  outcome->notes.push_back(line);
}

// The measured phase is a series of rounds, each over a freshly set-up
// State and each submitting the workload's fixed request sequence. Rounds
// repeat while that brings the measured time closer to --seconds (so a run
// lasts --seconds to within half a round, on a slow host too); whole
// rounds keep the request mix identical from run to run.
//
// Before every round kSetUpsPerRound set-ups are timed back to back (each
// state is torn down off the clock; the last one serves the round), and
// setup_s is the fastest of them all. Set-up is 7-50 ms of single-threaded
// work, and host contention slows such stretches by up to 1.8x for
// hundreds of milliseconds at a time, which moves a median with it; the
// minimum over samples spread across the run is the time set-up takes
// when nothing interferes.
template <typename State, typename SetUpFn, typename RoundFn>
Status RunRounds(const Args& args, SetUpFn set_up, RoundFn round,
                 Outcome* outcome) {
  int index = 0;
  std::vector<double> setup_times;
  while (outcome->rounds == 0 ||
         outcome->measured_seconds * (1.0 + 0.5 / outcome->rounds) <
             args.seconds) {
    std::unique_ptr<State> state;
    for (int k = 0; k < kSetUpsPerRound; ++k) {
      state.reset();
      const double start = Now();
      HYPPO_ASSIGN_OR_RETURN(state, set_up(index++));
      setup_times.push_back(Now() - start);
    }
    HYPPO_RETURN_NOT_OK(round(state.get()));
    ++outcome->rounds;
  }
  outcome->setup_seconds =
      *std::min_element(setup_times.begin(), setup_times.end());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Single-client workloads: one closed-loop client submitting one pipeline
// per request through HyppoMethod + Runtime, the paper's workload loop.

// Storage budget as a share of the raw dataset's size.
constexpr double kSingleClientBudgetFactor = 0.1;
// Seeds the pipeline generator. The sequence's shape (which models and
// feature stages it explores) is fixed while --seed draws the data: one
// exploratory random walk samples the generator's cost mix too thinly for
// runs under different seeds to agree.
constexpr uint64_t kSequenceSeed = 1;

struct SingleClientConfig {
  workload::UseCase use_case;
  double multiplier = 0.0;
  /// Pipelines submitted per round.
  int requests = 0;
  bool durable = false;
  int32_t history_max_artifacts = 0;
};

struct SingleClientState {
  std::string store_dir;
  std::unique_ptr<core::Runtime> runtime;
  std::unique_ptr<core::HyppoMethod> method;
  std::vector<core::Pipeline> pipelines;

  ~SingleClientState() {
    method.reset();
    runtime.reset();
    if (!store_dir.empty()) {
      std::error_code error;
      fs::remove_all(store_dir, error);
    }
  }
};

Result<std::unique_ptr<SingleClientState>> SetUpSingleClient(
    const SingleClientConfig& config, uint64_t seed,
    const std::string& store_dir) {
  auto state = std::make_unique<SingleClientState>();
  HYPPO_ASSIGN_OR_RETURN(
      hyppo::ml::DatasetPtr data,
      workload::GenerateUseCase(config.use_case, config.multiplier, seed));
  core::RuntimeOptions options;
  options.simulate = false;
  options.storage_budget_bytes = static_cast<int64_t>(
      kSingleClientBudgetFactor *
      static_cast<double>(hyppo::storage::PayloadSizeBytes(data)));
  options.parallelism = core::RuntimeOptions::DefaultParallelism();
  options.history_max_artifacts = config.history_max_artifacts;
  if (config.durable) {
    std::error_code error;
    fs::remove_all(store_dir, error);
    fs::create_directories(store_dir, error);
    state->store_dir = store_dir;
    options.store_dir = store_dir;
  }
  state->runtime = std::make_unique<core::Runtime>(options);
  HYPPO_RETURN_NOT_OK(state->runtime->session_status());
  state->runtime->RegisterDataset(config.use_case.DatasetId(config.multiplier),
                                  data);
  state->method = std::make_unique<core::HyppoMethod>(state->runtime.get());
  workload::PipelineGenerator generator(config.use_case, config.multiplier,
                                        kSequenceSeed);
  state->pipelines.reserve(static_cast<size_t>(config.requests));
  for (int i = 0; i < config.requests; ++i) {
    HYPPO_ASSIGN_OR_RETURN(core::Pipeline pipeline, generator.Next());
    // A positive VarianceThreshold after a [0,1] scaler can drop every
    // column and fail the pipeline; keep the stage but only drop constant
    // columns, so no request fails by construction.
    workload::PipelineSpec spec = generator.history_specs().back();
    if (spec.feature.logical_op == "VarianceThreshold" &&
        spec.feature.config.GetDouble("threshold", 0.0) != 0.0) {
      spec.feature.config.SetDouble("threshold", 0.0);
      HYPPO_ASSIGN_OR_RETURN(pipeline,
                             generator.BuildFromSpec(spec, pipeline.id));
    }
    state->pipelines.push_back(std::move(pipeline));
  }
  return state;
}

// A fresh runtime on the same store directory must restore the session
// and see the same materialized artifacts.
Status CheckDurability(SingleClientState* state) {
  const core::RuntimeOptions options = state->runtime->options();
  const std::set<std::string> expected =
      MaterializedNames(state->runtime->history());
  state->method.reset();
  state->runtime.reset();  // releases the store directory's lock
  core::Runtime reopened(options);
  HYPPO_RETURN_NOT_OK(reopened.session_status());
  if (MaterializedNames(reopened.history()) != expected) {
    return Status::Internal(
        "reopened store restored a different materialized set (" +
        std::to_string(reopened.history().MaterializedArtifacts().size()) +
        " vs " + std::to_string(expected.size()) + " artifacts)");
  }
  return VerifyCatalog(reopened);
}

// One round: submits every pipeline of `state` in order, one at a time.
// Traced rounds also call Augmenter::Augment on its own before planning and
// collect the per-layer counters.
Status RunSingleClientRound(const SingleClientConfig& config,
                            SingleClientState* state, Tracer* tracer,
                            Outcome* outcome) {
  core::Runtime& runtime = *state->runtime;
  core::HyppoMethod& method = *state->method;
  const core::Monitor& monitor = runtime.monitor();
  const bool traced = tracer->enabled();
  const core::Augmenter::Options augment_options =
      core::HyppoMethod::Options().augment;
  LayerValues& m = outcome->layers;
  std::set<std::string> stored, stored_then_loaded;
  int64_t bytes_put = 0;
  const int64_t written0 = WrittenBytes();
  const MlSeconds ml0 = ReadMlSeconds(monitor);
  std::set<std::string> materialized;
  if (traced) {
    materialized = MaterializedNames(runtime.history());
  }

  const double t0 = Now();
  for (const core::Pipeline& pipeline : state->pipelines) {
    const int64_t id = outcome->attempted++;
    const double ml_before = traced ? ReadMlSeconds(monitor).ml() : 0.0;
    const double start = Now();
    const int request = tracer->Begin("request", -1, id);
    Status status = Status::OK();
    if (traced) {
      // Augmentation on its own, so its share of planning splits out.
      const int64_t hits = monitor.num_index_hits();
      const int64_t misses = monitor.num_index_misses();
      ScopedSpan span(tracer, "augment", request, id);
      status = runtime.augmenter()
                   .Augment(pipeline, runtime.history(), augment_options)
                   .status();
      m["augment.index_hits"] +=
          static_cast<double>(monitor.num_index_hits() - hits);
      m["augment.index_misses"] +=
          static_cast<double>(monitor.num_index_misses() - misses);
    }
    Result<core::Method::Planned> planned = Status::Internal("not planned");
    if (status.ok()) {
      ScopedSpan span(tracer, "plan", request, id);
      planned = method.PlanPipeline(pipeline);
      status = planned.status();
    }
    Result<core::Runtime::ExecutionRecord> record =
        Status::Internal("not executed");
    if (status.ok()) {
      ScopedSpan span(tracer, "execute", request, id);
      record = runtime.ExecuteAndRecord(pipeline, planned->aug, planned->plan,
                                        method.MakeReplanner());
      status = record.status();
    }
    if (status.ok()) {
      ScopedSpan span(tracer, "materialize", request, id);
      status = method.AfterExecution(pipeline, *planned, *record);
    }
    if (status.ok() && config.durable) {
      ScopedSpan span(tracer, "persist", request, id);
      status = runtime.PersistSession();
    }
    tracer->End(request);
    const double latency = Now() - start;
    // The request's new artifacts, found outside its spans.
    std::set<std::string> before;
    if (traced) {
      before =
          std::exchange(materialized, MaterializedNames(runtime.history()));
    }

    if (!status.ok()) {
      ++outcome->failed;
      outcome->notes.push_back(pipeline.id + " failed: " + status.ToString());
      continue;
    }
    if (!HasAllTargets(pipeline, record->payloads_by_name)) {
      Gate(outcome, Status::Internal("pipeline " + pipeline.id +
                                     " returned without all its targets"));
    }
    outcome->latencies.push_back(latency);
    ++outcome->pipelines;
    if (!traced) {
      continue;
    }
    m["execute.charged_s"] += record->seconds;
    m["execute.replans"] += record->replans;
    m["execute.failed_tasks"] += static_cast<double>(record->failed_tasks);
    for (const std::string& name : ReuseLoads(planned->aug, planned->plan)) {
      m["storage.reuse_loads"] += 1;
      if (stored.count(name) > 0) {
        stored_then_loaded.insert(name);
      }
    }
    for (const std::string& name : materialized) {
      if (before.count(name) == 0) {
        stored.insert(name);
        m["materialize.puts"] += 1;
        Result<int64_t> size = runtime.store().SizeOf(name);
        bytes_put += size.ok() ? *size : 0;
      }
    }
    outcome->request_ml_share.push_back(
        (ReadMlSeconds(monitor).ml() - ml_before) / latency);
  }
  const double elapsed = Now() - t0;
  outcome->measured_seconds += elapsed;
  const int64_t written = WrittenBytes() - written0;
  AddRoundNote(outcome, elapsed, state->pipelines.size());

  Gate(outcome, VerifyCatalog(runtime));
  if (traced) {
    const MlSeconds ml1 = ReadMlSeconds(monitor);
    m["search.expansions"] +=
        static_cast<double>(method.last_search_stats().expansions);
    m["search.states_pruned"] +=
        static_cast<double>(monitor.num_states_pruned());
    m["execute.operator_s"] += ml1.operators - ml0.operators;
    m["execute.tasks"] += static_cast<double>(monitor.num_task_records());
    m["ml.fit_s"] += ml1.fit - ml0.fit;
    m["ml.transform_s"] += ml1.transform - ml0.transform;
    m["ml.predict_s"] += ml1.predict - ml0.predict;
    m["ml.evaluate_s"] += ml1.evaluate - ml0.evaluate;
    m["materialize.bytes_put"] += static_cast<double>(bytes_put);
    m["materialize.stored"] += static_cast<double>(stored.size());
    m["materialize.stored_then_loaded"] +=
        static_cast<double>(stored_then_loaded.size());
    m["history.artifacts"] =
        static_cast<double>(runtime.history().num_artifacts());
    m["history.compacted"] +=
        static_cast<double>(monitor.num_history_compacted());
    if (config.durable) {
      m["storage.bytes_written"] += static_cast<double>(written);
      m["storage.disk_bytes"] =
          static_cast<double>(DirectoryBytes(state->store_dir));
    }
  }
  if (config.durable) {
    Gate(outcome, CheckDurability(state));
  }
  return Status::OK();
}

Status RunSingleClient(const SingleClientConfig& config, const Args& args,
                       Tracer* tracer, Outcome* outcome) {
  const std::string store_base =
      (fs::path(args.work_dir) / ("store-" + std::to_string(getpid()) + "-"))
          .string();
  return RunRounds<SingleClientState>(
      args,
      [&](int index) {
        return SetUpSingleClient(config, args.seed,
                                 store_base + std::to_string(index));
      },
      [&](SingleClientState* state) {
        return RunSingleClientRound(config, state, tracer, outcome);
      },
      outcome);
}

// ---------------------------------------------------------------------------
// serve-sweeps: concurrent closed-loop clients submitting hyperparameter
// sweeps to one SessionManager.

constexpr int kSweepClients = 3;
// Sweep requests each client submits per round.
constexpr int kSweepsPerClient = 34;
// Configurations per sweep (max_depth 3, 4, ...).
constexpr int kSweepConfigs = 8;
constexpr double kSweepMultiplier = 0.002;
// Storage budget as a share of the raw dataset's size.
constexpr double kSweepBudgetFactor = 2.0;

struct SweepState {
  std::unique_ptr<serving::SessionManager> manager;
  /// Per client, its ordered sweep requests.
  std::vector<std::vector<serving::SessionRequest>> requests;
};

Result<std::unique_ptr<SweepState>> SetUpSweeps(uint64_t seed) {
  const workload::UseCase taxi = workload::UseCase::Taxi();
  auto state = std::make_unique<SweepState>();
  HYPPO_ASSIGN_OR_RETURN(
      hyppo::ml::DatasetPtr data,
      workload::GenerateUseCase(taxi, kSweepMultiplier, seed));
  serving::ServingOptions options;
  options.runtime.simulate = false;
  options.runtime.parallelism = 1;
  options.runtime.storage_budget_bytes = static_cast<int64_t>(
      kSweepBudgetFactor *
      static_cast<double>(hyppo::storage::PayloadSizeBytes(data)));
  options.max_in_flight_sessions = kSweepClients;
  state->manager = std::make_unique<serving::SessionManager>(options);
  HYPPO_RETURN_NOT_OK(state->manager->session_status());
  state->manager->runtime().RegisterDataset(taxi.DatasetId(kSweepMultiplier),
                                            data);

  workload::SweepGenerator generator(taxi, kSweepMultiplier, seed);
  workload::SweepAxis depth;
  depth.stage = workload::SweepAxis::Stage::kModel;
  depth.param = "max_depth";
  for (int d = 0; d < kSweepConfigs; ++d) {
    depth.values.push_back(std::to_string(3 + d));
  }
  workload::SweepOptions grid;
  grid.mode = workload::SweepOptions::Mode::kGrid;
  state->requests.resize(kSweepClients);
  for (int c = 0; c < kSweepClients; ++c) {
    for (int j = 0; j < kSweepsPerClient; ++j) {
      // Each sweep trains its own forests: the trunk (impute, scale) is
      // shared by every request, the models by none.
      workload::PipelineSpec base = generator.DemoBaseSpec();
      base.model.config.SetInt(
          "seed", static_cast<int64_t>(seed % 1000000) * 10000 + c * 1000 + j);
      const std::string id =
          "c" + std::to_string(c) + "-sweep" + std::to_string(j);
      HYPPO_ASSIGN_OR_RETURN(workload::SweepWorkload sweep,
                             generator.Generate(base, {depth}, grid, id));
      serving::SessionRequest request;
      request.session_id = "client-" + std::to_string(c);
      request.pipelines = std::move(sweep.pipelines);
      request.as_sweep = true;
      state->requests[static_cast<size_t>(c)].push_back(std::move(request));
    }
  }
  return state;
}

Status RunSweepRound(SweepState* state, Tracer* tracer, Outcome* outcome) {
  serving::SessionManager& manager = *state->manager;
  constexpr size_t clients = kSweepClients;
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::vector<serving::SessionReport>> reports(clients);
  const int64_t id_base = outcome->attempted;
  const double t0 = Now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const auto& requests = state->requests[c];
      for (size_t j = 0; j < requests.size(); ++j) {
        const int64_t id =
            id_base + static_cast<int64_t>(j * clients + c);
        const double start = Now();
        const int span = tracer->Begin("request", -1, id);
        reports[c].push_back(manager.RunSession(requests[j]));
        tracer->End(span);
        latencies[c].push_back(Now() - start);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const double elapsed = Now() - t0;
  outcome->measured_seconds += elapsed;

  LayerValues& m = outcome->layers;
  double charged = 0.0, in_requests = 0.0;
  for (size_t c = 0; c < clients; ++c) {
    for (size_t j = 0; j < reports[c].size(); ++j) {
      const serving::SessionReport& report = reports[c][j];
      const serving::SessionRequest& request = state->requests[c][j];
      ++outcome->attempted;
      if (!report.status.ok() ||
          report.pipelines_completed !=
              static_cast<int32_t>(request.pipelines.size())) {
        ++outcome->failed;
        outcome->notes.push_back(request.pipelines.front().id +
                                 " failed: " + report.status.ToString());
        continue;
      }
      for (const core::Pipeline& pipeline : request.pipelines) {
        if (!HasAllTargets(pipeline, report.target_payloads)) {
          Gate(outcome, Status::Internal("pipeline " + pipeline.id +
                                         " returned without all its targets"));
        }
      }
      outcome->latencies.push_back(latencies[c][j]);
      outcome->pipelines += report.pipelines_completed;
      m["serving.queue_s"] += report.queue_seconds;
      m["serving.optimize_s"] += report.optimize_seconds;
      charged += report.charged_seconds;
      in_requests += report.wall_seconds - report.queue_seconds -
                     report.optimize_seconds;
      m["serving.charged_s"] += report.charged_seconds;
      m["serving.reuse_loads"] += static_cast<double>(report.reuse_loads);
      m["serving.cross_session_loads"] +=
          static_cast<double>(report.cross_session_loads);
      m["serving.replans"] += static_cast<double>(report.replans);
    }
  }
  AddRoundNote(outcome, elapsed, clients * state->requests[0].size());
  const core::Runtime& runtime = manager.runtime();
  Gate(outcome, VerifyCatalog(runtime));
  if (tracer->enabled()) {
    const core::Monitor& monitor = runtime.monitor();
    const MlSeconds ml = ReadMlSeconds(monitor);
    // Request time neither queued, planning nor running operators:
    // materialization, commits and catalog-lock waits. Measured operator
    // time stands in for charged time, which includes the storage tier's
    // modelled load seconds.
    m["serving.commit_s"] += in_requests - ml.operators;
    m["batch.merged_tasks"] +=
        static_cast<double>(monitor.num_batch_merged_tasks());
    m["batch.plan_s"] += monitor.batch_plan_seconds();
    m["batch.seeded_tasks"] +=
        static_cast<double>(monitor.num_shared_prefix_hits());
    m["search.states_pruned"] +=
        static_cast<double>(monitor.num_states_pruned());
    m["execute.charged_s"] += charged;
    m["execute.operator_s"] += ml.operators;
    m["execute.tasks"] += static_cast<double>(monitor.num_task_records());
    m["execute.replans"] += static_cast<double>(monitor.num_replans());
    m["execute.failed_tasks"] +=
        static_cast<double>(monitor.num_task_failures());
    m["ml.fit_s"] += ml.fit;
    m["ml.transform_s"] += ml.transform;
    m["ml.predict_s"] += ml.predict;
    m["ml.evaluate_s"] += ml.evaluate;
    m["storage.reuse_loads"] += static_cast<double>(monitor.num_reuse_loads());
    m["history.artifacts"] =
        static_cast<double>(runtime.history().num_artifacts());
    m["history.compacted"] +=
        static_cast<double>(monitor.num_history_compacted());
  }
  return Status::OK();
}

Status RunSweeps(const Args& args, Tracer* tracer, Outcome* outcome) {
  return RunRounds<SweepState>(
      args, [&](int) { return SetUpSweeps(args.seed); },
      [&](SweepState* state) {
        return RunSweepRound(state, tracer, outcome);
      },
      outcome);
}

// ---------------------------------------------------------------------------
// Reporting

// Every per-layer metric, in a fixed order; a workload that does not
// exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"plan.busy_s", "s"},
      {"plan.augment_s", "s"},
      {"augment.index_hits", "count"},
      {"augment.index_misses", "count"},
      {"search.expansions", "count"},
      {"search.states_pruned", "count"},
      {"batch.merged_tasks", "count"},
      {"batch.plan_s", "s"},
      {"batch.seeded_tasks", "count"},
      {"execute.busy_s", "s"},
      {"execute.charged_s", "s"},
      {"execute.operator_s", "s"},
      {"execute.control_s", "s"},
      {"execute.tasks", "count"},
      {"execute.replans", "count"},
      {"execute.failed_tasks", "count"},
      {"ml.fit_s", "s"},
      {"ml.transform_s", "s"},
      {"ml.predict_s", "s"},
      {"ml.evaluate_s", "s"},
      {"materialize.busy_s", "s"},
      {"materialize.puts", "count"},
      {"materialize.bytes_put", "bytes"},
      {"materialize.useful_ratio", "ratio"},
      {"storage.reuse_loads", "count"},
      {"history.artifacts", "count"},
      {"history.compacted", "count"},
      {"persist.busy_s", "s"},
      {"storage.bytes_written", "bytes"},
      {"storage.write_amp", "ratio"},
      {"storage.disk_bytes", "bytes"},
      {"serving.queue_s", "s"},
      {"serving.optimize_s", "s"},
      {"serving.charged_s", "s"},
      {"serving.commit_s", "s"},
      {"serving.reuse_loads", "count"},
      {"serving.cross_session_loads", "count"},
      {"serving.replans", "count"},
      {"request.self_s", "s"},
      {"premise.ml_share", "ratio"},
      {"premise.plan_share", "ratio"},
      {"premise.request_ml_share_p50", "ratio"},
      {"traced.throughput_pps", "1/s"},
      {"traced.latency_p50_s", "s"},
      {"traced.latency_p90_s", "s"},
  };
  return names;
}

// Derived per-layer metrics: busy time per span name, the request spans'
// self time, the ratios, and the shares the workload premises are stated
// in.
void AddDerivedLayerMetrics(const std::vector<Span>& spans,
                            Outcome* outcome) {
  std::map<std::string, double> busy;
  const std::vector<double> self = SelfTimes(spans);
  double request_self = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    busy[spans[i].name] += spans[i].duration();
    if (spans[i].parent < 0) {
      request_self += self[i];
    }
  }
  LayerValues& m = outcome->layers;
  m["plan.busy_s"] = busy["plan"];
  m["plan.augment_s"] = busy["augment"];
  m["execute.busy_s"] = busy["execute"];
  m["materialize.busy_s"] = busy["materialize"];
  m["persist.busy_s"] = busy["persist"];
  m["request.self_s"] = request_self;
  if (busy["execute"] > 0.0) {
    m["execute.control_s"] = busy["execute"] - m["execute.operator_s"];
  }
  const double stored = m["materialize.stored"];
  m["materialize.useful_ratio"] =
      stored > 0.0 ? m["materialize.stored_then_loaded"] / stored : 0.0;
  const double bytes_put = m["materialize.bytes_put"];
  m["storage.write_amp"] =
      bytes_put > 0.0 ? m["storage.bytes_written"] / bytes_put : 0.0;
  const double ml = m["ml.fit_s"] + m["ml.transform_s"] + m["ml.predict_s"] +
                    m["ml.evaluate_s"];
  m["premise.ml_share"] = ml / outcome->measured_seconds;
  m["premise.plan_share"] = busy["plan"] / outcome->measured_seconds;
  m["premise.request_ml_share_p50"] = Median(outcome->request_ml_share);
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintFingerprint() {
  std::printf(
      "# machine: nproc=%u simd_build_isa=%s simd_enabled=%d "
      "simd_backend=%s build_type=%s compiler=\"%s\"\n",
      std::thread::hardware_concurrency(),
      hyppo::ml::kernels::SimdBuildIsa(),
      hyppo::ml::kernels::SimdEnabled() ? 1 : 0,
      hyppo::ml::kernels::simd::BackendName(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER);
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("# %-30s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string ResultJson(const Outcome& outcome,
                       const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (outcome.gate.ok() ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  const char* separator = "";
  for (const Metric& metric : metrics) {
    json << separator << "\"" << metric.name
         << "\": {\"value\": " << FormatNumber(metric.value)
         << ", \"unit\": \"" << metric.unit << "\"}";
    separator = ", ";
  }
  json << "}}";
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload explore-higgs|session-taxi-durable|"
                 "serve-sweeps --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE] [--work-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  Tracer tracer(args.trace);
  const double origin = Now();
  Outcome outcome;
  Status status = Status::InvalidArgument("unknown workload " + args.workload);
  if (args.workload == "explore-higgs") {
    SingleClientConfig config;
    config.use_case = workload::UseCase::Higgs();
    config.multiplier = 0.005;  // 4000 x 30
    config.requests = 100;
    status = RunSingleClient(config, args, &tracer, &outcome);
  } else if (args.workload == "session-taxi-durable") {
    SingleClientConfig config;
    config.use_case = workload::UseCase::Taxi();
    config.multiplier = 0.0004;  // the generator's 400-row floor
    config.requests = 1000;
    config.durable = true;
    config.history_max_artifacts = 200;
    status = RunSingleClient(config, args, &tracer, &outcome);
  } else if (args.workload == "serve-sweeps") {
    status = RunSweeps(args, &tracer, &outcome);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  for (const std::string& note : outcome.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  if (outcome.latencies.empty()) {
    std::fprintf(stderr, "%s: no request completed\n", args.workload.c_str());
    return 1;
  }

  const std::vector<Metric> end_to_end = {
      {"setup_s", outcome.setup_seconds, "s"},
      {"throughput_pps",
       static_cast<double>(outcome.pipelines) / outcome.measured_seconds,
       "1/s"},
      {"latency_p50_s", Median(outcome.latencies), "s"},
      {"latency_p90_s", Quantile(outcome.latencies, 0.9), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  PrintFingerprint();
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d rounds=%d "
              "measured=%.3fs\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, outcome.rounds,
              outcome.measured_seconds);
  PrintMetrics(end_to_end);
  const size_t samples = outcome.latencies.size();
  std::printf("# %-30s %18.6f ratio (%lld of %lld requests)\n",
              "failed_fraction",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              static_cast<long long>(outcome.failed),
              static_cast<long long>(outcome.attempted));
  std::printf("# latency samples: %zu, %zu beyond p90; pipelines: %lld\n",
              samples, samples - (samples * 9 + 9) / 10,
              static_cast<long long>(outcome.pipelines));

  std::vector<Metric> reported = end_to_end;
  if (args.trace) {
    AddDerivedLayerMetrics(tracer.spans(), &outcome);
    // The traced run's own end-to-end numbers: set beside an untraced
    // run's, they give the tracing overhead.
    for (const Metric& metric : end_to_end) {
      outcome.layers["traced." + metric.name] = metric.value;
    }
    reported.clear();
    for (const auto& [name, unit] : LayerMetricNames()) {
      reported.push_back({name, outcome.layers[name], unit});
    }
    PrintMetrics(reported);
    if (!args.trace_out.empty() &&
        !WriteSpans(tracer.spans(), origin, args.trace_out)) {
      Gate(&outcome, Status::IoError("cannot write spans to " +
                                     args.trace_out));
    }
  }
  if (!outcome.gate.ok()) {
    std::fprintf(stderr, "correctness gate: %s\n",
                 outcome.gate.ToString().c_str());
  }
  std::printf("%s\n", ResultJson(outcome, reported).c_str());
  std::fflush(stdout);
  return outcome.gate.ok() ? 0 : 1;
}
