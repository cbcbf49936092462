// Batch multi-query optimization for hyperparameter sweeps: a grid of
// model configurations sharing one preprocessing trunk is planned and
// executed as one merged batch (HyppoSystem::RunBatch) versus the
// sequential per-pipeline loop (HyppoSystem::RunPipeline per config).
// Batch mode pays one augmentation + lower-bound pass for the whole
// sweep and runs the shared prefix once by executing the combined member
// plans together, so total (plan + execute) cost drops while payloads stay
// byte-identical (ROADMAP "Batch / hyperparameter-sweep workloads";
// docs/SWEEP.md). A second section sweeps a forest's max_depth: batch
// mode fits the deepest forest of each estimator count once and derives
// the shallower ones from it (core/derive.h), so its rows report how many
// model fits and derives each mode ran. Each mode is timed over repeated
// runs on a fresh system, alternating between the modes, and a row
// reports the median with its 10th and 90th percentiles.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/hyppo.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace {

using hyppo::Result;
using hyppo::Status;

struct Config {
  double dataset_multiplier = 0.05;
  std::vector<int> sweep_sizes = {10, 25, 50};
  // The max_depth sweep fits forests, so it runs on a smaller dataset.
  double depth_multiplier = 0.002;
  std::vector<int> depth_sizes = {8, 16};
};

Config ConfigForScale() {
  switch (hyppo::bench::BenchScale()) {
    case hyppo::bench::Scale::kSmoke:
      return {0.005, {6, 12}, 0.002, {8}};
    case hyppo::bench::Scale::kFull:
      return {0.2, {10, 25, 50, 100}, 0.01, {8, 16, 32}};
    default:
      return Config();
  }
}

// The benched alpha sweep: an expensive shared trunk (impute + scale + a
// KMeans distance embedding over the raw taxi columns) feeding cheap
// per-config models (ridge regression over a fine alpha grid — a
// closed-form fit on the handful of embedding features). This is the
// trunk-heavy shape hyperparameter sweeps take in practice — tuning
// the model, not the preprocessing — and the regime multi-query
// optimization targets: the shared prefix is most of the total cost.
hyppo::workload::PipelineSpec SweepBaseSpec() {
  hyppo::workload::PipelineSpec spec;
  spec.imputer.logical_op = "SimpleImputer";
  spec.imputer.impl = "skl.SimpleImputer";
  spec.imputer.config.Set("strategy", "mean");
  spec.scaler.logical_op = "StandardScaler";
  spec.scaler.impl = "skl.StandardScaler";
  spec.feature.logical_op = "KMeans";
  spec.feature.impl = "skl.KMeans";
  spec.feature.config.SetInt("n_clusters", 8);
  spec.model.logical_op = "Ridge";
  spec.model.impl = "skl.Ridge";
  spec.metric = "rmse";
  spec.split_seed = 13;
  return spec;
}

std::vector<hyppo::workload::SweepAxis> SweepAxes(int num_configs) {
  // One fine regularization axis: num_configs distinct alpha values.
  hyppo::workload::SweepAxis alpha;
  alpha.stage = hyppo::workload::SweepAxis::Stage::kModel;
  alpha.param = "alpha";
  for (int i = 0; i < num_configs; ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.4f", 0.01 * (i + 1));
    alpha.values.push_back(value);
  }
  return {std::move(alpha)};
}

// One benched sweep: its pipelines' spec and axes, the dataset scale, and
// whether the method may use equivalences (derive edges among them).
struct SweepCase {
  std::string axis;  // the swept model parameter, reported per row
  hyppo::workload::PipelineSpec spec;
  std::vector<hyppo::workload::SweepAxis> axes;
  double multiplier = 0.0;
  bool use_equivalences = false;
};

SweepCase AlphaCase(const Config& config, int num_configs) {
  return {"alpha", SweepBaseSpec(), SweepAxes(num_configs),
          config.dataset_multiplier, /*use_equivalences=*/false};
}

// The max_depth sweep: the taxi demo forest (12 trees, impute + scale
// trunk) over max_depth 3..10, repeated over as many estimator counts as
// the grid needs (SweepGenerator::DemoAxes).
SweepCase DepthCase(const Config& config, int num_configs) {
  const hyppo::workload::SweepGenerator generator(
      hyppo::workload::UseCase::Taxi(), config.depth_multiplier, 11);
  return {"max_depth", generator.DemoBaseSpec(),
          generator.DemoAxes(num_configs), config.depth_multiplier,
          /*use_equivalences=*/true};
}

hyppo::core::HyppoSystem MakeSystem(const SweepCase& sweep) {
  hyppo::core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  // Storage-constrained sweep regime: fitted op-states (centroids,
  // scaler means, ridge weights) are tiny and still materialize, so the
  // sequential loop reuses every expensive *fit* — but the bulky
  // transformed train/test datasets exceed the budget, so sequential
  // re-runs the trunk's transforms per config. The batch's one combined
  // execution shares them in memory without touching the store.
  options.runtime.storage_budget_bytes = 64ll << 10;
  // The alpha sweep pins implementations so both topologies produce
  // byte-identical payloads (equivalence augmentation may legally swap in
  // equivalent but not bitwise-identical implementations; see
  // serving_test.cc). The depth sweep needs equivalences for its derive
  // edges and checks its batch against each pipeline run alone.
  options.method.augment.use_equivalences = sweep.use_equivalences;
  hyppo::core::HyppoSystem system(options);
  const hyppo::workload::UseCase use_case = hyppo::workload::UseCase::Taxi();
  const double multiplier = sweep.multiplier;
  system.runtime().RegisterDatasetGenerator(
      use_case.DatasetId(multiplier), [use_case, multiplier]() {
        return hyppo::workload::GenerateUseCase(use_case, multiplier,
                                                /*seed=*/7);
      });
  return system;
}

struct RunOutcome {
  double plan_seconds = 0.0;
  double execute_seconds = 0.0;
  int64_t merged_tasks = 0;
  int64_t shared_prefix_skips = 0;
  // Model fits and derives the run executed.
  int64_t fits = 0;
  int64_t derives = 0;
  // Serialized target payloads by canonical name, for the byte-identity
  // cross-check between the two modes.
  std::map<std::string, std::string> payloads;
};

Status AddPayloads(const hyppo::core::HyppoSystem::RunReport& report,
                   RunOutcome* outcome) {
  for (const auto& [name, payload] : report.target_payloads) {
    HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                           hyppo::storage::SerializePayload(payload));
    outcome->payloads[name] = std::move(bytes);
  }
  return Status::OK();
}

// Counts the executed (observed) tasks of the sweep's model in `system`.
void CountModelTasks(hyppo::core::HyppoSystem& system,
                     const SweepCase& sweep, RunOutcome* outcome) {
  const hyppo::core::History& history = system.runtime().history();
  for (hyppo::EdgeId e : history.graph().hypergraph().LiveEdges()) {
    if (history.graph().task(e).logical_op != sweep.spec.model.logical_op ||
        !history.HasTaskObservation(e)) {
      continue;
    }
    const hyppo::core::TaskType type = history.graph().task(e).type;
    outcome->fits += type == hyppo::core::TaskType::kFit ? 1 : 0;
    outcome->derives += type == hyppo::core::TaskType::kDerive ? 1 : 0;
  }
}

Result<hyppo::workload::SweepWorkload> MakeWorkload(const SweepCase& sweep,
                                                    int num_configs) {
  hyppo::workload::SweepGenerator generator(hyppo::workload::UseCase::Taxi(),
                                            sweep.multiplier,
                                            /*seed=*/11);
  hyppo::workload::SweepOptions sweep_options;
  sweep_options.mode = hyppo::workload::SweepOptions::Mode::kGrid;
  sweep_options.num_configs = num_configs;
  return generator.Generate(sweep.spec, sweep.axes, sweep_options,
                            "bench-sweep");
}

// Runs `workload` once on a fresh system, batched or one pipeline at a
// time.
Result<RunOutcome> RunSweep(const SweepCase& sweep,
                            const hyppo::workload::SweepWorkload& workload,
                            bool batched) {
  hyppo::core::HyppoSystem system = MakeSystem(sweep);
  hyppo::core::HyppoSystem::BatchRunReport report;
  if (batched) {
    HYPPO_ASSIGN_OR_RETURN(report, system.RunBatch(workload.pipelines));
    if (report.batched != (workload.pipelines.size() >= 2)) {
      return Status::Internal("unexpected batch-mode flag");
    }
  } else {
    for (const hyppo::core::Pipeline& pipeline : workload.pipelines) {
      HYPPO_ASSIGN_OR_RETURN(hyppo::core::HyppoSystem::RunReport member,
                             system.RunPipeline(pipeline));
      report.optimize_seconds += member.optimize_seconds;
      report.execute_seconds += member.execute_seconds;
      report.reports.push_back(std::move(member));
    }
  }
  RunOutcome outcome;
  outcome.plan_seconds = report.optimize_seconds;
  outcome.execute_seconds = report.execute_seconds;
  outcome.merged_tasks = report.merged_tasks;
  outcome.shared_prefix_skips = report.shared_prefix_skips;
  CountModelTasks(system, sweep, &outcome);
  for (const auto& member : report.reports) {
    HYPPO_RETURN_NOT_OK(AddPayloads(member, &outcome));
  }
  return outcome;
}

// The target payloads of every pipeline of the sweep, each run alone on a
// fresh system: what fitting every model directly gives.
Result<std::map<std::string, std::string>> PayloadsAlone(
    const SweepCase& sweep, int num_configs) {
  HYPPO_ASSIGN_OR_RETURN(const hyppo::workload::SweepWorkload workload,
                         MakeWorkload(sweep, num_configs));
  RunOutcome outcome;
  for (const hyppo::core::Pipeline& pipeline : workload.pipelines) {
    hyppo::core::HyppoSystem system = MakeSystem(sweep);
    HYPPO_ASSIGN_OR_RETURN(hyppo::core::HyppoSystem::RunReport report,
                           system.RunPipeline(pipeline));
    HYPPO_RETURN_NOT_OK(AddPayloads(report, &outcome));
  }
  return outcome.payloads;
}

}  // namespace

int main(int argc, char** argv) {
  const hyppo::bench::BenchArgs args =
      hyppo::bench::ParseBenchArgs(argc, argv);
  const Config config = ConfigForScale();
  hyppo::bench::Banner(
      "Hyperparameter-sweep batch planning vs. sequential",
      "ROADMAP batch workloads; multi-query optimization per HYPPO Sec. 4");

  std::vector<std::pair<SweepCase, int>> cases;
  for (int num_configs : config.sweep_sizes) {
    cases.emplace_back(AlphaCase(config, num_configs), num_configs);
  }
  for (int num_configs : config.depth_sizes) {
    cases.emplace_back(DepthCase(config, num_configs), num_configs);
  }

  hyppo::bench::JsonWriter json("sweep");
  hyppo::bench::Table table({"axis", "configs", "seq_wall_s", "batch_wall_s",
                             "seq_plan_s", "batch_plan_s", "merged", "skips",
                             "fits", "derives", "identical", "speedup"});
  bool all_identical = true;
  bool all_fast_enough = true;
  for (const auto& [sweep, num_configs] : cases) {
    const Result<hyppo::workload::SweepWorkload> workload =
        MakeWorkload(sweep, num_configs);
    if (!workload.ok()) {
      std::fprintf(stderr, "%s configs=%d: %s\n", sweep.axis.c_str(),
                   num_configs, workload.status().ToString().c_str());
      return 1;
    }
    // Each mode's last run, or its first failure.
    Result<RunOutcome> sequential = RunOutcome();
    Result<RunOutcome> batch = RunOutcome();
    const std::vector<hyppo::bench::RepeatedMeasurement> wall =
        hyppo::bench::MeasureRepeated(
            {[&] {
               if (sequential.ok()) {
                 sequential = RunSweep(sweep, *workload, /*batched=*/false);
               }
             },
             [&] {
               if (batch.ok()) {
                 batch = RunSweep(sweep, *workload, /*batched=*/true);
               }
             }});
    for (const auto& [mode, outcome] :
         {std::pair{"sequential", &sequential}, std::pair{"batch", &batch}}) {
      if (!outcome->ok()) {
        std::fprintf(stderr, "%s %s configs=%d failed: %s\n", mode,
                     sweep.axis.c_str(), num_configs,
                     outcome->status().ToString().c_str());
        return 1;
      }
    }
    const hyppo::bench::RepeatedMeasurement& seq_time = wall[0];
    const hyppo::bench::RepeatedMeasurement& batch_time = wall[1];
    // With equivalences, the sequential loop may pick other (equivalent
    // but not bitwise-identical) implementations as its cost estimates
    // learn, so the batch is checked against each pipeline run alone.
    Result<std::map<std::string, std::string>> reference =
        sequential->payloads;
    if (sweep.use_equivalences) {
      reference = PayloadsAlone(sweep, num_configs);
      if (!reference.ok()) {
        std::fprintf(stderr, "lone %s configs=%d failed: %s\n",
                     sweep.axis.c_str(), num_configs,
                     reference.status().ToString().c_str());
        return 1;
      }
    }
    const bool identical = *reference == batch->payloads;
    all_identical = all_identical && identical;
    const double speedup = batch_time.median > 0.0
                               ? seq_time.median / batch_time.median
                               : 0.0;
    if (num_configs >= 50 && speedup < 2.0) {
      all_fast_enough = false;
    }
    char seq_wall[32], batch_wall[32], seq_plan[32], batch_plan[32];
    std::snprintf(seq_wall, sizeof(seq_wall), "%.3f", seq_time.median);
    std::snprintf(batch_wall, sizeof(batch_wall), "%.3f",
                  batch_time.median);
    std::snprintf(seq_plan, sizeof(seq_plan), "%.3f",
                  sequential->plan_seconds);
    std::snprintf(batch_plan, sizeof(batch_plan), "%.3f",
                  batch->plan_seconds);
    table.AddRow({sweep.axis, std::to_string(num_configs), seq_wall,
                  batch_wall, seq_plan, batch_plan,
                  std::to_string(batch->merged_tasks),
                  std::to_string(batch->shared_prefix_skips),
                  std::to_string(batch->fits), std::to_string(batch->derives),
                  identical ? "yes" : "NO",
                  hyppo::bench::Speedup(seq_time.median,
                                        batch_time.median)});
    json.AddRow("sweep")
        .Set("axis", sweep.axis)
        .Set("configs", num_configs)
        .Set("sequential_wall_seconds", seq_time.median)
        .Set("sequential_wall_seconds_p10", seq_time.p10)
        .Set("sequential_wall_seconds_p90", seq_time.p90)
        .Set("batch_wall_seconds", batch_time.median)
        .Set("batch_wall_seconds_p10", batch_time.p10)
        .Set("batch_wall_seconds_p90", batch_time.p90)
        .Set("sequential_plan_seconds", sequential->plan_seconds)
        .Set("batch_plan_seconds", batch->plan_seconds)
        .Set("sequential_execute_seconds", sequential->execute_seconds)
        .Set("batch_execute_seconds", batch->execute_seconds)
        .Set("merged_tasks", static_cast<double>(batch->merged_tasks))
        .Set("shared_prefix_skips",
             static_cast<double>(batch->shared_prefix_skips))
        .Set("sequential_fits", static_cast<double>(sequential->fits))
        .Set("fits", static_cast<double>(batch->fits))
        .Set("derives", static_cast<double>(batch->derives))
        .Set("payloads_identical", identical ? "true" : "false")
        .Set("speedup", speedup);
  }
  table.Print();
  std::printf(
      "\nBatch mode merges the sweep's shared preprocessing trunk into one\n"
      "task graph (merged > 0), plans all members against one augmented\n"
      "hypergraph, and runs the members' combined plan once, so trunk\n"
      "tasks execute once (skips > 0) — payloads stay byte-identical to\n"
      "the sequential loop (alpha) or to each pipeline run alone\n"
      "(max_depth). On the max_depth axis the batch fits the deepest\n"
      "forest of each estimator count and derives the rest (fits <\n"
      "configs).\n");
  const std::string json_path =
      hyppo::bench::ResolveJsonPath(args, "BENCH_sweep.json");
  if (!json_path.empty() && !json.WriteTo(json_path)) {
    return 1;
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: batch payloads diverged from the reference\n");
    return 1;
  }
  if (!all_fast_enough) {
    std::fprintf(stderr,
                 "FAIL: batch speedup below 2x on a >=50-config sweep\n");
    return 1;
  }
  return 0;
}
