// Quickstart: the paper's Fig. 1 walkthrough, end to end.
//
// A user submits the Fig. 1(a) pipeline twice (the second time with a
// TensorFlow-flavoured scaler — an *equivalent* task). HYPPO parses the
// code into a hypergraph, augments it against the history, searches for
// the minimum-cost plan, executes it, and materializes artifacts. The
// second run demonstrates both reuse (materialized split outputs) and
// equivalence (the tfl scaler's outputs are recognized as the skl
// scaler's).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/hyppo.h"
#include "serving/session_manager.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace {

constexpr char kPipelineV1[] = R"(
# Fig. 1(a): scikit-learn flavoured exploratory pipeline
data        = load("higgs", rows=8000, cols=30)
train, test = sk.TrainTestSplit.split(data, test_size=0.25)
imputer     = sk.SimpleImputer.fit(train, strategy=mean)
train_i     = imputer.transform(train)
test_i      = imputer.transform(test)
scaler      = sk.StandardScaler.fit(train_i)
train_s     = scaler.transform(train_i)
test_s      = scaler.transform(test_i)
model       = sk.DecisionTreeClassifier.fit(train_s, max_depth=6)
preds       = model.predict(test_s)
score       = evaluate(preds, test_s, metric="accuracy")
)";

// Iteration 2: same logical pipeline, but the user switched the scaler to
// the TensorFlow implementation (t7 in the paper's Fig. 1) and deepened
// the tree. Everything up to the scaler is reusable; the scaler itself is
// *equivalent*, so its artifacts are too.
constexpr char kPipelineV2[] = R"(
data        = load("higgs", rows=8000, cols=30)
train, test = sk.TrainTestSplit.split(data, test_size=0.25)
imputer     = sk.SimpleImputer.fit(train, strategy=mean)
train_i     = imputer.transform(train)
test_i      = imputer.transform(test)
scaler      = tf.StandardScaler.fit(train_i)
train_s     = scaler.transform(train_i)
test_s      = scaler.transform(test_i)
model       = sk.DecisionTreeClassifier.fit(train_s, max_depth=8)
preds       = model.predict(test_s)
score       = evaluate(preds, test_s, metric="accuracy")
)";

void PrintReport(const char* label,
                 const hyppo::core::HyppoSystem::RunReport& report) {
  std::printf("%s\n", label);
  std::printf("  plan: %d tasks, estimated cost %s\n",
              report.tasks_executed,
              hyppo::FormatSeconds(report.plan.cost).c_str());
  std::printf("  executed in %s (pipeline as written: ~%s)\n",
              hyppo::FormatSeconds(report.execute_seconds).c_str(),
              hyppo::FormatSeconds(report.baseline_seconds).c_str());
  std::printf("  planning overhead: %s\n",
              hyppo::FormatSeconds(report.optimize_seconds).c_str());
  for (const auto& [name, payload] : report.target_payloads) {
    if (const double* value = std::get_if<double>(&payload)) {
      std::printf("  target %s = %.4f\n", name.substr(0, 8).c_str(), *value);
    }
  }
}

// Multi-tenant serving demo (--sessions N, N > 1): N concurrent client
// sessions share one runtime (history + store) through a
// serving::SessionManager. Every session submits both Fig. 1 iterations;
// whichever session materializes the shared prefix first serves everyone
// else's plans (cross-session reuse, docs/SERVING.md).
int RunServingDemo(const hyppo::core::HyppoSystem::Options& base,
                   int num_sessions) {
  namespace serving = hyppo::serving;
  serving::ServingOptions options;
  options.runtime = base.runtime;
  options.method = base.method;
  options.max_in_flight_sessions = num_sessions;
  serving::SessionManager manager(options);
  manager.session_status().Abort("open store");

  auto higgs = hyppo::workload::GenerateHiggs(8000, 30, /*seed=*/42);
  higgs.status().Abort("GenerateHiggs");
  manager.runtime().RegisterDataset("higgs", *higgs);

  std::vector<serving::SessionRequest> requests;
  for (int s = 0; s < num_sessions; ++s) {
    serving::SessionRequest request;
    request.session_id = "client-" + std::to_string(s);
    auto v1 = hyppo::core::ParsePipeline(
        kPipelineV1, "fig1-v1-s" + std::to_string(s),
        manager.runtime().dictionary());
    v1.status().Abort("parse v1");
    auto v2 = hyppo::core::ParsePipeline(
        kPipelineV2, "fig1-v2-s" + std::to_string(s),
        manager.runtime().dictionary());
    v2.status().Abort("parse v2");
    request.pipelines.push_back(*std::move(v1));
    request.pipelines.push_back(*std::move(v2));
    requests.push_back(std::move(request));
  }

  std::printf("serving %d concurrent sessions against one shared history\n",
              num_sessions);
  const auto reports = manager.RunSessions(requests);
  for (const auto& report : reports) {
    report.status.Abort(report.session_id.c_str());
    std::printf(
        "  %s: %d pipelines, exec %s, reuse loads %lld "
        "(%lld cross-session)\n",
        report.session_id.c_str(), report.pipelines_completed,
        hyppo::FormatSeconds(report.charged_seconds).c_str(),
        static_cast<long long>(report.reuse_loads),
        static_cast<long long>(report.cross_session_loads));
  }
  // Marker line for the CI serving check.
  std::printf(
      "served %lld sessions with %lld cross-session reuse loads\n",
      static_cast<long long>(manager.stats().sessions_completed),
      static_cast<long long>(
          manager.runtime().monitor().num_cross_session_loads()));
  std::printf("history: %d artifacts, %zu materialized\n",
              manager.runtime().history().num_artifacts(),
              manager.runtime().history().MaterializedArtifacts().size());
  return 0;
}

// Hyperparameter-sweep demo (--sweep N): the canonical model grid from
// workload::SweepGenerator::DemoSweep — one preprocessing trunk, N model
// configurations — planned and executed as one merged batch
// (HyppoSystem::RunBatch, docs/SWEEP.md). The member plans combine into
// one execution, so the shared trunk runs once.
int SweepDemo(const hyppo::core::HyppoSystem::Options& base,
                 int num_configs) {
  namespace workload = hyppo::workload;
  constexpr double kScale = 0.005;  // ~400-row dataset: fast demo runs
  hyppo::core::HyppoSystem system(base);
  system.runtime().session_status().Abort("open store");

  const workload::UseCase use_case = workload::UseCase::Higgs();
  system.runtime().RegisterDatasetGenerator(
      use_case.DatasetId(kScale),
      [use_case]() { return workload::GenerateUseCase(use_case, kScale, 7); });

  workload::SweepGenerator generator(use_case, kScale, /*seed=*/11);
  auto sweep = generator.DemoSweep(num_configs, "quickstart-sweep");
  sweep.status().Abort("generate sweep");

  std::printf("sweeping %d model configurations over one shared trunk\n",
              num_configs);
  auto report = system.RunBatch(sweep->pipelines);
  report.status().Abort("run sweep batch");
  for (size_t m = 0; m < report->reports.size(); ++m) {
    const auto& member = report->reports[m];
    std::printf("  config %zu: %d tasks executed, exec %s\n", m,
                member.tasks_executed,
                hyppo::FormatSeconds(member.execute_seconds).c_str());
  }
  // Marker line for the CI sweep check.
  std::printf(
      "batch-planned %zu sweep configs with %lld merged tasks and "
      "%lld shared-prefix skips\n",
      report->reports.size(), static_cast<long long>(report->merged_tasks),
      static_cast<long long>(report->shared_prefix_skips));
  std::printf("plan overhead for the whole batch: %s\n",
              hyppo::FormatSeconds(report->optimize_seconds).c_str());
  return 0;
}

}  // namespace

// Usage: quickstart [--parallelism <n|auto>] [--store-dir <dir>]
//        [--sessions <n>] [--sweep <n>] [catalog-dir]
//
// --parallelism sets the worker-thread count for execution ("auto" = all
// hardware threads).
// --store-dir makes the session durable: materialized artifacts live in a
// disk-backed store under <dir> and the history is logged there
// (docs/STORAGE.md), so running quickstart twice with the same --store-dir reuses the
// first run's artifacts across the process boundary. --sessions N (N > 1)
// switches to the multi-tenant serving demo: N concurrent sessions share
// one history/store and reuse each other's materializations. --sweep N
// switches to the hyperparameter-sweep demo: N model configurations over
// one shared preprocessing trunk, planned and executed as a single
// merged batch (docs/SWEEP.md). An optional
// positional argument names a directory to save the session's catalog
// into (history + materialized artifacts); `tools/hyppo_lint <dir>` can
// then verify the saved history's invariants.
int main(int argc, char** argv) {
  using hyppo::core::HyppoSystem;

  HyppoSystem::Options options;
  options.runtime.storage_budget_bytes = 8ll << 20;  // 8 MiB budget

  const char* catalog_dir = nullptr;
  int sessions = 1;
  int sweep_configs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--parallelism") == 0 && i + 1 < argc) {
      const std::string value = argv[++i];
      options.runtime.parallelism =
          value == "auto" ? hyppo::core::RuntimeOptions::DefaultParallelism()
                          : std::atoi(value.c_str());
      if (options.runtime.parallelism < 1) {
        std::fprintf(stderr, "invalid --parallelism value '%s'\n",
                     value.c_str());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--store-dir") == 0 && i + 1 < argc) {
      options.runtime.store_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--sessions") == 0 && i + 1 < argc) {
      sessions = std::atoi(argv[++i]);
      if (sessions < 1) {
        std::fprintf(stderr, "invalid --sessions value '%s'\n", argv[i]);
        return 1;
      }
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_configs = std::atoi(argv[++i]);
      if (sweep_configs < 2) {
        std::fprintf(stderr, "invalid --sweep value '%s' (need >= 2)\n",
                     argv[i]);
        return 1;
      }
    } else {
      catalog_dir = argv[i];
    }
  }

  if (sessions > 1) {
    return RunServingDemo(options, sessions);
  }
  if (sweep_configs > 0) {
    return SweepDemo(options, sweep_configs);
  }

  HyppoSystem system(options);
  system.runtime().session_status().Abort("open store");
  if (!options.runtime.store_dir.empty()) {
    const size_t restored =
        system.runtime().history().MaterializedArtifacts().size();
    if (restored > 0) {
      // Marker line for the CI persistence check: the second run finds
      // the first run's artifacts already on disk.
      std::printf("reopened store with %zu artifacts\n", restored);
    } else {
      std::printf("opened fresh store at %s\n",
                  options.runtime.store_dir.c_str());
    }
  }

  // Register the (synthetic) HIGGS dataset the pipelines load.
  auto higgs = hyppo::workload::GenerateHiggs(8000, 30, /*seed=*/42);
  higgs.status().Abort("GenerateHiggs");
  system.RegisterDataset("higgs", *higgs);

  auto report1 = system.RunCode(kPipelineV1, "fig1-v1");
  report1.status().Abort("run v1");
  PrintReport("iteration 1 (cold history):", *report1);

  auto report2 = system.RunCode(kPipelineV2, "fig1-v2");
  report2.status().Abort("run v2");
  PrintReport("\niteration 2 (reuse + equivalences):", *report2);

  std::printf("\nhistory: %d artifacts, %d tasks, %zu materialized\n",
              system.runtime().history().num_artifacts(),
              system.runtime().history().num_tasks(),
              system.runtime().history().MaterializedArtifacts().size());
  std::printf(
      "iteration 2 executed %d of its 11 tasks: the split and the imputer\n"
      "came back from storage, and the tfl scaler's artifacts were\n"
      "recognized as equivalent to the materialized skl ones.\n",
      report2->tasks_executed);
  if (catalog_dir != nullptr) {
    system.runtime().SaveCatalog(catalog_dir).Abort("save catalog");
    std::printf("catalog saved to %s\n", catalog_dir);
  }
  return 0;
}
