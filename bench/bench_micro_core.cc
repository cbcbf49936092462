// Micro-benchmarks (google-benchmark) for the core building blocks:
// B-connectivity, canonical naming, parsing, augmentation, plan search,
// the DAG reuse min-cut, and ML operator kernels.

#include <benchmark/benchmark.h>

#include <set>

#include "baselines/collab_e.h"
#include "baselines/dag_reuse.h"
#include "core/hyppo.h"
#include "hypergraph/algorithms.h"
#include "core/naming.h"
#include "core/parser.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"
#include "workload/synthetic_hypergraph.h"

namespace {

using namespace hyppo;

void BM_BConnectivity(benchmark::State& state) {
  workload::SyntheticConfig config;
  config.num_artifacts = static_cast<int32_t>(state.range(0));
  config.alternatives = 2;
  config.seed = 1;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  synthetic.status().Abort("generate");
  const Hypergraph& graph = synthetic->aug.graph.hypergraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.BConnectedFrom({0}));
  }
}
BENCHMARK(BM_BConnectivity)->Arg(16)->Arg(64)->Arg(256);

void BM_CanonicalNaming(benchmark::State& state) {
  core::TaskInfo task;
  task.logical_op = "StandardScaler";
  task.type = core::TaskType::kFit;
  task.config.SetDouble("alpha", 0.5);
  const std::vector<std::string> inputs = {"0123456789abcdef",
                                           "fedcba9876543210"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::TaskOutputNames(task, inputs, 2));
  }
}
BENCHMARK(BM_CanonicalNaming);

void BM_ParsePipeline(benchmark::State& state) {
  const core::Dictionary dictionary =
      core::Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  const char* code = R"(
data        = load("higgs", rows=800000, cols=30)
train, test = sk.TrainTestSplit.split(data, test_size=0.25)
scaler      = sk.StandardScaler.fit(train)
train_s     = scaler.transform(train)
test_s      = scaler.transform(test)
model       = sk.RandomForestClassifier.fit(train_s, n_estimators=20)
preds       = model.predict(test_s)
score       = evaluate(preds, test_s, metric="accuracy")
)";
  for (auto _ : state) {
    auto pipeline = core::ParsePipeline(code, "bench", dictionary);
    pipeline.status().Abort("parse");
    benchmark::DoNotOptimize(pipeline);
  }
}
BENCHMARK(BM_ParsePipeline);

// Augmentation + optimization against a populated history: the per-
// pipeline overhead HYPPO adds in steady state (paper: < 10 ms).
class PlannerFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    if (runtime) {
      return;
    }
    core::RuntimeOptions options;
    options.storage_budget_bytes = 64ll << 20;
    options.simulate = true;
    runtime = std::make_unique<core::Runtime>(options);
    const workload::UseCase use_case = workload::UseCase::Higgs();
    runtime->RegisterDatasetGenerator(use_case.DatasetId(0.01), [use_case]() {
      return workload::GenerateUseCase(use_case, 0.01, 42);
    });
    method = std::make_unique<core::HyppoMethod>(runtime.get());
    generator = std::make_unique<workload::PipelineGenerator>(use_case, 0.01,
                                                              42);
    const int64_t history_size = state.range(0);
    for (int64_t i = 0; i < history_size; ++i) {
      auto pipeline = generator->Next();
      pipeline.status().Abort("generate");
      method->Run(*pipeline).status().Abort("run");
    }
    fresh = std::make_unique<core::Pipeline>(*generator->Next());
  }

  void TearDown(const benchmark::State&) override {}

  std::unique_ptr<core::Runtime> runtime;
  std::unique_ptr<core::HyppoMethod> method;
  std::unique_ptr<workload::PipelineGenerator> generator;
  std::unique_ptr<core::Pipeline> fresh;
};

BENCHMARK_DEFINE_F(PlannerFixture, AugmentAndOptimize)
(benchmark::State& state) {
  for (auto _ : state) {
    auto planned = method->PlanPipeline(*fresh);
    planned.status().Abort("plan");
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK_REGISTER_F(PlannerFixture, AugmentAndOptimize)->Arg(10)->Arg(30);

// Materializer guards: the decision sweep is O(E + V log V) thanks to the
// hoisted RecomputeCosts()/depth precomputation — Gain() per node against
// shared vectors, not a per-node value iteration. A regression to the
// O(V*E) shape shows up directly in GainSweep's scaling with history
// size.
BENCHMARK_DEFINE_F(PlannerFixture, MaterializerGainSweep)
(benchmark::State& state) {
  core::Materializer materializer(&runtime->augmenter());
  core::Materializer::Options options;
  options.budget_bytes = runtime->options().storage_budget_bytes;
  const core::History& history = runtime->history();
  for (auto _ : state) {
    const std::vector<double> recompute =
        materializer.RecomputeCosts(history);
    const std::vector<double> depth = AverageDepthFromSource(
        history.graph().hypergraph(), history.graph().source());
    double total = 0.0;
    for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
      total += materializer.Gain(history, v, options, recompute, depth);
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          (history.graph().num_artifacts() - 1));
}
BENCHMARK_REGISTER_F(PlannerFixture, MaterializerGainSweep)
    ->Arg(10)
    ->Arg(30);

BENCHMARK_DEFINE_F(PlannerFixture, MaterializerDecide)
(benchmark::State& state) {
  core::Materializer materializer(&runtime->augmenter());
  core::Materializer::Options options;
  options.budget_bytes = runtime->options().storage_budget_bytes;
  const core::History& history = runtime->history();
  std::set<std::string> storable;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    storable.insert(history.graph().artifact(v).name);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        materializer.Decide(history, storable, options));
  }
}
BENCHMARK_REGISTER_F(PlannerFixture, MaterializerDecide)->Arg(10)->Arg(30);

void BM_DagReuseMinCut(benchmark::State& state) {
  workload::SyntheticConfig config;
  config.num_artifacts = static_cast<int32_t>(state.range(0));
  config.alternatives = 1;
  config.seed = 3;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  synthetic.status().Abort("generate");
  const auto chosen = baselines::OriginalDerivations(synthetic->aug);
  for (auto _ : state) {
    auto plan = baselines::SolveDagReuse(synthetic->aug, chosen,
                                         synthetic->aug.targets);
    plan.status().Abort("reuse");
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DagReuseMinCut)->Arg(16)->Arg(64);

void BM_OptimizePriority(benchmark::State& state) {
  workload::SyntheticConfig config;
  config.num_artifacts = static_cast<int32_t>(state.range(0));
  config.alternatives = 2;
  config.seed = 7;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  synthetic.status().Abort("generate");
  core::PlanGenerator generator;
  core::PlanGenerator::Options options;
  options.strategy = core::PlanGenerator::Strategy::kPriority;
  for (auto _ : state) {
    auto plan = generator.Optimize(synthetic->aug, options);
    plan.status().Abort("optimize");
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OptimizePriority)->Arg(10)->Arg(14)->Arg(18);

void BM_StandardScalerFit(benchmark::State& state) {
  auto data = workload::GenerateHiggs(state.range(0), 30, 42);
  data.status().Abort("generate");
  auto op = ml::OperatorRegistry::Global().Get("skl.StandardScaler");
  op.status().Abort("lookup");
  ml::TaskInputs inputs;
  inputs.datasets.push_back(*data);
  for (auto _ : state) {
    auto out = (*op)->Execute(ml::MlTask::kFit, inputs, ml::Config());
    out.status().Abort("fit");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 30);
}
BENCHMARK(BM_StandardScalerFit)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
