#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "hypergraph/algorithms.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"
#include "workload/scenario.h"
#include "workload/synthetic_hypergraph.h"

namespace hyppo::workload {
namespace {

// ---------------------------------------------------------------------------
// Dataset generators (Table I stand-ins).

TEST(DatagenTest, HiggsShapeAndTarget) {
  auto data = GenerateHiggs(2000, 30, 42);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)->rows(), 2000);
  EXPECT_EQ((*data)->cols(), 30);
  ASSERT_TRUE((*data)->has_target());
  // Binary target with challenge-like signal skew (~1/3).
  int64_t positives = 0;
  for (double y : (*data)->target()) {
    EXPECT_TRUE(y == 0.0 || y == 1.0);
    positives += y > 0.5 ? 1 : 0;
  }
  const double rate = static_cast<double>(positives) / 2000.0;
  EXPECT_GT(rate, 0.2);
  EXPECT_LT(rate, 0.5);
}

TEST(DatagenTest, HiggsHasMissingValues) {
  auto data = GenerateHiggs(2000, 30, 42);
  ASSERT_TRUE(data.ok());
  int64_t missing = 0;
  for (int64_t c = 0; c < 30; ++c) {
    for (int64_t r = 0; r < 2000; ++r) {
      missing += std::isnan((*data)->at(r, c)) ? 1 : 0;
    }
  }
  EXPECT_GT(missing, 100);       // some
  EXPECT_LT(missing, 2000 * 4);  // but sparse
}

TEST(DatagenTest, HiggsDeterministicPerSeed) {
  auto a = GenerateHiggs(200, 10, 7);
  auto b = GenerateHiggs(200, 10, 7);
  auto c = GenerateHiggs(200, 10, 8);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_DOUBLE_EQ((*a)->at(5, 3), (*b)->at(5, 3));
  EXPECT_NE((*a)->at(5, 3), (*c)->at(5, 3));
}

TEST(DatagenTest, TaxiShapeAndDurations) {
  auto data = GenerateTaxi(1500, 42);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ((*data)->cols(), 11);
  EXPECT_EQ((*data)->column_names()[0], "pickup_lat");
  ASSERT_TRUE((*data)->has_target());
  for (double duration : (*data)->target()) {
    EXPECT_GT(duration, 0.0);
    EXPECT_LT(duration, 3600.0 * 12);
  }
}

TEST(DatagenTest, UseCaseDescriptorsMatchTable1) {
  const UseCase higgs = UseCase::Higgs();
  EXPECT_EQ(higgs.teams, 1784);
  EXPECT_EQ(higgs.paper_rows, 800000);
  EXPECT_EQ(higgs.paper_cols, 30);
  EXPECT_TRUE(higgs.classification);
  const UseCase taxi = UseCase::Taxi();
  EXPECT_EQ(taxi.teams, 1254);
  EXPECT_EQ(taxi.paper_rows, 1000000);
  EXPECT_EQ(taxi.paper_cols, 11);
  EXPECT_FALSE(taxi.classification);
  // Multiplier scaling with a floor.
  EXPECT_EQ(higgs.RowsAt(0.01), 8000);
  EXPECT_EQ(higgs.RowsAt(1e-9), 400);
}

// ---------------------------------------------------------------------------
// Pipeline generator.

TEST(PipelineGeneratorTest, DeterministicSequences) {
  PipelineGenerator g1(UseCase::Higgs(), 0.005, 42);
  PipelineGenerator g2(UseCase::Higgs(), 0.005, 42);
  for (int i = 0; i < 5; ++i) {
    auto p1 = g1.Next();
    auto p2 = g2.Next();
    ASSERT_TRUE(p1.ok() && p2.ok());
    EXPECT_EQ(p1->graph.num_artifacts(), p2->graph.num_artifacts());
    // Same artifact names in the same order.
    for (NodeId v = 1; v < p1->graph.num_artifacts(); ++v) {
      EXPECT_EQ(p1->graph.artifact(v).name, p2->graph.artifact(v).name);
    }
  }
}

TEST(PipelineGeneratorTest, PipelinesAreValidHypergraphs) {
  for (const UseCase& use_case : {UseCase::Higgs(), UseCase::Taxi()}) {
    PipelineGenerator generator(use_case, 0.005, 7);
    for (int i = 0; i < 10; ++i) {
      auto pipeline = generator.Next();
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      // Paper: typical pipeline lengths 4-15 tasks.
      EXPECT_GE(pipeline->graph.num_tasks(), 4);
      EXPECT_LE(pipeline->graph.num_tasks(), 20);
      // Every target derivable from the source.
      EXPECT_TRUE(pipeline->graph.hypergraph().AreBConnected(
          pipeline->targets, {pipeline->graph.source()}));
    }
  }
}

TEST(PipelineGeneratorTest, MutationsShareLineagePrefix) {
  PipelineGenerator generator(UseCase::Higgs(), 0.005, 21);
  auto first = generator.Next();
  ASSERT_TRUE(first.ok());
  std::set<std::string> first_names;
  for (NodeId v = 1; v < first->graph.num_artifacts(); ++v) {
    first_names.insert(first->graph.artifact(v).name);
  }
  // Across the following iterations, a good share of artifacts repeats
  // (the within-experiment reuse opportunity).
  int shared_total = 0;
  int artifacts_total = 0;
  for (int i = 0; i < 6; ++i) {
    auto next = generator.Next();
    ASSERT_TRUE(next.ok());
    for (NodeId v = 1; v < next->graph.num_artifacts(); ++v) {
      ++artifacts_total;
      shared_total +=
          first_names.count(next->graph.artifact(v).name) > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(static_cast<double>(shared_total) /
                static_cast<double>(artifacts_total),
            0.25);
}

TEST(PipelineGeneratorTest, EnsemblePipelineUsesMultiInputHyperedge) {
  PipelineGenerator generator(UseCase::Taxi(), 0.005, 5);
  PipelineSpec base = generator.RandomSpec();
  std::vector<StageSpec> models = {generator.RandomModel(),
                                   generator.RandomModel()};
  auto pipeline = generator.BuildEnsemblePipeline(
      base, models, "StackingRegressor", "ens");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  // The ensemble fit hyperedge has >= 3 tail nodes (2 states + train).
  bool found_multi_state = false;
  for (EdgeId e : pipeline->graph.hypergraph().LiveEdges()) {
    if (pipeline->graph.task(e).logical_op == "StackingRegressor" &&
        pipeline->graph.task(e).type == core::TaskType::kFit) {
      EXPECT_GE(pipeline->graph.ordered_tail(e).size(), 3u);
      found_multi_state = true;
    }
  }
  EXPECT_TRUE(found_multi_state);
}

// ---------------------------------------------------------------------------
// Synthetic hypergraphs (scalability study).

TEST(SyntheticHypergraphTest, SatisfiesDegreeRequirement) {
  SyntheticConfig config;
  config.num_artifacts = 15;
  config.alternatives = 3;
  config.seed = 4;
  auto synthetic = GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok());
  const Hypergraph& g = synthetic->aug.graph.hypergraph();
  EXPECT_GE(g.num_nodes() - 1, config.num_artifacts);
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.bstar(v).size(), 3u) << "node " << v;
  }
  EXPECT_FALSE(synthetic->aug.targets.empty());
  EXPECT_GT(synthetic->avg_max_path_length, 0.0);
  // Weights in [0.5, 2].
  for (EdgeId e : g.LiveEdges()) {
    const double w = synthetic->aug.edge_weight[static_cast<size_t>(e)];
    EXPECT_GE(w, 0.5);
    EXPECT_LE(w, 2.0);
  }
}

TEST(SyntheticHypergraphTest, AlwaysSolvable) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SyntheticConfig config;
    config.num_artifacts = 10;
    config.alternatives = 2;
    config.seed = seed;
    auto synthetic = GenerateSyntheticHypergraph(config);
    ASSERT_TRUE(synthetic.ok());
    EXPECT_TRUE(synthetic->aug.graph.hypergraph().AreBConnected(
        synthetic->aug.targets, {synthetic->aug.graph.source()}));
  }
}

TEST(SyntheticHypergraphTest, RejectsDegenerateConfigs) {
  SyntheticConfig config;
  config.num_artifacts = 1;
  EXPECT_FALSE(GenerateSyntheticHypergraph(config).ok());
}

// ---------------------------------------------------------------------------
// Scenario runners (small simulated smoke runs exercising the full loop).

ScenarioConfig SmallScenario(const UseCase& use_case) {
  ScenarioConfig config;
  config.use_case = use_case;
  config.num_pipelines = 6;
  config.budget_factor = 0.1;
  config.dataset_multiplier = 0.02;
  config.seed = 42;
  config.simulate = true;
  return config;
}

TEST(ScenarioTest, IterativeScenarioRunsAllMethods) {
  const ScenarioConfig config = SmallScenario(UseCase::Higgs());
  const std::pair<const char*, MethodFactory> methods[] = {
      {"NoOptimization", MakeNoOptimizationFactory()},
      {"Helix", MakeHelixFactory()},
      {"Collab", MakeCollabFactory()},
      {"HYPPO", MakeHyppoFactory()},
  };
  double noopt_seconds = 0.0;
  for (const auto& [name, factory] : methods) {
    auto result = RunIterativeScenario(factory, config);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status();
    EXPECT_EQ(result->method, name);
    EXPECT_EQ(result->per_pipeline_seconds.size(), 6u);
    EXPECT_GT(result->cumulative_seconds, 0.0);
    EXPECT_GT(result->price_eur, 0.0);
    if (std::string(name) == "NoOptimization") {
      noopt_seconds = result->cumulative_seconds;
    } else {
      // Optimizing methods never lose to the straw man (same cost model).
      EXPECT_LE(result->cumulative_seconds, noopt_seconds * 1.001) << name;
    }
  }
}

// The parallelism knob threads through RuntimeOptions into the plan
// executor; the scenario's simulated cost totals must not depend on it.
TEST(ScenarioTest, ParallelismDoesNotChangeSimulatedCosts) {
  const ScenarioConfig serial = SmallScenario(UseCase::Higgs());
  ScenarioConfig parallel = SmallScenario(UseCase::Higgs());
  parallel.parallelism = 2;
  auto serial_run = RunIterativeScenario(MakeHyppoFactory(), serial);
  auto parallel_run = RunIterativeScenario(MakeHyppoFactory(), parallel);
  ASSERT_TRUE(serial_run.ok()) << serial_run.status();
  ASSERT_TRUE(parallel_run.ok()) << parallel_run.status();
  EXPECT_NEAR(parallel_run->cumulative_seconds,
              serial_run->cumulative_seconds, 1e-9);
  EXPECT_EQ(parallel_run->stored_artifacts, serial_run->stored_artifacts);
}

TEST(ScenarioTest, HyppoBeatsBaselinesOnTaxi) {
  const ScenarioConfig config = SmallScenario(UseCase::Taxi());
  auto noopt = RunIterativeScenario(MakeNoOptimizationFactory(), config);
  auto collab = RunIterativeScenario(MakeCollabFactory(), config);
  auto hyppo = RunIterativeScenario(MakeHyppoFactory(), config);
  ASSERT_TRUE(noopt.ok() && collab.ok() && hyppo.ok());
  EXPECT_LT(hyppo->cumulative_seconds, noopt->cumulative_seconds);
  EXPECT_LE(hyppo->cumulative_seconds, collab->cumulative_seconds * 1.001);
}

TEST(ScenarioTest, BudgetScalesWithFactor) {
  ScenarioConfig small = SmallScenario(UseCase::Higgs());
  small.budget_factor = 0.01;
  ScenarioConfig large = SmallScenario(UseCase::Higgs());
  large.budget_factor = 1.0;
  auto small_run = RunIterativeScenario(MakeHyppoFactory(), small);
  auto large_run = RunIterativeScenario(MakeHyppoFactory(), large);
  ASSERT_TRUE(small_run.ok() && large_run.ok());
  EXPECT_LT(small_run->budget_bytes, large_run->budget_bytes);
  // Larger budget cannot hurt execution time.
  EXPECT_LE(large_run->cumulative_seconds,
            small_run->cumulative_seconds * 1.001);
  // Price includes the budget term.
  EXPECT_GT(large_run->price_eur,
            large_run->cumulative_seconds * 0.00018);
}

TEST(ScenarioTest, RetrievalScenarioOrdersMethods) {
  RetrievalConfig config;
  config.use_case = UseCase::Higgs();
  config.history_pipelines = 6;
  config.budget_factor = 0.1;
  config.dataset_multiplier = 0.02;
  config.num_requests = 10;
  config.request_size = 3;
  auto sharing = RunRetrievalScenario(MakeSharingFactory(), config);
  auto hyppo = RunRetrievalScenario(MakeHyppoFactory(), config);
  ASSERT_TRUE(sharing.ok()) << sharing.status();
  ASSERT_TRUE(hyppo.ok()) << hyppo.status();
  EXPECT_GT(sharing->mean_request_seconds, 0.0);
  EXPECT_LE(hyppo->mean_request_seconds,
            sharing->mean_request_seconds * 1.001);
  EXPECT_GT(hyppo->stored_fraction, 0.0);
  EXPECT_DOUBLE_EQ(sharing->stored_fraction, 0.0);  // Sharing stores nothing
}

TEST(ScenarioTest, RetrievalModelsOnly) {
  RetrievalConfig config;
  config.use_case = UseCase::Taxi();
  config.history_pipelines = 6;
  config.budget_factor = 0.1;
  config.dataset_multiplier = 0.02;
  config.num_requests = 5;
  config.request_size = 2;
  config.models_only = true;
  auto result = RunRetrievalScenario(MakeHyppoFactory(), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->mean_request_seconds, 0.0);
}

TEST(ScenarioTest, EnsembleScenarioHyppoWinsBig) {
  EnsembleConfig config;
  config.history_pipelines = 8;
  config.ensemble_pipelines = 4;
  config.budget_factor = 0.1;
  config.dataset_multiplier = 0.02;
  auto collab = RunEnsembleScenario(MakeCollabFactory(), config);
  auto hyppo = RunEnsembleScenario(MakeHyppoFactory(), config);
  ASSERT_TRUE(collab.ok()) << collab.status();
  ASSERT_TRUE(hyppo.ok()) << hyppo.status();
  EXPECT_LT(hyppo->cumulative_seconds, collab->cumulative_seconds);
}

TEST(ScenarioTest, TypeStudyProducesFig5Aggregates) {
  ScenarioConfig config = SmallScenario(UseCase::Higgs());
  auto study = RunTypeStudy(config);
  ASSERT_TRUE(study.ok()) << study.status();
  EXPECT_FALSE(study->artifact_kinds.empty());
  EXPECT_FALSE(study->task_types.empty());
  // Fit tasks cost more than evaluate tasks (Fig. 5(e)).
  double fit_seconds = 0.0;
  double evaluate_seconds = 0.0;
  for (const TypeStudyRow& row : study->task_types) {
    if (row.label == "fit") {
      fit_seconds = row.mean_seconds;
    }
    if (row.label == "evaluate") {
      evaluate_seconds = row.mean_seconds;
    }
  }
  EXPECT_GT(fit_seconds, evaluate_seconds);
  // Train/test artifacts are MB-scale, op-states far smaller (Fig. 5(d)).
  double train_bytes = 0.0;
  double state_bytes = 0.0;
  for (const TypeStudyRow& row : study->artifact_kinds) {
    if (row.label == "train") {
      train_bytes = row.mean_bytes;
    }
    if (row.label == "op-state") {
      state_bytes = row.mean_bytes;
    }
  }
  EXPECT_GT(train_bytes, state_bytes);
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  const ScenarioConfig config = SmallScenario(UseCase::Higgs());
  auto a = RunIterativeScenario(MakeHyppoFactory(), config);
  auto b = RunIterativeScenario(MakeHyppoFactory(), config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->cumulative_seconds, b->cumulative_seconds);
}

}  // namespace
}  // namespace hyppo::workload
