#include <gtest/gtest.h>

#include <cmath>

#include "core/batch_planner.h"
#include "core/hyppo.h"
#include "core/optimizer.h"
#include "hypergraph/algorithms.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"
#include "workload/synthetic_hypergraph.h"

namespace hyppo::core {
namespace {

// Hand-built augmentation helpers ------------------------------------------

ArtifactInfo MakeArtifact(const std::string& name,
                          ArtifactKind kind = ArtifactKind::kData) {
  ArtifactInfo info;
  info.name = name;
  info.display = name;
  info.kind = kind;
  info.rows = 10;
  info.cols = 2;
  info.size_bytes = 160;
  return info;
}

EdgeId AddTask(Augmentation& aug, const std::string& label,
               std::vector<NodeId> tails, std::vector<NodeId> heads,
               double weight) {
  TaskInfo task;
  task.logical_op = label;
  task.type = TaskType::kTransform;
  task.impl = "synthetic." + label;
  EdgeId e = aug.graph.AddTask(task, std::move(tails), std::move(heads))
                 .ValueOrDie();
  aug.edge_weight.resize(
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots()), 0.0);
  aug.edge_seconds.resize(aug.edge_weight.size(), 0.0);
  aug.edge_weight[static_cast<size_t>(e)] = weight;
  aug.edge_seconds[static_cast<size_t>(e)] = weight;
  return e;
}

EdgeId AddLoad(Augmentation& aug, NodeId node, double weight) {
  EdgeId e = aug.graph.AddLoadTask(node).ValueOrDie();
  aug.edge_weight.resize(
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots()), 0.0);
  aug.edge_seconds.resize(aug.edge_weight.size(), 0.0);
  aug.edge_weight[static_cast<size_t>(e)] = weight;
  aug.edge_seconds[static_cast<size_t>(e)] = weight;
  return e;
}

// The paper's Fig. 1(c) decision: derive v3/v4 via t2, via the equivalent
// t7, or load them; plan Π5 (loads) should win when loads are cheap.
struct Fig1Augmentation {
  Augmentation aug;
  NodeId v1, v2, v3, v4, v5;
  EdgeId load_v1, load_v2, load_v3, load_v4, t2, t7, t3;
};

Fig1Augmentation BuildFig1(double load_cost, double t2_cost,
                           double t7_cost) {
  Fig1Augmentation f;
  f.v1 = f.aug.graph.AddArtifact(MakeArtifact("v1")).ValueOrDie();
  f.v2 = f.aug.graph.AddArtifact(MakeArtifact("v2")).ValueOrDie();
  f.v3 = f.aug.graph.AddArtifact(MakeArtifact("v3")).ValueOrDie();
  f.v4 = f.aug.graph.AddArtifact(MakeArtifact("v4")).ValueOrDie();
  f.v5 = f.aug.graph.AddArtifact(MakeArtifact("v5")).ValueOrDie();
  f.load_v1 = AddLoad(f.aug, f.v1, load_cost);
  f.load_v2 = AddLoad(f.aug, f.v2, load_cost);
  f.load_v3 = AddLoad(f.aug, f.v3, load_cost);
  f.load_v4 = AddLoad(f.aug, f.v4, load_cost);
  f.t2 = AddTask(f.aug, "t2", {f.v1}, {f.v3, f.v4}, t2_cost);
  f.t7 = AddTask(f.aug, "t7", {f.v1}, {f.v3, f.v4}, t7_cost);
  f.t3 = AddTask(f.aug, "t3", {f.v4, f.v2}, {f.v5}, 1.0);
  f.aug.targets = {f.v5, f.v3};
  return f;
}

using Strategy = PlanGenerator::Strategy;

PlanGenerator::Options MakeOptions(Strategy strategy,
                                   bool dominance = false) {
  PlanGenerator::Options options;
  options.strategy = strategy;
  options.dominance_pruning = dominance;
  return options;
}

TEST(OptimizerTest, PrefersLoadsWhenCheap) {
  // Loads cost 0.1 each; computing t2/t7 costs 5. Optimal: load v2, v3,
  // v4 and run t3 => 0.3 + 1.0.
  Fig1Augmentation f = BuildFig1(0.1, 5.0, 5.0);
  PlanGenerator generator;
  auto plan = generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NEAR(plan->cost, 1.3, 1e-12);
  EXPECT_TRUE(IsValidPlan(f.aug.graph.hypergraph(), plan->edges,
                          {f.aug.graph.source()}, f.aug.targets));
  EXPECT_TRUE(IsMinimalPlan(f.aug.graph.hypergraph(), plan->edges,
                            {f.aug.graph.source()}, f.aug.targets));
}

TEST(OptimizerTest, PrefersEquivalentTaskWhenCheaper) {
  // Loads are expensive (10); t7 (the equivalent implementation) costs 1
  // while the user's t2 costs 5: the optimizer should route through t7.
  Fig1Augmentation f = BuildFig1(10.0, 5.0, 1.0);
  PlanGenerator generator;
  auto plan = generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
  ASSERT_TRUE(plan.ok()) << plan.status();
  // v1 load (10) + t7 (1) + v2 load (10) + t3 (1) = 22.
  EXPECT_NEAR(plan->cost, 22.0, 1e-12);
  EXPECT_NE(std::find(plan->edges.begin(), plan->edges.end(), f.t7),
            plan->edges.end());
  EXPECT_EQ(std::find(plan->edges.begin(), plan->edges.end(), f.t2),
            plan->edges.end());
}

TEST(OptimizerTest, MultiHeadEdgeCostCountedOnce) {
  // t2 produces BOTH v3 and v4; requesting both should pay t2 once.
  Fig1Augmentation f = BuildFig1(100.0, 2.0, 50.0);
  f.aug.targets = {f.v3, f.v4};
  // Make v1 loadable cheaply so the derivation is v1 -> t2.
  f.aug.edge_weight[static_cast<size_t>(f.load_v1)] = 1.0;
  PlanGenerator generator;
  auto plan = generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NEAR(plan->cost, 3.0, 1e-12);
  EXPECT_EQ(plan->edges.size(), 2u);
}

TEST(OptimizerTest, AllStrategiesAgreeOnFig1) {
  for (double load : {0.1, 2.0, 10.0}) {
    Fig1Augmentation f = BuildFig1(load, 5.0, 1.5);
    PlanGenerator generator;
    auto stack = generator.Optimize(f.aug, MakeOptions(Strategy::kStack));
    auto priority =
        generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
    auto astar = generator.Optimize(f.aug, MakeOptions(Strategy::kAStar));
    ASSERT_TRUE(stack.ok() && priority.ok() && astar.ok());
    EXPECT_NEAR(stack->cost, priority->cost, 1e-9);
    EXPECT_NEAR(astar->cost, priority->cost, 1e-9);
  }
}

TEST(OptimizerTest, FailsWhenNoDerivationExists) {
  Augmentation aug;
  NodeId orphan = aug.graph.AddArtifact(MakeArtifact("orphan")).ValueOrDie();
  aug.targets = {orphan};
  aug.edge_weight.clear();
  aug.edge_seconds.clear();
  PlanGenerator generator;
  EXPECT_TRUE(generator.Optimize(aug, MakeOptions(Strategy::kPriority))
                  .status()
                  .IsFailedPrecondition());
}

TEST(OptimizerTest, FailsWhenOrphanFeedsDerivableNode) {
  Augmentation aug;
  NodeId a = aug.graph.AddArtifact(MakeArtifact("a")).ValueOrDie();
  NodeId orphan = aug.graph.AddArtifact(MakeArtifact("orphan")).ValueOrDie();
  AddLoad(aug, a, 1.0);
  AddTask(aug, "t", {orphan}, {a}, 0.5);
  aug.targets = {orphan};
  PlanGenerator generator;
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    auto plan = generator.Optimize(aug, MakeOptions(strategy));
    ASSERT_FALSE(plan.ok()) << PlanGenerator::StrategyToString(strategy);
    EXPECT_TRUE(plan.status().IsFailedPrecondition())
        << PlanGenerator::StrategyToString(strategy) << ": "
        << plan.status();
  }
}

TEST(OptimizerTest, EmptyTargetsRejected) {
  Augmentation aug;
  PlanGenerator generator;
  EXPECT_TRUE(generator.Optimize(aug, MakeOptions(Strategy::kPriority))
                  .status()
                  .IsInvalidArgument());
}

TEST(OptimizerTest, GreedyReturnsValidPlan) {
  Fig1Augmentation f = BuildFig1(0.5, 3.0, 2.0);
  PlanGenerator generator;
  auto greedy = generator.Optimize(f.aug, MakeOptions(Strategy::kGreedy));
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  EXPECT_TRUE(IsValidPlan(f.aug.graph.hypergraph(), greedy->edges,
                          {f.aug.graph.source()}, f.aug.targets));
  auto optimal = generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
  EXPECT_GE(greedy->cost, optimal->cost - 1e-12);
}

TEST(OptimizerTest, ExplorationForcesNewTasks) {
  Fig1Augmentation f = BuildFig1(0.1, 5.0, 5.0);
  // Mark t2 as a new task. With c_exp = 1 the plan must include it even
  // though loading v3/v4 is far cheaper.
  f.aug.new_tasks = {f.t2};
  PlanGenerator generator;
  PlanGenerator::Options explore = MakeOptions(Strategy::kPriority);
  explore.exploration = 1.0;
  auto plan = generator.Optimize(f.aug, explore);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(std::find(plan->edges.begin(), plan->edges.end(), f.t2),
            plan->edges.end());
  // Exploitation mode skips it.
  auto exploit = generator.Optimize(f.aug, MakeOptions(Strategy::kPriority));
  EXPECT_EQ(std::find(exploit->edges.begin(), exploit->edges.end(), f.t2),
            exploit->edges.end());
  EXPECT_GE(plan->cost, exploit->cost);
}

TEST(OptimizerTest, ExplorationKnobScalesWithCexp) {
  Fig1Augmentation f = BuildFig1(0.1, 5.0, 5.0);
  f.aug.new_tasks = {f.t2, f.t7};
  PlanGenerator generator;
  PlanGenerator::Options half = MakeOptions(Strategy::kPriority);
  half.exploration = 0.5;  // mo = ceil(2 * 0.5) = 1: only t2 forced
  auto plan = generator.Optimize(f.aug, half);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(std::find(plan->edges.begin(), plan->edges.end(), f.t2),
            plan->edges.end());
  EXPECT_EQ(std::find(plan->edges.begin(), plan->edges.end(), f.t7),
            plan->edges.end());
}

TEST(OptimizerTest, ExpansionBudgetReported) {
  workload::SyntheticConfig config;
  config.num_artifacts = 16;
  config.alternatives = 3;
  config.seed = 9;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok());
  PlanGenerator generator;
  PlanGenerator::Options options = MakeOptions(Strategy::kStack);
  options.max_expansions = 10;
  EXPECT_TRUE(generator.Optimize(synthetic->aug, options)
                  .status()
                  .IsResourceExhausted());
}

TEST(OptimizerTest, BudgetExhaustionReportedOnEveryStrategy) {
  workload::SyntheticConfig config;
  config.num_artifacts = 12;
  config.alternatives = 3;
  config.seed = 11;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  PlanGenerator generator;
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    PlanGenerator::Options options = MakeOptions(strategy);
    options.max_expansions = 2;
    auto plan = generator.Optimize(synthetic->aug, options);
    ASSERT_FALSE(plan.ok()) << PlanGenerator::StrategyToString(strategy);
    EXPECT_TRUE(plan.status().IsResourceExhausted())
        << PlanGenerator::StrategyToString(strategy) << ": "
        << plan.status();
  }
}

TEST(OptimizerTest, SearchStatsPopulated) {
  Fig1Augmentation f = BuildFig1(1.0, 2.0, 3.0);
  PlanGenerator generator;
  PlanGenerator::SearchStats stats;
  ASSERT_TRUE(
      generator.Optimize(f.aug, MakeOptions(Strategy::kPriority), &stats)
          .ok());
  EXPECT_GT(stats.plans_examined, 0);
  EXPECT_GT(stats.expansions, 0);
}


// Regression for the inadmissible A* heuristic the admissible bound
// replaced. Optimum (cost 9): load M (5), then derive P, Q, T1, T2 for 1
// each. Alternative: load T1 + load T2 for 10. After committing to the
// derivation of both targets, the search reaches cost 8 with frontier {P};
// P's cheapest derivation routes through the already-paid M, so the old
// "max over frontier of dist(v)" bound (dist(P) = 6) overestimated the
// remaining cost (really 1) and pruned the optimal plan, returning 10.
TEST(OptimizerTest, AStarAdmissibilityRegression) {
  Augmentation aug;
  NodeId t1 = aug.graph.AddArtifact(MakeArtifact("T1")).ValueOrDie();
  NodeId t2 = aug.graph.AddArtifact(MakeArtifact("T2")).ValueOrDie();
  NodeId m = aug.graph.AddArtifact(MakeArtifact("M")).ValueOrDie();
  NodeId p = aug.graph.AddArtifact(MakeArtifact("P")).ValueOrDie();
  NodeId q = aug.graph.AddArtifact(MakeArtifact("Q")).ValueOrDie();
  AddLoad(aug, m, 5.0);
  AddLoad(aug, t1, 4.0);
  AddLoad(aug, t2, 6.0);
  AddTask(aug, "a", {m}, {t1}, 1.0);
  AddTask(aug, "p", {m}, {p}, 1.0);
  AddTask(aug, "q", {p}, {q}, 1.0);
  AddTask(aug, "b", {q}, {t2}, 1.0);
  aug.targets = {t1, t2};

  PlanGenerator generator;
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    for (bool dominance : {false, true}) {
      auto plan = generator.Optimize(aug, MakeOptions(strategy, dominance));
      ASSERT_TRUE(plan.ok())
          << PlanGenerator::StrategyToString(strategy) << ": "
          << plan.status();
      EXPECT_NEAR(plan->cost, 9.0, 1e-12)
          << PlanGenerator::StrategyToString(strategy)
          << " dominance=" << dominance;
    }
  }
}

TEST(OptimizerTest, VerifyPlansAppliesToEveryStrategy) {
  workload::SyntheticConfig config;
  config.num_artifacts = 10;
  config.alternatives = 2;
  config.seed = 29;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  PlanGenerator generator;
  for (Strategy strategy : {Strategy::kStack, Strategy::kPriority,
                            Strategy::kAStar, Strategy::kGreedy}) {
    auto plan = generator.Optimize(synthetic->aug, MakeOptions(strategy));
    ASSERT_TRUE(plan.ok())
        << PlanGenerator::StrategyToString(strategy) << ": "
        << plan.status();
    const Status verified = VerifyPlanStructure(
        synthetic->aug, synthetic->aug.targets, *plan);
    EXPECT_TRUE(verified.ok())
        << PlanGenerator::StrategyToString(strategy) << ": " << verified;
    EXPECT_TRUE(IsValidPlan(synthetic->aug.graph.hypergraph(), plan->edges,
                            {synthetic->aug.graph.source()},
                            synthetic->aug.targets));
  }
}

TEST(OptimizerTest, PerTargetAStarMatchesPriorityCost) {
  workload::SyntheticConfig config;
  config.num_artifacts = 11;
  config.alternatives = 2;
  config.seed = 31;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  PlanGenerator generator;
  // One retargeted copy per target, as a sweep plans each member.
  Augmentation single_target = synthetic->aug;
  for (NodeId target : synthetic->aug.targets) {
    single_target.targets = {target};
    auto astar =
        generator.Optimize(single_target, MakeOptions(Strategy::kAStar));
    auto baseline =
        generator.Optimize(single_target, MakeOptions(Strategy::kPriority));
    ASSERT_TRUE(astar.ok()) << astar.status();
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    EXPECT_NEAR(astar->cost, baseline->cost, 1e-9) << "target " << target;
  }
}

// On alternative-rich instances the antichain must actually prune: a
// dominance structure that never fires is dead weight, and one that fires
// without changing the optimum is exactly what we want.
TEST(OptimizerTest, DominancePrunesOnAlternativeRichInstances) {
  workload::SyntheticConfig config;
  config.num_artifacts = 12;
  config.alternatives = 3;
  config.seed = 97;
  auto synthetic = workload::GenerateSyntheticHypergraph(config);
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  PlanGenerator generator;
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    PlanGenerator::SearchStats pruned_stats;
    auto pruned = generator.Optimize(
        synthetic->aug, MakeOptions(strategy, /*dominance=*/true),
        &pruned_stats);
    PlanGenerator::SearchStats plain_stats;
    auto plain = generator.Optimize(
        synthetic->aug, MakeOptions(strategy, /*dominance=*/false),
        &plain_stats);
    ASSERT_TRUE(pruned.ok()) << pruned.status();
    ASSERT_TRUE(plain.ok()) << plain.status();
    const char* name = PlanGenerator::StrategyToString(strategy);
    EXPECT_NEAR(pruned->cost, plain->cost, 1e-9) << name;
    EXPECT_GT(pruned_stats.pruned_by_dominance, 0) << name;
    // Pruning may only shrink the explored state space.
    EXPECT_LE(pruned_stats.expansions, plain_stats.expansions) << name;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: on random synthetic augmentations every exact strategy,
// with and without antichain dominance pruning, agrees with the
// brute-force oracle, and the returned plans are valid and minimal. This
// is the repository's central correctness property. The kStack rows
// compare BruteForce with the engine it runs on, so they check only
// that dominance pruning and the expansion budget leave kStack's optimum
// unchanged; kPriority and kAStar are checked independently.

// The sweep's inputs: three seed schemes (multiplier, offset) of 16, 12,
// and 12 draws, each cycling n over 9..12 and m over 2..3.
std::vector<workload::SyntheticConfig> PropertyInstances() {
  struct Scheme {
    uint64_t draws;
    uint64_t multiplier;
    uint64_t offset;
  };
  std::vector<workload::SyntheticConfig> instances;
  for (const Scheme& scheme :
       {Scheme{16, 977, 13}, Scheme{12, 7919, 101}, Scheme{12, 6271, 17}}) {
    for (uint64_t i = 0; i < scheme.draws; ++i) {
      workload::SyntheticConfig config;
      config.num_artifacts = 9 + static_cast<int32_t>(i % 4);
      config.alternatives = 2 + static_cast<int32_t>(i % 2);
      config.seed = i * scheme.multiplier + scheme.offset;
      instances.push_back(config);
    }
  }
  return instances;
}

// Parameterized by an index into PropertyInstances().
class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static workload::SyntheticConfig Instance() {
    return PropertyInstances()[GetParam()];
  }
};

TEST_P(OptimizerPropertyTest, ExactStrategiesMatchBruteForce) {
  auto synthetic = workload::GenerateSyntheticHypergraph(Instance());
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  const Augmentation& aug = synthetic->aug;
  PlanGenerator generator;
  auto brute = generator.BruteForce(aug);
  ASSERT_TRUE(brute.ok()) << brute.status();
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    for (bool dominance : {false, true}) {
      auto plan = generator.Optimize(aug, MakeOptions(strategy, dominance));
      ASSERT_TRUE(plan.ok())
          << PlanGenerator::StrategyToString(strategy) << ": "
          << plan.status();
      EXPECT_NEAR(plan->cost, brute->cost, 1e-9)
          << PlanGenerator::StrategyToString(strategy)
          << " dominance=" << dominance;
      EXPECT_TRUE(IsValidPlan(aug.graph.hypergraph(), plan->edges,
                              {aug.graph.source()}, aug.targets));
      EXPECT_TRUE(IsMinimalPlan(aug.graph.hypergraph(), plan->edges,
                                {aug.graph.source()}, aug.targets));
    }
  }
  // Greedy: feasible, never better than optimal.
  auto greedy = generator.Optimize(aug, MakeOptions(Strategy::kGreedy));
  ASSERT_TRUE(greedy.ok());
  EXPECT_GE(greedy->cost, brute->cost - 1e-9);
  EXPECT_TRUE(IsValidPlan(aug.graph.hypergraph(), greedy->edges,
                          {aug.graph.source()}, aug.targets));
}

// Plan choice is a function of the augmentation alone. Integer weights
// make equal-cost plans common, so a search whose tie-breaking depends on
// thread scheduling or on the runtime's worker count would return
// different edge sets here.
TEST_P(OptimizerPropertyTest, PlanChoiceIsDeterministic) {
  auto synthetic = workload::GenerateSyntheticHypergraph(Instance());
  ASSERT_TRUE(synthetic.ok()) << synthetic.status();
  Augmentation& aug = synthetic->aug;
  for (size_t e = 0; e < aug.edge_weight.size(); ++e) {
    aug.edge_weight[e] = std::round(aug.edge_weight[e]);
    aug.edge_seconds[e] = aug.edge_weight[e];
  }

  // The runtime's parallelism sizes the executor only; HYPPO's search
  // must return the same plan at any worker count.
  RuntimeOptions serial_options;
  serial_options.parallelism = 1;
  RuntimeOptions parallel_options;
  parallel_options.parallelism = 4;
  Runtime serial_runtime(serial_options);
  Runtime parallel_runtime(parallel_options);
  HyppoMethod serial_method(&serial_runtime);
  HyppoMethod parallel_method(&parallel_runtime);
  auto serial_plan = serial_method.ReplanAugmentation(aug);
  auto parallel_plan = parallel_method.ReplanAugmentation(aug);
  ASSERT_TRUE(serial_plan.ok()) << serial_plan.status();
  ASSERT_TRUE(parallel_plan.ok()) << parallel_plan.status();
  EXPECT_EQ(parallel_plan->edges, serial_plan->edges);

  PlanGenerator generator;
  for (Strategy strategy :
       {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
    for (bool dominance : {false, true}) {
      auto first = generator.Optimize(aug, MakeOptions(strategy, dominance));
      ASSERT_TRUE(first.ok()) << first.status();
      for (int repeat = 0; repeat < 20; ++repeat) {
        auto again =
            generator.Optimize(aug, MakeOptions(strategy, dominance));
        ASSERT_TRUE(again.ok()) << again.status();
        EXPECT_EQ(again->edges, first->edges)
            << PlanGenerator::StrategyToString(strategy)
            << " dominance=" << dominance << " repeat=" << repeat;
      }
    }
  }
}

// Derive and predict_depths edges: the merged augmentation of a max_depth
// sweep offers every member's forest as a fit or as a derive from each
// deeper member's forest, and the members' predictions as one multi-head
// edge over the deepest forest. Every exact strategy matches the
// brute-force oracle on every member's targets, at the augmentation's own
// weights and with the edges of the members planned before it priced at
// zero, as BatchPlanner::PlanMembers prices them. Settled by
// PreferSharedEdges, the deepest member's plan takes the multi-head edge
// at the price of its own predict, and every zero-priced plan after it
// takes it too, so no plan derives.
TEST(OptimizerDeriveTest, ExactStrategiesMatchBruteForceWithDeriveEdges) {
  HyppoSystem::Options options;
  options.runtime.simulate = true;
  HyppoSystem system(options);
  const workload::UseCase use_case = workload::UseCase::Higgs();
  system.runtime().RegisterDatasetGenerator(
      use_case.DatasetId(0.005),
      [use_case]() { return workload::GenerateUseCase(use_case, 0.005, 7); });
  workload::SweepGenerator generator(use_case, 0.005, 11);
  auto sweep = generator.DemoSweep(4, "derive");
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  auto planned = system.method().PlanPipelineBatch(sweep->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  Augmentation aug = planned->merged;
  int64_t derive_edges = 0;
  int64_t descent_edges = 0;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    derive_edges += aug.graph.task(e).type == TaskType::kDerive ? 1 : 0;
    if (aug.graph.task(e).type == TaskType::kPredictDepths) {
      ++descent_edges;
      EXPECT_EQ(aug.graph.ordered_head(e).size(), 4u);
    }
  }
  EXPECT_EQ(derive_edges, 6);  // depths 3..6: one per deeper sibling
  EXPECT_EQ(descent_edges, 1);  // the four predictions on one test split

  PlanGenerator search;
  const std::vector<double> weights = aug.edge_weight;
  for (bool zero_priced : {false, true}) {
    aug.edge_weight = weights;
    int64_t deriving_members = 0;
    int64_t descending_members = 0;
    for (size_t m : BatchPlanner::PlanningOrder(aug, planned->members)) {
      aug.targets = planned->members[m].targets;
      auto brute = search.BruteForce(aug);
      ASSERT_TRUE(brute.ok()) << brute.status();
      for (Strategy strategy :
           {Strategy::kStack, Strategy::kPriority, Strategy::kAStar}) {
        for (bool dominance : {false, true}) {
          auto plan = search.Optimize(aug, MakeOptions(strategy, dominance));
          ASSERT_TRUE(plan.ok()) << plan.status();
          EXPECT_NEAR(plan->cost, brute->cost, 1e-9)
              << PlanGenerator::StrategyToString(strategy)
              << " dominance=" << dominance << " member=" << m;
          EXPECT_TRUE(IsValidPlan(aug.graph.hypergraph(), plan->edges,
                                  {aug.graph.source()}, aug.targets));
        }
      }
      Plan shared = *brute;
      BatchPlanner::PreferSharedEdges(aug, &shared);
      EXPECT_NEAR(shared.cost, brute->cost, 1e-9) << "member=" << m;
      EXPECT_TRUE(IsValidPlan(aug.graph.hypergraph(), shared.edges,
                              {aug.graph.source()}, aug.targets));
      bool derives = false;
      bool descends = false;
      for (EdgeId e : shared.edges) {
        derives = derives || aug.graph.task(e).type == TaskType::kDerive;
        descends =
            descends || aug.graph.task(e).type == TaskType::kPredictDepths;
      }
      deriving_members += derives ? 1 : 0;
      descending_members += descends ? 1 : 0;
      if (zero_priced) {
        for (EdgeId e : shared.edges) {
          aug.edge_weight[static_cast<size_t>(e)] = 0.0;
        }
      }
    }
    EXPECT_EQ(deriving_members, 0);
    EXPECT_EQ(descending_members, zero_priced ? 4 : 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Range<uint64_t>(
                             0, PropertyInstances().size()));

}  // namespace
}  // namespace hyppo::core
