#include <gtest/gtest.h>

#include "analysis/diagnostic.h"
#include "analysis/graph_checks.h"
#include "analysis/verifier.h"
#include "core/executor.h"
#include "core/history_io.h"
#include "core/hyppo.h"
#include "core/naming.h"
#include "core/pipeline_builder.h"
#include "hypergraph/testing.h"
#include "workload/datagen.h"
#include "workload/scenario.h"

namespace hyppo::analysis {
namespace {

using core::ArtifactInfo;
using core::ArtifactKind;
using core::Augmentation;
using core::History;
using core::Pipeline;
using core::PipelineBuilder;
using core::Plan;
using core::TaskInfo;
using core::TaskType;

// ---------------------------------------------------------------------------
// Diagnostics

TEST(DiagnosticTest, ToStringAndSummary) {
  AnalysisReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.Summary(), "clean");
  report.AddError("plan.unsatisfied-input", "no producer", EntityKind::kEdge,
                  7);
  report.AddWarning("plan.duplicate-producer", "redundant", EntityKind::kNode,
                    3);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.num_errors(), 1);
  EXPECT_EQ(report.num_warnings(), 1);
  EXPECT_EQ(report.diagnostics()[0].ToString(),
            "error [plan.unsatisfied-input] edge 7: no producer");
  EXPECT_EQ(report.Summary(), "1 error, 1 warning");
  EXPECT_TRUE(report.HasCheck("plan.duplicate-producer"));
  EXPECT_FALSE(report.HasCheck("plan.cost-mismatch"));
}

TEST(DiagnosticTest, MergeMovesEverything) {
  AnalysisReport a;
  a.AddError("x", "one");
  AnalysisReport b;
  b.AddWarning("y", "two");
  b.AddError("z", "three");
  a.Merge(std::move(b));
  EXPECT_EQ(a.num_errors(), 2);
  EXPECT_EQ(a.num_warnings(), 1);
}

// Merging overlapping reports (e.g. the lint tool running several passes
// over one catalog) must not duplicate identical diagnostics.
TEST(DiagnosticTest, MergeDeduplicatesIdenticalDiagnostics) {
  AnalysisReport a;
  a.AddError("x", "one", EntityKind::kEdge, 7);
  a.AddWarning("y", "two");
  AnalysisReport b;
  b.AddError("x", "one", EntityKind::kEdge, 7);   // exact duplicate
  b.AddError("x", "one", EntityKind::kEdge, 8);   // different entity id
  b.AddWarning("y", "two");                       // exact duplicate
  b.AddError("y", "two");                         // same text, other severity
  a.Merge(std::move(b));
  EXPECT_EQ(a.num_errors(), 3);
  EXPECT_EQ(a.num_warnings(), 1);

  // Location participates in identity: same check at two source lines is
  // two findings.
  AnalysisReport c;
  Diagnostic located;
  located.severity = Severity::kError;
  located.check = "shape.bad-arity";
  located.message = "m";
  located.line = 3;
  c.Add(located);
  AnalysisReport d;
  d.Add(located);
  Diagnostic other_line = located;
  other_line.line = 9;
  d.Add(other_line);
  c.Merge(std::move(d));
  EXPECT_EQ(c.num_errors(), 2);
}

// ---------------------------------------------------------------------------
// Structural hypergraph checks

// A small DAG: e0 = {0} -> {1,2}, e1 = {1,2} -> {3}.
Hypergraph SmallDag() {
  Hypergraph g;
  g.AddNodes(4);
  g.AddEdge({0}, {1, 2}).ValueOrDie();
  g.AddEdge({1, 2}, {3}).ValueOrDie();
  return g;
}

TEST(CheckHypergraphTest, WellFormedIsClean) {
  const AnalysisReport report = CheckHypergraph(SmallDag());
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings(), 0);
}

TEST(CheckHypergraphTest, RemoveEdgeKeepsStarsConsistent) {
  Hypergraph g = SmallDag();
  const EdgeId extra = g.AddEdge({0}, {3}).ValueOrDie();
  ASSERT_TRUE(g.RemoveEdge(extra).ok());
  const AnalysisReport report = CheckHypergraph(g);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(CheckHypergraphTest, CyclicGraphIsReported) {
  Hypergraph g;
  g.AddNodes(3);
  g.AddEdge({0}, {1}).ValueOrDie();
  g.AddEdge({1}, {2}).ValueOrDie();
  g.AddEdge({2}, {1}).ValueOrDie();  // closes the 1 -> 2 -> 1 cycle
  const AnalysisReport report = CheckHypergraph(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasCheck("hypergraph.cycle")) << report.ToString();
}

TEST(CheckHypergraphTest, SelfLoopIsACycle) {
  Hypergraph g;
  g.AddNodes(2);
  g.AddEdge({1}, {1}).ValueOrDie();
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.cycle"));
}

TEST(CheckHypergraphTest, DanglingNodeReferenceIsReported) {
  Hypergraph g = SmallDag();
  HypergraphTestAccess::MutableEdge(g, 1).tail = {1, 99};
  const AnalysisReport report = CheckHypergraph(g);
  EXPECT_TRUE(report.HasCheck("hypergraph.dangling-node"))
      << report.ToString();
}

TEST(CheckHypergraphTest, StaleStarEntryIsReported) {
  Hypergraph g = SmallDag();
  // Node 3's bstar points at edge 0, which does not produce it.
  HypergraphTestAccess::MutableBstar(g, 3) = {0};
  const AnalysisReport report = CheckHypergraph(g);
  EXPECT_TRUE(report.HasCheck("hypergraph.star-stale"));
  // ... and the rightful entry e1 is now missing.
  EXPECT_TRUE(report.HasCheck("hypergraph.star-missing"));
}

TEST(CheckHypergraphTest, DuplicateStarEntryIsReported) {
  Hypergraph g = SmallDag();
  HypergraphTestAccess::MutableBstar(g, 3) = {1, 1};
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.star-duplicate"));
}

TEST(CheckHypergraphTest, CorruptDeadEdgeIsReported) {
  Hypergraph g = SmallDag();
  const EdgeId extra = g.AddEdge({0}, {3}).ValueOrDie();
  ASSERT_TRUE(g.RemoveEdge(extra).ok());
  HypergraphTestAccess::MutableEdge(g, extra).tail = {0};
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.corrupt-dead-edge"));
}

TEST(CheckHypergraphTest, LiveCountDriftIsReported) {
  Hypergraph g = SmallDag();
  ++HypergraphTestAccess::MutableLiveCount(g);
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.live-count"));
}

TEST(CheckHypergraphTest, EdgeIdDriftIsReported) {
  Hypergraph g = SmallDag();
  HypergraphTestAccess::MutableEdge(g, 0).id = 5;
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.edge-id"));
}

TEST(CheckHypergraphTest, UnsortedEdgeIsReported) {
  Hypergraph g = SmallDag();
  HypergraphTestAccess::MutableEdge(g, 1).tail = {2, 1};
  EXPECT_TRUE(CheckHypergraph(g).HasCheck("hypergraph.unsorted-edge"));
}

// ---------------------------------------------------------------------------
// Plan structure checks

TEST(CheckPlanTest, FeasiblePlanIsClean) {
  const Hypergraph g = SmallDag();
  const std::vector<EdgeId> edges = {0, 1};
  const std::vector<NodeId> targets = {3};
  const std::vector<double> weights = {2.0, 3.0};
  PlanSpec spec;
  spec.graph = &g;
  spec.edges = &edges;
  spec.source = 0;
  spec.targets = &targets;
  spec.edge_weight = &weights;
  spec.claimed_cost = 5.0;
  const AnalysisReport report = CheckPlanStructure(spec);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.num_warnings(), 0);
}

TEST(CheckPlanTest, InfeasiblePlanReportsUnsatisfiedInputAndMissingTarget) {
  const Hypergraph g = SmallDag();
  const std::vector<EdgeId> edges = {1};  // e1 needs nodes 1,2: nothing
                                          // in the plan produces them
  const std::vector<NodeId> targets = {3};
  PlanSpec spec;
  spec.graph = &g;
  spec.edges = &edges;
  spec.source = 0;
  spec.targets = &targets;
  const AnalysisReport report = CheckPlanStructure(spec);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasCheck("plan.unsatisfied-input")) << report.ToString();
  EXPECT_TRUE(report.HasCheck("plan.missing-target"));
}

TEST(CheckPlanTest, DeadAndDuplicateEdgesAreReported) {
  Hypergraph g = SmallDag();
  const EdgeId extra = g.AddEdge({0}, {3}).ValueOrDie();
  ASSERT_TRUE(g.RemoveEdge(extra).ok());
  const std::vector<EdgeId> edges = {0, 0, extra, 42};
  PlanSpec spec;
  spec.graph = &g;
  spec.edges = &edges;
  spec.source = 0;
  const AnalysisReport report = CheckPlanStructure(spec);
  EXPECT_TRUE(report.HasCheck("plan.duplicate-edge"));
  EXPECT_TRUE(report.HasCheck("plan.dead-edge"));
}

TEST(CheckPlanTest, CostMismatchIsReported) {
  const Hypergraph g = SmallDag();
  const std::vector<EdgeId> edges = {0, 1};
  const std::vector<double> weights = {2.0, 3.0};
  PlanSpec spec;
  spec.graph = &g;
  spec.edges = &edges;
  spec.source = 0;
  spec.edge_weight = &weights;
  spec.claimed_cost = 17.0;
  EXPECT_TRUE(CheckPlanStructure(spec).HasCheck("plan.cost-mismatch"));
}

TEST(CheckPlanTest, DuplicateProducerIsAWarningOnly) {
  Hypergraph g = SmallDag();
  g.AddEdge({0}, {2}).ValueOrDie();  // second way to produce node 2
  const std::vector<EdgeId> edges = {0, 1, 2};
  const std::vector<NodeId> targets = {3};
  PlanSpec spec;
  spec.graph = &g;
  spec.edges = &edges;
  spec.source = 0;
  spec.targets = &targets;
  const AnalysisReport report = CheckPlanStructure(spec);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasCheck("plan.duplicate-producer"));
}

// ---------------------------------------------------------------------------
// Verifier over labelled graphs, plans, histories

// data -> split -> {train, test} -> scaler, mirroring the builder flow so
// canonical names hold by construction.
Result<Pipeline> TinyPipeline() {
  PipelineBuilder builder("tiny");
  HYPPO_ASSIGN_OR_RETURN(NodeId data, builder.LoadDataset("tiny", 200, 4));
  HYPPO_ASSIGN_OR_RETURN(auto split, builder.Split(data));
  HYPPO_RETURN_NOT_OK(
      builder.Fit("StandardScaler", "skl.StandardScaler", split.first)
          .status());
  return std::move(builder).Build();
}

Augmentation AsAugmentation(const Pipeline& pipeline) {
  Augmentation aug;
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;
  const size_t slots =
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
  aug.edge_weight.assign(slots, 1.0);
  aug.edge_seconds.assign(slots, 1.0);
  return aug;
}

Plan FullPlan(const Augmentation& aug) {
  Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  for (EdgeId e : plan.edges) {
    plan.cost += aug.edge_weight[static_cast<size_t>(e)];
    plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  return plan;
}

TEST(VerifierTest, BuilderPipelineGraphIsClean) {
  const Pipeline pipeline = *TinyPipeline();
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckGraph(pipeline.graph);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifierTest, RenamedArtifactBreaksNameLookup) {
  Pipeline pipeline = *TinyPipeline();
  pipeline.graph.artifact(1).name = "not-the-canonical-name";
  const Verifier verifier;
  EXPECT_TRUE(
      verifier.CheckGraph(pipeline.graph).HasCheck("graph.name-lookup"));
}

TEST(VerifierTest, MalformedLoadTaskIsReported) {
  Pipeline pipeline = *TinyPipeline();
  // Retype a compute task as a load: wrong shape, wrong logical op.
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    if (pipeline.graph.task(e).type == TaskType::kSplit) {
      pipeline.graph.task(e).type = TaskType::kLoad;
    }
  }
  const Verifier verifier;
  EXPECT_TRUE(
      verifier.CheckGraph(pipeline.graph).HasCheck("graph.load-shape"));
}

TEST(VerifierTest, ValidPlanVerifiesAndMinimalityWarnsOnRedundantLoad) {
  const Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  const Plan plan = FullPlan(aug);
  Verifier::Options options;
  options.check_minimality = true;
  const Verifier verifier(options);
  {
    const AnalysisReport report = verifier.CheckPlan(aug, plan);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_FALSE(report.HasCheck("plan.redundant-edge"));
  }
  // Add a load edge for the train split and put it in the plan too: the
  // plan stays valid but does redundant work.
  Augmentation padded = aug;
  const NodeId train = padded.targets.empty() ? 2 : padded.targets[0];
  padded.graph.AddLoadTask(train).ValueOrDie();
  const size_t slots =
      static_cast<size_t>(padded.graph.hypergraph().num_edge_slots());
  padded.edge_weight.assign(slots, 1.0);
  padded.edge_seconds.assign(slots, 1.0);
  const Plan padded_plan = FullPlan(padded);
  const AnalysisReport report = verifier.CheckPlan(padded, padded_plan);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.HasCheck("plan.redundant-edge"));
  EXPECT_TRUE(report.HasCheck("plan.duplicate-producer"));
}

// A two-artifact history built through the public API; verifies clean.
History TinyHistory() {
  History history;
  ArtifactInfo raw;
  raw.name = core::SourceArtifactName("ds");
  raw.kind = ArtifactKind::kRaw;
  raw.display = "ds";
  raw.size_bytes = 1000;
  raw.rows = 100;
  raw.cols = 10;
  const NodeId r = history.Observe(raw);
  history.RegisterSourceData(r).ValueOrDie();

  TaskInfo scale;
  scale.logical_op = "StandardScaler";
  scale.type = TaskType::kTransform;
  scale.impl = "skl.StandardScaler";
  ArtifactInfo out;
  out.name = core::TaskOutputNames(scale, {raw.name}, 1)[0];
  out.kind = ArtifactKind::kData;
  out.display = "scaled";
  out.size_bytes = 800;
  const NodeId o = history.Observe(out);
  history.ObserveTask(scale, {r}, {o}, 1.5).ValueOrDie();
  return history;
}

TEST(VerifierTest, TinyHistoryVerifiesCleanIncludingRoundTrip) {
  const History history = TinyHistory();
  const Verifier verifier;
  const AnalysisReport report = verifier.VerifyHistory(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifierTest, NameClosureViolationIsReported) {
  History history = TinyHistory();
  // Derail the derived artifact's lineage hash. This also breaks the
  // name-index bijection; the closure check must fire regardless.
  history.graph().artifact(2).name = "0000000000000000";
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistory(history);
  EXPECT_TRUE(report.HasCheck("history.name-closure")) << report.ToString();
}

TEST(VerifierTest, MaterializedFlagWithoutLoadEdgeIsReported) {
  History history = TinyHistory();
  history.record_for_testing(2).materialized = true;  // no load edge backs this
  const Verifier verifier;
  EXPECT_TRUE(verifier.CheckHistory(history).HasCheck(
      "history.materialized-flag"));
}

TEST(VerifierTest, OrphanLoadEdgeIsReported) {
  History history = TinyHistory();
  ASSERT_TRUE(history.MarkMaterialized(2).ok());
  // Evict by hand, "forgetting" to drop the record's flag bookkeeping.
  history.record_for_testing(2).load_edge = kInvalidEdge;
  history.record_for_testing(2).materialized = false;
  const Verifier verifier;
  EXPECT_TRUE(verifier.CheckHistory(history).HasCheck(
      "history.materialized-flag"));
}

TEST(VerifierTest, EvictionKeepsHistoryClean) {
  History history = TinyHistory();
  ASSERT_TRUE(history.MarkMaterialized(2).ok());
  ASSERT_TRUE(history.EvictMaterialized(2).ok());
  const Verifier verifier;
  const AnalysisReport report = verifier.VerifyHistory(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(VerifierTest, NegativeStatisticsAreReported) {
  History history = TinyHistory();
  history.record_for_testing(2).access_count = -3;
  const Verifier verifier;
  EXPECT_TRUE(
      verifier.CheckHistory(history).HasCheck("history.negative-stat"));
}

TEST(VerifierTest, DuplicateTaskSignatureIsReported) {
  History history = TinyHistory();
  // Bypass ObserveTask's dedup map: add a structurally identical task.
  TaskInfo scale;
  scale.logical_op = "StandardScaler";
  scale.type = TaskType::kTransform;
  scale.impl = "skl.StandardScaler";
  history.graph().AddTask(scale, {1}, {2}).ValueOrDie();
  const Verifier verifier;
  EXPECT_TRUE(verifier.CheckHistory(history).HasCheck(
      "history.duplicate-signature"));
}

TEST(VerifierTest, MissingRecordsAreReported) {
  History history = TinyHistory();
  // Nodes added behind the History's back have no statistics record.
  ArtifactInfo extra;
  extra.name = "feedfacefeedface";
  extra.kind = ArtifactKind::kValue;
  history.graph().AddArtifact(extra).ValueOrDie();
  const Verifier verifier;
  EXPECT_TRUE(
      verifier.CheckHistory(history).HasCheck("history.record-count"));
}

TEST(VerifierTest, OverBudgetMaterializationIsReported) {
  History history = TinyHistory();
  ASSERT_TRUE(history.MarkMaterialized(2).ok());  // 800 bytes stored
  const Verifier verifier;
  EXPECT_TRUE(verifier.CheckBudget(history, 1024).ok());
  const AnalysisReport report = verifier.CheckBudget(history, 512);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasCheck("budget.exceeded"));
  // A negative budget disables the check.
  EXPECT_TRUE(verifier.CheckBudget(history, -1).ok());
}

TEST(VerifierTest, DictionaryFlagsForeignImplementations) {
  History history = TinyHistory();
  const core::Dictionary dictionary =
      core::Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  const Verifier verifier;
  {
    const AnalysisReport report = verifier.CheckHistory(history, &dictionary);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_FALSE(report.HasCheck("history.unknown-impl"));
  }
  // Claim an implementation the dictionary has never heard of.
  for (EdgeId e : history.graph().hypergraph().LiveEdges()) {
    if (history.graph().task(e).type == TaskType::kTransform) {
      history.graph().task(e).impl = "vendor.MysteryScaler";
    }
  }
  const AnalysisReport report = verifier.CheckHistory(history, &dictionary);
  EXPECT_TRUE(report.HasCheck("history.unknown-impl")) << report.ToString();
  EXPECT_TRUE(report.ok());  // a warning, not an error
}

// ---------------------------------------------------------------------------
// Debug-mode wiring: the executor honors verify_plans, and the optimizer's
// plans pass the same check

TEST(VerifyWiringTest, PlanGeneratorVerifiesItsOwnPlans) {
  const Pipeline pipeline = *TinyPipeline();
  const Augmentation aug = AsAugmentation(pipeline);
  core::PlanGenerator generator;
  const Result<Plan> plan =
      generator.Optimize(aug, core::PlanGenerator::Options());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(core::VerifyPlanStructure(aug, aug.targets, *plan).ok());
  EXPECT_FALSE(plan->edges.empty());
}

TEST(VerifyWiringTest, ExecutorRejectsCorruptPlanBeforeExecuting) {
  const Pipeline pipeline = *TinyPipeline();
  const Augmentation aug = AsAugmentation(pipeline);
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  const core::Executor executor(&store, nullptr, &monitor);
  Plan plan = FullPlan(aug);
  plan.cost += 100.0;  // claimed total no longer matches the edges
  core::Executor::Options options;
  options.simulate = true;
  options.verify_plans = true;
  const auto result = executor.Execute(aug, plan, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal()) << result.status();
  // Without the flag the same plan executes (cost totals are advisory).
  options.verify_plans = false;
  EXPECT_TRUE(executor.Execute(aug, plan, options).ok());
}

TEST(VerifyWiringTest, ExecutorRejectsInfeasiblePlan) {
  const Pipeline pipeline = *TinyPipeline();
  const Augmentation aug = AsAugmentation(pipeline);
  Plan plan = FullPlan(aug);
  plan.edges.erase(plan.edges.begin());  // drop the raw load
  plan.cost -= 1.0;
  plan.seconds -= 1.0;
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  const core::Executor executor(&store, nullptr, &monitor);
  core::Executor::Options options;
  options.simulate = true;
  options.verify_plans = true;
  const auto result = executor.Execute(aug, plan, options);
  EXPECT_TRUE(result.status().IsInternal()) << result.status();
}

// ---------------------------------------------------------------------------
// End-to-end: real system runs verify clean

TEST(VerifyEndToEndTest, HyppoSystemHistoryVerifiesClean) {
  core::HyppoSystem::Options options;
  options.runtime.storage_budget_bytes = 4ll << 20;
  options.runtime.verify_plans = true;
  core::HyppoSystem system(options);
  auto data = workload::GenerateHiggs(500, 8, /*seed=*/3);
  ASSERT_TRUE(data.ok());
  system.RegisterDataset("higgs", *data);
  const char* code = R"(
data  = load("higgs", rows=500, cols=8)
train, test = sk.TrainTestSplit.split(data, test_size=0.25)
scaler = sk.StandardScaler.fit(train)
train_s = scaler.transform(train)
model = sk.DecisionTreeClassifier.fit(train_s, max_depth=4)
)";
  const auto report = system.RunCode(code, "verify-e2e");
  ASSERT_TRUE(report.ok()) << report.status();
  const Verifier verifier;
  const AnalysisReport analysis = verifier.VerifyHistory(
      system.runtime().history(), &system.runtime().dictionary(),
      system.runtime().options().storage_budget_bytes);
  EXPECT_TRUE(analysis.ok()) << analysis.ToString();
}

TEST(VerifyEndToEndTest, IterativeScenarioVerifiesUnderAllMethods) {
  workload::ScenarioConfig config;
  config.num_pipelines = 4;
  config.dataset_multiplier = 0.002;
  ASSERT_TRUE(config.verify);  // scenarios verify by default
  for (const auto& factory :
       {workload::MakeHyppoFactory(), workload::MakeCollabFactory(),
        workload::MakeSharingFactory()}) {
    const auto result = workload::RunIterativeScenario(factory, config);
    EXPECT_TRUE(result.ok()) << result.status();
  }
}

}  // namespace
}  // namespace hyppo::analysis
