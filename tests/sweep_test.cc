// Batch multi-query optimization of hyperparameter sweeps: the sweep
// generator's ground truth, the batch planner's merge/augment-once/plan
// semantics, byte-identity of batch-planned execution against the
// sequential baseline, union execution of the member plans, the serving
// as_sweep path, and compaction at the end of a batch.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "baselines/no_optimization.h"
#include "core/batch_planner.h"
#include "core/hyppo.h"
#include "serving/session_manager.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace hyppo {
namespace {

constexpr double kScale = 0.005;  // ~400-row datasets: fast real execution

workload::SweepGenerator MakeGenerator(uint64_t seed = 11) {
  return workload::SweepGenerator(workload::UseCase::Higgs(), kScale, seed);
}

void RegisterSweepDataset(core::Runtime* runtime) {
  const workload::UseCase use_case = workload::UseCase::Higgs();
  runtime->RegisterDatasetGenerator(
      use_case.DatasetId(kScale), [use_case]() {
        return workload::GenerateUseCase(use_case, kScale, 7);
      });
}

core::HyppoSystem::Options SystemOptions() {
  core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  // Byte-identity comparisons need pinned implementations: equivalence
  // augmentation may legally swap in an equivalent-but-not-bitwise impl,
  // and history state (which differs between batch and sequential modes)
  // steers that choice. Same convention as the serving suites.
  options.method.augment.use_equivalences = false;
  return options;
}

Result<std::map<std::string, std::string>> PayloadBytes(
    const std::map<std::string, storage::ArtifactPayload>& payloads) {
  std::map<std::string, std::string> bytes;
  for (const auto& [name, payload] : payloads) {
    HYPPO_ASSIGN_OR_RETURN(std::string serialized,
                           storage::SerializePayload(payload));
    bytes[name] = std::move(serialized);
  }
  return bytes;
}

// Union of per-member target payload bytes across a batch report.
Result<std::map<std::string, std::string>> ReportBytes(
    const core::HyppoSystem::BatchRunReport& report) {
  std::map<std::string, std::string> bytes;
  for (const core::HyppoSystem::RunReport& member : report.reports) {
    HYPPO_ASSIGN_OR_RETURN(auto member_bytes,
                           PayloadBytes(member.target_payloads));
    for (auto& [name, value] : member_bytes) {
      bytes[name] = std::move(value);
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Sweep generator: determinism, grid semantics, and ground truth.

TEST(SweepGeneratorTest, DemoSweepIsDeterministicAndStageTreeShaped) {
  auto g1 = MakeGenerator();
  auto g2 = MakeGenerator();
  auto w1 = g1.DemoSweep(12, "sweep");
  auto w2 = g2.DemoSweep(12, "sweep");
  ASSERT_TRUE(w1.ok()) << w1.status();
  ASSERT_TRUE(w2.ok()) << w2.status();
  ASSERT_EQ(w1->pipelines.size(), 12u);
  ASSERT_EQ(w1->specs.size(), 12u);
  // One preprocessing trunk: every member shares the prefix signature.
  EXPECT_EQ(w1->distinct_prefixes, 1);
  for (const std::string& sig : w1->prefix_signatures) {
    EXPECT_EQ(sig, w1->prefix_signatures[0]);
  }
  // The trunk folds: merging must remove a positive number of tasks.
  EXPECT_GT(w1->expected_merged_tasks, 0);
  // Determinism: identical specs and graphs from identical seeds.
  for (size_t i = 0; i < w1->specs.size(); ++i) {
    EXPECT_EQ(w1->specs[i].model.Signature(), w2->specs[i].model.Signature());
    EXPECT_EQ(w1->pipelines[i].graph.num_artifacts(),
              w2->pipelines[i].graph.num_artifacts());
    EXPECT_EQ(w1->pipelines[i].id, w2->pipelines[i].id);
  }
  // Configs are distinct: a sweep never submits duplicate members.
  std::set<std::string> model_signatures;
  for (const auto& spec : w1->specs) {
    model_signatures.insert(spec.model.Signature());
  }
  EXPECT_EQ(model_signatures.size(), 12u);
}

TEST(SweepGeneratorTest, GridTruncationAndRandomDedup) {
  auto generator = MakeGenerator();
  const workload::PipelineSpec base = generator.DemoBaseSpec();
  std::vector<workload::SweepAxis> axes(2);
  axes[0].stage = workload::SweepAxis::Stage::kModel;
  axes[0].param = "n_estimators";
  axes[0].values = {"8", "12", "16"};
  axes[1].stage = workload::SweepAxis::Stage::kModel;
  axes[1].param = "max_depth";
  axes[1].values = {"3", "5"};

  workload::SweepOptions full;  // num_configs = 0: full cross product
  auto w_full = generator.Generate(base, axes, full, "full");
  ASSERT_TRUE(w_full.ok()) << w_full.status();
  EXPECT_EQ(w_full->pipelines.size(), 6u);

  workload::SweepOptions truncated;
  truncated.num_configs = 4;
  auto w_trunc = generator.Generate(base, axes, truncated, "trunc");
  ASSERT_TRUE(w_trunc.ok()) << w_trunc.status();
  ASSERT_EQ(w_trunc->pipelines.size(), 4u);
  // Lexicographic truncation: the first 4 of the full grid.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w_trunc->specs[i].model.Signature(),
              w_full->specs[i].model.Signature());
  }

  workload::SweepOptions random;
  random.mode = workload::SweepOptions::Mode::kRandom;
  random.num_configs = 5;
  random.seed = 99;
  auto w_random = generator.Generate(base, axes, random, "rand");
  ASSERT_TRUE(w_random.ok()) << w_random.status();
  EXPECT_EQ(w_random->pipelines.size(), 5u);
  std::set<std::string> distinct;
  for (const auto& spec : w_random->specs) {
    distinct.insert(spec.model.Signature());
  }
  EXPECT_EQ(distinct.size(), 5u);  // joint draws are deduplicated

  // Requesting more configs than the joint space holds returns the
  // space, not an infinite loop.
  random.num_configs = 50;
  auto w_exhausted = generator.Generate(base, axes, random, "exhaust");
  ASSERT_TRUE(w_exhausted.ok()) << w_exhausted.status();
  EXPECT_EQ(w_exhausted->pipelines.size(), 6u);
}

// ---------------------------------------------------------------------------
// Batch planner: signature-dedup merge and per-member planning.

TEST(BatchPlannerTest, MergeFoldsSharedPrefixToGroundTruth) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(8, "merge");
  ASSERT_TRUE(workload.ok()) << workload.status();
  std::vector<std::vector<NodeId>> member_targets;
  core::BatchPlanner::Stats stats;
  auto merged = core::BatchPlanner::MergePipelines(workload->pipelines,
                                                   &member_targets, &stats);
  ASSERT_TRUE(merged.ok()) << merged.status();
  // The merge folds exactly the tasks the generator's ground truth says
  // are duplicated across members.
  EXPECT_EQ(stats.merged_tasks, workload->expected_merged_tasks);
  ASSERT_EQ(member_targets.size(), workload->pipelines.size());
  // Every member's targets map to merged nodes carrying the same
  // canonical names.
  for (size_t i = 0; i < workload->pipelines.size(); ++i) {
    const core::Pipeline& member = workload->pipelines[i];
    ASSERT_EQ(member_targets[i].size(), member.targets.size());
    for (size_t t = 0; t < member.targets.size(); ++t) {
      EXPECT_EQ(merged->graph.artifact(member_targets[i][t]).name,
                member.graph.artifact(member.targets[t]).name);
    }
  }
  // Merging one pipeline is the identity on task count.
  std::vector<core::Pipeline> solo;
  solo.push_back(workload->pipelines[0]);
  core::BatchPlanner::Stats solo_stats;
  auto solo_merged =
      core::BatchPlanner::MergePipelines(solo, nullptr, &solo_stats);
  ASSERT_TRUE(solo_merged.ok()) << solo_merged.status();
  EXPECT_EQ(solo_stats.merged_tasks, 0);
}

TEST(BatchPlannerTest, PlanBatchCoversEveryMembersTargets) {
  core::HyppoSystem::Options options = SystemOptions();
  options.runtime.simulate = true;  // planning-only: no real execution
  core::HyppoSystem system(options);
  RegisterSweepDataset(&system.runtime());
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "plan");
  ASSERT_TRUE(workload.ok()) << workload.status();

  auto planned = system.method().PlanPipelineBatch(workload->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  ASSERT_EQ(planned->members.size(), workload->pipelines.size());
  EXPECT_EQ(planned->stats.merged_tasks, workload->expected_merged_tasks);
  // Each member plan produces each of its targets.
  for (const core::BatchPlanner::MemberPlan& member : planned->members) {
    ASSERT_FALSE(member.plan.edges.empty());
    std::set<NodeId> produced;
    for (EdgeId e : member.plan.edges) {
      for (NodeId v : planned->merged.graph.ordered_head(e)) {
        produced.insert(v);
      }
    }
    for (NodeId target : member.targets) {
      EXPECT_TRUE(produced.count(target) > 0)
          << "target " << planned->merged.graph.artifact(target).name
          << " not produced by its member plan";
    }
  }
  // Monitor plumbing: the batch counters moved.
  EXPECT_GT(system.runtime().monitor().num_batch_merged_tasks(), 0);
  EXPECT_GT(system.runtime().monitor().batch_plan_seconds(), 0.0);
  // With one trunk, the members plan the same prefix tasks, and the
  // combined execution runs them once.
  auto report = system.RunBatch(workload->pipelines);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->shared_prefix_skips, 0);
}

// A batch member is planned exactly as the method plans a lone target set:
// its plan equals ReplanAugmentation on the merged augmentation retargeted
// to the member, with the edges of the members planned before it (in
// BatchPlanner::PlanningOrder) priced at zero, and the batch's pruning
// reaches the monitor once.
TEST(BatchPlannerTest, MemberPlansAreTheMethodsOwnPlans) {
  // No payload is compared, so equivalences stay on (their alternatives
  // give the search states to prune), and simulation keeps the observed
  // durations, and so the plans, independent of the host's speed.
  core::HyppoSystem::Options options = SystemOptions();
  options.method.augment.use_equivalences = true;
  options.runtime.simulate = true;
  core::HyppoSystem system(options);
  RegisterSweepDataset(&system.runtime());
  auto generator = MakeGenerator();
  // An earlier sweep grows the history, so the merged augmentation also
  // offers reuse and materialized loads.
  auto earlier = generator.DemoSweep(6, "earlier");
  ASSERT_TRUE(earlier.ok()) << earlier.status();
  ASSERT_TRUE(system.RunBatch(earlier->pipelines).ok());
  auto workload = generator.DemoSweep(6, "plan");
  ASSERT_TRUE(workload.ok()) << workload.status();

  core::HyppoMethod& method = system.method();
  const core::Monitor& monitor = system.runtime().monitor();
  const int64_t monitor_before = monitor.num_states_pruned();
  const int64_t stats_before = method.last_search_stats().pruned_by_dominance;
  auto planned = method.PlanPipelineBatch(workload->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  EXPECT_EQ(monitor.num_states_pruned() - monitor_before,
            method.last_search_stats().pruned_by_dominance - stats_before);
  EXPECT_GT(monitor.num_states_pruned() - monitor_before, 0);

  core::Augmentation retargeted = planned->merged;
  int64_t reuse_loads = 0;
  for (size_t m : core::BatchPlanner::PlanningOrder(planned->merged,
                                                    planned->members)) {
    const core::BatchPlanner::MemberPlan& member = planned->members[m];
    retargeted.targets = member.targets;
    auto plan = method.ReplanAugmentation(retargeted);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_EQ(plan->edges, member.plan.edges);
    EXPECT_EQ(plan->cost, member.plan.cost);
    for (EdgeId e : plan->edges) {
      retargeted.edge_weight[static_cast<size_t>(e)] = 0.0;
    }
    for (EdgeId e : member.plan.edges) {
      const core::PipelineGraph& graph = planned->merged.graph;
      if (graph.task(e).type == core::TaskType::kLoad &&
          graph.artifact(graph.ordered_head(e)[0]).kind !=
              core::ArtifactKind::kRaw) {
        ++reuse_loads;
      }
    }
  }
  EXPECT_GT(reuse_loads, 0);
}

// ---------------------------------------------------------------------------
// Differential: batch-planned execution is byte-identical to the
// sequentially planned baseline, serial and 8-thread.

void RunBatchVsSequential(int parallelism) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "diff");
  ASSERT_TRUE(workload.ok()) << workload.status();

  core::HyppoSystem::Options batch_options = SystemOptions();
  batch_options.runtime.parallelism = parallelism;
  core::HyppoSystem batch_system(batch_options);
  RegisterSweepDataset(&batch_system.runtime());
  auto batch_report = batch_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(batch_report.ok()) << batch_report.status();
  EXPECT_TRUE(batch_report->batched);
  EXPECT_EQ(batch_report->merged_tasks, workload->expected_merged_tasks);
  // Combined execution: shared prefixes execute once, not per member.
  EXPECT_GT(batch_report->shared_prefix_skips, 0);
  ASSERT_EQ(batch_report->reports.size(), workload->pipelines.size());

  core::HyppoSystem::Options seq_options = SystemOptions();
  seq_options.runtime.parallelism = parallelism;
  core::HyppoSystem seq_system(seq_options);
  RegisterSweepDataset(&seq_system.runtime());
  core::HyppoSystem::BatchRunReport seq_report;
  for (const core::Pipeline& pipeline : workload->pipelines) {
    auto report = seq_system.RunPipeline(pipeline);
    ASSERT_TRUE(report.ok()) << report.status();
    seq_report.reports.push_back(*std::move(report));
  }

  auto batch_bytes = ReportBytes(*batch_report);
  auto seq_bytes = ReportBytes(seq_report);
  ASSERT_TRUE(batch_bytes.ok()) << batch_bytes.status();
  ASSERT_TRUE(seq_bytes.ok()) << seq_bytes.status();
  ASSERT_FALSE(batch_bytes->empty());
  ASSERT_EQ(batch_bytes->size(), seq_bytes->size());
  for (const auto& [name, bytes] : *batch_bytes) {
    auto it = seq_bytes->find(name);
    ASSERT_NE(it, seq_bytes->end()) << name;
    EXPECT_EQ(bytes, it->second) << "payload diverged: " << name;
  }
  // Both histories stay internally consistent.
  const analysis::Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(batch_system.runtime().history()).ok());
  EXPECT_TRUE(verifier.VerifyHistory(seq_system.runtime().history()).ok());
}

TEST(SweepDifferentialTest, BatchMatchesSequentialSerial) {
  RunBatchVsSequential(1);
}

TEST(SweepDifferentialTest, BatchMatchesSequentialEightThreads) {
  RunBatchVsSequential(8);
}

// Both paths estimate a member's un-optimized baseline at plan time, before
// the member's own measured task times enter the history.
TEST(SweepDifferentialTest, BatchBaselineMatchesRunPipelineBaseline) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(2, "baseline");
  ASSERT_TRUE(workload.ok()) << workload.status();

  core::HyppoSystem batch_system(SystemOptions());
  RegisterSweepDataset(&batch_system.runtime());
  auto batch_report = batch_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(batch_report.ok()) << batch_report.status();
  ASSERT_TRUE(batch_report->batched);

  core::HyppoSystem single_system(SystemOptions());
  RegisterSweepDataset(&single_system.runtime());
  auto single_report = single_system.RunPipeline(workload->pipelines[0]);
  ASSERT_TRUE(single_report.ok()) << single_report.status();

  EXPECT_GT(single_report->baseline_seconds, 0.0);
  EXPECT_EQ(batch_report->reports[0].baseline_seconds,
            single_report->baseline_seconds);
}

// ---------------------------------------------------------------------------
// Union execution: a batch runs the combination of its member plans once.

TEST(SweepUnionTest, BatchRunsEachSharedTaskOnceAndSplitsByMember) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "union");
  ASSERT_TRUE(workload.ok()) << workload.status();
  core::HyppoSystem system(SystemOptions());
  RegisterSweepDataset(&system.runtime());
  auto report = system.RunBatch(workload->pipelines);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->batched);
  ASSERT_EQ(report->reports.size(), workload->pipelines.size());
  EXPECT_GT(report->shared_prefix_skips, 0);

  // The executed task records are the member plans minus the edges an
  // earlier member already produced.
  int64_t member_edges = 0;
  double member_seconds = 0.0;
  for (size_t i = 0; i < report->reports.size(); ++i) {
    const core::HyppoSystem::RunReport& member = report->reports[i];
    member_edges += static_cast<int64_t>(member.plan.edges.size());
    member_seconds += member.execute_seconds;
    const core::Pipeline& pipeline = workload->pipelines[i];
    ASSERT_FALSE(pipeline.targets.empty());
    for (NodeId target : pipeline.targets) {
      EXPECT_EQ(member.target_payloads.count(
                    pipeline.graph.artifact(target).name),
                1u)
          << "member " << i << " lacks its target";
    }
  }
  const core::Monitor& monitor = system.runtime().monitor();
  EXPECT_EQ(monitor.num_task_records(),
            member_edges - report->shared_prefix_skips);
  EXPECT_EQ(monitor.num_shared_prefix_hits(), report->shared_prefix_skips);
  EXPECT_EQ(member_seconds, report->execute_seconds);

  // Every artifact is accessed once per member pipeline containing it
  // (structure recording) plus once per member plan touching it (commit).
  // Plans are over the merged augmentation, so plan the batch again on a
  // fresh system to read node names off the same merged graph.
  core::HyppoSystem planner(SystemOptions());
  RegisterSweepDataset(&planner.runtime());
  auto planned = planner.method().PlanPipelineBatch(workload->pipelines);
  ASSERT_TRUE(planned.ok()) << planned.status();
  std::map<std::string, int64_t> expected;
  for (const core::Pipeline& pipeline : workload->pipelines) {
    for (NodeId v = 1; v < pipeline.graph.num_artifacts(); ++v) {
      ++expected[pipeline.graph.artifact(v).name];
    }
  }
  const core::PipelineGraph& merged = planned->merged.graph;
  for (size_t i = 0; i < planned->members.size(); ++i) {
    EXPECT_EQ(planned->members[i].plan.edges,
              report->reports[i].plan.edges);
    std::set<NodeId> touched;
    for (EdgeId e : planned->members[i].plan.edges) {
      touched.insert(merged.ordered_tail(e).begin(),
                     merged.ordered_tail(e).end());
      touched.insert(merged.ordered_head(e).begin(),
                     merged.ordered_head(e).end());
    }
    touched.erase(merged.source());
    for (NodeId v : touched) {
      ++expected[merged.artifact(v).name];
    }
  }
  const core::History& history = system.runtime().history();
  for (const auto& [name, count] : expected) {
    auto node = history.FindArtifact(name);
    ASSERT_TRUE(node.ok()) << name;
    EXPECT_EQ(history.record(*node).access_count, count) << name;
  }
}

// ---------------------------------------------------------------------------
// Depth siblings: a max_depth sweep fits its deepest forest once and
// predicts for every depth in one descent of it, with no model cut.

// Executed (observed) tasks of `logical_op` in `history`, by task type.
std::map<core::TaskType, int64_t> ExecutedTasks(const core::History& history,
                                                const std::string& logical_op) {
  std::map<core::TaskType, int64_t> counts;
  for (EdgeId e : history.graph().hypergraph().LiveEdges()) {
    if (history.graph().task(e).logical_op == logical_op &&
        history.HasTaskObservation(e)) {
      ++counts[history.graph().task(e).type];
    }
  }
  return counts;
}

TEST(SweepDeriveTest, DepthSweepFitsOneForestAndPredictsInOneDescent) {
  auto generator = MakeGenerator();
  // DemoSweep(8): one estimator count, max_depth 3..10.
  auto workload = generator.DemoSweep(8, "derive");
  ASSERT_TRUE(workload.ok()) << workload.status();
  core::HyppoSystem::Options options = SystemOptions();
  options.method.augment.use_equivalences = true;
  core::HyppoSystem system(options);
  RegisterSweepDataset(&system.runtime());
  auto report = system.RunBatch(workload->pipelines);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->batched);

  const std::string model = workload->specs.front().model.logical_op;
  std::map<core::TaskType, int64_t> executed =
      ExecutedTasks(system.runtime().history(), model);
  EXPECT_EQ(executed[core::TaskType::kFit], 1);
  EXPECT_EQ(executed[core::TaskType::kPredictDepths], 1);
  EXPECT_EQ(executed[core::TaskType::kPredict], 0);
  EXPECT_EQ(executed[core::TaskType::kDerive], 0);
  const analysis::AnalysisReport verified =
      analysis::Verifier().VerifyHistory(system.runtime().history());
  EXPECT_TRUE(verified.ok()) << verified.ToString();

  // Each member's targets equal, byte for byte, its pipeline's run alone
  // on a fresh runtime, which fits its forest directly.
  ASSERT_EQ(report->reports.size(), workload->pipelines.size());
  for (size_t i = 0; i < workload->pipelines.size(); ++i) {
    core::HyppoSystem alone(options);
    RegisterSweepDataset(&alone.runtime());
    auto single = alone.RunPipeline(workload->pipelines[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    std::map<core::TaskType, int64_t> lone =
        ExecutedTasks(alone.runtime().history(), model);
    EXPECT_EQ(lone[core::TaskType::kDerive], 0);
    EXPECT_EQ(lone[core::TaskType::kPredictDepths], 0);
    auto single_bytes = PayloadBytes(single->target_payloads);
    auto member_bytes = PayloadBytes(report->reports[i].target_payloads);
    ASSERT_TRUE(single_bytes.ok()) << single_bytes.status();
    ASSERT_TRUE(member_bytes.ok()) << member_bytes.status();
    ASSERT_FALSE(single_bytes->empty());
    EXPECT_EQ(*member_bytes, *single_bytes) << "member " << i;
  }
}

// ---------------------------------------------------------------------------
// Serving: a session submitting its pipelines as a sweep.

TEST(SweepServingTest, AsSweepSessionMatchesSequentialSession) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(5, "serve");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions sweep_options;
  sweep_options.runtime = SystemOptions().runtime;
  sweep_options.method = SystemOptions().method;
  serving::SessionManager sweep_manager(sweep_options);
  RegisterSweepDataset(&sweep_manager.runtime());
  serving::SessionRequest sweep_request;
  sweep_request.session_id = "sweeper";
  sweep_request.pipelines = workload->pipelines;
  sweep_request.as_sweep = true;
  const serving::SessionReport sweep_report =
      sweep_manager.RunSession(sweep_request);
  ASSERT_TRUE(sweep_report.status.ok()) << sweep_report.status;
  EXPECT_EQ(sweep_report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  EXPECT_EQ(sweep_report.per_pipeline_seconds.size(),
            workload->pipelines.size());
  // The runtime observed the cross-member prefix skips.
  EXPECT_GT(sweep_manager.runtime().monitor().num_shared_prefix_hits(), 0);

  serving::ServingOptions seq_options;
  seq_options.runtime = SystemOptions().runtime;
  seq_options.method = SystemOptions().method;
  serving::SessionManager seq_manager(seq_options);
  RegisterSweepDataset(&seq_manager.runtime());
  serving::SessionRequest seq_request;
  seq_request.session_id = "sequential";
  seq_request.pipelines = workload->pipelines;  // as_sweep stays false
  const serving::SessionReport seq_report =
      seq_manager.RunSession(seq_request);
  ASSERT_TRUE(seq_report.status.ok()) << seq_report.status;

  auto sweep_bytes = PayloadBytes(sweep_report.target_payloads);
  auto seq_bytes = PayloadBytes(seq_report.target_payloads);
  ASSERT_TRUE(sweep_bytes.ok()) << sweep_bytes.status();
  ASSERT_TRUE(seq_bytes.ok()) << seq_bytes.status();
  ASSERT_FALSE(sweep_bytes->empty());
  EXPECT_EQ(*sweep_bytes, *seq_bytes);
}

TEST(SweepServingTest, BaselineMethodsFallBackToSequentialLoop) {
  // A method without PlanPipelineBatch (here the no-optimization straw
  // man, which inherits the base Method's NotImplemented default) must
  // still serve an as_sweep request via the ordered sequential loop.
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(3, "fallback");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions options;
  options.runtime = SystemOptions().runtime;
  options.make_method = [](core::Runtime* runtime) {
    return std::make_unique<baselines::NoOptimizationMethod>(runtime);
  };
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());
  serving::SessionRequest request;
  request.session_id = "no-batch";
  request.pipelines = workload->pipelines;
  request.as_sweep = true;
  const serving::SessionReport report = manager.RunSession(request);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  ASSERT_FALSE(report.target_payloads.empty());
}

// ---------------------------------------------------------------------------
// Compaction on the batch path: a batch commits once, so Pareto compaction
// (tiny growth bound) fires at the end of the batch itself, after all of
// its observations, and must leave payloads, history and store intact.

TEST(SweepServingTest, CompactionAtBatchEndKeepsPayloadsAndCatalog) {
  auto generator = MakeGenerator();
  auto workload = generator.DemoSweep(6, "compact");
  ASSERT_TRUE(workload.ok()) << workload.status();

  serving::ServingOptions options;
  options.runtime = SystemOptions().runtime;
  options.method = SystemOptions().method;
  // Each member adds ~14 artifacts: the batch pushes the history well
  // over this bound, so its one commit compacts.
  options.runtime.history_max_artifacts = 20;
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());
  serving::SessionRequest request;
  request.session_id = "compacting-sweeper";
  request.pipelines = workload->pipelines;
  request.as_sweep = true;
  const serving::SessionReport report = manager.RunSession(request);
  ASSERT_TRUE(report.status.ok()) << report.status;
  EXPECT_EQ(report.pipelines_completed,
            static_cast<int32_t>(workload->pipelines.size()));
  EXPECT_GT(manager.runtime().monitor().num_history_compacted(), 0)
      << "test premise broken: the batch never compacted the history";

  // Byte-identity against an isolated run with no compaction pressure.
  core::HyppoSystem reference_system(SystemOptions());
  RegisterSweepDataset(&reference_system.runtime());
  auto reference = reference_system.RunBatch(workload->pipelines);
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto reference_bytes = ReportBytes(*reference);
  auto report_bytes = PayloadBytes(report.target_payloads);
  ASSERT_TRUE(reference_bytes.ok()) << reference_bytes.status();
  ASSERT_TRUE(report_bytes.ok()) << report_bytes.status();
  ASSERT_FALSE(report_bytes->empty());
  EXPECT_EQ(*report_bytes, *reference_bytes);

  const analysis::Verifier verifier;
  const core::Runtime& runtime = manager.runtime();
  const analysis::AnalysisReport history_report =
      verifier.VerifyHistory(runtime.history());
  EXPECT_TRUE(history_report.ok()) << history_report.ToString();
  const analysis::AnalysisReport store_report =
      verifier.CheckStoreConsistency(runtime.history(), runtime.store());
  EXPECT_TRUE(store_report.ok()) << store_report.ToString();
}

}  // namespace
}  // namespace hyppo
