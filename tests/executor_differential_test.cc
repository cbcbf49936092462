#include <gtest/gtest.h>

#include <map>
#include <string>

#include "core/executor.h"
#include "core/pipeline_builder.h"
#include "ml/ops/tree_builder.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

namespace hyppo {
namespace {

// ---------------------------------------------------------------------------
// Differential test: the serial and parallel executors are the same
// machine. Over randomized exploratory pipelines, both must produce
// byte-identical payload maps, and with estimate charging enabled the
// charged totals must agree exactly (wall-clock noise excluded).

core::Augmentation AsAugmentation(const core::Pipeline& pipeline) {
  core::Augmentation aug;
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;
  const size_t slots =
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
  aug.edge_weight.assign(slots, 1.0);
  aug.edge_seconds.assign(slots, 1.0);
  // Distinct per-edge estimates so an aggregation bug cannot hide behind
  // uniform durations.
  for (size_t e = 0; e < slots; ++e) {
    aug.edge_seconds[e] = 0.125 * static_cast<double>(e + 1);
  }
  return aug;
}

core::Plan FullPlan(const core::Augmentation& aug) {
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  for (EdgeId e : plan.edges) {
    plan.cost += aug.edge_weight[static_cast<size_t>(e)];
    plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  return plan;
}

// Serializes every payload so comparison is bytewise, not structural.
Result<std::map<NodeId, std::string>> PayloadBytes(
    const std::map<NodeId, storage::ArtifactPayload>& payloads) {
  std::map<NodeId, std::string> bytes;
  for (const auto& [node, payload] : payloads) {
    HYPPO_ASSIGN_OR_RETURN(bytes[node], storage::SerializePayload(payload));
  }
  return bytes;
}

TEST(ExecutorDifferentialTest, SerialAndParallelAgreeOnRandomizedPlans) {
  // The minimum dataset scale (RowsAt clamps at 400 rows) keeps real ML
  // execution fast enough for the sanitizer jobs.
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/99);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 3);
  };
  for (int i = 0; i < 12; ++i) {
    SCOPED_TRACE("pipeline " + std::to_string(i));
    auto pipeline = generator.Next();
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    core::Augmentation aug = AsAugmentation(*pipeline);
    core::Plan plan = FullPlan(aug);

    storage::InMemoryArtifactStore serial_store;
    core::Monitor serial_monitor;
    core::Executor serial_executor(&serial_store, resolver, &serial_monitor);
    core::Executor::Options serial;
    serial.charge_estimates = true;
    auto serial_result = serial_executor.Execute(aug, plan, serial);
    ASSERT_TRUE(serial_result.ok()) << serial_result.status();
    ASSERT_TRUE(serial_result->complete());

    storage::InMemoryArtifactStore parallel_store;
    core::Monitor parallel_monitor;
    core::Executor parallel_executor(&parallel_store, resolver,
                                     &parallel_monitor, /*parallelism=*/8);
    core::Executor::Options parallel;
    parallel.charge_estimates = true;
    auto parallel_result = parallel_executor.Execute(aug, plan, parallel);
    ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();
    ASSERT_TRUE(parallel_result->complete());

    // Identical payload maps, byte for byte.
    auto serial_bytes = PayloadBytes(serial_result->payloads);
    ASSERT_TRUE(serial_bytes.ok()) << serial_bytes.status();
    auto parallel_bytes = PayloadBytes(parallel_result->payloads);
    ASSERT_TRUE(parallel_bytes.ok()) << parallel_bytes.status();
    EXPECT_EQ(*serial_bytes, *parallel_bytes);

    // Identical charged totals: both executors charge the augmentation's
    // per-edge estimates, so the sums are the same floating-point value.
    EXPECT_EQ(serial_result->total_seconds, parallel_result->total_seconds);
    // One wave loop: the tasks run, and are reported, in the same order.
    ASSERT_EQ(serial_result->task_runs.size(),
              parallel_result->task_runs.size());
    for (size_t t = 0; t < serial_result->task_runs.size(); ++t) {
      EXPECT_EQ(serial_result->task_runs[t].edge,
                parallel_result->task_runs[t].edge)
          << "task " << t;
    }
    EXPECT_EQ(serial_monitor.num_task_records(),
              parallel_monitor.num_task_records());
    // The parallel schedule's critical path never exceeds the total.
    EXPECT_LE(parallel_result->critical_path_seconds,
              parallel_result->total_seconds + 1e-12);
  }
}

// A forest fit above ml::TreeFitter::kFanOutMinCells shares a width-2
// wave with a tree fit, so the forest fans its trees and the tree its
// columns out over the executor's pool while the wave itself holds two
// of its threads. Every payload must match the serial executor's bytes.
TEST(ExecutorDifferentialTest, NestedFanOutInSharedWaveMatchesSerial) {
  core::PipelineBuilder builder("nested-fan-out");
  NodeId data = *builder.LoadDataset("fan-out", 1600, 12);
  auto split = *builder.Split(data);
  ml::Config forest;
  forest.SetInt("n_estimators", 12);
  forest.SetInt("max_depth", 6);
  NodeId forest_model =
      *builder.Fit("RandomForestClassifier", "skl.RandomForestClassifier",
                   split.first, forest);
  ml::Config tree;
  tree.SetInt("max_depth", 5);
  NodeId tree_model = *builder.Fit(
      "DecisionTreeClassifier", "lgb.DecisionTreeClassifier", split.first,
      tree);
  *builder.Evaluate(*builder.Predict(forest_model, split.second),
                    split.second, "accuracy");
  *builder.Evaluate(*builder.Predict(tree_model, split.second),
                    split.second, "accuracy");
  auto pipeline = std::move(builder).Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Augmentation aug = AsAugmentation(*pipeline);
  core::Plan plan = FullPlan(aug);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateHiggs(1600, 12, 23);
  };
  // The split's train side alone is above the fan-out floor.
  ASSERT_GE(1600 / 2 * 12, ml::TreeFitter::kFanOutMinCells);

  std::map<NodeId, std::string> serial_bytes;
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    storage::InMemoryArtifactStore store;
    core::Monitor monitor;
    core::Executor executor(&store, resolver, &monitor, parallelism);
    core::Executor::Options options;
    options.charge_estimates = true;
    auto result = executor.Execute(aug, plan, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_TRUE(result->complete());
    auto bytes = PayloadBytes(result->payloads);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    if (parallelism == 1) {
      serial_bytes = *bytes;
      continue;
    }
    EXPECT_EQ(serial_bytes, *bytes);
    // Some wave held two tasks: the two fits (and their predictions).
    EXPECT_LT(result->critical_path_seconds, result->total_seconds);
  }
}

TEST(ExecutorDifferentialTest, ChargedEstimatesMatchPlanSeconds) {
  constexpr double kScale = 1e-9;
  workload::PipelineGenerator generator(workload::UseCase::Higgs(), kScale,
                                        /*seed=*/17);
  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateUseCase(workload::UseCase::Higgs(), kScale, 7);
  };
  auto pipeline = generator.Next();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  core::Augmentation aug = AsAugmentation(*pipeline);
  core::Plan plan = FullPlan(aug);
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, resolver, &monitor);
  core::Executor::Options options;
  options.charge_estimates = true;
  auto result = executor.Execute(aug, plan, options);
  ASSERT_TRUE(result.ok()) << result.status();
  // Compute tasks are billed at their estimates; load tasks charge the
  // storage model. This plan is loads + computes, so the total equals the
  // sum over executed tasks of those charges — which the plan summed too.
  double expected = 0.0;
  for (const auto& run : result->task_runs) {
    expected += run.seconds;
  }
  EXPECT_DOUBLE_EQ(result->total_seconds, expected);
}

}  // namespace
}  // namespace hyppo
