#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "workload/datagen.h"

namespace hyppo {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(200);
  pool.ParallelFor(200, [&runs](int64_t i) {
    runs[static_cast<size_t>(i)].fetch_add(1);
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(1, [&counter](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 1);
  pool.ParallelFor(2, [&counter](int64_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(7, [&counter](int64_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 3 + 50 * 7);
}

TEST(ThreadPoolTest, ZeroAndOneItemsRunInline) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::thread::id ran_on;
  pool.ParallelFor(1, [&](int64_t i) {
    EXPECT_EQ(i, 0);
    ++calls;
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, SingleThreadDegenerate) {
  ThreadPool pool(0);  // no workers: the caller runs everything
  EXPECT_EQ(pool.num_workers(), 0);
  std::vector<int64_t> order;
  pool.ParallelFor(10, [&order](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(ThreadPool(-2).num_workers(), 0);
}

TEST(ThreadPoolTest, ExceptionReachesCallerAndPoolStaysUsable) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(16,
                                [&ran](int64_t i) {
                                  ran.fetch_add(1);
                                  if (i == 5) {
                                    throw std::runtime_error("item 5");
                                  }
                                }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 6);
  std::atomic<int> after{0};
  pool.ParallelFor(16, [&after](int64_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 16);
}

// ---------------------------------------------------------------------------
// Parallel plan execution: identical results to serial execution, fewer
// wall-clock waves than tasks.

class ParallelExecutorTest : public ::testing::Test {
 protected:
  // A pipeline with independent branches: two models fitted on the same
  // scaled train data, each predicting and evaluating independently.
  core::Pipeline BuildBranchyPipeline() {
    core::PipelineBuilder builder("branchy");
    NodeId data = *builder.LoadDataset("par-unit", 800, 6);
    auto split = *builder.Split(data);
    ml::Config impute;
    impute.Set("strategy", "mean");
    NodeId imputer = *builder.Fit("SimpleImputer", "skl.SimpleImputer",
                                  split.first, impute);
    NodeId train_i = *builder.Transform(imputer, split.first);
    NodeId test_i = *builder.Transform(imputer, split.second);
    NodeId scaler =
        *builder.Fit("StandardScaler", "skl.StandardScaler", train_i);
    NodeId train_s = *builder.Transform(scaler, train_i);
    NodeId test_s = *builder.Transform(scaler, test_i);
    ml::Config tree;
    tree.SetInt("max_depth", 5);
    NodeId model_a = *builder.Fit("DecisionTreeClassifier",
                                  "skl.DecisionTreeClassifier", train_s, tree);
    ml::Config logistic;
    logistic.SetDouble("alpha", 0.001);
    NodeId model_b = *builder.Fit("LogisticRegression",
                                  "skl.LogisticRegression", train_s, logistic);
    NodeId preds_a = *builder.Predict(model_a, test_s);
    NodeId preds_b = *builder.Predict(model_b, test_s);
    *builder.Evaluate(preds_a, test_s, "accuracy");
    *builder.Evaluate(preds_b, test_s, "f1");
    return *std::move(builder).Build();
  }

  core::Augmentation AsAugmentation(const core::Pipeline& pipeline) {
    core::Augmentation aug;
    aug.graph = pipeline.graph;
    aug.targets = pipeline.targets;
    const size_t slots =
        static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
    aug.edge_weight.assign(slots, 1.0);
    aug.edge_seconds.assign(slots, 1.0);
    return aug;
  }

  core::DatasetResolver Resolver() {
    return [](const std::string&) -> Result<ml::DatasetPtr> {
      return workload::GenerateHiggs(800, 6, 17);
    };
  }
};

TEST_F(ParallelExecutorTest, MatchesSerialResults) {
  core::Pipeline pipeline = BuildBranchyPipeline();
  core::Augmentation aug = AsAugmentation(pipeline);
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();

  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, Resolver(), &monitor);

  core::Executor::Options serial;
  auto serial_result = executor.Execute(aug, plan, serial);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status();

  core::Executor parallel_executor(&store, Resolver(), &monitor,
                                   /*parallelism=*/4);
  auto parallel_result =
      parallel_executor.Execute(aug, plan, core::Executor::Options());
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();

  // Same artifacts produced with identical values.
  ASSERT_EQ(parallel_result->payloads.size(),
            serial_result->payloads.size());
  for (const auto& [node, payload] : serial_result->payloads) {
    auto it = parallel_result->payloads.find(node);
    ASSERT_NE(it, parallel_result->payloads.end());
    if (const double* value = std::get_if<double>(&payload)) {
      EXPECT_DOUBLE_EQ(*value, std::get<double>(it->second));
    }
    if (const auto* preds = std::get_if<ml::PredictionsPtr>(&payload)) {
      EXPECT_EQ(**preds, **std::get_if<ml::PredictionsPtr>(&it->second));
    }
  }
  EXPECT_EQ(parallel_result->task_runs.size(),
            serial_result->task_runs.size());
  // The parallel schedule's critical path is no longer than the total.
  EXPECT_LE(parallel_result->critical_path_seconds,
            parallel_result->total_seconds + 1e-12);
}

TEST_F(ParallelExecutorTest, FailureInOneBranchSurfaces) {
  core::Pipeline pipeline = BuildBranchyPipeline();
  core::Augmentation aug = AsAugmentation(pipeline);
  // Corrupt one model's impl so its branch fails.
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    if (aug.graph.task(e).logical_op == "LogisticRegression") {
      aug.graph.task(e).impl = "nope.LogisticRegression";
    }
  }
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  storage::InMemoryArtifactStore store;
  core::Monitor monitor;
  core::Executor executor(&store, Resolver(), &monitor, /*parallelism=*/4);
  auto result = executor.Execute(aug, plan, core::Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsNotFound())
      << result->failures[0].status;
  EXPECT_FALSE(result->complete());
  // The healthy branch still produced its payloads.
  EXPECT_FALSE(result->payloads.empty());
}

// Simulation runs its waves inline, and critical_path_seconds is still the
// wave makespan: the two model branches share waves.
TEST_F(ParallelExecutorTest, SimulatedBranchesOverlapInTheMakespan) {
  core::Pipeline pipeline = BuildBranchyPipeline();
  core::Augmentation aug = AsAugmentation(pipeline);
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  storage::InMemoryArtifactStore store;
  core::Executor executor(&store, Resolver(), /*monitor=*/nullptr);
  core::Executor::Options options;
  options.simulate = true;
  auto result = executor.Execute(aug, plan, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->complete());
  EXPECT_GT(result->critical_path_seconds, 0.0);
  EXPECT_LT(result->critical_path_seconds, result->total_seconds);
}

// The history records executed tasks in the order the executor ran them,
// so the same batch leaves the same edge ids at every parallelism. The
// second member reuses the first one's payloads and adds two tree fits
// whose cheaper lgb alternatives the planner picks, so execution records
// both as new history edges: one on the first member's deepest (seeded)
// dataset, ready at once, and one behind a new scaler, ready two waves
// later although it sits shallower in the plan.
TEST_F(ParallelExecutorTest, HistoryEdgeIdsMatchAcrossParallelism) {
  auto build = [](bool extended) {
    core::PipelineBuilder builder(extended ? "extended" : "base");
    NodeId data = *builder.LoadDataset("par-unit", 800, 6);
    auto split = *builder.Split(data);
    NodeId scaler =
        *builder.Fit("StandardScaler", "skl.StandardScaler", split.first);
    NodeId train_s = *builder.Transform(scaler, split.first);
    NodeId max_abs =
        *builder.Fit("MaxAbsScaler", "skl.MaxAbsScaler", train_s);
    NodeId train_ss = *builder.Transform(max_abs, train_s);
    auto fit_tree = [&](NodeId train, int64_t depth) {
      ml::Config tree;
      tree.SetInt("max_depth", depth);
      return *builder.Fit("DecisionTreeClassifier",
                          "skl.DecisionTreeClassifier", train, tree);
    };
    fit_tree(train_ss, 4);
    if (extended) {
      fit_tree(train_ss, 6);
      NodeId min_max =
          *builder.Fit("MinMaxScaler", "skl.MinMaxScaler", split.first);
      fit_tree(*builder.Transform(min_max, split.first), 3);
    }
    return *std::move(builder).Build();
  };
  const std::vector<core::Pipeline> batch = {build(false), build(true)};
  std::map<EdgeId, std::string> serial_edges;
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE("parallelism=" + std::to_string(parallelism));
    core::HyppoSystem::Options options;
    options.runtime.parallelism = parallelism;
    core::HyppoSystem system(options);
    system.RegisterDataset("par-unit", *workload::GenerateHiggs(800, 6, 17));
    auto report = system.RunBatch(batch);
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_TRUE(report->batched);
    const core::PipelineGraph& graph = system.runtime().history().graph();
    std::map<EdgeId, std::string> edges;
    for (EdgeId e : graph.hypergraph().LiveEdges()) {
      edges[e] = graph.TaskSignature(e);
    }
    if (parallelism == 1) {
      serial_edges = edges;
    } else {
      EXPECT_EQ(edges, serial_edges);
    }
  }
}

TEST_F(ParallelExecutorTest, RuntimeLevelParallelismEndToEnd) {
  core::RuntimeOptions options;
  options.storage_budget_bytes = 1 << 20;
  options.parallelism = 4;
  core::Runtime runtime(options);
  runtime.RegisterDatasetGenerator(
      "par-unit", []() { return workload::GenerateHiggs(800, 6, 17); });
  core::HyppoMethod method(&runtime);
  core::Pipeline pipeline = BuildBranchyPipeline();
  auto planned = method.PlanPipeline(pipeline);
  ASSERT_TRUE(planned.ok()) << planned.status();
  auto record =
      runtime.ExecuteAndRecord(pipeline, planned->aug, planned->plan);
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_GT(record->seconds, 0.0);
  // Both evaluation targets were produced.
  int values = 0;
  for (const auto& [name, payload] : record->payloads_by_name) {
    values += std::get_if<double>(&payload) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(values, 2);
}

}  // namespace
}  // namespace hyppo
