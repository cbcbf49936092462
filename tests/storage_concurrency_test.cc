#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/pipeline_builder.h"
#include "storage/fault_injection.h"
#include "workload/datagen.h"

namespace hyppo {
namespace {

using storage::ArtifactPayload;

// ---------------------------------------------------------------------------
// TSan regression tests: the artifact store and the fault injector are
// shared mutable state under the parallel executor's worker threads.
// These tests hammer them from raw threads and from real executor
// workers; they pass trivially without a race detector and exist to keep
// the TSan job honest.

TEST(StorageConcurrencyTest, ConcurrentMixedOperationsAreSafe) {
  storage::InMemoryArtifactStore store;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  std::atomic<int> put_failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &put_failures, t]() {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "artifact-" + std::to_string((t * 7 + i) % 32);
        switch (i % 6) {
          case 0:
            if (!store.Put(key, ArtifactPayload(static_cast<double>(i)),
                           64 + i)
                     .ok()) {
              put_failures.fetch_add(1);
            }
            break;
          case 1:
            (void)store.Get(key);
            break;
          case 2:
            (void)store.Contains(key);
            break;
          case 3:
            (void)store.Evict(key);
            break;
          case 4:
            (void)store.Get(key);
            break;
          default: {
            (void)store.Keys();
            (void)store.used_bytes();
            (void)store.num_entries();
            (void)store.SizeOf(key);
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(put_failures.load(), 0);
  // The store is still internally consistent: every surviving key
  // resolves, and the byte tally matches a fresh walk.
  int64_t walked = 0;
  for (const std::string& key : store.Keys()) {
    auto size = store.SizeOf(key);
    ASSERT_TRUE(size.ok()) << size.status();
    walked += *size;
  }
  EXPECT_EQ(walked, store.used_bytes());
}

TEST(StorageConcurrencyTest, FaultInjectorDecisionsAreSafeAndCounted) {
  storage::FaultPlan plan;
  plan.seed = 21;
  plan.compute_failure_rate = 1.0;
  plan.max_faults_per_key = 0;  // every decision injects
  storage::FaultInjector injector(plan);
  constexpr int kThreads = 8;
  constexpr int kDecisionsPerThread = 500;
  ThreadPool pool(kThreads - 1);
  pool.ParallelFor(kThreads, [&injector](int64_t t) {
    for (int64_t i = 0; i < kDecisionsPerThread; ++i) {
      (void)injector.Decide(storage::FaultSite::kCompute,
                            "op-" + std::to_string((t + i) % 16));
    }
  });
  // No decision was lost or double-counted under contention.
  EXPECT_EQ(injector.counters().injected_compute,
            kThreads * kDecisionsPerThread);
}

// Concurrent load tasks under one fault plan: a 4-thread executor runs
// 16 store loads in one wave, each drawing its fault from the shared
// injector. Loads either succeed (possibly slow) or fail with an injected
// NotFound or a corrupted payload (IoError); the store is never touched.
TEST(StorageConcurrencyTest, FaultInjectingStoreConcurrentLoads) {
  storage::InMemoryArtifactStore base;
  core::Augmentation aug;
  for (int i = 0; i < 16; ++i) {
    core::ArtifactInfo info;
    info.name = "k" + std::to_string(i);
    info.display = info.name;
    info.kind = core::ArtifactKind::kData;
    info.size_bytes = 128;
    const NodeId node = aug.graph.AddArtifact(info).ValueOrDie();
    aug.graph.AddLoadTask(node).ValueOrDie();
    aug.targets.push_back(node);
    ASSERT_TRUE(
        base.Put(info.name, ArtifactPayload(static_cast<double>(i)), 128)
            .ok());
  }
  const size_t slots =
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
  aug.edge_weight.assign(slots, 1.0);
  aug.edge_seconds.assign(slots, 1.0);
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();
  storage::FaultInjector injector(storage::FaultPlan::Uniform(5, 0.3));
  core::Monitor monitor;
  core::Executor executor(&base, nullptr, &monitor, /*parallelism=*/4);
  core::Executor::Options options;
  options.fault_injector = &injector;
  int unexpected = 0;
  int64_t failures = 0;
  for (int round = 0; round < 40; ++round) {
    auto result = executor.Execute(aug, plan, options);
    ASSERT_TRUE(result.ok()) << result.status();
    for (const core::Executor::TaskFailure& failure : result->failures) {
      ++failures;
      if (!failure.status.IsNotFound() && !failure.status.IsIoError()) {
        ++unexpected;
      }
    }
  }
  EXPECT_EQ(unexpected, 0);
  EXPECT_GT(failures, 0);
  EXPECT_EQ(base.num_entries(), 16u);
}

// The real contention path: parallel executor workers loading from and
// writing into one store while a sibling executor does the same.
TEST(StorageConcurrencyTest, ParallelExecutorsShareOneStore) {
  core::PipelineBuilder builder("hammer");
  NodeId data = *builder.LoadDataset("hammer-unit", 400, 6);
  auto split = *builder.Split(data);
  NodeId scaler =
      *builder.Fit("StandardScaler", "skl.StandardScaler", split.first);
  NodeId train_s = *builder.Transform(scaler, split.first);
  NodeId test_s = *builder.Transform(scaler, split.second);
  ml::Config tree;
  tree.SetInt("max_depth", 4);
  NodeId model = *builder.Fit("DecisionTreeClassifier",
                              "skl.DecisionTreeClassifier", train_s, tree);
  NodeId preds = *builder.Predict(model, test_s);
  *builder.Evaluate(preds, test_s, "accuracy");
  core::Pipeline pipeline = *std::move(builder).Build();

  core::Augmentation aug;
  aug.graph = pipeline.graph;
  aug.targets = pipeline.targets;
  const size_t slots =
      static_cast<size_t>(aug.graph.hypergraph().num_edge_slots());
  aug.edge_weight.assign(slots, 1.0);
  aug.edge_seconds.assign(slots, 1.0);
  core::Plan plan;
  plan.edges = aug.graph.hypergraph().LiveEdges();

  // A load-only augmentation over materialized artifacts: its executor's
  // workers hit ArtifactStore::Load concurrently.
  storage::InMemoryArtifactStore store;
  core::Augmentation loads;
  for (int i = 0; i < 12; ++i) {
    core::ArtifactInfo info;
    info.name = "mat-" + std::to_string(i);
    info.display = info.name;
    info.kind = core::ArtifactKind::kData;
    info.size_bytes = 256;
    NodeId node = loads.graph.AddArtifact(info).ValueOrDie();
    loads.graph.AddLoadTask(node).ValueOrDie();
    loads.targets.push_back(node);
    ASSERT_TRUE(store
                    .Put(info.name, ArtifactPayload(static_cast<double>(i)),
                         info.size_bytes)
                    .ok());
  }
  const size_t load_slots =
      static_cast<size_t>(loads.graph.hypergraph().num_edge_slots());
  loads.edge_weight.assign(load_slots, 1.0);
  loads.edge_seconds.assign(load_slots, 1.0);
  core::Plan load_plan;
  load_plan.edges = loads.graph.hypergraph().LiveEdges();

  core::DatasetResolver resolver =
      [](const std::string&) -> Result<ml::DatasetPtr> {
    return workload::GenerateHiggs(400, 6, 11);
  };
  // Two executors over the same store, each at parallelism 4: one runs the
  // compute pipeline, one hammers the load path, and a churn thread
  // mutates overlapping keys the whole time.
  core::Monitor monitor_a;
  core::Monitor monitor_b;
  core::Executor executor_a(&store, resolver, &monitor_a,
                            /*parallelism=*/4);
  core::Executor executor_b(&store, resolver, &monitor_b,
                            /*parallelism=*/4);
  std::atomic<bool> stop{false};
  std::thread churn([&store, &stop]() {
    int i = 0;
    while (!stop.load()) {
      const std::string key = "churn-" + std::to_string(i++ % 8);
      (void)store.Put(key, ArtifactPayload(1.0), 64);
      (void)store.Keys();
      (void)store.Evict(key);
    }
  });
  std::atomic<int> failures{0};
  std::thread runner_a([&]() {
    for (int i = 0; i < 3; ++i) {
      auto result =
          executor_a.Execute(aug, plan, core::Executor::Options());
      if (!result.ok() || !result->complete()) {
        failures.fetch_add(1);
      }
    }
  });
  std::thread runner_b([&]() {
    for (int i = 0; i < 8; ++i) {
      auto result =
          executor_b.Execute(loads, load_plan, core::Executor::Options());
      if (!result.ok() || !result->complete()) {
        failures.fetch_add(1);
      }
    }
  });
  runner_a.join();
  runner_b.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(monitor_a.num_task_records(), 0);
  EXPECT_EQ(monitor_b.num_task_records(), 8 * 12);
}

}  // namespace
}  // namespace hyppo
