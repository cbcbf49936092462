#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "core/executor.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "storage/disk_store.h"
#include "workload/datagen.h"

namespace hyppo::core {
namespace {

// Minimal pipeline: load -> split -> scaler fit.
Result<Pipeline> TinyPipeline() {
  PipelineBuilder builder("tiny");
  HYPPO_ASSIGN_OR_RETURN(NodeId data, builder.LoadDataset("tiny", 200, 4));
  HYPPO_ASSIGN_OR_RETURN(auto split, builder.Split(data));
  HYPPO_RETURN_NOT_OK(
      builder.Fit("StandardScaler", "skl.StandardScaler", split.first)
          .status());
  return std::move(builder).Build();
}

// Wraps the pipeline as a trivial augmentation with unit weights.
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

TEST(ExecutorTest, MissingDatasetResolverRecordedAsFailure) {
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(&store, /*resolver=*/nullptr, &monitor);
  Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  Executor::Options options;
  auto result = executor.Execute(aug, FullPlan(aug), options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->complete());
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsFailedPrecondition())
      << result->failures[0].status;
  // Everything downstream of the dead load is starved, not attempted.
  EXPECT_EQ(result->skipped_edges.size(), 2u);
  EXPECT_TRUE(result->payloads.empty());
}

TEST(ExecutorTest, UnknownDatasetSurfacesResolverError) {
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(
      &store,
      [](const std::string& id) -> Result<ml::DatasetPtr> {
        return Status::NotFound("no dataset '" + id + "'");
      },
      &monitor);
  Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  auto result = executor.Execute(aug, FullPlan(aug), Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsNotFound());
}

TEST(ExecutorTest, MissingMaterializedPayloadRecordedAsFailure) {
  // A plan that loads a non-raw artifact not present in the store.
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(&store, nullptr, &monitor);
  Augmentation aug;
  ArtifactInfo info;
  info.name = "derived";
  info.display = "derived";
  info.kind = ArtifactKind::kData;
  info.size_bytes = 64;
  NodeId node = aug.graph.AddArtifact(info).ValueOrDie();
  aug.graph.AddLoadTask(node).ValueOrDie();
  aug.targets = {node};
  aug.edge_weight.assign(1, 1.0);
  aug.edge_seconds.assign(1, 1.0);
  Plan plan = FullPlan(aug);
  auto result = executor.Execute(aug, plan, Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsNotFound());
  // In simulation mode the same plan succeeds with a placeholder payload.
  Executor::Options simulate;
  simulate.simulate = true;
  auto simulated = executor.Execute(aug, plan, simulate);
  ASSERT_TRUE(simulated.ok()) << simulated.status();
  EXPECT_TRUE(simulated->complete());
  EXPECT_GT(simulated->total_seconds, 0.0);
}

TEST(ExecutorTest, UnknownImplRecordedAsFailure) {
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(
      &store,
      [](const std::string&) -> Result<ml::DatasetPtr> {
        return workload::GenerateHiggs(200, 4, 1);
      },
      &monitor);
  PipelineBuilder builder("bad-impl");
  NodeId data = *builder.LoadDataset("tiny", 200, 4);
  auto split = *builder.Split(data);
  *builder.Fit("StandardScaler", "nope.StandardScaler", split.first);
  Pipeline pipeline = *std::move(builder).Build();
  Augmentation aug = AsAugmentation(pipeline);
  auto result = executor.Execute(aug, FullPlan(aug), Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->failures.size(), 1u);
  EXPECT_TRUE(result->failures[0].status.IsNotFound())
      << result->failures[0].status;
  // The load and split upstream of the bad fit still ran.
  EXPECT_EQ(result->task_runs.size(), 2u);
}

TEST(ExecutorTest, NonExecutablePlanRejectedUpFront) {
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(&store, nullptr, &monitor);
  Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  // Drop the load task: the split can never obtain its input.
  Plan plan;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    if (aug.graph.task(e).type != TaskType::kLoad) {
      plan.edges.push_back(e);
    }
  }
  auto result = executor.Execute(aug, plan, Executor::Options());
  EXPECT_TRUE(result.status().IsFailedPrecondition());
}

// One charging rule for every load, whatever serves it: a real run
// charges the measured time; a simulated or charge_estimates run charges
// exactly the augmentation's estimate, and a slow-load fault scales that
// charge. Injected faults map alike from every source in every mode.
TEST(ExecutorTest, LoadsChargeAndFaultAlikeFromEverySource) {
  enum class Source { kMemory, kDisk, kRaw };
  enum class Mode { kReal, kSimulate, kChargeEstimates };
  constexpr double kEstimate = 0.125;
  const ml::DatasetPtr data = *workload::GenerateHiggs(200, 4, 1);
  const std::string disk_dir =
      (std::filesystem::temp_directory_path() / "hyppo_executor_loads")
          .string();
  for (Source source : {Source::kMemory, Source::kDisk, Source::kRaw}) {
    for (Mode mode : {Mode::kReal, Mode::kSimulate, Mode::kChargeEstimates}) {
      SCOPED_TRACE("source " + std::to_string(static_cast<int>(source)) +
                   ", mode " + std::to_string(static_cast<int>(mode)));
      const bool raw = source == Source::kRaw;
      Augmentation aug;
      ArtifactInfo info;
      info.name = "blob";
      info.display = "blob-data";
      info.kind = raw ? ArtifactKind::kRaw : ArtifactKind::kData;
      info.size_bytes = data->SizeBytes();
      const NodeId node = aug.graph.AddArtifact(info).ValueOrDie();
      aug.graph.AddLoadTask(node).ValueOrDie();
      aug.targets = {node};
      aug.edge_weight.assign(1, kEstimate);
      aug.edge_seconds.assign(1, kEstimate);
      const Plan plan = FullPlan(aug);

      std::filesystem::remove_all(disk_dir);
      std::unique_ptr<storage::ArtifactStore> store;
      if (source == Source::kDisk) {
        store = std::make_unique<storage::DiskArtifactStore>(disk_dir);
      } else {
        store = std::make_unique<storage::InMemoryArtifactStore>();
      }
      if (!raw) {
        ASSERT_TRUE(
            store->Put(info.name, ArtifactPayload(data), data->SizeBytes())
                .ok());
      }
      storage::FaultPlan faults;
      faults.slow_multiplier = 4.0;
      const storage::FaultSite site = raw ? storage::FaultSite::kResolver
                                          : storage::FaultSite::kStoreLoad;
      const std::string key = raw ? info.display : info.name;
      int occurrence = 1;  // occurrence 0 is the clean load
      for (storage::FaultKind kind :
           {storage::FaultKind::kSlowLoad, storage::FaultKind::kCorrupt,
            storage::FaultKind::kNotFound, storage::FaultKind::kFail}) {
        faults.schedule.push_back({site, key, occurrence++, kind});
      }
      storage::FaultInjector injector(faults);
      Monitor monitor;
      Executor executor(
          store.get(),
          [&data](const std::string&) -> Result<ml::DatasetPtr> {
            return data;
          },
          &monitor);
      Executor::Options options;
      options.simulate = mode == Mode::kSimulate;
      options.charge_estimates = mode == Mode::kChargeEstimates;
      options.fault_injector = &injector;

      auto clean = executor.Execute(aug, plan, options);
      ASSERT_TRUE(clean.ok()) << clean.status();
      ASSERT_TRUE(clean->complete());
      auto slow = executor.Execute(aug, plan, options);
      ASSERT_TRUE(slow.ok()) << slow.status();
      ASSERT_TRUE(slow->complete());
      if (mode == Mode::kReal) {
        EXPECT_GT(clean->total_seconds, 0.0);
        EXPECT_LT(clean->total_seconds, 10.0);
        EXPECT_GT(slow->total_seconds, 0.0);
        const auto* loaded =
            std::get_if<ml::DatasetPtr>(&clean->payloads.at(node));
        ASSERT_NE(loaded, nullptr);
        EXPECT_EQ((*loaded)->rows(), data->rows());
      } else {
        EXPECT_EQ(clean->total_seconds, kEstimate);
        EXPECT_EQ(slow->total_seconds, 4.0 * kEstimate);
      }

      auto corrupt = executor.Execute(aug, plan, options);
      ASSERT_TRUE(corrupt.ok()) << corrupt.status();
      ASSERT_EQ(corrupt->failures.size(), 1u);
      EXPECT_TRUE(corrupt->failures[0].status.IsIoError());
      EXPECT_NE(
          corrupt->failures[0].status.message().find("corrupted payload"),
          std::string::npos)
          << corrupt->failures[0].status;

      auto vanished = executor.Execute(aug, plan, options);
      ASSERT_TRUE(vanished.ok()) << vanished.status();
      ASSERT_EQ(vanished->failures.size(), 1u);
      EXPECT_TRUE(vanished->failures[0].status.IsNotFound())
          << vanished->failures[0].status;

      auto failed = executor.Execute(aug, plan, options);
      ASSERT_TRUE(failed.ok()) << failed.status();
      ASSERT_EQ(failed->failures.size(), 1u);
      EXPECT_TRUE(failed->failures[0].status.IsIoError())
          << failed->failures[0].status;
      EXPECT_EQ(injector.counters().total(), 4);
      // The store itself is never perturbed by a load fault.
      EXPECT_EQ(store->num_entries(), raw ? 0u : 1u);
    }
  }
  std::filesystem::remove_all(disk_dir);
}

TEST(ExecutorTest, MonitorReceivesTaskRecords) {
  storage::InMemoryArtifactStore store;
  CostEstimator estimator;
  Monitor monitor(&estimator);
  Executor executor(
      &store,
      [](const std::string&) -> Result<ml::DatasetPtr> {
        return workload::GenerateHiggs(200, 4, 1);
      },
      &monitor);
  Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  auto result = executor.Execute(aug, FullPlan(aug), Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(monitor.num_task_records(), 3);  // load, split, fit
  EXPECT_EQ(estimator.num_observations(), 2);  // split + fit (not load)
}

TEST(ExecutorTest, PartialPlanExecutesOnlyItsTasks) {
  storage::InMemoryArtifactStore store;
  Monitor monitor;
  Executor executor(
      &store,
      [](const std::string&) -> Result<ml::DatasetPtr> {
        return workload::GenerateHiggs(200, 4, 1);
      },
      &monitor);
  Pipeline pipeline = *TinyPipeline();
  Augmentation aug = AsAugmentation(pipeline);
  // Plan that stops after the split.
  Plan plan;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    if (aug.graph.task(e).type != TaskType::kFit) {
      plan.edges.push_back(e);
    }
  }
  auto result = executor.Execute(aug, plan, Executor::Options());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->task_runs.size(), 2u);
  // The op-state node has no payload.
  int states = 0;
  for (const auto& [node, payload] : result->payloads) {
    states += std::get_if<ml::OpStatePtr>(&payload) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(states, 0);
}

}  // namespace
}  // namespace hyppo::core
