// Multi-tenant serving runtime (src/serving): differential correctness
// of concurrent sessions against isolated references, cross-session
// reuse accounting, admission control, stale-snapshot planning across
// compaction, and the one-live-manager-per-store-dir contract.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/verifier.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "serving/session_manager.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/scenario.h"

namespace hyppo {
namespace {

namespace fs = std::filesystem;

// The step-th pipeline of session s: shared split + imputer + scaler
// preprocessing (identical across sessions and steps — the cross-session
// reuse surface), model hyper-parameters unique per (session, step).
Result<core::Pipeline> ServePipeline(int session, int step) {
  core::PipelineBuilder builder("serve-s" + std::to_string(session) + "-p" +
                                std::to_string(step));
  HYPPO_ASSIGN_OR_RETURN(NodeId data,
                         builder.LoadDataset("serving-unit", 160, 5));
  HYPPO_ASSIGN_OR_RETURN(auto split, builder.Split(data));
  ml::Config impute;
  impute.Set("strategy", "mean");
  HYPPO_ASSIGN_OR_RETURN(
      NodeId imputer,
      builder.Fit("SimpleImputer", "skl.SimpleImputer", split.first, impute));
  HYPPO_ASSIGN_OR_RETURN(NodeId train_i,
                         builder.Transform(imputer, split.first));
  HYPPO_ASSIGN_OR_RETURN(NodeId test_i,
                         builder.Transform(imputer, split.second));
  HYPPO_ASSIGN_OR_RETURN(
      NodeId scaler,
      builder.Fit("StandardScaler", "skl.StandardScaler", train_i));
  HYPPO_ASSIGN_OR_RETURN(NodeId train_s, builder.Transform(scaler, train_i));
  HYPPO_ASSIGN_OR_RETURN(NodeId test_s, builder.Transform(scaler, test_i));
  ml::Config model_config;
  model_config.SetInt("max_depth", 2 + 3 * step + session);
  HYPPO_ASSIGN_OR_RETURN(
      NodeId model,
      builder.Fit("DecisionTreeClassifier", "skl.DecisionTreeClassifier",
                  train_s, model_config));
  HYPPO_ASSIGN_OR_RETURN(NodeId preds, builder.Predict(model, test_s));
  HYPPO_RETURN_NOT_OK(builder.Evaluate(preds, test_s, "accuracy").status());
  return std::move(builder).Build();
}

// The step-th forest pipeline of session s, on data above
// ml::TreeFitter::kFanOutMinCells: a forest and a tree fitted in one
// executor wave, each fanning out over the runtime's pool.
Result<core::Pipeline> ForestPipeline(int session, int step) {
  core::PipelineBuilder builder("forest-s" + std::to_string(session) +
                                "-p" + std::to_string(step));
  HYPPO_ASSIGN_OR_RETURN(NodeId data,
                         builder.LoadDataset("serving-forest", 800, 8));
  HYPPO_ASSIGN_OR_RETURN(auto split, builder.Split(data));
  ml::Config forest;
  forest.SetInt("n_estimators", 6 + step);
  forest.SetInt("max_depth", 4 + session);
  HYPPO_ASSIGN_OR_RETURN(
      NodeId forest_model,
      builder.Fit("RandomForestClassifier",
                  session % 2 == 0 ? "skl.RandomForestClassifier"
                                   : "lgb.RandomForestClassifier",
                  split.first, forest));
  ml::Config tree;
  tree.SetInt("max_depth", 3 + step);
  HYPPO_ASSIGN_OR_RETURN(
      NodeId tree_model,
      builder.Fit("DecisionTreeClassifier", "skl.DecisionTreeClassifier",
                  split.first, tree));
  for (NodeId model : {forest_model, tree_model}) {
    HYPPO_ASSIGN_OR_RETURN(NodeId preds,
                           builder.Predict(model, split.second));
    HYPPO_RETURN_NOT_OK(
        builder.Evaluate(preds, split.second, "accuracy").status());
  }
  return std::move(builder).Build();
}

void RegisterServingDataset(core::Runtime* runtime) {
  runtime->RegisterDatasetGenerator(
      "serving-unit", []() { return workload::GenerateHiggs(160, 5, 7); });
  runtime->RegisterDatasetGenerator(
      "serving-forest", []() { return workload::GenerateHiggs(800, 8, 9); });
}

// Serving options shared by the tests: real execution, verified plans,
// pinned implementations (byte-identity needs bitwise-equal payloads).
serving::ServingOptions BaseOptions() {
  serving::ServingOptions options;
  options.runtime.simulate = false;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.runtime.max_recovery_attempts = 6;
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

using PipelineFactory = Result<core::Pipeline> (*)(int session, int step);

// The isolated reference for one session: the same pipeline sequence run
// alone in a fresh single-tenant system with the same options.
Result<std::map<std::string, std::string>> IsolatedReference(
    int session, int num_pipelines,
    PipelineFactory make_pipeline = ServePipeline) {
  core::HyppoSystem::Options options;
  options.runtime = BaseOptions().runtime;
  options.method = BaseOptions().method;
  core::HyppoSystem system(options);
  RegisterServingDataset(&system.runtime());
  std::map<std::string, storage::ArtifactPayload> payloads;
  for (int p = 0; p < num_pipelines; ++p) {
    HYPPO_ASSIGN_OR_RETURN(core::Pipeline pipeline,
                           make_pipeline(session, p));
    HYPPO_ASSIGN_OR_RETURN(core::HyppoSystem::RunReport report,
                           system.RunPipeline(pipeline));
    for (const auto& [name, payload] : report.target_payloads) {
      payloads[name] = payload;
    }
  }
  return PayloadBytes(payloads);
}

Status VerifyManagerHistory(const serving::SessionManager& manager) {
  const analysis::Verifier verifier;
  analysis::AnalysisReport report = verifier.VerifyHistory(
      manager.runtime().history(), &manager.runtime().dictionary(),
      manager.runtime().options().storage_budget_bytes);
  report.Merge(verifier.CheckStoreConsistency(manager.runtime().history(),
                                              manager.runtime().store()));
  if (!report.ok()) {
    return Status::Internal(report.ToString());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Differential: concurrent sessions sharing one history must produce,
// per session, byte-identical target payloads to that session running
// alone. Reuse across tenants may change *how* values are derived
// (loads instead of computes) but never *what* they are.

TEST(ServingTest, ConcurrentSessionsMatchIsolatedReferencesByteForByte) {
  constexpr int kSessions = 3;
  constexpr int kPipelines = 3;
  serving::SessionManager manager(BaseOptions());
  ASSERT_TRUE(manager.session_status().ok()) << manager.session_status();
  RegisterServingDataset(&manager.runtime());

  std::vector<serving::SessionRequest> requests;
  for (int s = 0; s < kSessions; ++s) {
    serving::SessionRequest request;
    request.session_id = "tenant-" + std::to_string(s);
    for (int p = 0; p < kPipelines; ++p) {
      auto pipeline = ServePipeline(s, p);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      request.pipelines.push_back(*std::move(pipeline));
    }
    requests.push_back(std::move(request));
  }
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(requests);
  ASSERT_EQ(reports.size(), static_cast<size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    ASSERT_TRUE(reports[s].status.ok()) << reports[s].status;
    EXPECT_EQ(reports[s].pipelines_completed, kPipelines);
    auto served = PayloadBytes(reports[s].target_payloads);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_FALSE(served->empty());
    auto reference = IsolatedReference(s, kPipelines);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(*served, *reference);
  }
  EXPECT_TRUE(VerifyManagerHistory(manager).ok());
  const serving::SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_completed, kSessions);
  EXPECT_EQ(stats.pipelines_completed, kSessions * kPipelines);
}

// Three concurrent sessions share the runtime's one pool at parallelism
// 4: their executor waves, forest trees and per-column tree work all fan
// out over the same workers. Each session's payloads must still match its
// serial (parallelism 1) isolated reference, byte for byte.
TEST(ServingTest, SessionsSharingOnePoolMatchIsolatedReferences) {
  constexpr int kSessions = 3;
  constexpr int kPipelines = 2;
  serving::ServingOptions options = BaseOptions();
  options.runtime.parallelism = 4;
  serving::SessionManager manager(options);
  ASSERT_TRUE(manager.session_status().ok()) << manager.session_status();
  RegisterServingDataset(&manager.runtime());

  std::vector<serving::SessionRequest> requests;
  for (int s = 0; s < kSessions; ++s) {
    serving::SessionRequest request;
    request.session_id = "pooled-" + std::to_string(s);
    for (int p = 0; p < kPipelines; ++p) {
      auto pipeline = ForestPipeline(s, p);
      ASSERT_TRUE(pipeline.ok()) << pipeline.status();
      request.pipelines.push_back(*std::move(pipeline));
    }
    requests.push_back(std::move(request));
  }
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(requests);
  ASSERT_EQ(reports.size(), static_cast<size_t>(kSessions));
  for (int s = 0; s < kSessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    ASSERT_TRUE(reports[s].status.ok()) << reports[s].status;
    EXPECT_EQ(reports[s].pipelines_completed, kPipelines);
    auto served = PayloadBytes(reports[s].target_payloads);
    ASSERT_TRUE(served.ok()) << served.status();
    ASSERT_FALSE(served->empty());
    auto reference = IsolatedReference(s, kPipelines, ForestPipeline);
    ASSERT_TRUE(reference.ok()) << reference.status();
    EXPECT_EQ(*served, *reference);
  }
  EXPECT_TRUE(VerifyManagerHistory(manager).ok());
}

// ---------------------------------------------------------------------------
// Reuse accounting. Run two sessions strictly in sequence so ownership
// is deterministic: everything the second session loads was materialized
// by the first, so all its reuse is cross-session.

TEST(ServingTest, SequentialSessionsCountCrossSessionReuse) {
  serving::SessionManager manager(BaseOptions());
  RegisterServingDataset(&manager.runtime());

  auto make_request = [](const std::string& id, int session) {
    serving::SessionRequest request;
    request.session_id = id;
    for (int p = 0; p < 2; ++p) {
      auto pipeline = ServePipeline(session, p);
      EXPECT_TRUE(pipeline.ok()) << pipeline.status();
      request.pipelines.push_back(*std::move(pipeline));
    }
    return request;
  };
  const serving::SessionReport first =
      manager.RunSession(make_request("writer", 0));
  ASSERT_TRUE(first.status.ok()) << first.status;
  // The first session can reuse its own earlier pipelines' artifacts but
  // nothing from another tenant.
  EXPECT_EQ(first.cross_session_loads, 0);

  const serving::SessionReport second =
      manager.RunSession(make_request("reader", 1));
  ASSERT_TRUE(second.status.ok()) << second.status;
  EXPECT_GT(second.reuse_loads, 0);
  EXPECT_GT(second.cross_session_loads, 0);
  // Every load the second session planned targets an artifact first
  // materialized by "writer" or by itself.
  EXPECT_LE(second.cross_session_loads, second.reuse_loads);

  EXPECT_EQ(manager.stats().sessions_completed, 2);
  // The monitor holds the serving-wide totals.
  const core::Monitor& monitor = manager.runtime().monitor();
  EXPECT_EQ(monitor.num_cross_session_loads(), second.cross_session_loads);
  EXPECT_EQ(monitor.num_reuse_loads(),
            first.reuse_loads + second.reuse_loads);
}

// ---------------------------------------------------------------------------
// Admission control: at most max_in_flight_sessions run concurrently,
// the rest queue FIFO and still complete.

TEST(ServingTest, AdmissionGateBoundsInFlightSessions) {
  serving::ServingOptions options = BaseOptions();
  options.max_in_flight_sessions = 2;
  // Hold each admitted session briefly so later arrivals observably
  // queue behind the gate.
  options.make_method = [method = options.method](core::Runtime* runtime) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return std::make_unique<core::HyppoMethod>(runtime, method);
  };
  serving::SessionManager manager(options);
  RegisterServingDataset(&manager.runtime());

  std::vector<serving::SessionRequest> requests;
  for (int s = 0; s < 6; ++s) {
    serving::SessionRequest request;
    request.session_id = "queued-" + std::to_string(s);
    auto pipeline = ServePipeline(s, 0);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    request.pipelines.push_back(*std::move(pipeline));
    requests.push_back(std::move(request));
  }
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(requests);
  double queue_seconds = 0.0;
  for (const serving::SessionReport& report : reports) {
    ASSERT_TRUE(report.status.ok()) << report.status;
    queue_seconds += report.queue_seconds;
  }
  const serving::SessionManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.sessions_completed, 6);
  EXPECT_LE(stats.max_observed_in_flight, 2);
  EXPECT_GE(stats.sessions_queued, 1);
  EXPECT_GT(queue_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Stale-snapshot regression: a plan made before compaction must still
// execute correctly after Compact rewrote the history under it, and the
// post-run history must verify clean.

TEST(ServingTest, PlanFromPreCompactionSnapshotExecutesClean) {
  serving::ServingOptions options = BaseOptions();
  // Small growth bound: each pipeline adds ~12 artifacts, so the second
  // session's executions force Pareto compaction.
  options.runtime.history_max_artifacts = 18;
  serving::SessionManager manager(options);
  RegisterServingDataset(&manager.runtime());

  // Warm the history, then plan one pipeline against this snapshot.
  serving::SessionRequest warm;
  warm.session_id = "warm";
  for (int p = 0; p < 2; ++p) {
    auto pipeline = ServePipeline(0, p);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    warm.pipelines.push_back(*std::move(pipeline));
  }
  ASSERT_TRUE(manager.RunSession(warm).status.ok());

  core::HyppoMethod method(&manager.runtime(), options.method);
  auto stale_pipeline = ServePipeline(0, 5);
  ASSERT_TRUE(stale_pipeline.ok()) << stale_pipeline.status();
  auto planned = method.PlanPipeline(*stale_pipeline);
  ASSERT_TRUE(planned.ok()) << planned.status();

  // Churn the catalog from another tenant until compaction fires.
  serving::SessionRequest churn;
  churn.session_id = "churn";
  for (int p = 2; p < 5; ++p) {
    auto pipeline = ServePipeline(1, p);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    churn.pipelines.push_back(*std::move(pipeline));
  }
  ASSERT_TRUE(manager.RunSession(churn).status.ok());
  ASSERT_GT(manager.runtime().monitor().num_history_compacted(), 0)
      << "test premise broken: compaction never fired";

  // The stale plan may load artifacts compaction evicted; execution must
  // self-heal (degrade + re-plan) rather than corrupt or fail.
  auto record = manager.runtime().ExecuteAndRecord(
      *stale_pipeline, planned->aug, planned->plan, method.MakeReplanner());
  ASSERT_TRUE(record.ok()) << record.status();
  EXPECT_TRUE(VerifyManagerHistory(manager).ok());
}

// ---------------------------------------------------------------------------
// One live manager per store_dir: a second manager (or any second
// runtime) opening the same durable directory fails fast with a clear
// diagnostic instead of corrupting the first tenant's artifacts.

TEST(ServingTest, SecondManagerOnSameStoreDirFailsFast) {
  const fs::path dir = fs::temp_directory_path() / "hyppo_serving_lock";
  fs::remove_all(dir);
  serving::ServingOptions options = BaseOptions();
  options.runtime.store_dir = dir.string();

  serving::SessionManager first(options);
  ASSERT_TRUE(first.session_status().ok()) << first.session_status();

  serving::SessionManager second(options);
  EXPECT_FALSE(second.session_status().ok());
  EXPECT_TRUE(second.session_status().IsFailedPrecondition())
      << second.session_status();
  EXPECT_NE(second.session_status().ToString().find("locked"),
            std::string::npos)
      << second.session_status();

  // Sessions submitted to the locked-out manager fail fast with the
  // same status instead of hanging or touching the store.
  serving::SessionRequest request;
  request.session_id = "locked-out";
  auto pipeline = ServePipeline(0, 0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  request.pipelines.push_back(*std::move(pipeline));
  const serving::SessionReport report = second.RunSession(request);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.pipelines_completed, 0);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Scenario plumbing: config.sessions > 1 drives the generated sequence
// through the serving layer (round-robin partition, original-order
// reassembly) and surfaces the reuse counters in SequenceResult.

TEST(ServingTest, IterativeScenarioDrivesConcurrentSessions) {
  workload::ScenarioConfig config;
  config.num_pipelines = 8;
  config.budget_factor = 0.5;
  config.seed = 5;
  config.sessions = 2;
  auto result =
      workload::RunIterativeScenario(workload::MakeHyppoFactory(), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sessions, 2);
  EXPECT_EQ(result->per_pipeline_seconds.size(),
            static_cast<size_t>(config.num_pipelines));
  EXPECT_GT(result->cumulative_seconds, 0.0);
  EXPECT_GT(result->reuse_loads, 0);
  EXPECT_GE(result->cross_session_loads, 0);
}

// The lock is released with the owning manager: reopening afterwards
// restores the previous session's materializations.

TEST(ServingTest, StoreDirReopensAfterOwnerCloses) {
  const fs::path dir = fs::temp_directory_path() / "hyppo_serving_reopen";
  fs::remove_all(dir);
  serving::ServingOptions options = BaseOptions();
  options.runtime.store_dir = dir.string();
  {
    serving::SessionManager manager(options);
    ASSERT_TRUE(manager.session_status().ok()) << manager.session_status();
    RegisterServingDataset(&manager.runtime());
    serving::SessionRequest request;
    request.session_id = "writer";
    auto pipeline = ServePipeline(0, 0);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    request.pipelines.push_back(*std::move(pipeline));
    const auto reports = manager.RunSessions({request});
    ASSERT_TRUE(reports[0].status.ok()) << reports[0].status;
  }
  serving::SessionManager reopened(options);
  ASSERT_TRUE(reopened.session_status().ok()) << reopened.session_status();
  EXPECT_FALSE(
      reopened.runtime().history().MaterializedArtifacts().empty());
  fs::remove_all(dir);
}

// RunSession alone (no RunSessions wrapper) checkpoints every commit, so
// a reopened store keeps the whole materialized set.

TEST(ServingTest, RunSessionPersistsDurableStore) {
  const fs::path dir = fs::temp_directory_path() / "hyppo_serving_persist";
  fs::remove_all(dir);
  serving::ServingOptions options = BaseOptions();
  options.runtime.store_dir = dir.string();
  size_t materialized = 0;
  {
    serving::SessionManager manager(options);
    ASSERT_TRUE(manager.session_status().ok()) << manager.session_status();
    RegisterServingDataset(&manager.runtime());
    serving::SessionRequest request;
    request.session_id = "writer";
    auto pipeline = ServePipeline(0, 0);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    request.pipelines.push_back(*std::move(pipeline));
    const serving::SessionReport report = manager.RunSession(request);
    ASSERT_TRUE(report.status.ok()) << report.status;
    materialized = manager.runtime().history().MaterializedArtifacts().size();
  }
  ASSERT_GT(materialized, 0u);
  serving::SessionManager reopened(options);
  ASSERT_TRUE(reopened.session_status().ok()) << reopened.session_status();
  EXPECT_EQ(reopened.runtime().history().MaterializedArtifacts().size(),
            materialized);
  EXPECT_TRUE(VerifyManagerHistory(reopened).ok());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hyppo
