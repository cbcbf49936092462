#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "serving/session_manager.h"
#include "storage/fault_injection.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/scenario.h"

namespace hyppo {
namespace {

using storage::ArtifactPayload;

// ---------------------------------------------------------------------------
// FaultInjector unit behavior: determinism, transient cap, schedules.

TEST(FaultInjectorTest, DecisionsAreDeterministicPerOccurrence) {
  storage::FaultPlan plan = storage::FaultPlan::Uniform(7, 0.5);
  storage::FaultInjector a(plan);
  storage::FaultInjector b(plan);
  for (int i = 0; i < 50; ++i) {
    auto da = a.Decide(storage::FaultSite::kStoreLoad, "artifact-x");
    auto db = b.Decide(storage::FaultSite::kStoreLoad, "artifact-x");
    EXPECT_EQ(da.kind, db.kind) << "occurrence " << i;
  }
  EXPECT_EQ(a.counters().total(), b.counters().total());
}

TEST(FaultInjectorTest, DecisionIndependentOfOtherKeys) {
  // The draw hashes (seed, site, key, occurrence): interleaving other
  // keys between the draws must not change the sequence for one key.
  storage::FaultPlan plan = storage::FaultPlan::Uniform(11, 0.4);
  plan.max_faults_per_key = 0;  // unlimited, compare raw draws
  storage::FaultInjector lone(plan);
  storage::FaultInjector noisy(plan);
  std::vector<storage::FaultKind> a;
  std::vector<storage::FaultKind> b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(lone.Decide(storage::FaultSite::kCompute, "fit").kind);
    (void)noisy.Decide(storage::FaultSite::kStoreLoad, "other-1");
    (void)noisy.Decide(storage::FaultSite::kResolver, "other-2");
    b.push_back(noisy.Decide(storage::FaultSite::kCompute, "fit").kind);
  }
  EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, TransientCapBoundsFaultsPerKey) {
  storage::FaultPlan plan;
  plan.seed = 3;
  plan.compute_failure_rate = 1.0;  // every draw wants to fail
  plan.max_faults_per_key = 2;
  storage::FaultInjector injector(plan);
  int injected = 0;
  for (int i = 0; i < 20; ++i) {
    if (injector.Decide(storage::FaultSite::kCompute, "op").kind !=
        storage::FaultKind::kNone) {
      ++injected;
    }
  }
  EXPECT_EQ(injected, 2);
  EXPECT_EQ(injector.counters().injected_compute, 2);
}

TEST(FaultInjectorTest, ScheduleOverridesProbabilisticDraw) {
  storage::FaultPlan plan;  // all rates zero
  plan.schedule.push_back({storage::FaultSite::kStoreLoad, "scaler-state",
                           /*occurrence=*/1, storage::FaultKind::kCorrupt});
  storage::FaultInjector injector(plan);
  EXPECT_EQ(injector.Decide(storage::FaultSite::kStoreLoad, "scaler-state")
                .kind,
            storage::FaultKind::kNone);
  EXPECT_EQ(injector.Decide(storage::FaultSite::kStoreLoad, "scaler-state")
                .kind,
            storage::FaultKind::kCorrupt);
  EXPECT_EQ(injector.Decide(storage::FaultSite::kStoreLoad, "scaler-state")
                .kind,
            storage::FaultKind::kNone);
}

// ---------------------------------------------------------------------------
// End-to-end chaos: an exploratory sequence under HYPPO, with faults
// injected at every site, must self-heal and produce payloads that are
// byte-identical to the fault-free run.

// The i-th pipeline of a small exploratory sequence: shared
// imputer+scaler preprocessing, varying model stage. Later iterations
// reuse/load materialized prefix artifacts, which is exactly where the
// store-load faults strike. Implementations are pinned (equivalences off
// below) so every run derives bitwise-identical payloads.
Result<core::Pipeline> SequencePipeline(int i) {
  core::PipelineBuilder builder("chaos-" + std::to_string(i));
  HYPPO_ASSIGN_OR_RETURN(NodeId data,
                         builder.LoadDataset("chaos-unit", 160, 5));
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
  NodeId model = kInvalidNode;
  if (i % 2 == 0) {
    model_config.SetInt("max_depth", 3 + i);
    HYPPO_ASSIGN_OR_RETURN(
        model, builder.Fit("DecisionTreeClassifier",
                           "skl.DecisionTreeClassifier", train_s,
                           model_config));
  } else {
    model_config.SetDouble("alpha", 0.001 * (i + 1));
    HYPPO_ASSIGN_OR_RETURN(
        model, builder.Fit("LogisticRegression", "skl.LogisticRegression",
                           train_s, model_config));
  }
  HYPPO_ASSIGN_OR_RETURN(NodeId preds, builder.Predict(model, test_s));
  HYPPO_RETURN_NOT_OK(
      builder.Evaluate(preds, test_s, i % 2 == 0 ? "accuracy" : "f1")
          .status());
  return std::move(builder).Build();
}

struct SequenceOutcome {
  /// Serialized bytes of every target payload, by canonical name.
  std::map<std::string, std::string> payload_bytes;
  int64_t replans = 0;
  int64_t failed_tasks = 0;
  int64_t recovered_tasks = 0;
  int64_t injected_faults = 0;
};

constexpr int kSequenceLength = 4;

Result<SequenceOutcome> RunSequence(double fault_rate, int parallelism,
                                    uint64_t fault_seed) {
  core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.parallelism = parallelism;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  // The transient cap (max_faults_per_key=2) clears each fault after two
  // injections. The bound counts re-plans without progress, and several
  // frontier tasks can fault in turn before one succeeds, so give the
  // sweep headroom over the default bound of 3.
  options.runtime.max_recovery_attempts = 6;
  // Pin physical implementations: alternative impls (e.g. two-pass vs
  // Welford scaler moments) are numerically equivalent but not
  // bit-identical, and this test asserts byte equality across runs.
  options.method.augment.use_equivalences = false;
  core::HyppoSystem system(options);
  system.runtime().RegisterDatasetGenerator("chaos-unit", []() {
    return workload::GenerateHiggs(160, 5, 7);
  });
  if (fault_rate > 0.0) {
    system.runtime().EnableFaultInjection(
        storage::FaultPlan::Uniform(fault_seed, fault_rate));
  }
  SequenceOutcome outcome;
  for (int i = 0; i < kSequenceLength; ++i) {
    HYPPO_ASSIGN_OR_RETURN(core::Pipeline pipeline, SequencePipeline(i));
    HYPPO_ASSIGN_OR_RETURN(core::HyppoSystem::RunReport report,
                           system.RunPipeline(pipeline));
    for (const auto& [name, payload] : report.target_payloads) {
      HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                             storage::SerializePayload(payload));
      outcome.payload_bytes[name] = std::move(bytes);
    }
  }
  const core::Monitor& monitor = system.runtime().monitor();
  outcome.replans = monitor.num_replans();
  outcome.failed_tasks = monitor.num_task_failures();
  outcome.recovered_tasks = monitor.num_recovered_tasks();
  outcome.injected_faults = monitor.num_injected_faults();
  return outcome;
}

TEST(ChaosTest, SeededSweepRecoversAndMatchesFaultFreeRun) {
  for (int parallelism : {1, 8}) {
    // Fault rate 0: the plan seed is irrelevant (no injector is armed),
    // so one run covers the whole seed axis of the sweep.
    auto baseline = RunSequence(0.0, parallelism, 1);
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    EXPECT_EQ(baseline->replans, 0);
    EXPECT_EQ(baseline->failed_tasks, 0);
    EXPECT_EQ(baseline->injected_faults, 0);
    ASSERT_FALSE(baseline->payload_bytes.empty());

    int64_t swept_faults = 0;
    for (double fault_rate : {0.05, 0.2}) {
      for (uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("parallelism=" + std::to_string(parallelism) +
                     " rate=" + std::to_string(fault_rate) +
                     " seed=" + std::to_string(seed));
        auto chaotic = RunSequence(fault_rate, parallelism, seed);
        // Recovery must terminate inside the retry bound: the transient
        // cap (max_faults_per_key=2) is below max_recovery_attempts, so
        // every execution converges and the sequence succeeds.
        ASSERT_TRUE(chaotic.ok()) << chaotic.status();
        EXPECT_LE(chaotic->replans, 6 * kSequenceLength);
        EXPECT_GE(chaotic->failed_tasks, chaotic->replans);
        swept_faults += chaotic->injected_faults;
        // Self-healing is exact: every target payload is byte-identical
        // to the fault-free run.
        EXPECT_EQ(chaotic->payload_bytes, baseline->payload_bytes);
      }
    }
    // The sweep actually exercised the fault paths.
    EXPECT_GT(swept_faults, 0);
  }
}

TEST(ChaosTest, ScheduledCorruptionDegradesAndReplans) {
  // Script one exact failure: the first materialized-artifact load a
  // later pipeline attempts comes back corrupt. The runtime must evict
  // the rotten copy, drop the load edge, re-plan, and recompute.
  auto baseline = RunSequence(0.0, 1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  core::HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.method.augment.use_equivalences = false;
  core::HyppoSystem system(options);
  system.runtime().RegisterDatasetGenerator("chaos-unit", []() {
    return workload::GenerateHiggs(160, 5, 7);
  });
  auto first = SequencePipeline(0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto first_report = system.RunPipeline(*first);
  ASSERT_TRUE(first_report.ok()) << first_report.status();

  // Corrupt every store load of the second pipeline's first attempt.
  storage::FaultPlan plan;
  for (const std::string& key : system.runtime().store().Keys()) {
    plan.schedule.push_back(
        {storage::FaultSite::kStoreLoad, key, 0, storage::FaultKind::kCorrupt});
  }
  ASSERT_FALSE(plan.schedule.empty())
      << "first pipeline materialized nothing; test premise broken";
  system.runtime().EnableFaultInjection(plan);

  auto second = SequencePipeline(1);
  ASSERT_TRUE(second.ok()) << second.status();
  auto report = system.RunPipeline(*second);
  ASSERT_TRUE(report.ok()) << report.status();
  const core::Monitor& monitor = system.runtime().monitor();
  EXPECT_GE(monitor.num_replans(), 1);
  EXPECT_GE(monitor.num_task_failures(), 1);
  // The recomputed target matches the fault-free sequence byte-for-byte.
  for (const auto& [name, payload] : report->target_payloads) {
    auto bytes = storage::SerializePayload(payload);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto it = baseline->payload_bytes.find(name);
    ASSERT_NE(it, baseline->payload_bytes.end()) << name;
    EXPECT_EQ(*bytes, it->second) << name;
  }
}

TEST(ChaosTest, FailureWithoutReplannerSurfacesFirstError) {
  // ExecuteAndRecord without a replanner keeps the old contract: the
  // first task failure's Status comes back to the caller.
  core::RuntimeOptions options;
  options.simulate = false;
  options.verify_plans = true;
  core::Runtime runtime(options);
  runtime.RegisterDatasetGenerator("chaos-unit", []() {
    return workload::GenerateHiggs(160, 5, 7);
  });
  runtime.EnableFaultInjection([] {
    storage::FaultPlan plan;
    plan.resolver_failure_rate = 1.0;
    plan.max_faults_per_key = 0;  // permanent outage
    return plan;
  }());
  core::HyppoMethod method(&runtime);
  auto pipeline = SequencePipeline(0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  auto planned = method.PlanPipeline(*pipeline);
  ASSERT_TRUE(planned.ok()) << planned.status();
  auto record =
      runtime.ExecuteAndRecord(*pipeline, planned->aug, planned->plan);
  EXPECT_FALSE(record.ok());
  EXPECT_TRUE(record.status().IsIoError()) << record.status();
}

TEST(ChaosTest, PermanentOutageExhaustsRetryBoundAndFails) {
  // An unlimited resolver outage can never be degraded away (raw loads
  // are transient by classification), so recovery exhausts its bound and
  // the failure surfaces instead of looping forever.
  core::RuntimeOptions options;
  options.simulate = false;
  options.verify_plans = true;
  options.max_recovery_attempts = 2;
  core::Runtime runtime(options);
  runtime.RegisterDatasetGenerator("chaos-unit", []() {
    return workload::GenerateHiggs(160, 5, 7);
  });
  runtime.EnableFaultInjection([] {
    storage::FaultPlan plan;
    plan.resolver_failure_rate = 1.0;
    plan.max_faults_per_key = 0;
    return plan;
  }());
  core::HyppoMethod method(&runtime);
  auto pipeline = SequencePipeline(0);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status();
  auto planned = method.PlanPipeline(*pipeline);
  ASSERT_TRUE(planned.ok()) << planned.status();
  auto record = runtime.ExecuteAndRecord(*pipeline, planned->aug,
                                         planned->plan,
                                         method.MakeReplanner());
  EXPECT_FALSE(record.ok());
  EXPECT_EQ(runtime.monitor().num_replans(), 2);
}

// ---------------------------------------------------------------------------
// Scenario-level wiring: the fault knob reaches the runtime and the
// recovery telemetry reaches the scenario result.

// ---------------------------------------------------------------------------
// Multi-session chaos: N tenants share one store through the serving
// layer while faults strike it. Every session must still end with the
// fault-free sequence's exact bytes — no tenant observes another
// tenant's injected failure (or its recovery) as corruption.

TEST(ChaosTest, MultiSessionSharedStoreSweepMatchesFaultFree) {
  auto baseline = RunSequence(0.0, 1, 1);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_FALSE(baseline->payload_bytes.empty());

  int64_t swept_faults = 0;
  for (int sessions : {2, 4}) {
    for (double fault_rate : {0.05, 0.2}) {
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE("sessions=" + std::to_string(sessions) +
                     " rate=" + std::to_string(fault_rate) +
                     " seed=" + std::to_string(seed));
        serving::ServingOptions options;
        options.runtime.simulate = false;
        options.runtime.verify_plans = true;
        options.runtime.storage_budget_bytes = 1 << 20;
        options.runtime.max_recovery_attempts = 6;
        options.method.augment.use_equivalences = false;
        options.max_in_flight_sessions = sessions;
        options.fault_rate = fault_rate;
        options.fault_seed = seed;
        serving::SessionManager manager(options);
        manager.runtime().RegisterDatasetGenerator("chaos-unit", []() {
          return workload::GenerateHiggs(160, 5, 7);
        });
        std::vector<serving::SessionRequest> requests;
        for (int s = 0; s < sessions; ++s) {
          serving::SessionRequest request;
          request.session_id = "chaos-tenant-" + std::to_string(s);
          for (int i = 0; i < kSequenceLength; ++i) {
            auto pipeline = SequencePipeline(i);
            ASSERT_TRUE(pipeline.ok()) << pipeline.status();
            request.pipelines.push_back(*std::move(pipeline));
          }
          requests.push_back(std::move(request));
        }
        for (const serving::SessionReport& report :
             manager.RunSessions(requests)) {
          SCOPED_TRACE(report.session_id);
          ASSERT_TRUE(report.status.ok()) << report.status;
          EXPECT_EQ(report.pipelines_completed, kSequenceLength);
          std::map<std::string, std::string> bytes;
          for (const auto& [name, payload] : report.target_payloads) {
            auto serialized = storage::SerializePayload(payload);
            ASSERT_TRUE(serialized.ok()) << serialized.status();
            bytes[name] = *std::move(serialized);
          }
          EXPECT_EQ(bytes, baseline->payload_bytes);
        }
        swept_faults += manager.runtime().monitor().num_injected_faults();
      }
    }
  }
  EXPECT_GT(swept_faults, 0);
}

TEST(ChaosTest, IterativeScenarioAbsorbsInjectedFaults) {
  workload::ScenarioConfig config;
  config.num_pipelines = 6;
  config.budget_factor = 0.5;
  config.seed = 5;
  config.fault_rate = 0.15;
  config.fault_seed = 99;
  auto result =
      workload::RunIterativeScenario(workload::MakeHyppoFactory(), config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->injected_faults, 0);
  EXPECT_GE(result->failed_tasks, 0);
  EXPECT_GT(result->cumulative_seconds, 0.0);
}

}  // namespace
}  // namespace hyppo
