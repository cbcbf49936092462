// Concurrency battery for sweep submissions, built to run under
// ThreadSanitizer: many sessions concurrently submitting batch-planned
// sweeps against one shared history/store, with compaction firing
// mid-run, must neither race (batch executions and their recovery
// rounds vs. catalog commits and compaction) nor corrupt any session's
// payloads.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/hyppo.h"
#include "serving/session_manager.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/sweep_generator.h"

namespace hyppo {
namespace {

constexpr double kScale = 0.005;

void RegisterSweepDataset(core::Runtime* runtime) {
  const workload::UseCase use_case = workload::UseCase::Higgs();
  runtime->RegisterDatasetGenerator(
      use_case.DatasetId(kScale), [use_case]() {
        return workload::GenerateUseCase(use_case, kScale, 7);
      });
}

serving::ServingOptions BaseOptions() {
  serving::ServingOptions options;
  options.runtime.simulate = false;
  options.runtime.verify_plans = true;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.runtime.max_recovery_attempts = 6;
  // Pinned implementations: byte-identity across topologies (see
  // serving_test.cc).
  options.method.augment.use_equivalences = false;
  return options;
}

// Each session sweeps a different region of the model grid (seeded by
// session index), so sessions share the preprocessing trunk but submit
// distinct members — the contended shape.
Result<std::vector<serving::SessionRequest>> MakeSweepRequests(
    int num_sessions, int configs_per_sweep) {
  std::vector<serving::SessionRequest> requests;
  for (int s = 0; s < num_sessions; ++s) {
    workload::SweepGenerator generator(workload::UseCase::Higgs(), kScale,
                                       100 + static_cast<uint64_t>(s));
    workload::PipelineSpec base = generator.DemoBaseSpec();
    std::vector<workload::SweepAxis> axes(1);
    axes[0].stage = workload::SweepAxis::Stage::kModel;
    axes[0].param = "max_depth";
    for (int i = 0; i < configs_per_sweep; ++i) {
      axes[0].values.push_back(std::to_string(2 + configs_per_sweep * s + i));
    }
    workload::SweepOptions options;  // full grid over the one axis
    HYPPO_ASSIGN_OR_RETURN(
        workload::SweepWorkload workload,
        generator.Generate(base, axes, options,
                           "hammer-s" + std::to_string(s)));
    serving::SessionRequest request;
    request.session_id = "sweeper-" + std::to_string(s);
    request.pipelines = std::move(workload.pipelines);
    request.as_sweep = true;
    requests.push_back(std::move(request));
  }
  return requests;
}

TEST(SweepConcurrencyTest, ConcurrentSweepSessionsStayConsistent) {
  serving::ServingOptions options = BaseOptions();
  options.max_in_flight_sessions = 4;
  // Tight growth bound: compaction fires at batch commits while other
  // sessions' batches are planning and executing, so plans made against a
  // pre-compaction snapshot must still execute and commit cleanly.
  options.runtime.history_max_artifacts = 60;
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());

  auto requests = MakeSweepRequests(/*num_sessions=*/6,
                                    /*configs_per_sweep=*/3);
  ASSERT_TRUE(requests.ok()) << requests.status();
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(*requests);
  ASSERT_EQ(reports.size(), requests->size());
  for (const serving::SessionReport& report : reports) {
    EXPECT_TRUE(report.status.ok())
        << report.session_id << ": " << report.status;
    EXPECT_EQ(report.pipelines_completed, 3) << report.session_id;
    EXPECT_FALSE(report.target_payloads.empty()) << report.session_id;
  }
  // The shared history survived the hammering with invariants intact.
  const analysis::Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(manager.runtime().history()).ok());

  // Every session's payloads match an isolated re-run of the same sweep
  // (batch planning on, no contention): concurrency changed nothing.
  for (size_t s = 0; s < requests->size(); ++s) {
    core::HyppoSystem::Options solo_options;
    solo_options.runtime = BaseOptions().runtime;
    solo_options.method = BaseOptions().method;
    core::HyppoSystem solo(solo_options);
    RegisterSweepDataset(&solo.runtime());
    auto reference = solo.RunBatch((*requests)[s].pipelines);
    ASSERT_TRUE(reference.ok()) << reference.status();
    std::map<std::string, std::string> expected;
    for (const auto& member : reference->reports) {
      for (const auto& [name, payload] : member.target_payloads) {
        auto serialized = storage::SerializePayload(payload);
        ASSERT_TRUE(serialized.ok()) << serialized.status();
        expected[name] = *serialized;
      }
    }
    for (const auto& [name, payload] : reports[s].target_payloads) {
      auto serialized = storage::SerializePayload(payload);
      ASSERT_TRUE(serialized.ok()) << serialized.status();
      auto it = expected.find(name);
      ASSERT_NE(it, expected.end()) << name;
      EXPECT_EQ(*serialized, it->second)
          << "session " << reports[s].session_id << " payload diverged: "
          << name;
    }
  }
}

TEST(SweepConcurrencyTest, MixedSweepAndSequentialSessions) {
  // Sweep submissions interleave with plain sequential sessions over the
  // same catalog; both kinds must complete clean.
  serving::ServingOptions options = BaseOptions();
  options.max_in_flight_sessions = 4;
  serving::SessionManager manager(options);
  RegisterSweepDataset(&manager.runtime());

  auto requests = MakeSweepRequests(/*num_sessions=*/4,
                                    /*configs_per_sweep=*/3);
  ASSERT_TRUE(requests.ok()) << requests.status();
  // Flip half the requests to the sequential path.
  for (size_t s = 0; s < requests->size(); s += 2) {
    (*requests)[s].as_sweep = false;
  }
  const std::vector<serving::SessionReport> reports =
      manager.RunSessions(*requests);
  for (const serving::SessionReport& report : reports) {
    EXPECT_TRUE(report.status.ok())
        << report.session_id << ": " << report.status;
    EXPECT_EQ(report.pipelines_completed, 3) << report.session_id;
  }
  const analysis::Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(manager.runtime().history()).ok());
}

}  // namespace
}  // namespace hyppo
