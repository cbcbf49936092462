// Materializer policy semantics and Apply() failure atomicity: pins the
// corrected kSff ordering (smallest files first), the zero-score survival
// rule for already-materialized artifacts, the precomputed-Gain overload,
// and the store-then-evict rollback contract.

#include <gtest/gtest.h>

#include "core/augmenter.h"
#include "core/cost_model.h"
#include "core/dictionary.h"
#include "core/history.h"
#include "core/materializer.h"
#include "hypergraph/algorithms.h"
#include "storage/artifact_store.h"
#include "storage/fault_injection.h"

namespace hyppo::core {
namespace {

ArtifactInfo MakeArtifact(const std::string& name, ArtifactKind kind,
                          int64_t size_bytes) {
  ArtifactInfo info;
  info.name = name;
  info.display = name;
  info.kind = kind;
  info.size_bytes = size_bytes;
  info.rows = size_bytes / 8;
  info.cols = 1;
  return info;
}

TaskInfo MakeTask(const std::string& lop, TaskType type,
                  const std::string& impl) {
  TaskInfo task;
  task.logical_op = lop;
  task.type = type;
  task.impl = impl;
  return task;
}

/// Delegating store whose Put fails for one chosen key — deterministic
/// mid-batch failure for the Apply() rollback tests.
class FailKeyStore final : public storage::ArtifactStore {
 public:
  explicit FailKeyStore(std::string fail_key)
      : fail_key_(std::move(fail_key)) {}

  Status Put(const std::string& key, storage::ArtifactPayload payload,
             int64_t size_bytes) override {
    if (key == fail_key_) {
      return Status::IoError("injected: store refused '" + key + "'");
    }
    return inner_.Put(key, std::move(payload), size_bytes);
  }
  Result<storage::ArtifactPayload> Get(const std::string& key) const
      override {
    return inner_.Get(key);
  }
  bool Contains(const std::string& key) const override {
    return inner_.Contains(key);
  }
  Status Evict(const std::string& key) override { return inner_.Evict(key); }
  Result<int64_t> SizeOf(const std::string& key) const override {
    return inner_.SizeOf(key);
  }
  int64_t used_bytes() const override { return inner_.used_bytes(); }
  size_t num_entries() const override { return inner_.num_entries(); }
  std::vector<std::string> Keys() const override { return inner_.Keys(); }

 private:
  std::string fail_key_;
  storage::InMemoryArtifactStore inner_;
};

class MaterializerPolicyTest : public ::testing::Test {
 protected:
  MaterializerPolicyTest()
      : augmenter_(&dictionary_, &estimator_),
        materializer_(&augmenter_) {}

  // s -> raw -> small / big / idle, with distinct sizes and stats.
  void BuildHistory() {
    raw_ = history_.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 100000));
    history_.RegisterSourceData(raw_).ValueOrDie();
    small_ =
        history_.Observe(MakeArtifact("small", ArtifactKind::kOpState, 500));
    big_ = history_.Observe(MakeArtifact("big", ArtifactKind::kTrain, 9000));
    idle_ = history_.Observe(MakeArtifact("idle", ArtifactKind::kTest, 300));
    *history_.ObserveTask(MakeTask("A", TaskType::kFit, "skl.A"), {raw_},
                          {small_}, 4.0);
    *history_.ObserveTask(MakeTask("B", TaskType::kTransform, "skl.B"),
                          {raw_}, {big_}, 2.0);
    *history_.ObserveTask(MakeTask("C", TaskType::kTransform, "skl.C"),
                          {raw_}, {idle_}, 1.0);
    history_.RecordComputeSeconds(small_, 4.0);
    history_.RecordComputeSeconds(big_, 2.0);
    history_.RecordComputeSeconds(idle_, 1.0);
    history_.RecordAccess(small_, 1.0);
    history_.RecordAccess(big_, 1.0);
    history_.RecordAccess(big_, 2.0);
    // idle_ never accessed: LFU scores it 0.
  }

  Dictionary dictionary_;
  CostEstimator estimator_;
  Augmenter augmenter_;
  Materializer materializer_;
  History history_;
  NodeId raw_ = kInvalidNode;
  NodeId small_ = kInvalidNode;
  NodeId big_ = kInvalidNode;
  NodeId idle_ = kInvalidNode;
};

TEST_F(MaterializerPolicyTest, SffKeepsSmallestFiles) {
  BuildHistory();
  Materializer::Options options;
  options.policy = Materializer::Policy::kSff;
  // Budget fits small + idle but not big: smallest-files-first must pick
  // exactly the two smallest.
  options.budget_bytes = 1000;
  Materializer::Decision decision = materializer_.Decide(
      history_, {"small", "big", "idle"}, options);
  EXPECT_EQ(decision.to_store, (std::vector<NodeId>{small_, idle_}));
  EXPECT_EQ(decision.selected_bytes, 800);
}

TEST_F(MaterializerPolicyTest, SffEvictsLargestUnderPressure) {
  BuildHistory();
  storage::InMemoryArtifactStore store;
  std::map<std::string, storage::ArtifactPayload> available = {
      {"small", storage::ArtifactPayload(std::monostate{})},
      {"big", storage::ArtifactPayload(std::monostate{})}};
  Materializer::Options all;
  all.policy = Materializer::Policy::kSff;
  all.budget_bytes = 100000;
  Materializer::Decision decision =
      materializer_.Decide(history_, {"small", "big"}, all);
  ASSERT_TRUE(
      Materializer::Apply(history_, store, decision, available).ok());
  ASSERT_TRUE(history_.IsMaterialized(small_));
  ASSERT_TRUE(history_.IsMaterialized(big_));
  // Shrink under big's size: big goes, small stays.
  Materializer::Options tight;
  tight.policy = Materializer::Policy::kSff;
  tight.budget_bytes = 600;
  decision = materializer_.Decide(history_, {}, tight);
  ASSERT_TRUE(Materializer::Apply(history_, store, decision, {}).ok());
  EXPECT_TRUE(history_.IsMaterialized(small_));
  EXPECT_FALSE(history_.IsMaterialized(big_));
}

TEST_F(MaterializerPolicyTest, ZeroScoreMaterializedSurvivesHeadroom) {
  BuildHistory();
  storage::InMemoryArtifactStore store;
  ASSERT_TRUE(
      store.Put("idle", storage::ArtifactPayload(std::monostate{}), 300)
          .ok());
  ASSERT_TRUE(history_.MarkMaterialized(idle_).ok());
  Materializer::Options lfu;
  lfu.policy = Materializer::Policy::kLfu;
  lfu.budget_bytes = 100000;  // plenty of headroom
  // idle_ has access_count 0 => LFU score 0. It must NOT be force-
  // evicted while the budget has room: a zero score ranks last but is
  // still a keep candidate.
  Materializer::Decision decision = materializer_.Decide(history_, {}, lfu);
  EXPECT_TRUE(decision.to_evict.empty());
  EXPECT_TRUE(history_.IsMaterialized(idle_));

  // Under pressure it is the first to go.
  Materializer::Options tight;
  tight.policy = Materializer::Policy::kLfu;
  tight.budget_bytes = 100;
  decision = materializer_.Decide(history_, {}, tight);
  EXPECT_EQ(decision.to_evict, (std::vector<NodeId>{idle_}));
}

TEST_F(MaterializerPolicyTest, ZeroScoreNeverNewlyStored) {
  BuildHistory();
  Materializer::Options lfu;
  lfu.policy = Materializer::Policy::kLfu;
  lfu.budget_bytes = 100000;
  // idle_ is storable but scores 0: storing it buys nothing, so it must
  // not enter to_store.
  Materializer::Decision decision =
      materializer_.Decide(history_, {"idle"}, lfu);
  EXPECT_TRUE(decision.to_store.empty());
}

TEST_F(MaterializerPolicyTest, GainOverloadMatchesRecomputingForm) {
  BuildHistory();
  Materializer::Options options;
  options.budget_bytes = 100000;
  const std::vector<double> recompute =
      materializer_.RecomputeCosts(history_);
  const std::vector<double> depth = AverageDepthFromSource(
      history_.graph().hypergraph(), history_.graph().source());
  for (NodeId v : {small_, big_, idle_}) {
    EXPECT_DOUBLE_EQ(
        materializer_.Gain(history_, v, options),
        materializer_.Gain(history_, v, options, recompute, depth))
        << "node " << v;
  }
}

// ---------------------------------------------------------------------------
// Apply() failure atomicity.

TEST_F(MaterializerPolicyTest, ApplyMissingPayloadLeavesStateUntouched) {
  BuildHistory();
  storage::InMemoryArtifactStore store;
  Materializer::Decision decision;
  decision.to_store = {small_, big_};
  // Only small's payload is at hand: Apply must refuse up front without
  // storing anything.
  std::map<std::string, storage::ArtifactPayload> available = {
      {"small", storage::ArtifactPayload(std::monostate{})}};
  Status status = Materializer::Apply(history_, store, decision, available);
  EXPECT_TRUE(status.IsFailedPrecondition());
  EXPECT_EQ(store.num_entries(), 0u);
  EXPECT_FALSE(history_.IsMaterialized(small_));
  EXPECT_FALSE(history_.IsMaterialized(big_));
}

TEST_F(MaterializerPolicyTest, ApplyRollsBackOnMidBatchPutFailure) {
  BuildHistory();
  FailKeyStore store("small");  // second key in to_store order fails
  Materializer::Decision decision;
  decision.to_store = {big_, small_};
  std::map<std::string, storage::ArtifactPayload> available = {
      {"small", storage::ArtifactPayload(std::monostate{})},
      {"big", storage::ArtifactPayload(std::monostate{})}};
  Status status = Materializer::Apply(history_, store, decision, available);
  EXPECT_TRUE(status.IsIoError());
  // big was stored before small failed; the rollback must have undone it
  // on both sides.
  EXPECT_EQ(store.num_entries(), 0u);
  EXPECT_FALSE(history_.IsMaterialized(big_));
  EXPECT_FALSE(history_.IsMaterialized(small_));
}

TEST_F(MaterializerPolicyTest, ApplyFailureKeepsPriorMaterializations) {
  BuildHistory();
  FailKeyStore store("small");
  // Pre-existing materialization of big must survive a failed Apply that
  // tried to add small.
  ASSERT_TRUE(
      store.Put("big", storage::ArtifactPayload(std::monostate{}), 9000)
          .ok());
  ASSERT_TRUE(history_.MarkMaterialized(big_).ok());
  Materializer::Decision decision;
  decision.to_store = {small_};
  decision.to_evict = {big_};  // would evict big after storing small
  std::map<std::string, storage::ArtifactPayload> available = {
      {"small", storage::ArtifactPayload(std::monostate{})}};
  Status status = Materializer::Apply(history_, store, decision, available);
  EXPECT_TRUE(status.IsIoError());
  // The evict phase never ran: big is still materialized and stored.
  EXPECT_TRUE(history_.IsMaterialized(big_));
  EXPECT_TRUE(store.Contains("big"));
  EXPECT_FALSE(history_.IsMaterialized(small_));
  EXPECT_FALSE(store.Contains("small"));
}

}  // namespace
}  // namespace hyppo::core
