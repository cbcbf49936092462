#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "core/history_io.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "storage/disk_store.h"
#include "storage/serialization.h"
#include "workload/datagen.h"

namespace hyppo {
namespace {

using core::ArtifactInfo;
using core::ArtifactKind;
using core::History;
using core::Pipeline;
using core::PipelineBuilder;
using core::TaskInfo;
using core::TaskType;
using storage::ArtifactPayload;
using storage::DeserializePayload;
using storage::SerializePayload;

std::string TempDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("hyppo_persistence_" + tag);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Payload round trips.

TEST(PayloadSerializationTest, Monostate) {
  auto bytes = SerializePayload(ArtifactPayload(std::monostate{}));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  EXPECT_NE(std::get_if<std::monostate>(&*payload), nullptr);
}

TEST(PayloadSerializationTest, ScalarValue) {
  auto bytes = SerializePayload(ArtifactPayload(0.8125));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*payload), 0.8125);
}

TEST(PayloadSerializationTest, Predictions) {
  auto preds = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, -2.5, 0.0});
  auto bytes = SerializePayload(ArtifactPayload(ml::PredictionsPtr(preds)));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(**std::get_if<ml::PredictionsPtr>(&*payload), *preds);
}

TEST(PayloadSerializationTest, DatasetRoundTrip) {
  auto original = *workload::GenerateHiggs(50, 6, 7);
  auto bytes = SerializePayload(ArtifactPayload(original));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  const ml::DatasetPtr& restored = std::get<ml::DatasetPtr>(*payload);
  ASSERT_EQ(restored->rows(), original->rows());
  ASSERT_EQ(restored->cols(), original->cols());
  EXPECT_EQ(restored->column_names(), original->column_names());
  for (int64_t r = 0; r < original->rows(); ++r) {
    for (int64_t c = 0; c < original->cols(); ++c) {
      const double a = original->at(r, c);
      const double b = restored->at(r, c);
      if (std::isnan(a)) {
        EXPECT_TRUE(std::isnan(b));
      } else {
        EXPECT_DOUBLE_EQ(a, b);
      }
    }
  }
  EXPECT_EQ(restored->target(), original->target());
}

TEST(PayloadSerializationTest, VectorStateRoundTrip) {
  auto state = std::make_shared<ml::VectorState>("StandardScaler");
  state->vectors["shift"] = {1.0, 2.0};
  state->vectors["scale"] = {0.5, 0.25};
  state->scalars["k"] = 3.0;
  auto bytes = SerializePayload(ArtifactPayload(ml::OpStatePtr(state)));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  const auto* restored = dynamic_cast<const ml::VectorState*>(
      std::get<ml::OpStatePtr>(*payload).get());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->logical_op(), "StandardScaler");
  EXPECT_EQ(restored->vec("shift"), state->vec("shift"));
  EXPECT_DOUBLE_EQ(restored->scalar("k"), 3.0);
}

// Round-trips a *fitted* model state and checks predictions agree exactly.
TEST(PayloadSerializationTest, ForestStatePredictsIdentically) {
  auto data = *workload::GenerateHiggs(400, 5, 9);
  auto op = *ml::OperatorRegistry::Global().Get("skl.RandomForestClassifier");
  ml::TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  ml::Config config;
  config.SetInt("n_estimators", 5);
  config.SetInt("max_depth", 4);
  auto fit_out = op->Execute(ml::MlTask::kFit, fit_in, config);
  ASSERT_TRUE(fit_out.ok());
  auto bytes =
      SerializePayload(ArtifactPayload(fit_out->states[0]));
  ASSERT_TRUE(bytes.ok());
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok());
  ml::TaskInputs original_in;
  original_in.states = fit_out->states;
  original_in.datasets.push_back(data);
  ml::TaskInputs restored_in;
  restored_in.states.push_back(std::get<ml::OpStatePtr>(*payload));
  restored_in.datasets.push_back(data);
  auto original = op->Execute(ml::MlTask::kPredict, original_in, config);
  auto restored = op->Execute(ml::MlTask::kPredict, restored_in, config);
  ASSERT_TRUE(original.ok() && restored.ok());
  EXPECT_EQ(*original->predictions[0], *restored->predictions[0]);
}

TEST(PayloadSerializationTest, EnsembleStateRoundTrip) {
  auto data = *workload::GenerateHiggs(200, 4, 13);
  auto ridge = *ml::OperatorRegistry::Global().Get("skl.Ridge");
  ml::TaskInputs fit_in;
  fit_in.datasets.push_back(data);
  auto base = ridge->Execute(ml::MlTask::kFit, fit_in, ml::Config());
  ASSERT_TRUE(base.ok());
  auto voting = *ml::OperatorRegistry::Global().Get("skl.VotingRegressor");
  ml::TaskInputs ens_in;
  ens_in.states = base->states;
  ens_in.states.push_back(base->states[0]);
  auto ens = voting->Execute(ml::MlTask::kFit, ens_in, ml::Config());
  ASSERT_TRUE(ens.ok()) << ens.status();
  auto bytes = SerializePayload(ArtifactPayload(ens->states[0]));
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto payload = DeserializePayload(*bytes);
  ASSERT_TRUE(payload.ok()) << payload.status();
  const auto* restored = dynamic_cast<const ml::EnsembleState*>(
      std::get<ml::OpStatePtr>(*payload).get());
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->base_states.size(), 2u);
  EXPECT_EQ(restored->base_impls.size(), 2u);
}

TEST(PayloadSerializationTest, RejectsGarbage) {
  EXPECT_TRUE(DeserializePayload("").status().IsParseError());
  EXPECT_TRUE(DeserializePayload("garbage-bytes").status().IsParseError());
  // Valid magic, truncated body.
  auto bytes = SerializePayload(ArtifactPayload(1.0));
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(DeserializePayload(bytes->substr(0, bytes->size() - 3))
                  .status()
                  .IsParseError());
}

// ---------------------------------------------------------------------------
// History serialization.

ArtifactInfo MakeArtifact(const std::string& name, ArtifactKind kind,
                          int64_t size) {
  ArtifactInfo info;
  info.name = name;
  info.display = name;
  info.kind = kind;
  info.size_bytes = size;
  info.rows = 10;
  info.cols = 2;
  return info;
}

TEST(HistorySerializationTest, RoundTripPreservesEverything) {
  History history;
  const NodeId raw =
      history.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 4000));
  history.RegisterSourceData(raw).ValueOrDie();
  const NodeId mid =
      history.Observe(MakeArtifact("mid", ArtifactKind::kTrain, 3000));
  const NodeId state =
      history.Observe(MakeArtifact("state", ArtifactKind::kOpState, 100));
  TaskInfo split;
  split.logical_op = "TrainTestSplit";
  split.type = TaskType::kSplit;
  split.impl = "skl.TrainTestSplit";
  split.config.SetDouble("test_size", 0.25);
  history.ObserveTask(split, {raw}, {mid}, 1.5).ValueOrDie();
  TaskInfo fit;
  fit.logical_op = "StandardScaler";
  fit.type = TaskType::kFit;
  fit.impl = "tfl.StandardScaler";
  history.ObserveTask(fit, {mid}, {state}, 0.25).ValueOrDie();
  history.ObserveTask(fit, {mid}, {state}, 0.75).ValueOrDie();
  history.RecordAccess(mid, 3.5);
  history.RecordComputeSeconds(mid, 1.5);
  history.MarkMaterialized(state).Abort("materialize");

  auto bytes = core::SerializeHistory(history);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = core::DeserializeHistory(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->num_artifacts(), history.num_artifacts());
  EXPECT_EQ(restored->num_tasks(), history.num_tasks());
  const NodeId r_mid = *restored->graph().FindArtifact("mid");
  EXPECT_EQ(restored->record(r_mid).access_count, 1);
  EXPECT_DOUBLE_EQ(restored->record(r_mid).compute_seconds, 1.5);
  const NodeId r_state = *restored->graph().FindArtifact("state");
  EXPECT_TRUE(restored->IsMaterialized(r_state));
  const NodeId r_raw = *restored->graph().FindArtifact("raw");
  EXPECT_TRUE(restored->IsSourceData(r_raw));
  EXPECT_TRUE(restored->IsMaterialized(r_raw));
  // The fit edge keeps its mean duration.
  bool found_fit = false;
  for (EdgeId e : restored->graph().hypergraph().LiveEdges()) {
    if (restored->graph().task(e).impl == "tfl.StandardScaler") {
      EXPECT_DOUBLE_EQ(restored->ObservedTaskSeconds(e, -1.0), 0.5);
      found_fit = true;
    }
  }
  EXPECT_TRUE(found_fit);
  // And the split keeps its configuration (part of equivalence identity).
  bool found_split = false;
  for (EdgeId e : restored->graph().hypergraph().LiveEdges()) {
    if (restored->graph().task(e).logical_op == "TrainTestSplit") {
      EXPECT_EQ(restored->graph().task(e).config.GetDouble("test_size", 0),
                0.25);
      found_split = true;
    }
  }
  EXPECT_TRUE(found_split);
}

// The checkpoint restores a task's (total seconds, count) as saved: replaying
// `count` mean observations would total {0.3, 0.6, 0.1} to 1.0 instead of
// the observed 0.9999999999999999.
TEST(HistorySerializationTest, RoundTripRestoresTaskObservationsExactly) {
  History history;
  const NodeId raw =
      history.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 4000));
  history.RegisterSourceData(raw).ValueOrDie();
  const NodeId state =
      history.Observe(MakeArtifact("state", ArtifactKind::kOpState, 100));
  TaskInfo fit;
  fit.logical_op = "StandardScaler";
  fit.type = TaskType::kFit;
  fit.impl = "tfl.StandardScaler";
  EdgeId edge = kInvalidEdge;
  for (double seconds : {0.3, 0.6, 0.1}) {
    edge = history.ObserveTask(fit, {raw}, {state}, seconds).ValueOrDie();
  }
  const auto [total, count] = history.TaskObservation(edge);
  ASSERT_EQ(count, 3);
  ASSERT_NE(total, 1.0);

  auto bytes = core::SerializeHistory(history);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto restored = core::DeserializeHistory(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  bool found = false;
  for (EdgeId e : restored->graph().hypergraph().LiveEdges()) {
    if (restored->graph().task(e).impl == "tfl.StandardScaler") {
      const auto [restored_total, restored_count] =
          restored->TaskObservation(e);
      EXPECT_EQ(restored_count, count);
      EXPECT_EQ(restored_total, total);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  const analysis::Verifier verifier;
  const analysis::AnalysisReport report =
      verifier.CheckHistoryRoundTrip(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(HistorySerializationTest, RejectsCorruptedBytes) {
  EXPECT_TRUE(core::DeserializeHistory("").status().IsParseError());
  History history;
  history.Observe(MakeArtifact("a", ArtifactKind::kData, 10));
  auto bytes = core::SerializeHistory(history);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted.resize(corrupted.size() / 2);
  EXPECT_TRUE(core::DeserializeHistory(corrupted).status().IsParseError());
}

// ---------------------------------------------------------------------------
// Cross-session catalog reuse: the across-experiments scenario of §I.

TEST(CatalogTest, SecondSessionReusesFirstSessionsWork) {
  const std::string dir = TempDir("catalog");
  const char* code = R"(
data        = load("persist", rows=600, cols=5)
train, test = sk.TrainTestSplit.split(data)
scaler      = sk.StandardScaler.fit(train)
train_s     = scaler.transform(train)
test_s      = scaler.transform(test)
model       = sk.DecisionTreeClassifier.fit(train_s, max_depth=4)
preds       = model.predict(test_s)
score       = evaluate(preds, test_s, metric="accuracy")
)";
  auto dataset = *workload::GenerateHiggs(600, 5, 21);
  double first_score = 0.0;
  size_t first_tasks = 0;
  {
    core::HyppoSystem session1;
    session1.RegisterDataset("persist", dataset);
    auto report = session1.RunCode(code, "s1");
    ASSERT_TRUE(report.ok()) << report.status();
    first_tasks = report->plan.edges.size();
    first_score = std::get<double>(report->target_payloads.begin()->second);
    ASSERT_TRUE(session1.runtime().SaveCatalog(dir).ok());
  }
  {
    // A brand-new session (fresh history) loads the catalog and re-runs
    // the same exploration: almost everything comes back from storage.
    core::HyppoSystem session2;
    session2.RegisterDataset("persist", dataset);
    ASSERT_TRUE(session2.runtime().LoadCatalog(dir).ok());
    EXPECT_GT(session2.runtime().history().num_artifacts(), 0);
    EXPECT_GT(session2.runtime().store().num_entries(), 0u);
    auto report = session2.RunCode(code, "s2");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_LT(report->plan.edges.size(), first_tasks);
    const double second_score =
        std::get<double>(report->target_payloads.begin()->second);
    EXPECT_DOUBLE_EQ(second_score, first_score);
  }
  std::filesystem::remove_all(dir);
}

// Names of the artifacts a history records as materialized.
std::set<std::string> MaterializedNames(const History& history) {
  std::set<std::string> names;
  for (NodeId v : history.MaterializedArtifacts()) {
    names.insert(history.graph().artifact(v).name);
  }
  return names;
}

// A runtime whose history and store both hold `names` as materialized
// scalar artifacts of `size_bytes` each.
void Materialize(core::Runtime* runtime, const std::vector<std::string>& names,
                 int64_t size_bytes) {
  for (const std::string& name : names) {
    const NodeId node = runtime->history().Observe(
        MakeArtifact(name, ArtifactKind::kOpState, size_bytes));
    runtime->history().MarkMaterialized(node).Abort("materialize");
    runtime->store()
        .Put(name, ArtifactPayload(1.0), size_bytes)
        .Abort("put");
  }
}

TEST(CatalogTest, MissingPayloadFilesAreEvictedOnLoad) {
  const std::string dir = TempDir("evict");
  {
    core::Runtime saver;
    Materialize(&saver, {"state"}, 100);
    ASSERT_TRUE(saver.SaveCatalog(dir).ok());
  }
  // Delete the payload file behind the catalog's back.
  ASSERT_TRUE(std::filesystem::remove(std::filesystem::path(dir) /
                                      "payloads" / "state.bin"));
  core::Runtime loader;
  ASSERT_TRUE(loader.LoadCatalog(dir).ok());
  const NodeId restored = *loader.history().graph().FindArtifact("state");
  EXPECT_FALSE(loader.history().IsMaterialized(restored));
  EXPECT_EQ(loader.store().num_entries(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(CatalogTest, LoadAndStoreDirReopenReconcileAlike) {
  const std::string dir = TempDir("reconcile");
  {
    core::Runtime saver;
    Materialize(&saver, {"kept", "drifted", "also-kept"}, 8);
    ASSERT_TRUE(saver.SaveCatalog(dir).ok());
  }
  {
    // Change the catalog on disk: one entry now charges a size the
    // history does not record, and one entry no history artifact claims.
    storage::DiskArtifactStore store(dir);
    ASSERT_TRUE(store.init_status().ok()) << store.init_status();
    ASSERT_TRUE(store.Put("drifted", ArtifactPayload(2.0), 16).ok());
    ASSERT_TRUE(store.Put("orphan", ArtifactPayload(3.0), 8).ok());
  }
  const std::set<std::string> expected = {"kept", "also-kept"};
  const analysis::Verifier verifier;

  core::Runtime loaded;
  ASSERT_TRUE(loaded.LoadCatalog(dir).ok());
  EXPECT_EQ(MaterializedNames(loaded.history()), expected);
  const std::vector<std::string> loaded_keys = loaded.store().Keys();
  EXPECT_EQ(std::set<std::string>(loaded_keys.begin(), loaded_keys.end()),
            expected);
  analysis::AnalysisReport report =
      verifier.CheckStoreConsistency(loaded.history(), loaded.store());
  EXPECT_TRUE(report.ok()) << report.ToString();

  core::RuntimeOptions options;
  options.store_dir = dir;
  core::Runtime reopened(options);
  ASSERT_TRUE(reopened.session_status().ok()) << reopened.session_status();
  EXPECT_EQ(MaterializedNames(reopened.history()), expected);
  const std::vector<std::string> reopened_keys = reopened.store().Keys();
  EXPECT_EQ(
      std::set<std::string>(reopened_keys.begin(), reopened_keys.end()),
      expected);
  report = verifier.CheckStoreConsistency(reopened.history(),
                                          reopened.store());
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::filesystem::remove_all(dir);
}

TEST(CatalogTest, LoadFromMissingDirectoryFails) {
  const std::string dir = "/nonexistent/hyppo/catalog";
  core::Runtime runtime;
  EXPECT_TRUE(runtime.LoadCatalog(dir).IsIoError());
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace hyppo
