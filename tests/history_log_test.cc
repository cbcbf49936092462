// The durable history log (core/history_io.h): what a persist appends,
// that replaying the log restores exactly the live history, that an older
// build's history layout is refused untouched, and that a crash at any
// write step of a persist or a checkpoint reopens to a consistent catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "common/hash.h"
#include "core/history_io.h"
#include "core/hyppo.h"
#include "storage/disk_store.h"
#include "storage/fault_injection.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

namespace hyppo::core {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("hyppo_log_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

std::string ReadFile(const fs::path& path) {
  if (!fs::exists(path)) {
    return "";
  }
  return storage::ReadFileToString(path.string()).ValueOrDie();
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

ArtifactInfo MakeArtifact(const std::string& name, ArtifactKind kind,
                          int64_t size_bytes) {
  ArtifactInfo info;
  info.name = name;
  info.kind = kind;
  info.display = name;
  info.size_bytes = size_bytes;
  return info;
}

TaskInfo MakeTask(const std::string& op, TaskType type) {
  TaskInfo task;
  task.logical_op = op;
  task.type = type;
  task.impl = "skl." + op;
  return task;
}

// ---------------------------------------------------------------------------
// The journal.

TEST(HistoryJournalTest, MutatorsMarkEachChangedRecordOnce) {
  History history;
  const NodeId raw = history.Observe(MakeArtifact("r", ArtifactKind::kRaw, 8));
  const NodeId train =
      history.Observe(MakeArtifact("t", ArtifactKind::kTrain, 4));
  const EdgeId split =
      history.ObserveTask(MakeTask("Split", TaskType::kSplit), {raw}, {train},
                          0.5)
          .ValueOrDie();
  history.RecordAccess(train, 1.0);
  history.RecordAccess(train, 2.0);
  EXPECT_EQ(history.journal().artifacts, (std::vector<NodeId>{raw, train}));
  EXPECT_EQ(history.journal().tasks, std::vector<EdgeId>{split});
  EXPECT_FALSE(history.journal().rebuilt);

  // Each mutator on its own marks exactly the record it changed.
  const std::vector<NodeId> just_raw = {raw};
  const std::vector<NodeId> just_train = {train};
  const std::vector<EdgeId> just_split = {split};
  const std::vector<EdgeId> no_task;
  auto expect_marks = [&](const char* mutator, auto&& mutate,
                          const std::vector<NodeId>& artifacts,
                          const std::vector<EdgeId>& tasks) {
    history.ClearJournal();
    EXPECT_TRUE(history.journal().empty());
    mutate();
    EXPECT_EQ(history.journal().artifacts, artifacts) << mutator;
    EXPECT_EQ(history.journal().tasks, tasks) << mutator;
  };
  expect_marks(
      "Observe",
      [&] { history.Observe(MakeArtifact("t", ArtifactKind::kTrain, 6)); },
      just_train, no_task);
  expect_marks(
      "RegisterSourceData",
      [&] { ASSERT_TRUE(history.RegisterSourceData(raw).ok()); }, just_raw,
      no_task);
  expect_marks(
      "RecordAccess", [&] { history.RecordAccess(train, 3.0); }, just_train,
      no_task);
  expect_marks(
      "RecordComputeSeconds",
      [&] { history.RecordComputeSeconds(train, 0.5); }, just_train, no_task);
  expect_marks(
      "MarkMaterialized",
      [&] { ASSERT_TRUE(history.MarkMaterialized(train).ok()); }, just_train,
      no_task);
  expect_marks(
      "EvictMaterialized",
      [&] { ASSERT_TRUE(history.EvictMaterialized(train).ok()); },
      just_train, no_task);
  expect_marks(
      "ObserveTask",
      [&] {
        ASSERT_TRUE(history
                        .ObserveTask(MakeTask("Split", TaskType::kSplit),
                                     {raw}, {train}, 0.25)
                        .ok());
      },
      {}, just_split);
  expect_marks(
      "SetTaskObservation",
      [&] { history.SetTaskObservation(split, 3.0, 4); }, {}, just_split);
  expect_marks(
      "RestoreArtifact",
      [&] {
        ASSERT_TRUE(history
                        .RestoreArtifact(
                            MakeArtifact("t", ArtifactKind::kTrain, 6),
                            history.record(train))
                        .ok());
      },
      just_train, no_task);
  // Re-recording known structure without a duration, or re-registering
  // a source, changes nothing.
  expect_marks(
      "unchanged",
      [&] {
        ASSERT_TRUE(history
                        .ObserveTask(MakeTask("Split", TaskType::kSplit),
                                     {raw}, {train}, -1.0)
                        .ok());
        ASSERT_TRUE(history.RegisterSourceData(raw).ok());
      },
      {}, no_task);
}

TEST(HistoryJournalTest, CompactionMarksTheHistoryRebuilt) {
  History history;
  for (const char* name : {"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}) {
    history.RecordAccess(
        history.Observe(MakeArtifact(name, ArtifactKind::kData, 8)),
        static_cast<double>(history.num_artifacts()));
  }
  history.ClearJournal();
  History::CompactionOptions options;
  options.max_nodes = 4;
  ASSERT_TRUE(history.Compact(options).ok());
  EXPECT_TRUE(history.journal().rebuilt);
  // Never persisted, the journal still holds at most one entry per record.
  EXPECT_EQ(static_cast<int32_t>(history.journal().artifacts.size()),
            history.num_artifacts());
}

// ---------------------------------------------------------------------------
// Older layouts. An older build kept the history as a `history.hyppo`
// snapshot; this is a version-1 one (a raw dataset, a materialized train
// split, an evicted test split and the split task observed twice), byte
// for byte.

const char kVersion1Snapshot[] =
    "\x48\x50\x59\x48\x01\x00\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00"
    "\x10\x00\x00\x00\x00\x00\x00\x00\x61\x31\x62\x32\x63\x33\x64\x34"
    "\x65\x35\x66\x36\x30\x30\x30\x31\x01\x00\x00\x00\x04\x00\x00\x00"
    "\x00\x00\x00\x00\x64\x61\x74\x61\x00\x10\x00\x00\x00\x00\x00\x00"
    "\x40\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xf8\x3f"
    "\x01\x00\x00\x00\x00\x00\x00\x00\x01\x10\x00\x00\x00\x00\x00\x00"
    "\x00\x61\x31\x62\x32\x63\x33\x64\x34\x65\x35\x66\x36\x30\x30\x30"
    "\x32\x02\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x74\x72\x61"
    "\x69\x6e\x00\x0c\x00\x00\x00\x00\x00\x00\x30\x00\x00\x00\x00\x00"
    "\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\xd0\x3f\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x08\x40\x01\x00\x00\x00\x00\x00"
    "\x00\x00\x01\x10\x00\x00\x00\x00\x00\x00\x00\x61\x31\x62\x32\x63"
    "\x33\x64\x34\x65\x35\x66\x36\x30\x30\x30\x33\x03\x00\x00\x00\x04"
    "\x00\x00\x00\x00\x00\x00\x00\x74\x65\x73\x74\x00\x04\x00\x00\x00"
    "\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00"
    "\x00\x00\x00\x00\x00\x00\x00\x00\x00\xd0\x3f\x01\x00\x00\x00\x00"
    "\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
    "\x00\x02\x40\x02\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00"
    "\x00\x00\x00\x00\x0e\x00\x00\x00\x00\x00\x00\x00\x54\x72\x61\x69"
    "\x6e\x54\x65\x73\x74\x53\x70\x6c\x69\x74\x01\x00\x00\x00\x11\x00"
    "\x00\x00\x00\x00\x00\x00\x73\x6b\x2e\x54\x72\x61\x69\x6e\x54\x65"
    "\x73\x74\x53\x70\x6c\x69\x74\x01\x00\x00\x00\x00\x00\x00\x00\x09"
    "\x00\x00\x00\x00\x00\x00\x00\x74\x65\x73\x74\x5f\x73\x69\x7a\x65"
    "\x04\x00\x00\x00\x00\x00\x00\x00\x30\x2e\x32\x35\x01\x00\x00\x00"
    "\x00\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x61\x31\x62\x32"
    "\x63\x33\x64\x34\x65\x35\x66\x36\x30\x30\x30\x31\x02\x00\x00\x00"
    "\x00\x00\x00\x00\x10\x00\x00\x00\x00\x00\x00\x00\x61\x31\x62\x32"
    "\x63\x33\x64\x34\x65\x35\x66\x36\x30\x30\x30\x32\x10\x00\x00\x00"
    "\x00\x00\x00\x00\x61\x31\x62\x32\x63\x33\x64\x34\x65\x35\x66\x36"
    "\x30\x30\x30\x33\x00\x00\x00\x00\x00\x00\xe0\x3f\x02\x00\x00\x00"
    "\x00\x00\x00\x00";

std::map<std::string, std::string> FilesUnder(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      files[entry.path().string()] = ReadFile(entry.path());
    }
  }
  return files;
}

std::string OlderHeader(uint32_t magic, uint32_t version,
                         uint64_t generation) {
  storage::BinaryWriter writer;
  writer.WriteU32(magic);
  writer.WriteU32(version);
  writer.WriteU64(generation);
  return writer.Take();
}

std::string WithChecksum(const std::string& bytes) {
  storage::BinaryWriter checksum;
  checksum.WriteU64(Fnv1a64(bytes));
  return bytes + checksum.Take();
}

// A directory holding the version-1 snapshot alone, and one holding the
// last older layout: a version-2 snapshot of generation 1 beside a
// version-1 log of one frame against it. Each holds a payload for the
// train split. A session refuses both, naming the older layout, and
// leaves every file byte for byte as it was: read as frames from an
// empty history, the log would have the reconcile evict that payload.
TEST(HistoryLogTest, OlderLayoutIsRefusedUntouched) {
  const std::string v1(kVersion1Snapshot, sizeof(kVersion1Snapshot) - 1);
  const std::string v2 = WithChecksum(
      OlderHeader(0x48595048, 2, 1) + v1.substr(8));  // "HYPH"
  History changed;
  changed.Observe(
      MakeArtifact("a1b2c3d4e5f60002", ArtifactKind::kTrain, 3072));
  const std::string frame =
      SerializeHistory(changed).ValueOrDie().substr(16);
  const std::string v1_log =
      WithChecksum(OlderHeader(0x4859504c, 1, 1)) + frame;  // "HYPL"
  const std::vector<std::map<std::string, std::string>> layouts = {
      {{"history.hyppo", v1}},
      {{"history.hyppo", v2}, {"history.log", v1_log}}};
  for (size_t i = 0; i < layouts.size(); ++i) {
    SCOPED_TRACE("layout " + std::to_string(i));
    const std::string dir = TempDir("older" + std::to_string(i));
    {
      storage::DiskArtifactStore store(dir);
      ASSERT_TRUE(store.init_status().ok()) << store.init_status();
      ASSERT_TRUE(store.Put("a1b2c3d4e5f60002", 0.5, 3072).ok());
    }
    for (const auto& [name, bytes] : layouts[i]) {
      WriteFile(fs::path(dir) / name, bytes);
    }
    const std::map<std::string, std::string> before = FilesUnder(dir);
    ASSERT_EQ(before.size(), layouts[i].size() + 2);  // + payload, lock
    {
      RuntimeOptions options;
      options.store_dir = dir;
      Runtime runtime(options);
      const Status status = runtime.session_status();
      EXPECT_TRUE(status.IsFailedPrecondition()) << status;
      EXPECT_NE(status.ToString().find("older build"), std::string::npos)
          << status;
      EXPECT_FALSE(runtime.PersistSession().ok());
    }
    EXPECT_TRUE(ReadHistory(dir).status().IsFailedPrecondition());
    EXPECT_EQ(FilesUnder(dir), before);
    fs::remove_all(dir);
  }
  // A bare version-1 log is refused the same way.
  EXPECT_TRUE(DeserializeHistory(v1_log).status().IsFailedPrecondition());
}

// The version-1 snapshot with an artifact kind or a task type past either
// end of its enum is refused as an older layout before any record is read.
// Its records, sealed into a checkpoint frame, are the records this build
// reads: there the same bytes are refused as a ParseError.
TEST(HistoryLogTest, Version1SnapshotWithImpossibleEnumsIsRefused) {
  const std::string v1(kVersion1Snapshot, sizeof(kVersion1Snapshot) - 1);
  auto as_checkpoint = [](const std::string& snapshot) {
    storage::BinaryWriter header;
    header.WriteU32(0x4859504c);  // "HYPL"
    header.WriteU32(2);
    storage::BinaryWriter length;
    length.WriteU64(snapshot.size() - 8);
    return WithChecksum(header.Take()) +
           WithChecksum(length.Take() + snapshot.substr(8));
  };
  // The first artifact's kind follows the header and its 16-byte name.
  const size_t kind_at = 4 + 4 + 8 + 8 + 16;
  const size_t type_at = v1.find("TrainTestSplit") + 14;
  ASSERT_EQ(v1[kind_at], '\x01');
  ASSERT_EQ(v1[type_at], '\x01');
  const Result<History> records = DeserializeHistory(as_checkpoint(v1));
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->num_artifacts(), 3);
  for (const auto& [offset, value] :
       std::vector<std::pair<size_t, char>>{{kind_at, '\x00'},
                                            {kind_at, '\x08'},
                                            {type_at, '\x00'},
                                            {type_at, '\x08'}}) {
    std::string damaged = v1;
    damaged[offset] = value;
    const std::string what =
        "byte " + std::to_string(offset) + " = " + std::to_string(value);
    const std::string dir = TempDir("v1enums");
    fs::create_directories(dir);
    WriteFile(fs::path(dir) / "history.hyppo", damaged);
    EXPECT_TRUE(ReadHistory(dir).status().IsFailedPrecondition()) << what;
    EXPECT_EQ(ReadFile(fs::path(dir) / "history.hyppo"), damaged) << what;
    fs::remove_all(dir);
    const Result<History> history =
        DeserializeHistory(as_checkpoint(damaged));
    EXPECT_TRUE(history.status().IsParseError())
        << what << ": " << history.status();
  }
}

// ---------------------------------------------------------------------------
// A durable TAXI session over generated pipelines at the generator's
// 400-row floor: compaction past 50 artifacts, a budget of a tenth of the
// dataset (the materializer evicts), and seeded store-load faults
// (recovery evicts the artifacts whose loads fail).

constexpr double kTaxiMultiplier = 0.0004;

class TaxiSession {
 public:
  TaxiSession(const std::string& dir, uint64_t seed)
      : generator_(workload::UseCase::Taxi(), kTaxiMultiplier, seed) {
    const workload::UseCase use_case = workload::UseCase::Taxi();
    ml::DatasetPtr data =
        workload::GenerateUseCase(use_case, kTaxiMultiplier, seed)
            .ValueOrDie();
    options_.store_dir = dir;
    options_.history_max_artifacts = 50;
    options_.storage_budget_bytes = storage::PayloadSizeBytes(data) / 10;
    runtime_ = std::make_unique<Runtime>(options_);
    runtime_->RegisterDataset(use_case.DatasetId(kTaxiMultiplier), data);
    storage::FaultPlan faults;
    faults.seed = seed;
    faults.load_not_found_rate = 0.04;
    faults.load_corrupt_rate = 0.04;
    runtime_->EnableFaultInjection(faults);
    method_ = std::make_unique<HyppoMethod>(runtime_.get());
  }

  Runtime& runtime() { return *runtime_; }
  const RuntimeOptions& options() const { return options_; }

  /// Plans, executes and materializes the next pipeline: everything a
  /// request does before its PersistSession.
  Status RunNext() {
    HYPPO_ASSIGN_OR_RETURN(const Pipeline pipeline, generator_.Next());
    HYPPO_ASSIGN_OR_RETURN(const Method::Planned planned,
                           method_->PlanPipeline(pipeline));
    HYPPO_ASSIGN_OR_RETURN(
        const Runtime::ExecutionRecord record,
        runtime_->ExecuteAndRecord(pipeline, planned.aug, planned.plan,
                                   method_->MakeReplanner()));
    return method_->AfterExecution(pipeline, planned, record);
  }

 private:
  workload::PipelineGenerator generator_;
  RuntimeOptions options_;
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<HyppoMethod> method_;
};

std::set<std::string> MaterializedNames(const History& history) {
  std::set<std::string> names;
  for (NodeId v : history.MaterializedArtifacts()) {
    names.insert(history.graph().artifact(v).name);
  }
  return names;
}

TEST(HistoryLogTest, ReplayEqualsLiveAfterEveryPersist) {
  const std::string dir = TempDir("replay");
  TaxiSession session(dir, 3);
  ASSERT_TRUE(session.runtime().session_status().ok());
  const analysis::Verifier verifier;
  int succeeded = 0;
  int frames_seen = 0;
  int evictions = 0;
  int checkpoints = 0;
  std::string checkpoint;
  std::set<std::string> materialized;
  for (int i = 0; i < 300; ++i) {
    SCOPED_TRACE("pipeline " + std::to_string(i));
    succeeded += session.RunNext().ok() ? 1 : 0;
    ASSERT_TRUE(session.runtime().PersistSession().ok());
    Result<StoredHistory> stored = ReadHistory(dir);
    ASSERT_TRUE(stored.ok()) << stored.status();
    const analysis::AnalysisReport report = verifier.CheckHistoriesEqual(
        session.runtime().history(), stored->history);
    ASSERT_TRUE(report.ok()) << report.ToString();
    EXPECT_EQ(stored->dropped_bytes, 0);
    frames_seen = std::max(frames_seen, static_cast<int>(stored->frames));
    // The header and the checkpoint frame: new bytes there mean the
    // persist wrote a checkpoint.
    const std::string now_checkpoint = ReadFile(HistoryLogPath(dir)).substr(
        0, 16 + static_cast<size_t>(stored->files.checkpoint_bytes));
    checkpoints += now_checkpoint != checkpoint ? 1 : 0;
    checkpoint = now_checkpoint;
    const std::set<std::string> now =
        MaterializedNames(session.runtime().history());
    for (const std::string& name : materialized) {
      evictions += now.count(name) == 0 ? 1 : 0;
    }
    materialized = now;
  }
  const Monitor& monitor = session.runtime().monitor();
  EXPECT_GT(succeeded, 250);
  EXPECT_GT(monitor.num_history_compacted(), 0);
  EXPECT_GT(monitor.num_replans(), 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(checkpoints, 2);  // the first, then after compaction
  EXPECT_GT(frames_seen, 1);  // and appended frames between them
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash sweep: every directory state a crash can leave inside one persist
// that appends a frame and one that writes a checkpoint, built from the
// log before and after the persist. Each state reopens with a clean
// catalog, restores the live history as of the last whole frame (or
// checkpoint), and keeps every surviving payload byte-identical.

struct PersistCapture {
  /// A copy of the store's payload files at the persist.
  std::string payload_dir;
  std::string log_before, log_after;
  History live_before, live_after;
  /// Serialized payloads in the store at the persist, by key.
  std::map<std::string, std::string> payloads;
};

void CheckCrashState(const std::string& tag,
                     const RuntimeOptions& live_options,
                     const PersistCapture& capture, const std::string& log,
                     const History& expected) {
  SCOPED_TRACE(tag);
  const std::string dir = TempDir("crash-state");
  fs::create_directories(dir);
  fs::copy(capture.payload_dir, fs::path(dir) / "payloads");
  WriteFile(HistoryLogPath(dir), log);
  // A stray, half-written tmp of the next checkpoint.
  WriteFile(HistoryLogPath(dir) + ".tmp",
            capture.log_after.substr(0, capture.log_after.size() / 2));

  Result<StoredHistory> stored = ReadHistory(dir);
  ASSERT_TRUE(stored.ok()) << stored.status();
  const analysis::Verifier verifier;
  analysis::AnalysisReport report =
      verifier.CheckHistoriesEqual(expected, stored->history);
  ASSERT_TRUE(report.ok()) << report.ToString();

  RuntimeOptions options = live_options;
  options.store_dir = dir;
  Runtime reopened(options);
  ASSERT_TRUE(reopened.session_status().ok()) << reopened.session_status();
  report = verifier.VerifyHistory(reopened.history(), &reopened.dictionary(),
                                  options.storage_budget_bytes);
  report.Merge(
      verifier.CheckStoreConsistency(reopened.history(), reopened.store()));
  ASSERT_TRUE(report.ok()) << report.ToString();
  for (const std::string& key : reopened.store().Keys()) {
    auto payload = reopened.store().Get(key);
    ASSERT_TRUE(payload.ok()) << key << ": " << payload.status();
    auto it = capture.payloads.find(key);
    ASSERT_NE(it, capture.payloads.end()) << key;
    EXPECT_EQ(*storage::SerializePayload(*payload), it->second) << key;
  }
  // The reopened session appends after the last whole frame.
  ASSERT_TRUE(reopened.PersistSession().ok());
  stored = ReadHistory(dir);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->dropped_bytes, 0);
  report = verifier.CheckHistoriesEqual(reopened.history(), stored->history);
  ASSERT_TRUE(report.ok()) << report.ToString();
}

TEST(HistoryLogCrashTest, EveryWriteStepOfPersistAndCheckpointReopens) {
  const std::string dir = TempDir("crash-live");
  TaxiSession session(dir, 5);
  ASSERT_TRUE(session.runtime().session_status().ok());
  const fs::path log_path = HistoryLogPath(dir);
  std::optional<PersistCapture> append, checkpoint;
  History live = session.runtime().history();
  // Whether the log holds a frame after its checkpoint frame.
  bool appended = false;
  for (int i = 0; i < 300 && !(append && checkpoint); ++i) {
    (void)session.RunNext();
    PersistCapture capture;
    capture.log_before = ReadFile(log_path);
    capture.live_before = live;
    for (const std::string& key : session.runtime().store().Keys()) {
      capture.payloads[key] = *storage::SerializePayload(
          *session.runtime().store().Get(key));
    }
    ASSERT_TRUE(session.runtime().PersistSession().ok());
    capture.log_after = ReadFile(log_path);
    live = session.runtime().history();
    capture.live_after = live;
    const bool grew = !capture.log_before.empty() &&
                      capture.log_after.size() > capture.log_before.size() &&
                      capture.log_after.compare(0, capture.log_before.size(),
                                                capture.log_before) == 0;
    const bool checkpointed = !grew && capture.log_after != capture.log_before;
    // Only a persist over a log that already holds an appended frame
    // shows both sides.
    const bool both_sides = appended;
    appended = grew || (appended && !checkpointed);
    if (!both_sides) {
      continue;
    }
    std::optional<PersistCapture>* slot = nullptr;
    if (checkpointed && !checkpoint) {
      slot = &checkpoint;
    } else if (grew && !append) {
      slot = &append;
    }
    if (slot != nullptr) {
      capture.payload_dir =
          TempDir(checkpointed ? "crash-checkpoint" : "crash-append");
      fs::copy(fs::path(dir) / "payloads", capture.payload_dir);
      *slot = std::move(capture);
    }
  }
  ASSERT_TRUE(append.has_value());
  ASSERT_TRUE(checkpoint.has_value());
  const RuntimeOptions& options = session.options();

  // The append: the log cut at every byte of the new frame.
  {
    const PersistCapture& c = *append;
    for (size_t cut = c.log_before.size(); cut <= c.log_after.size(); ++cut) {
      const bool whole = cut == c.log_after.size();
      CheckCrashState("append cut at " + std::to_string(cut), options, c,
                      c.log_after.substr(0, cut),
                      whole ? c.live_after : c.live_before);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
  // The checkpoint: before its rename (the old log, and the new one's
  // tmp half written) and after it.
  {
    const PersistCapture& c = *checkpoint;
    CheckCrashState("checkpoint before rename", options, c, c.log_before,
                    c.live_before);
    CheckCrashState("checkpoint after rename", options, c, c.log_after,
                    c.live_after);
  }
  fs::remove_all(dir);
  fs::remove_all(append->payload_dir);
  fs::remove_all(checkpoint->payload_dir);
  fs::remove_all(TempDir("crash-state"));
}

}  // namespace
}  // namespace hyppo::core
