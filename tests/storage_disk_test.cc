// Durable artifact store: disk round trips, crash recovery, checksum
// verification, the directory lock, and the two-session reuse path (run ->
// drop process state -> reopen -> byte-identical artifacts within budget).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "analysis/verifier.h"
#include "core/history_io.h"
#include "core/hyppo.h"
#include "storage/disk_store.h"
#include "storage/serialization.h"
#include "workload/datagen.h"
#include "workload/scenario.h"

namespace hyppo {
namespace {

namespace fs = std::filesystem;

using storage::ArtifactPayload;
using storage::DiskArtifactStore;

std::string TempDir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("hyppo_disk_" + tag);
  fs::remove_all(dir);
  return dir.string();
}

ArtifactPayload MakeDatasetPayload(int64_t rows, int64_t cols,
                                   double scale) {
  auto dataset = std::make_shared<ml::Dataset>(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      dataset->at(r, c) = scale * static_cast<double>(r * cols + c);
    }
  }
  return ArtifactPayload(ml::DatasetPtr(dataset));
}

// ---------------------------------------------------------------------------
// DiskArtifactStore basics.

TEST(DiskStoreTest, PutGetEvictAccounting) {
  DiskArtifactStore store(TempDir("basics"));
  ASSERT_TRUE(store.init_status().ok());
  ASSERT_TRUE(store.Put("k", ArtifactPayload(1.5), 100).ok());
  EXPECT_TRUE(store.Contains("k"));
  EXPECT_EQ(store.used_bytes(), 100);
  EXPECT_GT(store.payload_bytes(), 0);
  auto payload = store.Get("k");
  ASSERT_TRUE(payload.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*payload), 1.5);
  // Overwrite adjusts both logical and physical accounting.
  ASSERT_TRUE(store.Put("k", ArtifactPayload(2.0), 40).ok());
  EXPECT_EQ(store.used_bytes(), 40);
  EXPECT_EQ(store.num_entries(), 1u);
  ASSERT_TRUE(store.Evict("k").ok());
  EXPECT_EQ(store.used_bytes(), 0);
  EXPECT_EQ(store.payload_bytes(), 0);
  EXPECT_TRUE(store.Get("k").status().IsNotFound());
  EXPECT_TRUE(store.Evict("k").IsNotFound());
}

TEST(DiskStoreTest, ReopenRecoversIndex) {
  const std::string dir = TempDir("reopen");
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.Put("a", ArtifactPayload(1.0), 10).ok());
    ASSERT_TRUE(store.Put("b", MakeDatasetPayload(8, 2, 0.5), 128).ok());
  }  // process "dies": only the directory survives
  DiskArtifactStore reopened(dir);
  ASSERT_TRUE(reopened.init_status().ok());
  EXPECT_EQ(reopened.num_entries(), 2u);
  EXPECT_EQ(reopened.used_bytes(), 138);
  auto b = reopened.Get("b");
  ASSERT_TRUE(b.ok());
  const auto* dataset = std::get_if<ml::DatasetPtr>(&*b);
  ASSERT_NE(dataset, nullptr);
  EXPECT_DOUBLE_EQ((*dataset)->at(3, 1), 0.5 * 7);
}

TEST(DiskStoreTest, ReopenedPayloadsAreByteIdentical) {
  const std::string dir = TempDir("identical");
  const ArtifactPayload original = MakeDatasetPayload(32, 3, 1.25);
  auto expected = storage::SerializePayload(original);
  ASSERT_TRUE(expected.ok());
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.Put("x", original, 768).ok());
  }
  DiskArtifactStore reopened(dir);
  auto payload = reopened.Get("x");
  ASSERT_TRUE(payload.ok());
  auto actual = storage::SerializePayload(*payload);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*actual, *expected);
}

TEST(DiskStoreTest, CorruptedPayloadDetectedByChecksum) {
  const std::string dir = TempDir("corrupt");
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.Put("x", MakeDatasetPayload(16, 2, 2.0), 256).ok());
  }
  // Flip one byte in the middle of the payload file.
  for (const auto& entry : fs::directory_iterator(fs::path(dir) /
                                                  "payloads")) {
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = file.tellg();
    file.seekp(static_cast<std::streamoff>(size) / 2);
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(size) / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(size) / 2);
    file.write(&byte, 1);
  }
  DiskArtifactStore reopened(dir);
  ASSERT_TRUE(reopened.init_status().ok());
  // The length still matches, so the entry survives recovery; the
  // checksum catches the corruption at read time with a clean error.
  ASSERT_TRUE(reopened.Contains("x"));
  auto payload = reopened.Get("x");
  EXPECT_FALSE(payload.ok());
  EXPECT_TRUE(payload.status().IsIoError() ||
              payload.status().IsParseError());
}

TEST(DiskStoreTest, RecoveryDropsTornEntriesAndOrphans) {
  const std::string dir = TempDir("recovery");
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.Put("keep", ArtifactPayload(3.0), 12).ok());
    ASSERT_TRUE(store.Put("torn", ArtifactPayload(4.0), 12).ok());
  }
  // Simulate a crash aftermath: truncate one payload (the file no longer
  // holds the bytes its header records), add an orphan file without a
  // header, and a stale tmp file. Safe keys map to deterministic file
  // names (<key>.bin).
  fs::path payloads = fs::path(dir) / "payloads";
  ASSERT_TRUE(fs::exists(payloads / "torn.bin"));
  {
    std::ofstream trunc(payloads / "torn.bin",
                        std::ios::binary | std::ios::trunc);
    trunc << "xx";
  }
  std::ofstream(payloads / "orphan.bin", std::ios::binary) << "junk";
  std::ofstream(payloads / "keep.bin.tmp", std::ios::binary) << "partial";

  DiskArtifactStore recovered(dir);
  ASSERT_TRUE(recovered.init_status().ok());
  EXPECT_TRUE(recovered.Contains("keep"));
  EXPECT_FALSE(recovered.Contains("torn"));  // wrong length -> dropped
  EXPECT_EQ(recovered.used_bytes(), 12);
  EXPECT_FALSE(fs::exists(payloads / "orphan.bin"));
  EXPECT_FALSE(fs::exists(payloads / "keep.bin.tmp"));
  auto keep = recovered.Get("keep");
  ASSERT_TRUE(keep.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*keep), 3.0);
}

TEST(DiskStoreTest, UnsafeKeysGetHashedFileNames) {
  const std::string dir = TempDir("unsafe");
  const std::string key = "../weird key/with:stuff";
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.Put(key, ArtifactPayload(9.0), 8).ok());
    // The payload file must live inside payloads/, never escape via "..".
    size_t files = 0;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir) / "payloads")) {
      ++files;
      EXPECT_EQ(entry.path().extension(), ".bin");
    }
    EXPECT_EQ(files, 1u);
  }
  DiskArtifactStore reopened(dir);
  auto payload = reopened.Get(key);
  ASSERT_TRUE(payload.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*payload), 9.0);
}

TEST(DiskStoreTest, DirectoryLockReleasedWithOwner) {
  const std::string dir = TempDir("lockcycle");
  {
    DiskArtifactStore owner(dir);
    ASSERT_TRUE(owner.init_status().ok()) << owner.init_status();
    ASSERT_TRUE(owner.Put("k", ArtifactPayload(1.25), 8).ok());
    // Exclusive ownership: while the owner is live, a second store over
    // the same directory must refuse to open (store.lock is held) rather
    // than race the owner's payload files, and it rejects writes.
    DiskArtifactStore contender(dir);
    EXPECT_TRUE(contender.init_status().IsFailedPrecondition())
        << contender.init_status();
    EXPECT_NE(contender.init_status().ToString().find("locked"),
              std::string::npos)
        << contender.init_status();
    EXPECT_FALSE(contender.Put("other", ArtifactPayload(2.0), 8).ok());
    EXPECT_FALSE(contender.Contains("k"));
  }
  // Owner destroyed: the durable entry is visible to the next opener.
  DiskArtifactStore reopened(dir);
  ASSERT_TRUE(reopened.init_status().ok()) << reopened.init_status();
  EXPECT_TRUE(reopened.Contains("k"));
  EXPECT_FALSE(reopened.Contains("other"));
}

TEST(DiskStoreTest, FailedOverwriteKeepsOldPayload) {
  const std::string dir = TempDir("overwrite");
  const ArtifactPayload original = MakeDatasetPayload(8, 2, 1.0);
  auto expected = storage::SerializePayload(original);
  ASSERT_TRUE(expected.ok());
  DiskArtifactStore store(dir);
  ASSERT_TRUE(store.Put("k", original, 64).ok());
  // Block the overwrite: a directory sits where its tmp file must go.
  const fs::path blocker = fs::path(dir) / "payloads" / "k.bin.tmp";
  ASSERT_TRUE(fs::create_directory(blocker));
  EXPECT_FALSE(store.Put("k", MakeDatasetPayload(8, 2, 3.0), 80).ok());
  EXPECT_EQ(store.used_bytes(), 64);
  auto payload = store.Get("k");
  ASSERT_TRUE(payload.ok()) << payload.status();
  auto actual = storage::SerializePayload(*payload);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(*actual, *expected);
}

// A directory in the layout that kept a separate store index next to
// header-less HYP1 payload files: nothing in it describes itself, so it
// opens as an empty store and a runtime over it restores an empty
// materialized set.
TEST(DiskStoreTest, OldIndexedLayoutOpensEmpty) {
  const std::string dir = TempDir("oldlayout");
  const fs::path payloads = fs::path(dir) / "payloads";
  fs::create_directories(payloads);
  auto encoded = storage::SerializePayload(MakeDatasetPayload(4, 2, 1.0));
  ASSERT_TRUE(encoded.ok());
  std::ofstream(payloads / "deadbeef.bin", std::ios::binary) << *encoded;
  std::ofstream(fs::path(dir) / "store.manifest", std::ios::binary)
      << "old store index";
  core::History history;
  core::ArtifactInfo info;
  info.name = "deadbeef";
  info.display = "train";
  info.size_bytes = 64;
  const NodeId node = history.Observe(info);
  ASSERT_TRUE(history.MarkMaterialized(node).ok());
  ASSERT_TRUE(core::WriteCheckpoint(history, dir).ok());
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.init_status().ok()) << store.init_status();
    EXPECT_EQ(store.num_entries(), 0u);
    EXPECT_EQ(store.used_bytes(), 0);
    EXPECT_FALSE(fs::exists(payloads / "deadbeef.bin"));
  }
  core::RuntimeOptions options;
  options.store_dir = dir;
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.session_status().ok()) << runtime.session_status();
  EXPECT_TRUE(runtime.history().MaterializedArtifacts().empty());
  EXPECT_EQ(runtime.store().num_entries(), 0u);
}

// ---------------------------------------------------------------------------
// Crash points: every directory state a crash can leave around a Put or
// an Evict, built file by file. The rename (Put) and the unlink (Evict)
// are the only commit points, so each state must reopen cleanly, serve
// either the old or the new payload, and reconcile with a history that
// claims the pre-crash set.

// What the store's payload file holds after Put(key, payload, size_bytes):
// written by a scratch store, since the header layout is the store's own.
std::string EntryFileBytes(const std::string& key,
                           const ArtifactPayload& payload,
                           int64_t size_bytes) {
  const std::string dir = TempDir("entry-" + key);
  {
    DiskArtifactStore store(dir);
    EXPECT_TRUE(store.Put(key, payload, size_bytes).ok());
  }
  auto bytes = storage::ReadFileToString(
      (fs::path(dir) / "payloads" / (key + ".bin")).string());
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  fs::remove_all(dir);
  return bytes.ok() ? *bytes : std::string();
}

TEST(DiskStoreCrashPointTest, EveryCommitPointReopensConsistent) {
  const ArtifactPayload base = MakeDatasetPayload(4, 3, 0.5);
  const ArtifactPayload old_payload = MakeDatasetPayload(6, 2, 1.0);
  const ArtifactPayload new_payload = MakeDatasetPayload(5, 2, 2.0);
  const std::string base_bytes = *storage::SerializePayload(base);
  const std::string old_bytes = *storage::SerializePayload(old_payload);
  const std::string new_bytes = *storage::SerializePayload(new_payload);
  const std::string old_file = EntryFileBytes("k", old_payload, 96);
  const std::string new_file = EntryFileBytes("k", new_payload, 80);
  ASSERT_FALSE(old_file.empty());
  ASSERT_FALSE(new_file.empty());

  enum class Op { kFreshPut, kOverwritePut, kEvict };
  struct CrashPoint {
    const char* name;
    Op op;
    bool committed;  // crashed after the rename / unlink
  };
  const CrashPoint points[] = {
      {"fresh-put-before-rename", Op::kFreshPut, false},
      {"fresh-put-after-rename", Op::kFreshPut, true},
      {"overwrite-before-rename", Op::kOverwritePut, false},
      {"overwrite-after-rename", Op::kOverwritePut, true},
      {"evict-before-unlink", Op::kEvict, false},
      {"evict-after-unlink", Op::kEvict, true},
  };
  for (const CrashPoint& point : points) {
    SCOPED_TRACE(point.name);
    const std::string dir = TempDir(std::string("crash-") + point.name);
    const bool existed = point.op != Op::kFreshPut;
    {
      DiskArtifactStore store(dir);
      ASSERT_TRUE(store.Put("base", base, 48).ok());
      if (existed) {
        ASSERT_TRUE(store.Put("k", old_payload, 96).ok());
      }
    }
    // The crash: the write's tmp file or its result, and the unlink's.
    const fs::path payloads = fs::path(dir) / "payloads";
    if (point.op == Op::kEvict) {
      if (point.committed) {
        fs::remove(payloads / "k.bin");
      }
    } else {
      const fs::path target =
          point.committed ? payloads / "k.bin" : payloads / "k.bin.tmp";
      std::ofstream(target, std::ios::binary | std::ios::trunc) << new_file;
    }
    // A stray, half-written tmp of an unrelated key.
    std::ofstream(payloads / "other.bin.tmp", std::ios::binary)
        << new_file.substr(0, new_file.size() / 2);

    DiskArtifactStore reopened(dir);
    ASSERT_TRUE(reopened.init_status().ok()) << reopened.init_status();
    for (const auto& file : fs::directory_iterator(payloads)) {
      EXPECT_NE(file.path().extension(), ".tmp") << file.path();
    }
    // Which payload of `k` the crash must leave: the new one once the
    // write committed, none once the unlink did, the old one otherwise.
    const std::string* expected_k = existed ? &old_bytes : nullptr;
    if (point.committed) {
      expected_k = point.op == Op::kEvict ? nullptr : &new_bytes;
    }
    ASSERT_EQ(reopened.Contains("k"), expected_k != nullptr);
    for (const std::string& key : reopened.Keys()) {
      auto payload = reopened.Get(key);
      ASSERT_TRUE(payload.ok()) << key << ": " << payload.status();
      auto bytes = storage::SerializePayload(*payload);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, key == "base" ? base_bytes : *expected_k) << key;
    }

    // The history persisted before the crash claims the pre-crash set.
    core::History history;
    for (const auto& [key, size] :
         std::vector<std::pair<std::string, int64_t>>{{"base", 48},
                                                      {"k", 96}}) {
      if (key == "k" && !existed) {
        continue;
      }
      core::ArtifactInfo info;
      info.name = key;
      info.display = key;
      info.size_bytes = size;
      ASSERT_TRUE(history.MarkMaterialized(history.Observe(info)).ok());
    }
    auto unclaimed = core::ReconcileWithStore(&history, reopened);
    ASSERT_TRUE(unclaimed.ok()) << unclaimed.status();
    for (const std::string& key : *unclaimed) {
      ASSERT_TRUE(reopened.Evict(key).ok()) << key;
    }
    const analysis::Verifier verifier;
    const analysis::AnalysisReport report =
        verifier.CheckStoreConsistency(history, reopened);
    EXPECT_TRUE(report.ok()) << report.ToString();
  }
}

// ---------------------------------------------------------------------------
// Two-session scenario reuse: the ISSUE's acceptance criterion.

TEST(DurableSessionTest, ScenarioReusesArtifactsAcrossSessions) {
  const std::string dir = TempDir("scenario");
  workload::ScenarioConfig config;
  config.use_case = workload::UseCase::Higgs();
  config.num_pipelines = 6;
  config.budget_factor = 0.5;
  config.dataset_multiplier = 0.005;
  config.seed = 11;
  config.simulate = true;
  config.store_dir = dir;
  auto first = RunIterativeScenario(workload::MakeHyppoFactory(), config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_GT(first->stored_artifacts, 0);

  // Session 2: same directory, fresh process state. The restored store
  // must satisfy the history<->store consistency check and stay within
  // budget; the pipelines re-run strictly faster thanks to reuse.
  auto second = RunIterativeScenario(workload::MakeHyppoFactory(), config);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->stored_artifacts, 0);
  EXPECT_LT(second->cumulative_seconds, first->cumulative_seconds);

  // Reopen once more and audit directly: every materialized artifact is
  // present with a matching charged size, within budget on disk.
  core::RuntimeOptions options;
  options.storage_budget_bytes = first->budget_bytes;
  options.store_dir = dir;
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.session_status().ok());
  EXPECT_GT(runtime.history().MaterializedArtifacts().size(), 0u);
  EXPECT_LE(runtime.store().used_bytes(), first->budget_bytes);
  const analysis::Verifier verifier;
  const analysis::AnalysisReport report =
      verifier.CheckStoreConsistency(runtime.history(), runtime.store());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(DurableSessionTest, QuickstartStyleSystemReload) {
  const std::string dir = TempDir("system");
  const char* code = R"(
data    = load("tiny", rows=64, cols=4)
train, test = sk.TrainTestSplit.split(data, test_size=0.25)
scaler  = sk.StandardScaler.fit(train)
train_s = scaler.transform(train)
model   = sk.DecisionTreeClassifier.fit(train_s, max_depth=3)
)";
  std::string stored_key;
  std::string expected_bytes;
  {
    core::HyppoSystem::Options options;
    options.runtime.storage_budget_bytes = 1 << 20;
    options.runtime.store_dir = dir;
    core::HyppoSystem system(options);
    ASSERT_TRUE(system.runtime().session_status().ok());
    auto data = workload::GenerateHiggs(64, 4, 7);
    ASSERT_TRUE(data.ok());
    system.RegisterDataset("tiny", *data);
    auto report = system.RunCode(code, "session-1");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const auto materialized =
        system.runtime().history().MaterializedArtifacts();
    ASSERT_FALSE(materialized.empty());
    stored_key =
        system.runtime().history().graph().artifact(materialized[0]).name;
    auto payload = system.runtime().store().Get(stored_key);
    ASSERT_TRUE(payload.ok());
    auto bytes = storage::SerializePayload(*payload);
    ASSERT_TRUE(bytes.ok());
    expected_bytes = *bytes;
  }
  // Session 2: artifacts come back byte-identical.
  core::HyppoSystem::Options options;
  options.runtime.storage_budget_bytes = 1 << 20;
  options.runtime.store_dir = dir;
  core::HyppoSystem system(options);
  ASSERT_TRUE(system.runtime().session_status().ok());
  EXPECT_GT(system.runtime().history().MaterializedArtifacts().size(), 0u);
  auto payload = system.runtime().store().Get(stored_key);
  ASSERT_TRUE(payload.ok());
  auto bytes = storage::SerializePayload(*payload);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, expected_bytes);
}

TEST(DurableSessionTest, CrashBeforeFirstPersistLeavesNoOrphans) {
  // A session whose materializer already Put a payload but that crashed
  // before its first PersistSession: a store entry, no history.
  const std::string dir = TempDir("prepersist");
  {
    DiskArtifactStore store(dir);
    ASSERT_TRUE(store.init_status().ok()) << store.init_status();
    ASSERT_TRUE(store.Put("deadbeef", ArtifactPayload(1.0), 64).ok());
  }
  core::RuntimeOptions options;
  options.store_dir = dir;
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.session_status().ok()) << runtime.session_status();
  EXPECT_EQ(runtime.history().MaterializedArtifacts().size(), 0u);
  EXPECT_EQ(runtime.store().num_entries(), 0u);
  EXPECT_EQ(runtime.store().used_bytes(), 0);
  const analysis::Verifier verifier;
  const analysis::AnalysisReport report =
      verifier.CheckStoreConsistency(runtime.history(), runtime.store());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(DurableSessionTest, DriftedStoreEntryReconciledOnRestore) {
  const std::string dir = TempDir("drift");
  workload::ScenarioConfig config;
  config.use_case = workload::UseCase::Higgs();
  config.num_pipelines = 4;
  config.budget_factor = 0.5;
  config.dataset_multiplier = 0.005;
  config.seed = 5;
  config.simulate = true;
  config.store_dir = dir;
  auto first = RunIterativeScenario(workload::MakeHyppoFactory(), config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->stored_artifacts, 0);
  // Sabotage one payload file (truncate) between sessions: the reopened
  // runtime must reconcile — the damaged artifact is evicted from both
  // history and store, and the consistency check still passes.
  fs::path payloads = fs::path(dir) / "payloads";
  bool truncated = false;
  for (const auto& entry : fs::directory_iterator(payloads)) {
    std::ofstream trunc(entry.path(), std::ios::binary | std::ios::trunc);
    trunc << "z";
    truncated = true;
    break;
  }
  ASSERT_TRUE(truncated);
  core::RuntimeOptions options;
  options.storage_budget_bytes = first->budget_bytes;
  options.store_dir = dir;
  core::Runtime runtime(options);
  ASSERT_TRUE(runtime.session_status().ok());
  EXPECT_LT(
      static_cast<int64_t>(runtime.history().MaterializedArtifacts().size()),
      first->stored_artifacts);
  const analysis::Verifier verifier;
  const analysis::AnalysisReport report =
      verifier.CheckStoreConsistency(runtime.history(), runtime.store());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace hyppo
