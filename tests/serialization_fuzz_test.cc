// Serialization robustness: every payload kind round-trips bit-exactly,
// and corrupted buffers — every truncation point, systematic bit flips —
// come back as clean Status errors, never crashes, hangs, or huge
// allocations. The same holds for the disk store's self-describing
// payload files: a damaged header drops the entry or fails its read, and
// never serves bytes other than those put. The history log
// (core/history_io.h) is held to more: a damaged header or checkpoint
// frame is refused, and a damaged later frame restores exactly the
// history before it. Runs under the sanitizer CI jobs via the chaos label.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "common/hash.h"
#include "core/derive.h"
#include "core/history_io.h"
#include "ml/op_state.h"
#include "storage/disk_store.h"
#include "storage/serialization.h"

namespace hyppo::storage {
namespace {

ml::FlatTree MakeTree() {
  ml::FlatTree tree;
  tree.feature = {0, -1, -1};
  tree.threshold = {0.5, 0.0, 0.0};
  tree.left = {1, -1, -1};
  tree.right = {2, -1, -1};
  tree.value = {0.0, -1.5, 2.5};
  return tree;
}

// One payload per PayloadTag: monostate, dataset, the four op-state
// variants, predictions, scalar value.
std::vector<ArtifactPayload> EveryPayloadKind() {
  std::vector<ArtifactPayload> payloads;
  payloads.emplace_back(std::monostate{});

  auto dataset = std::make_shared<ml::Dataset>(5, 3);
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      dataset->at(r, c) = static_cast<double>(r) - 0.25 * c;
    }
  }
  payloads.emplace_back(ml::DatasetPtr(dataset));

  auto vector_state = std::make_shared<ml::VectorState>("StandardScaler");
  vector_state->vectors["mean"] = {1.0, 2.0, 3.0};
  vector_state->vectors["std"] = {0.5, 0.5, 0.5};
  vector_state->scalars["n"] = 5.0;
  payloads.emplace_back(ml::OpStatePtr(vector_state));

  auto tree_state =
      std::make_shared<ml::TreeState>("DecisionTreeClassifier");
  tree_state->tree = MakeTree();
  tree_state->is_classifier = true;
  payloads.emplace_back(ml::OpStatePtr(tree_state));

  auto forest_state =
      std::make_shared<ml::ForestState>("RandomForestRegressor");
  forest_state->trees = {MakeTree(), MakeTree()};
  forest_state->tree_weights = {0.5, 0.5};
  forest_state->base_prediction = 0.125;
  payloads.emplace_back(ml::OpStatePtr(forest_state));

  auto ensemble_state =
      std::make_shared<ml::EnsembleState>("StackingRegressor");
  ensemble_state->base_states = {vector_state, tree_state};
  ensemble_state->base_logical_ops = {"StandardScaler",
                                      "DecisionTreeClassifier"};
  ensemble_state->base_impls = {"skl.StandardScaler",
                                "skl.DecisionTreeClassifier"};
  ensemble_state->meta_weights = {0.75, 0.25};
  ensemble_state->meta_intercept = -0.5;
  payloads.emplace_back(ml::OpStatePtr(ensemble_state));

  payloads.emplace_back(ml::PredictionsPtr(
      std::make_shared<const std::vector<double>>(
          std::vector<double>{1.0, -2.5, 0.0, 1e300})));

  payloads.emplace_back(0.8125);
  return payloads;
}

TEST(SerializationFuzzTest, EveryPayloadTagRoundTripsBitExact) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto decoded = DeserializePayload(*bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), payload.index());
    // Re-encoding the decoded payload reproduces the exact bytes: the
    // strongest cheap deep-equality check the codec offers.
    auto reencoded = SerializePayload(*decoded);
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(*reencoded, *bytes);
  }
}

TEST(SerializationFuzzTest, EveryTruncationFailsCleanly) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok());
    for (size_t cut = 0; cut < bytes->size(); ++cut) {
      auto decoded = DeserializePayload(bytes->substr(0, cut));
      EXPECT_FALSE(decoded.ok()) << "cut at " << cut << " of "
                                 << bytes->size();
    }
  }
}

TEST(SerializationFuzzTest, BitFlipsNeverCrash) {
  for (const ArtifactPayload& payload : EveryPayloadKind()) {
    auto bytes = SerializePayload(payload);
    ASSERT_TRUE(bytes.ok());
    // Flip every bit of the first 64 bytes (headers, tags, length
    // prefixes — where a wrong value can mislead the decoder worst), then
    // one bit per byte across the rest.
    for (size_t pos = 0; pos < bytes->size(); ++pos) {
      const int nbits = pos < 64 ? 8 : 1;
      for (int bit = 0; bit < nbits; ++bit) {
        std::string mutated = *bytes;
        mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
        // Either a clean error or a structurally valid decode of
        // different content — both fine; a crash/UB/OOM is the failure.
        auto decoded = DeserializePayload(mutated);
        if (decoded.ok()) {
          (void)SerializePayload(*decoded);
        }
      }
    }
  }
}

TEST(SerializationFuzzTest, HugeClaimedSizesRejectedWithoutAllocation) {
  // A dataset header claiming absurd dimensions must be rejected by the
  // plausibility bound (claimed cells vs bytes actually present), not
  // attempted as a multi-terabyte allocation.
  BinaryWriter writer;
  writer.WriteU32(0x48595031);        // payload magic "HYP1"
  writer.WriteU32(1);                 // PayloadTag::kDataset
  writer.WriteI64(int64_t{1} << 33);  // rows
  writer.WriteI64(int64_t{1} << 33);  // cols
  auto decoded = DeserializePayload(writer.Take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsParseError() ||
              decoded.status().IsIoError());

  // Negative dimensions are equally invalid.
  BinaryWriter negative;
  negative.WriteU32(0x48595031);
  negative.WriteU32(1);
  negative.WriteI64(-4);
  negative.WriteI64(8);
  EXPECT_FALSE(DeserializePayload(negative.Take()).ok());
}

TEST(SerializationFuzzTest, DamagedStoreEntryHeadersNeverServeWrongBytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hyppo_fuzz_store_entry";
  const std::string key = "c0ffee42";
  const ArtifactPayload payload = EveryPayloadKind()[1];  // a dataset
  auto encoded = SerializePayload(payload);
  ASSERT_TRUE(encoded.ok());
  fs::remove_all(dir);
  {
    DiskArtifactStore store(dir.string());
    ASSERT_TRUE(store.Put(key, payload, 120).ok());
  }
  const fs::path file = dir / "payloads" / (key + ".bin");
  auto pristine = ReadFileToString(file.string());
  ASSERT_TRUE(pristine.ok()) << pristine.status();
  ASSERT_GT(pristine->size(), encoded->size());
  const size_t header_bytes = pristine->size() - encoded->size();

  // Reopens the store over `damaged` as the entry's only file: the entry
  // is either dropped at open or fails its read cleanly, unless it still
  // serves exactly the bytes that were put.
  const auto reopen_over = [&](const std::string& damaged,
                               const std::string& what) {
    SCOPED_TRACE(what);
    fs::remove_all(dir);
    fs::create_directories(dir / "payloads");
    std::ofstream(file, std::ios::binary) << damaged;
    DiskArtifactStore store(dir.string());
    ASSERT_TRUE(store.init_status().ok()) << store.init_status();
    for (const std::string& live : store.Keys()) {
      ASSERT_EQ(live, key);
      auto loaded = store.Get(live);
      if (!loaded.ok()) {
        EXPECT_TRUE(loaded.status().IsIoError() ||
                    loaded.status().IsParseError())
            << loaded.status();
        continue;
      }
      auto bytes = SerializePayload(*loaded);
      ASSERT_TRUE(bytes.ok());
      EXPECT_EQ(*bytes, *encoded);
      EXPECT_EQ(store.used_bytes(), 120);
    }
  };
  for (size_t cut = 0; cut < pristine->size(); ++cut) {
    reopen_over(pristine->substr(0, cut), "cut at " + std::to_string(cut));
  }
  for (size_t pos = 0; pos < header_bytes; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = *pristine;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      reopen_over(mutated, "flip bit " + std::to_string(bit) + " of byte " +
                               std::to_string(pos));
    }
  }
  fs::remove_all(dir);
}

// A small history, checkpointed, then changed and persisted twice: a log
// of three frames, the checkpoint frame and one frame per change. Returns
// the history after each frame, and the log's length after each.
struct LoggedHistory {
  std::vector<core::History> states;
  std::vector<size_t> log_ends;
};

namespace fs = std::filesystem;

LoggedHistory WriteThreeFrameLog(const std::string& dir) {
  core::History history;
  auto artifact = [&](const char* name, core::ArtifactKind kind) {
    core::ArtifactInfo info;
    info.name = name;
    info.kind = kind;
    info.display = name;
    info.size_bytes = 64;
    return history.Observe(info);
  };
  const NodeId raw = artifact("r0", core::ArtifactKind::kRaw);
  const NodeId train = artifact("t0", core::ArtifactKind::kTrain);
  const NodeId test = artifact("s0", core::ArtifactKind::kTest);
  EXPECT_TRUE(history.RegisterSourceData(raw).ok());
  core::TaskInfo split;
  split.logical_op = "TrainTestSplit";
  split.type = core::TaskType::kSplit;
  split.impl = "skl.TrainTestSplit";
  EXPECT_TRUE(history.ObserveTask(split, {raw}, {train, test}, 0.5).ok());
  history.RecordAccess(train, 1.0);
  EXPECT_TRUE(core::WriteCheckpoint(history, dir).ok());
  auto stored = core::ReadHistory(dir);
  EXPECT_TRUE(stored.ok()) << stored.status();
  auto log = core::HistoryLog::Resume(dir, *stored);
  EXPECT_TRUE(log.ok()) << log.status();
  history.ClearJournal();

  LoggedHistory logged;
  auto record = [&] {
    logged.states.push_back(history);
    logged.log_ends.push_back(
        static_cast<size_t>(fs::file_size(core::HistoryLogPath(dir))));
  };
  record();
  history.RecordAccess(test, 2.0);
  EXPECT_TRUE(history.ObserveTask(split, {raw}, {train, test}, 0.25).ok());
  EXPECT_TRUE(log->Persist(&history).ok());
  record();
  EXPECT_TRUE(history.MarkMaterialized(train).ok());
  history.RecordComputeSeconds(train, 0.125);
  EXPECT_TRUE(log->Persist(&history).ok());
  record();
  return logged;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// The header and the checkpoint frame are only ever put in place by a
// rename, so any damage there is a ParseError, never a shorter history.
TEST(SerializationFuzzTest, DamagedHistorySnapshotIsRefused) {
  const std::string dir =
      (fs::temp_directory_path() / "hyppo_fuzz_snapshot").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const size_t checkpoint_end = WriteThreeFrameLog(dir).log_ends.front();
  const std::string path = core::HistoryLogPath(dir);
  const std::string log = *ReadFileToString(path);
  ASSERT_TRUE(core::ReadHistory(dir).ok());
  for (size_t cut = 0; cut < checkpoint_end; ++cut) {
    WriteBytes(path, log.substr(0, cut));
    auto stored = core::ReadHistory(dir);
    ASSERT_FALSE(stored.ok()) << "cut at " << cut;
    EXPECT_TRUE(stored.status().IsParseError())
        << "cut at " << cut << ": " << stored.status();
  }
  for (size_t pos = 0; pos < checkpoint_end; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = log;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      WriteBytes(path, flipped);
      auto stored = core::ReadHistory(dir);
      ASSERT_FALSE(stored.ok()) << "bit " << bit << " of byte " << pos;
      EXPECT_TRUE(stored.status().IsParseError())
          << "bit " << bit << " of byte " << pos << ": " << stored.status();
    }
  }
  fs::remove_all(dir);
}

// Frames 2 and 3 are appended in place, so a crash can tear them: damage
// there restores the history as of the last whole frame before it.
TEST(SerializationFuzzTest, DamagedLogFrameRestoresTheHistoryBeforeIt) {
  const std::string dir =
      (fs::temp_directory_path() / "hyppo_fuzz_log").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const LoggedHistory logged = WriteThreeFrameLog(dir);
  const std::string path = core::HistoryLogPath(dir);
  const std::string log = *ReadFileToString(path);
  ASSERT_EQ(log.size(), logged.log_ends.back());
  const analysis::Verifier verifier;
  // The state a log whose bytes from `pos` on are damaged or gone
  // restores: every frame ending at or before `pos` survives.
  auto state_before = [&](size_t pos) {
    size_t state = 0;
    while (state + 1 < logged.log_ends.size() &&
           logged.log_ends[state + 1] <= pos) {
      ++state;
    }
    return state;
  };
  auto expect_restores = [&](const std::string& bytes, size_t state,
                             const std::string& what) {
    WriteBytes(path, bytes);
    auto stored = core::ReadHistory(dir);
    ASSERT_TRUE(stored.ok()) << what << ": " << stored.status();
    EXPECT_EQ(static_cast<size_t>(stored->frames), state) << what;
    EXPECT_EQ(static_cast<size_t>(stored->files.log_bytes),
              logged.log_ends[state])
        << what;
    const analysis::AnalysisReport report =
        verifier.CheckHistoriesEqual(logged.states[state], stored->history);
    EXPECT_TRUE(report.ok()) << what << ": " << report.ToString();
  };
  expect_restores(log, 2, "whole log");
  for (size_t cut = logged.log_ends.front(); cut < log.size(); ++cut) {
    expect_restores(log.substr(0, cut), state_before(cut),
                    "cut at " + std::to_string(cut));
    if (HasFailure()) {
      return;
    }
  }
  for (size_t pos = logged.log_ends.front(); pos < log.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = log;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      // The flipped byte's frame is lost, and every later one with it.
      expect_restores(flipped, state_before(pos),
                      "bit " + std::to_string(bit) + " of byte " +
                          std::to_string(pos));
      if (HasFailure()) {
        return;
      }
    }
  }
  fs::remove_all(dir);
}

// A history whose forest of max_depth 3 was derived from its sibling of
// max_depth 5: the derive task type survives a checkpoint and a later
// frame, and every artifact kind and task type outside the enums is
// refused.
TEST(SerializationFuzzTest, DeriveTasksPersistAndTheNextTypeIsRefused) {
  core::History history;
  auto artifact = [&](const std::string& name, core::ArtifactKind kind) {
    core::ArtifactInfo info;
    info.name = name;
    info.kind = kind;
    info.display = name;
    info.size_bytes = 64;
    return history.Observe(info);
  };
  const NodeId train = artifact("t0", core::ArtifactKind::kTrain);
  const NodeId deep = artifact("f5", core::ArtifactKind::kOpState);
  const NodeId shallow = artifact("f3", core::ArtifactKind::kOpState);
  core::TaskInfo fit;
  fit.logical_op = "RandomForestClassifier";
  fit.type = core::TaskType::kFit;
  fit.impl = "lgb.RandomForestClassifier";
  fit.config.SetInt("max_depth", 5);
  ASSERT_TRUE(history.ObserveTask(fit, {train}, {deep}, 0.5).ok());
  fit.config.SetInt("max_depth", 3);
  ASSERT_TRUE(history.ObserveTask(fit, {train}, {shallow}, -1.0).ok());
  const std::string dir =
      (fs::temp_directory_path() / "hyppo_fuzz_derive").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(core::WriteCheckpoint(history, dir).ok());
  auto resumed = core::ReadHistory(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto log = core::HistoryLog::Resume(dir, *resumed);
  ASSERT_TRUE(log.ok()) << log.status();
  history.ClearJournal();
  ASSERT_TRUE(history
                  .ObserveTask(core::DeriveTaskFor(fit), {deep}, {shallow},
                               0.001)
                  .ok());
  ASSERT_TRUE(log->Persist(&history).ok());
  auto stored = core::ReadHistory(dir);
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->frames, 1);
  const analysis::Verifier verifier;
  const analysis::AnalysisReport logged =
      verifier.CheckHistoriesEqual(history, stored->history);
  EXPECT_TRUE(logged.ok()) << logged.ToString();
  fs::remove_all(dir);

  auto checkpoint = core::SerializeHistory(history);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  auto restored = core::DeserializeHistory(*checkpoint);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const analysis::AnalysisReport same =
      verifier.CheckHistoriesEqual(history, *restored);
  EXPECT_TRUE(same.ok()) << same.ToString();

  // The first artifact's kind follows its name; the derive task's type
  // follows its logical op. Patch each past either end of its enum and
  // re-seal the checkpoint frame's checksum, which covers everything after
  // the 16-byte header but itself.
  const std::string& bytes = *checkpoint;
  const size_t kind_at =
      bytes.find(std::string("\x02\0\0\0\0\0\0\0t0", 10)) + 10;
  ASSERT_EQ(bytes.compare(kind_at, 4, std::string("\x02\0\0\0", 4)), 0);
  size_t type_at = std::string::npos;
  for (size_t at = bytes.find(fit.logical_op); at != std::string::npos;
       at = bytes.find(fit.logical_op, at + 1)) {
    const size_t after = at + fit.logical_op.size();
    if (bytes.compare(after, 4, std::string("\x06\0\0\0", 4)) == 0) {
      type_at = after;
    }
  }
  ASSERT_NE(type_at, std::string::npos);
  for (const auto& [offset, value] :
       std::vector<std::pair<size_t, char>>{{kind_at, '\x00'},
                                            {kind_at, '\x08'},
                                            {type_at, '\x00'},
                                            {type_at, '\x07'}}) {
    std::string damaged = bytes;
    damaged[offset] = value;
    const size_t sealed = damaged.size() - 8;
    const uint64_t checksum =
        Fnv1a64(std::string_view(damaged).substr(16, sealed - 16));
    for (size_t i = 0; i < 8; ++i) {
      damaged[sealed + i] = static_cast<char>((checksum >> (8 * i)) & 0xff);
    }
    const Result<core::History> refused = core::DeserializeHistory(damaged);
    EXPECT_TRUE(refused.status().IsParseError())
        << "byte " << offset << " = " << static_cast<int>(value) << ": "
        << refused.status();
  }
}

}  // namespace
}  // namespace hyppo::storage
