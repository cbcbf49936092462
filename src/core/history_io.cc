#include "core/history_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <set>
#include <string_view>

#include "common/hash.h"
#include "storage/serialization.h"

namespace hyppo::core {

namespace {

using storage::BinaryReader;
using storage::BinaryWriter;

// Snapshot: u32 magic "HYPH" | u32 version | u64 generation | records |
// u64 FNV-1a64 of every byte before it. Version 1 had neither the
// generation nor the checksum.
constexpr uint32_t kHistoryMagic = 0x48595048;  // "HYPH"
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kVersion = 2;
constexpr size_t kSnapshotHeaderBytes = 4 + 4 + 8;

// Log: u32 magic "HYPL" | u32 version | u64 generation | u64 FNV-1a64 of
// the 16 bytes before it, then frames of
//   u64 body length | body (records) | u64 FNV-1a64 of length and body.
constexpr uint32_t kLogMagic = 0x4859504c;  // "HYPL"
constexpr uint32_t kLogVersion = 1;
constexpr size_t kLogHeaderBytes = 4 + 4 + 8 + 8;
constexpr size_t kFrameOverheadBytes = 8 + 8;

constexpr char kHistoryFileName[] = "history.hyppo";
constexpr char kLogFileName[] = "history.log";

// Records, shared by snapshots and frames: u64 count + artifacts, then
// u64 count + compute tasks, each with its statistics. Tasks name their
// endpoints, so an artifact precedes every task that uses it.
void WriteArtifact(const History& history, NodeId v, BinaryWriter* writer) {
  const ArtifactInfo& info = history.graph().artifact(v);
  writer->WriteString(info.name);
  writer->WriteU32(static_cast<uint32_t>(info.kind));
  writer->WriteString(info.display);
  writer->WriteI64(info.size_bytes);
  writer->WriteI64(info.rows);
  writer->WriteI64(info.cols);
  const ArtifactRecord& record = history.record(v);
  writer->WriteDouble(record.compute_seconds);
  writer->WriteI64(record.compute_observations);
  writer->WriteI64(record.access_count);
  writer->WriteDouble(record.last_access_seconds);
  writer->WriteI64(record.version);
  writer->WriteBool(record.materialized);
}

void WriteTask(const History& history, EdgeId e, BinaryWriter* writer) {
  const PipelineGraph& graph = history.graph();
  const TaskInfo& task = graph.task(e);
  writer->WriteString(task.logical_op);
  writer->WriteU32(static_cast<uint32_t>(task.type));
  writer->WriteString(task.impl);
  writer->WriteU64(task.config.values().size());
  for (const auto& [key, value] : task.config.values()) {
    writer->WriteString(key);
    writer->WriteString(value);
  }
  writer->WriteU64(graph.ordered_tail(e).size());
  for (NodeId t : graph.ordered_tail(e)) {
    writer->WriteString(graph.artifact(t).name);
  }
  writer->WriteU64(graph.ordered_head(e).size());
  for (NodeId h : graph.ordered_head(e)) {
    writer->WriteString(graph.artifact(h).name);
  }
  const auto [total_seconds, count] = history.TaskObservation(e);
  writer->WriteDouble(total_seconds);
  writer->WriteI64(count);
}

void WriteRecords(const History& history, const std::vector<NodeId>& nodes,
                  const std::vector<EdgeId>& edges, BinaryWriter* writer) {
  writer->WriteU64(nodes.size());
  for (NodeId v : nodes) {
    WriteArtifact(history, v, writer);
  }
  writer->WriteU64(edges.size());
  for (EdgeId e : edges) {
    WriteTask(history, e, writer);
  }
}

// Applies records to `history`: each artifact is restored exactly
// (History::RestoreArtifact), each task found by signature or added, with
// its observation set. Load edges of materialized derived artifacts come
// last, after the compute edges.
Status ApplyRecords(BinaryReader* reader, History* history) {
  HYPPO_ASSIGN_OR_RETURN(const uint64_t artifacts, reader->ReadU64());
  std::vector<NodeId> materialize;
  for (uint64_t i = 0; i < artifacts; ++i) {
    ArtifactInfo info;
    ArtifactRecord saved;
    HYPPO_ASSIGN_OR_RETURN(info.name, reader->ReadString());
    HYPPO_ASSIGN_OR_RETURN(const uint32_t kind, reader->ReadU32());
    if (kind < static_cast<uint32_t>(ArtifactKind::kRaw) ||
        kind > static_cast<uint32_t>(ArtifactKind::kValue)) {
      return Status::ParseError("artifact '" + info.name +
                                "' has invalid kind " + std::to_string(kind));
    }
    info.kind = static_cast<ArtifactKind>(kind);
    HYPPO_ASSIGN_OR_RETURN(info.display, reader->ReadString());
    HYPPO_ASSIGN_OR_RETURN(info.size_bytes, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(info.rows, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(info.cols, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(saved.compute_seconds, reader->ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(saved.compute_observations, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(saved.access_count, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(saved.last_access_seconds, reader->ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(saved.version, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(saved.materialized, reader->ReadBool());
    HYPPO_ASSIGN_OR_RETURN(const NodeId node,
                           history->RestoreArtifact(info, saved));
    if (saved.materialized && info.kind != ArtifactKind::kRaw) {
      materialize.push_back(node);
    }
  }
  HYPPO_ASSIGN_OR_RETURN(const uint64_t tasks, reader->ReadU64());
  for (uint64_t i = 0; i < tasks; ++i) {
    TaskInfo task;
    HYPPO_ASSIGN_OR_RETURN(task.logical_op, reader->ReadString());
    HYPPO_ASSIGN_OR_RETURN(const uint32_t type, reader->ReadU32());
    if (type < static_cast<uint32_t>(TaskType::kSplit) ||
        type > static_cast<uint32_t>(TaskType::kDerive)) {
      return Status::ParseError("task '" + task.logical_op +
                                "' has invalid type " + std::to_string(type));
    }
    task.type = static_cast<TaskType>(type);
    HYPPO_ASSIGN_OR_RETURN(task.impl, reader->ReadString());
    HYPPO_ASSIGN_OR_RETURN(const uint64_t config_entries, reader->ReadU64());
    for (uint64_t k = 0; k < config_entries; ++k) {
      HYPPO_ASSIGN_OR_RETURN(std::string key, reader->ReadString());
      HYPPO_ASSIGN_OR_RETURN(std::string value, reader->ReadString());
      task.config.Set(key, std::move(value));
    }
    auto read_nodes = [&]() -> Result<std::vector<NodeId>> {
      HYPPO_ASSIGN_OR_RETURN(const uint64_t count, reader->ReadU64());
      std::vector<NodeId> nodes;
      for (uint64_t k = 0; k < count; ++k) {
        HYPPO_ASSIGN_OR_RETURN(const std::string name, reader->ReadString());
        HYPPO_ASSIGN_OR_RETURN(const NodeId node, history->FindArtifact(name));
        nodes.push_back(node);
      }
      return nodes;
    };
    HYPPO_ASSIGN_OR_RETURN(const std::vector<NodeId> tails, read_nodes());
    HYPPO_ASSIGN_OR_RETURN(const std::vector<NodeId> heads, read_nodes());
    HYPPO_ASSIGN_OR_RETURN(const double total_seconds, reader->ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(const int64_t count, reader->ReadI64());
    HYPPO_ASSIGN_OR_RETURN(const EdgeId edge,
                           history->ObserveTask(task, tails, heads, -1.0));
    history->SetTaskObservation(edge, total_seconds, count);
  }
  for (NodeId node : materialize) {
    HYPPO_RETURN_NOT_OK(history->MarkMaterialized(node));
  }
  return Status::OK();
}

uint64_t ReadU64At(std::string_view bytes, size_t offset) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(
                 bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

struct Snapshot {
  History history;
  uint64_t generation = 0;
};

Result<Snapshot> DecodeSnapshot(const std::string& bytes) {
  BinaryReader reader(bytes);
  HYPPO_ASSIGN_OR_RETURN(const uint32_t magic, reader.ReadU32());
  if (magic != kHistoryMagic) {
    return Status::ParseError("bad history magic");
  }
  HYPPO_ASSIGN_OR_RETURN(const uint32_t version, reader.ReadU32());
  Snapshot snapshot;
  size_t trailer = 0;
  if (version == kVersion) {
    if (bytes.size() < kSnapshotHeaderBytes + 8 ||
        ReadU64At(bytes, bytes.size() - 8) !=
            Fnv1a64(std::string_view(bytes).substr(0, bytes.size() - 8))) {
      return Status::ParseError("history snapshot checksum mismatch");
    }
    HYPPO_ASSIGN_OR_RETURN(snapshot.generation, reader.ReadU64());
    trailer = 8;
  } else if (version != kLegacyVersion) {
    return Status::ParseError("unsupported history version " +
                              std::to_string(version));
  }
  const Status applied = ApplyRecords(&reader, &snapshot.history);
  if (!applied.ok()) {
    return Status::ParseError("damaged history snapshot: " +
                              applied.ToString());
  }
  if (reader.remaining() != trailer) {
    return Status::ParseError("trailing bytes after history");
  }
  snapshot.history.ClearJournal();
  return snapshot;
}

std::string EncodeLogHeader(uint64_t generation) {
  BinaryWriter writer;
  writer.WriteU32(kLogMagic);
  writer.WriteU32(kLogVersion);
  writer.WriteU64(generation);
  writer.WriteU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

// Replays the frames of `log` over `stored->history` when the log extends
// the snapshot's generation, recording the usable prefix and what was
// dropped after it.
Status ReplayLog(const std::string& log, StoredHistory* stored) {
  const std::string_view bytes(log);
  if (bytes.size() < kLogHeaderBytes ||
      bytes.substr(0, kLogHeaderBytes) !=
          EncodeLogHeader(stored->files.generation)) {
    // Torn inside its header, damaged, or extending another generation:
    // the snapshot already holds everything the log could add.
    stored->dropped_bytes = static_cast<int64_t>(bytes.size());
    return Status::OK();
  }
  size_t position = kLogHeaderBytes;
  while (bytes.size() - position >= kFrameOverheadBytes) {
    const uint64_t body_bytes = ReadU64At(bytes, position);
    if (body_bytes > bytes.size() - position - kFrameOverheadBytes) {
      break;  // torn: the frame runs past the end of the log
    }
    const size_t covered = 8 + static_cast<size_t>(body_bytes);
    if (ReadU64At(bytes, position + covered) !=
        Fnv1a64(bytes.substr(position, covered))) {
      break;  // torn or corrupt
    }
    const std::string body(bytes.substr(position + 8, body_bytes));
    BinaryReader reader(body);
    const Status applied = ApplyRecords(&reader, &stored->history);
    if (!applied.ok() || !reader.AtEnd()) {
      // The checksum held, so the writer produced this frame: a damaged
      // frame would have failed the checksum.
      return Status::ParseError("unreadable history log frame at byte " +
                                std::to_string(position) + ": " +
                                applied.ToString());
    }
    ++stored->frames;
    position += covered + 8;
  }
  stored->files.log_bytes = static_cast<int64_t>(position);
  stored->dropped_bytes = static_cast<int64_t>(bytes.size() - position);
  return Status::OK();
}

// The generation of the snapshot or log header at `path`, 0 when the
// file is missing or its header unreadable.
uint64_t HeaderGeneration(const std::string& path, bool log) {
  std::ifstream in(path, std::ios::binary);
  std::string header(log ? kLogHeaderBytes : kSnapshotHeaderBytes, '\0');
  if (!in.read(header.data(), static_cast<std::streamsize>(header.size()))) {
    return 0;
  }
  BinaryReader reader(header);
  const Result<uint32_t> magic = reader.ReadU32();
  const Result<uint32_t> version = reader.ReadU32();
  const Result<uint64_t> generation = reader.ReadU64();
  if (!magic.ok() || !version.ok() || !generation.ok() ||
      *magic != (log ? kLogMagic : kHistoryMagic) ||
      *version != (log ? kLogVersion : kVersion)) {
    return 0;
  }
  return *generation;
}

// One log frame holding the records `history`'s journal marked changed.
std::string EncodeFrame(const History& history) {
  BinaryWriter body;
  WriteRecords(history, history.journal().artifacts, history.journal().tasks,
               &body);
  BinaryWriter length;
  length.WriteU64(body.buffer().size());
  std::string frame = length.Take() + body.Take();
  BinaryWriter checksum;
  checksum.WriteU64(Fnv1a64(frame));
  return frame + checksum.Take();
}

// Writes `bytes` into the log at `path` at `offset`, its usable prefix;
// offset 0 rewrites the log from the start. A failed write is cut back
// off, so the next write lands after the last whole frame.
Status WriteLog(const std::string& path, const std::string& bytes,
                int64_t offset) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_CLOEXEC |
                            (offset == 0 ? O_TRUNC : 0),
                        0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::pwrite(fd, bytes.data() + written, bytes.size() - written,
                 static_cast<off_t>(offset + static_cast<int64_t>(written)));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      (void)::ftruncate(fd, static_cast<off_t>(offset));
      ::close(fd);
      return Status::IoError("error while writing '" + path + "'");
    }
    written += static_cast<size_t>(n);
  }
  if (::close(fd) != 0) {
    return Status::IoError("error while closing '" + path + "'");
  }
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeHistory(const History& history,
                                     uint64_t generation) {
  const PipelineGraph& graph = history.graph();
  // An artifact added to the graph behind the History mutators' back has
  // no statistics record; reading one would run past the records vector.
  if (graph.num_artifacts() > 1 &&
      history.num_records() < graph.num_artifacts()) {
    return Status::FailedPrecondition(
        "history holds " + std::to_string(history.num_records()) +
        " statistics records for " + std::to_string(graph.num_artifacts()) +
        " artifacts");
  }
  // Every artifact but the implicit source node 0, and every compute task
  // (load edges are reconstructed from the materialized / raw flags,
  // exactly as §IV-H describes them).
  std::vector<NodeId> nodes;
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    nodes.push_back(v);
  }
  std::vector<EdgeId> edges;
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    if (graph.task(e).type != TaskType::kLoad) {
      edges.push_back(e);
    }
  }
  BinaryWriter writer;
  writer.WriteU32(kHistoryMagic);
  writer.WriteU32(kVersion);
  writer.WriteU64(generation);
  WriteRecords(history, nodes, edges, &writer);
  writer.WriteU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

Result<History> DeserializeHistory(const std::string& bytes) {
  HYPPO_ASSIGN_OR_RETURN(Snapshot snapshot, DecodeSnapshot(bytes));
  return std::move(snapshot.history);
}

std::string HistoryPath(const std::string& directory) {
  return (std::filesystem::path(directory) / kHistoryFileName).string();
}

std::string HistoryLogPath(const std::string& directory) {
  return (std::filesystem::path(directory) / kLogFileName).string();
}

Result<StoredHistory> ReadHistory(const std::string& directory) {
  const std::string snapshot_path = HistoryPath(directory);
  const std::string log_path = HistoryLogPath(directory);
  std::error_code ec;
  const bool has_snapshot = std::filesystem::exists(snapshot_path, ec);
  const bool has_log = std::filesystem::exists(log_path, ec);
  if (!has_snapshot && !has_log) {
    return Status::IoError("no history in '" + directory + "'");
  }
  StoredHistory stored;
  if (has_snapshot) {
    HYPPO_ASSIGN_OR_RETURN(const std::string bytes,
                           storage::ReadFileToString(snapshot_path));
    HYPPO_ASSIGN_OR_RETURN(Snapshot snapshot, DecodeSnapshot(bytes));
    stored.history = std::move(snapshot.history);
    stored.files.generation = snapshot.generation;
    stored.files.snapshot_bytes = static_cast<int64_t>(bytes.size());
  }
  if (has_log) {
    HYPPO_ASSIGN_OR_RETURN(const std::string log,
                           storage::ReadFileToString(log_path));
    HYPPO_RETURN_NOT_OK(ReplayLog(log, &stored));
    stored.history.ClearJournal();
  }
  return stored;
}

Result<HistoryFiles> WriteCheckpoint(const History& history,
                                     const std::string& directory) {
  HistoryFiles files;
  files.generation =
      std::max(HeaderGeneration(HistoryPath(directory), /*log=*/false),
               HeaderGeneration(HistoryLogPath(directory), /*log=*/true)) +
      1;
  HYPPO_ASSIGN_OR_RETURN(const std::string snapshot,
                         SerializeHistory(history, files.generation));
  HYPPO_RETURN_NOT_OK(
      storage::AtomicWriteFile(HistoryPath(directory), snapshot));
  files.snapshot_bytes = static_cast<int64_t>(snapshot.size());
  const std::string header = EncodeLogHeader(files.generation);
  HYPPO_RETURN_NOT_OK(WriteLog(HistoryLogPath(directory), header, 0));
  files.log_bytes = static_cast<int64_t>(header.size());
  return files;
}

Result<HistoryLog> HistoryLog::Resume(std::string directory,
                                      const StoredHistory& stored) {
  if (stored.dropped_bytes > 0) {
    // Cut what replay ignored — a torn tail, or a whole log of another
    // generation — so the next frame follows the last whole one.
    const std::string path = HistoryLogPath(directory);
    std::error_code ec;
    std::filesystem::resize_file(
        path, static_cast<uintmax_t>(stored.files.log_bytes), ec);
    if (ec) {
      return Status::IoError("cannot cut the torn tail of '" + path +
                             "': " + ec.message());
    }
  }
  return HistoryLog(std::move(directory), stored.files);
}

Status HistoryLog::Persist(History* history) {
  const HistoryJournal& journal = history->journal();
  if (journal.empty()) {
    return Status::OK();
  }
  if (journal.rebuilt) {
    return Checkpoint(history);
  }
  std::string bytes =
      files_.log_bytes == 0 ? EncodeLogHeader(files_.generation) : "";
  bytes += EncodeFrame(*history);
  if (files_.log_bytes + static_cast<int64_t>(bytes.size()) >
      kCheckpointLogMultiple * files_.snapshot_bytes) {
    return Checkpoint(history);
  }
  HYPPO_RETURN_NOT_OK(
      WriteLog(HistoryLogPath(directory_), bytes, files_.log_bytes));
  files_.log_bytes += static_cast<int64_t>(bytes.size());
  history->ClearJournal();
  return Status::OK();
}

Status HistoryLog::Checkpoint(History* history) {
  HYPPO_ASSIGN_OR_RETURN(files_, WriteCheckpoint(*history, directory_));
  history->ClearJournal();
  return Status::OK();
}

Result<std::vector<std::string>> ReconcileWithStore(
    History* history, const storage::ArtifactStore& store) {
  std::set<std::string> claimed;
  for (NodeId v : history->MaterializedArtifacts()) {
    const ArtifactInfo& info = history->graph().artifact(v);
    const Result<int64_t> stored_size = store.SizeOf(info.name);
    if (stored_size.ok() && *stored_size == info.size_bytes) {
      claimed.insert(info.name);
    } else {
      // Payload missing or its size drifted: the entry is not trustworthy.
      HYPPO_RETURN_NOT_OK(history->EvictMaterialized(v));
    }
  }
  std::vector<std::string> unclaimed;
  for (const std::string& key : store.Keys()) {
    if (claimed.count(key) == 0) {
      unclaimed.push_back(key);
    }
  }
  return unclaimed;
}

}  // namespace hyppo::core
