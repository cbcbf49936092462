#include "core/history_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <set>
#include <string_view>

#include "common/hash.h"
#include "storage/serialization.h"

namespace hyppo::core {

namespace {

using storage::BinaryReader;
using storage::BinaryWriter;

// Log: u32 magic "HYPL" | u32 version | u64 FNV-1a64 of the 8 bytes
// before it, then frames of
//   u64 body length | body (records) | u64 FNV-1a64 of length and body.
// The first frame is a checkpoint holding every record. Version 1 was an
// older build's log of frames against a separate snapshot.
constexpr uint32_t kLogMagic = 0x4859504c;  // "HYPL"
constexpr uint32_t kLogVersion = 2;
constexpr size_t kLogHeaderBytes = 4 + 4 + 8;
constexpr size_t kFrameOverheadBytes = 8 + 8;

constexpr char kLogFileName[] = "history.log";

// Records, the body of every frame: u64 count + artifacts, then
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

std::string EncodeLogHeader() {
  BinaryWriter writer;
  writer.WriteU32(kLogMagic);
  writer.WriteU32(kLogVersion);
  writer.WriteU64(Fnv1a64(writer.buffer()));
  return writer.Take();
}

// One frame holding the records of `nodes` and `edges`.
std::string EncodeFrame(const History& history,
                        const std::vector<NodeId>& nodes,
                        const std::vector<EdgeId>& edges) {
  BinaryWriter body;
  WriteRecords(history, nodes, edges, &body);
  BinaryWriter length;
  length.WriteU64(body.buffer().size());
  std::string frame = length.Take() + body.Take();
  BinaryWriter checksum;
  checksum.WriteU64(Fnv1a64(frame));
  return frame + checksum.Take();
}

Status OlderLayout(const std::string& what) {
  return Status::FailedPrecondition(
      what +
      " was written by an older build, which kept the history as a "
      "history.hyppo snapshot plus a log of frames against it; this build "
      "reads only a history.log that starts with its checkpoint, and leaves "
      "the directory as it is");
}

// Length of the whole frame at `position` of `bytes`; 0 when the frame is
// torn (runs past the end) or its checksum fails.
size_t WholeFrameAt(std::string_view bytes, size_t position) {
  if (bytes.size() - position < kFrameOverheadBytes) {
    return 0;
  }
  const uint64_t body_bytes = ReadU64At(bytes, position);
  if (body_bytes > bytes.size() - position - kFrameOverheadBytes) {
    return 0;
  }
  const size_t covered = 8 + static_cast<size_t>(body_bytes);
  if (ReadU64At(bytes, position + covered) !=
      Fnv1a64(bytes.substr(position, covered))) {
    return 0;
  }
  return covered + 8;
}

// Applies the frames of the history log `bytes` to the empty
// `stored->history`, recording the usable prefix and what was dropped
// after it. The header and the checkpoint frame are only ever put in place
// by a rename, so damage there is a ParseError. A later frame may be a
// torn or corrupt tail of an append, which replay stops at — unless
// `strict`, which refuses it.
Status ReplayLog(std::string_view bytes, bool strict, StoredHistory* stored) {
  if (bytes.substr(0, kLogHeaderBytes) != EncodeLogHeader()) {
    // The magic, then version 1.
    if (bytes.size() >= 8 &&
        ReadU64At(bytes, 0) == (uint64_t{1} << 32 | kLogMagic)) {
      return OlderLayout("a version-1 history log");
    }
    return Status::ParseError("bad history log header");
  }
  size_t position = kLogHeaderBytes;
  bool checkpoint = true;
  while (checkpoint || position < bytes.size()) {
    const size_t frame_bytes = WholeFrameAt(bytes, position);
    if (frame_bytes == 0) {
      if (checkpoint || strict) {
        return Status::ParseError(
            std::string(checkpoint ? "damaged history checkpoint frame"
                                   : "torn or corrupt history log frame") +
            " at byte " + std::to_string(position));
      }
      break;
    }
    const std::string body(
        bytes.substr(position + 8, frame_bytes - kFrameOverheadBytes));
    BinaryReader reader(body);
    const Status applied = ApplyRecords(&reader, &stored->history);
    if (!applied.ok() || !reader.AtEnd()) {
      // The checksum held, so the writer produced this frame: a damaged
      // frame would have failed the checksum.
      return Status::ParseError("unreadable history log frame at byte " +
                                std::to_string(position) + ": " +
                                applied.ToString());
    }
    if (checkpoint) {
      stored->files.checkpoint_bytes = static_cast<int64_t>(frame_bytes);
    } else {
      ++stored->frames;
    }
    checkpoint = false;
    position += frame_bytes;
  }
  stored->files.log_bytes = static_cast<int64_t>(position);
  stored->dropped_bytes = static_cast<int64_t>(bytes.size() - position);
  stored->history.ClearJournal();
  return Status::OK();
}

// Writes `bytes` into the log at `path` at `offset`, its usable prefix. A
// failed write is cut back off, so the next write lands after the last
// whole frame.
Status WriteLog(const std::string& path, const std::string& bytes,
                int64_t offset) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
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

Result<std::string> SerializeHistory(const History& history) {
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
  return EncodeLogHeader() + EncodeFrame(history, nodes, edges);
}

Result<History> DeserializeHistory(const std::string& bytes) {
  StoredHistory stored;
  HYPPO_RETURN_NOT_OK(ReplayLog(bytes, /*strict=*/true, &stored));
  return std::move(stored.history);
}

std::string HistoryLogPath(const std::string& directory) {
  return (std::filesystem::path(directory) / kLogFileName).string();
}

Result<StoredHistory> ReadHistory(const std::string& directory) {
  std::error_code ec;
  if (std::filesystem::exists(
          std::filesystem::path(directory) / "history.hyppo", ec)) {
    return OlderLayout("'" + directory + "'");
  }
  StoredHistory stored;
  const std::string path = HistoryLogPath(directory);
  if (!std::filesystem::exists(path, ec)) {
    return stored;
  }
  HYPPO_ASSIGN_OR_RETURN(const std::string log,
                         storage::ReadFileToString(path));
  HYPPO_RETURN_NOT_OK(ReplayLog(log, /*strict=*/false, &stored));
  return stored;
}

Result<HistoryFiles> WriteCheckpoint(const History& history,
                                     const std::string& directory) {
  HYPPO_ASSIGN_OR_RETURN(const std::string bytes, SerializeHistory(history));
  HYPPO_RETURN_NOT_OK(
      storage::AtomicWriteFile(HistoryLogPath(directory), bytes));
  HistoryFiles files;
  files.log_bytes = static_cast<int64_t>(bytes.size());
  files.checkpoint_bytes =
      files.log_bytes - static_cast<int64_t>(kLogHeaderBytes);
  return files;
}

Result<HistoryLog> HistoryLog::Resume(std::string directory,
                                      const StoredHistory& stored) {
  if (stored.dropped_bytes > 0) {
    // Cut the torn or corrupt tail replay ignored, so the next frame
    // follows the last whole one.
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
  if (files_.log_bytes == 0 || journal.rebuilt) {
    return Checkpoint(history);
  }
  const std::string frame =
      EncodeFrame(*history, journal.artifacts, journal.tasks);
  const int64_t after_checkpoint =
      files_.log_bytes - static_cast<int64_t>(kLogHeaderBytes) -
      files_.checkpoint_bytes + static_cast<int64_t>(frame.size());
  if (after_checkpoint > kCheckpointLogMultiple * files_.checkpoint_bytes) {
    return Checkpoint(history);
  }
  HYPPO_RETURN_NOT_OK(
      WriteLog(HistoryLogPath(directory_), frame, files_.log_bytes));
  files_.log_bytes += static_cast<int64_t>(frame.size());
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
