#include "core/history_io.h"

#include <filesystem>
#include <fstream>

#include "storage/serialization.h"

namespace hyppo::core {

namespace {

using storage::BinaryReader;
using storage::BinaryWriter;

constexpr uint32_t kHistoryMagic = 0x48595048;  // "HYPH"
constexpr uint32_t kVersion = 1;

// URL-safe-ish file name for a canonical artifact name (already hex).
std::string PayloadFileName(const std::string& name) {
  return name + ".bin";
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IoError("error while reading '" + path + "'");
  }
  return bytes;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes) {
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return Status::IoError("error while writing '" + tmp + "'");
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return Status::IoError("cannot rename '" + tmp + "' into place: " +
                           ec.message());
  }
  return Status::OK();
}

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
  BinaryWriter writer;
  writer.WriteU32(kHistoryMagic);
  writer.WriteU32(kVersion);

  // Artifacts (excluding the implicit source node 0).
  writer.WriteU64(static_cast<uint64_t>(graph.num_artifacts() - 1));
  for (NodeId v = 1; v < graph.num_artifacts(); ++v) {
    const ArtifactInfo& info = graph.artifact(v);
    writer.WriteString(info.name);
    writer.WriteU32(static_cast<uint32_t>(info.kind));
    writer.WriteString(info.display);
    writer.WriteI64(info.size_bytes);
    writer.WriteI64(info.rows);
    writer.WriteI64(info.cols);
    const ArtifactRecord& record = history.record(v);
    writer.WriteDouble(record.compute_seconds);
    writer.WriteI64(record.compute_observations);
    writer.WriteI64(record.access_count);
    writer.WriteDouble(record.last_access_seconds);
    writer.WriteI64(record.version);
    writer.WriteBool(record.materialized);
  }

  // Compute tasks (load edges are reconstructed from the materialized /
  // raw flags, exactly as §IV-H describes them).
  std::vector<EdgeId> compute_edges;
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    if (graph.task(e).type != TaskType::kLoad) {
      compute_edges.push_back(e);
    }
  }
  writer.WriteU64(compute_edges.size());
  for (EdgeId e : compute_edges) {
    const TaskInfo& task = graph.task(e);
    writer.WriteString(task.logical_op);
    writer.WriteU32(static_cast<uint32_t>(task.type));
    writer.WriteString(task.impl);
    writer.WriteU64(task.config.values().size());
    for (const auto& [key, value] : task.config.values()) {
      writer.WriteString(key);
      writer.WriteString(value);
    }
    writer.WriteU64(graph.ordered_tail(e).size());
    for (NodeId t : graph.ordered_tail(e)) {
      writer.WriteString(graph.artifact(t).name);
    }
    writer.WriteU64(graph.ordered_head(e).size());
    for (NodeId h : graph.ordered_head(e)) {
      writer.WriteString(graph.artifact(h).name);
    }
    const auto [total_seconds, count] = history.TaskObservation(e);
    writer.WriteDouble(total_seconds);
    writer.WriteI64(count);
  }
  return writer.Take();
}

Result<History> DeserializeHistory(const std::string& bytes) {
  BinaryReader reader(bytes);
  HYPPO_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kHistoryMagic) {
    return Status::ParseError("bad history magic");
  }
  HYPPO_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kVersion) {
    return Status::ParseError("unsupported history version " +
                              std::to_string(version));
  }
  History history;
  HYPPO_ASSIGN_OR_RETURN(uint64_t artifacts, reader.ReadU64());
  struct Pending {
    NodeId node;
    bool materialized;
  };
  std::vector<Pending> pending;
  for (uint64_t i = 0; i < artifacts; ++i) {
    ArtifactInfo info;
    HYPPO_ASSIGN_OR_RETURN(info.name, reader.ReadString());
    HYPPO_ASSIGN_OR_RETURN(uint32_t kind, reader.ReadU32());
    info.kind = static_cast<ArtifactKind>(kind);
    HYPPO_ASSIGN_OR_RETURN(info.display, reader.ReadString());
    HYPPO_ASSIGN_OR_RETURN(info.size_bytes, reader.ReadI64());
    HYPPO_ASSIGN_OR_RETURN(info.rows, reader.ReadI64());
    HYPPO_ASSIGN_OR_RETURN(info.cols, reader.ReadI64());
    const NodeId node = history.Observe(info);
    ArtifactRecord& record = history.record(node);
    HYPPO_ASSIGN_OR_RETURN(record.compute_seconds, reader.ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(record.compute_observations, reader.ReadI64());
    HYPPO_ASSIGN_OR_RETURN(record.access_count, reader.ReadI64());
    HYPPO_ASSIGN_OR_RETURN(record.last_access_seconds, reader.ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(record.version, reader.ReadI64());
    HYPPO_ASSIGN_OR_RETURN(bool materialized, reader.ReadBool());
    if (info.kind == ArtifactKind::kRaw) {
      HYPPO_RETURN_NOT_OK(history.RegisterSourceData(node).status());
    } else if (materialized) {
      pending.push_back(Pending{node, true});
    }
  }
  HYPPO_ASSIGN_OR_RETURN(uint64_t tasks, reader.ReadU64());
  for (uint64_t i = 0; i < tasks; ++i) {
    TaskInfo task;
    HYPPO_ASSIGN_OR_RETURN(task.logical_op, reader.ReadString());
    HYPPO_ASSIGN_OR_RETURN(uint32_t type, reader.ReadU32());
    task.type = static_cast<TaskType>(type);
    HYPPO_ASSIGN_OR_RETURN(task.impl, reader.ReadString());
    HYPPO_ASSIGN_OR_RETURN(uint64_t config_entries, reader.ReadU64());
    for (uint64_t k = 0; k < config_entries; ++k) {
      HYPPO_ASSIGN_OR_RETURN(std::string key, reader.ReadString());
      HYPPO_ASSIGN_OR_RETURN(std::string value, reader.ReadString());
      task.config.Set(key, std::move(value));
    }
    auto read_nodes = [&]() -> Result<std::vector<NodeId>> {
      HYPPO_ASSIGN_OR_RETURN(uint64_t count, reader.ReadU64());
      std::vector<NodeId> nodes;
      for (uint64_t k = 0; k < count; ++k) {
        HYPPO_ASSIGN_OR_RETURN(std::string name, reader.ReadString());
        HYPPO_ASSIGN_OR_RETURN(NodeId node,
                               history.graph().FindArtifact(name));
        nodes.push_back(node);
      }
      return nodes;
    };
    HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> tails, read_nodes());
    HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> heads, read_nodes());
    HYPPO_ASSIGN_OR_RETURN(double total_seconds, reader.ReadDouble());
    HYPPO_ASSIGN_OR_RETURN(int64_t count, reader.ReadI64());
    // Replay the observations: one averaged observation per recorded run.
    if (count <= 0) {
      HYPPO_RETURN_NOT_OK(
          history.ObserveTask(task, tails, heads, -1.0).status());
    } else {
      const double mean = total_seconds / static_cast<double>(count);
      for (int64_t k = 0; k < count; ++k) {
        HYPPO_RETURN_NOT_OK(
            history.ObserveTask(task, tails, heads, mean).status());
      }
    }
  }
  for (const Pending& p : pending) {
    HYPPO_RETURN_NOT_OK(history.MarkMaterialized(p.node));
  }
  if (!reader.AtEnd()) {
    return Status::ParseError("trailing bytes after history");
  }
  return history;
}

Status SaveCatalog(const History& history,
                   const storage::ArtifactStore& store,
                   const std::string& directory) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(fs::path(directory) / "artifacts", ec);
  if (ec) {
    return Status::IoError("cannot create catalog directory '" + directory +
                           "': " + ec.message());
  }
  HYPPO_ASSIGN_OR_RETURN(std::string history_bytes,
                         SerializeHistory(history));
  HYPPO_RETURN_NOT_OK(AtomicWriteFile(
      (fs::path(directory) / "history.hyppo").string(), history_bytes));
  for (const std::string& key : store.Keys()) {
    HYPPO_ASSIGN_OR_RETURN(storage::ArtifactPayload payload, store.Get(key));
    HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                           storage::SerializePayload(payload));
    HYPPO_RETURN_NOT_OK(AtomicWriteFile(
        (fs::path(directory) / "artifacts" / PayloadFileName(key)).string(),
        bytes));
  }
  return Status::OK();
}

Status LoadCatalog(const std::string& directory, History* history,
                   storage::ArtifactStore* store) {
  namespace fs = std::filesystem;
  HYPPO_ASSIGN_OR_RETURN(
      std::string history_bytes,
      ReadFileToString((fs::path(directory) / "history.hyppo").string()));
  HYPPO_ASSIGN_OR_RETURN(History loaded, DeserializeHistory(history_bytes));
  // Restore payloads; evict history entries whose payload is missing.
  for (NodeId v : loaded.MaterializedArtifacts()) {
    const ArtifactInfo& info = loaded.graph().artifact(v);
    const std::string path =
        (fs::path(directory) / "artifacts" / PayloadFileName(info.name))
            .string();
    Result<std::string> bytes = ReadFileToString(path);
    if (!bytes.ok()) {
      HYPPO_RETURN_NOT_OK(loaded.EvictMaterialized(v));
      continue;
    }
    HYPPO_ASSIGN_OR_RETURN(storage::ArtifactPayload payload,
                           storage::DeserializePayload(*bytes));
    HYPPO_RETURN_NOT_OK(store->Put(info.name, std::move(payload),
                                   info.size_bytes));
  }
  *history = std::move(loaded);
  return Status::OK();
}

}  // namespace hyppo::core
