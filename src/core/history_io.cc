#include "core/history_io.h"

#include <filesystem>
#include <set>

#include "storage/serialization.h"

namespace hyppo::core {

namespace {

using storage::BinaryReader;
using storage::BinaryWriter;

constexpr uint32_t kHistoryMagic = 0x48595048;  // "HYPH"
constexpr uint32_t kVersion = 1;

constexpr char kHistoryFileName[] = "history.hyppo";

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
    HYPPO_ASSIGN_OR_RETURN(const EdgeId edge,
                           history.ObserveTask(task, tails, heads, -1.0));
    if (count > 0) {
      history.SetTaskObservation(edge, total_seconds, count);
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

std::string HistoryPath(const std::string& directory) {
  return (std::filesystem::path(directory) / kHistoryFileName).string();
}

Status WriteHistorySnapshot(const History& history,
                            const std::string& directory) {
  HYPPO_ASSIGN_OR_RETURN(std::string bytes, SerializeHistory(history));
  return storage::AtomicWriteFile(HistoryPath(directory), bytes);
}

Result<History> ReadHistorySnapshot(const std::string& directory) {
  HYPPO_ASSIGN_OR_RETURN(std::string bytes,
                         storage::ReadFileToString(HistoryPath(directory)));
  return DeserializeHistory(bytes);
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
