#include "core/history.h"

#include <algorithm>
#include <cmath>

#include "core/derive.h"

namespace hyppo::core {

History::History() {
  // The graph constructor creates the source node s; mirror it so the
  // index covers every named node from the start.
  IndexArtifact(graph_.artifact(graph_.source()).name, graph_.source());
}

NodeId History::Observe(const ArtifactInfo& info) {
  auto it = index_.artifact_by_name.find(info.name);
  if (it != index_.artifact_by_name.end()) {
    const NodeId existing = it->second;
    // Refresh metadata with the latest (typically observed) values. The
    // size of a *materialized* artifact is frozen: it was charged against
    // the storage budget at Put time with its measured size, and letting
    // a later plan-time estimate overwrite it would silently desync the
    // history from the store's byte accounting. It thaws on eviction.
    EnsureRecords();
    ArtifactInfo& stored = graph_.artifact(existing);
    if (info.size_bytes > 0 && !IsMaterialized(existing)) {
      stored.size_bytes = info.size_bytes;
    }
    if (info.rows > 0) {
      stored.rows = info.rows;
      stored.cols = info.cols;
    }
    MarkArtifactChanged(existing);
    return existing;
  }
  NodeId node = graph_.AddArtifact(info).ValueOrDie();
  EnsureRecords();
  IndexArtifact(info.name, node);
  MarkArtifactChanged(node);
  return node;
}

void History::MarkArtifactChanged(NodeId node) {
  const size_t i = static_cast<size_t>(node);
  if (artifact_in_journal_.size() <= i) {
    artifact_in_journal_.resize(std::max(records_.size(), i + 1), 0);
  }
  if (!artifact_in_journal_[i]) {
    artifact_in_journal_[i] = 1;
    journal_.artifacts.push_back(node);
  }
}

void History::MarkTaskChanged(EdgeId edge) {
  const size_t i = static_cast<size_t>(edge);
  if (task_in_journal_.size() <= i) {
    task_in_journal_.resize(std::max(edge_stats_.size(), i + 1), 0);
  }
  if (!task_in_journal_[i]) {
    task_in_journal_[i] = 1;
    journal_.tasks.push_back(edge);
  }
}

void History::ClearJournal() {
  for (NodeId v : journal_.artifacts) {
    artifact_in_journal_[static_cast<size_t>(v)] = 0;
  }
  for (EdgeId e : journal_.tasks) {
    task_in_journal_[static_cast<size_t>(e)] = 0;
  }
  journal_ = HistoryJournal();
}

Result<NodeId> History::RestoreArtifact(const ArtifactInfo& info,
                                        const ArtifactRecord& saved) {
  auto it = index_.artifact_by_name.find(info.name);
  NodeId node = kInvalidNode;
  if (it != index_.artifact_by_name.end()) {
    node = it->second;
    graph_.artifact(node) = info;
  } else {
    HYPPO_ASSIGN_OR_RETURN(node, graph_.AddArtifact(info));
    EnsureRecords();
    IndexArtifact(info.name, node);
  }
  if (info.kind == ArtifactKind::kRaw) {
    HYPPO_RETURN_NOT_OK(RegisterSourceData(node).status());
  } else if (!saved.materialized && IsMaterialized(node)) {
    HYPPO_RETURN_NOT_OK(EvictMaterialized(node));
  }
  ArtifactRecord& rec = MutableRecord(node);
  rec.compute_seconds = saved.compute_seconds;
  rec.compute_observations = saved.compute_observations;
  rec.access_count = saved.access_count;
  rec.last_access_seconds = saved.last_access_seconds;
  rec.version = saved.version;
  MarkArtifactChanged(node);
  return node;
}

void History::IndexTask(std::string signature, EdgeId edge) {
  index_.task_by_signature.emplace(std::move(signature), edge);
  DepthSibling sibling;
  if (FindDepthSibling(graph_, edge, &sibling)) {
    index_.fits_by_depth_sibling[sibling.key].push_back(edge);
  }
}

Result<EdgeId> History::ObserveTask(const TaskInfo& info,
                                    const std::vector<NodeId>& tails,
                                    const std::vector<NodeId>& heads,
                                    double seconds) {
  // Deduplicate by signature: the same task re-executed does not add a
  // parallel edge. Built to match PipelineGraph::TaskSignature exactly,
  // so the augmenter can probe HasTaskSignature with signatures computed
  // on the augmentation side.
  TaskInfo copy = info;
  std::string signature = copy.logical_op;
  signature += '|';
  signature += TaskTypeToString(copy.type);
  signature += '|';
  signature += copy.config.ToString();
  signature += '|';
  signature += copy.impl;
  signature += '|';
  for (NodeId t : tails) {
    signature += graph_.artifact(t).name;
    signature += ',';
  }
  signature += "->";
  for (NodeId h : heads) {
    signature += graph_.artifact(h).name;
    signature += ',';
  }
  EdgeId edge = kInvalidEdge;
  auto it = index_.task_by_signature.find(signature);
  const bool created = it == index_.task_by_signature.end();
  if (!created) {
    edge = it->second;
  } else {
    HYPPO_ASSIGN_OR_RETURN(edge, graph_.AddTask(std::move(copy), tails, heads));
    IndexTask(std::move(signature), edge);
    EnsureEdgeStats();
  }
  if (seconds >= 0.0) {
    EdgeStats& stats = edge_stats_[static_cast<size_t>(edge)];
    stats.total_seconds += seconds;
    ++stats.count;
  }
  if (created || seconds >= 0.0) {
    MarkTaskChanged(edge);
  }
  return edge;
}

Result<EdgeId> History::RegisterSourceData(NodeId node) {
  EnsureRecords();
  ArtifactRecord& rec = MutableRecord(node);
  if (rec.load_edge != kInvalidEdge) {
    return rec.load_edge;
  }
  HYPPO_ASSIGN_OR_RETURN(EdgeId edge, graph_.AddLoadTask(node));
  EnsureEdgeStats();
  rec.load_edge = edge;
  rec.materialized = true;  // retrievable from its source location
  if (!IsSourceData(node)) {
    index_.materialized.insert(node);
  }
  MarkArtifactChanged(node);
  return edge;
}

void History::RecordAccess(NodeId node, double now_seconds) {
  EnsureRecords();
  ArtifactRecord& rec = MutableRecord(node);
  ++rec.access_count;
  rec.last_access_seconds = now_seconds;
  MarkArtifactChanged(node);
}

void History::RecordComputeSeconds(NodeId node, double seconds) {
  EnsureRecords();
  ArtifactRecord& rec = MutableRecord(node);
  rec.compute_seconds =
      (rec.compute_seconds * static_cast<double>(rec.compute_observations) +
       seconds) /
      static_cast<double>(rec.compute_observations + 1);
  ++rec.compute_observations;
  MarkArtifactChanged(node);
}

Status History::MarkMaterialized(NodeId node) {
  EnsureRecords();
  ArtifactRecord& rec = MutableRecord(node);
  if (rec.materialized) {
    return Status::OK();
  }
  HYPPO_ASSIGN_OR_RETURN(EdgeId edge, graph_.AddLoadTask(node));
  EnsureEdgeStats();
  rec.load_edge = edge;
  rec.materialized = true;
  if (!IsSourceData(node)) {
    index_.materialized.insert(node);
  }
  MarkArtifactChanged(node);
  return Status::OK();
}

Status History::EvictMaterialized(NodeId node) {
  EnsureRecords();
  if (IsSourceData(node)) {
    return Status::FailedPrecondition(
        "data sources are not candidates for eviction");
  }
  ArtifactRecord& rec = MutableRecord(node);
  if (!rec.materialized) {
    return Status::FailedPrecondition("artifact is not materialized");
  }
  HYPPO_RETURN_NOT_OK(graph_.RemoveTask(rec.load_edge));
  rec.load_edge = kInvalidEdge;
  rec.materialized = false;
  ++rec.version;
  index_.materialized.erase(node);
  MarkArtifactChanged(node);
  return Status::OK();
}

Result<NodeId> History::FindArtifact(const std::string& name) const {
  auto it = index_.artifact_by_name.find(name);
  if (it == index_.artifact_by_name.end()) {
    return Status::NotFound("no artifact named '" + name + "'");
  }
  return it->second;
}

const std::vector<EdgeId>& History::DepthSiblings(
    const std::string& key) const {
  static const std::vector<EdgeId> kEmpty;
  auto it = index_.fits_by_depth_sibling.find(key);
  return it == index_.fits_by_depth_sibling.end() ? kEmpty : it->second;
}

namespace {

/// Epoch-marked traversal scratch for CollectBackwardRelevantEdges.
/// Thread-local (not a History member) so concurrent planning sessions —
/// which reach the traversal under the catalog lock's *reader* side —
/// never share or race on it, and History stays freely movable. Sharing
/// one scratch across History objects on a thread is safe: cells are
/// valid only while they hold the thread's current epoch.
struct MarkScratch {
  std::vector<uint32_t> node_mark;
  std::vector<uint32_t> edge_mark;
  uint32_t epoch = 0;
};

}  // namespace

std::vector<EdgeId> History::CollectBackwardRelevantEdges(
    const std::vector<NodeId>& matched) const {
  static thread_local MarkScratch scratch;
  const Hypergraph& hg = graph_.hypergraph();
  std::vector<uint32_t>& node_mark = scratch.node_mark;
  std::vector<uint32_t>& edge_mark = scratch.edge_mark;
  node_mark.resize(static_cast<size_t>(hg.num_nodes()), 0);
  edge_mark.resize(static_cast<size_t>(hg.num_edge_slots()), 0);
  if (++scratch.epoch == 0) {
    // Epoch wrapped: stale cells could alias the new epoch, so pay one
    // full clear every 2^32 calls.
    std::fill(node_mark.begin(), node_mark.end(), 0u);
    std::fill(edge_mark.begin(), edge_mark.end(), 0u);
    scratch.epoch = 1;
  }
  const uint32_t epoch = scratch.epoch;
  std::vector<NodeId> stack;
  std::vector<EdgeId> out;
  for (NodeId v : matched) {
    if (hg.IsValidNode(v) && node_mark[static_cast<size_t>(v)] != epoch) {
      node_mark[static_cast<size_t>(v)] = epoch;
      stack.push_back(v);
    }
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (EdgeId e : hg.bstar(v)) {
      if (!hg.IsLiveEdge(e) || edge_mark[static_cast<size_t>(e)] == epoch) {
        continue;
      }
      edge_mark[static_cast<size_t>(e)] = epoch;
      out.push_back(e);
      for (NodeId t : hg.edge(e).tail) {
        if (node_mark[static_cast<size_t>(t)] != epoch) {
          node_mark[static_cast<size_t>(t)] = epoch;
          stack.push_back(t);
        }
      }
    }
  }
  // Ascending edge order keeps downstream splicing deterministic and
  // byte-identical to the historical full-scan path.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> History::MaterializedArtifacts() const {
  return {index_.materialized.begin(), index_.materialized.end()};
}

int64_t History::MaterializedBytes() const {
  int64_t bytes = 0;
  for (NodeId v : index_.materialized) {
    bytes += graph_.artifact(v).size_bytes;
  }
  return bytes;
}

double History::ObservedTaskSeconds(EdgeId edge, double fallback) const {
  if (static_cast<size_t>(edge) >= edge_stats_.size()) {
    return fallback;
  }
  const EdgeStats& stats = edge_stats_[static_cast<size_t>(edge)];
  if (stats.count == 0) {
    return fallback;
  }
  return stats.total_seconds / static_cast<double>(stats.count);
}

bool History::HasTaskObservation(EdgeId edge) const {
  return static_cast<size_t>(edge) < edge_stats_.size() &&
         edge_stats_[static_cast<size_t>(edge)].count > 0;
}

std::pair<double, int64_t> History::TaskObservation(EdgeId edge) const {
  if (static_cast<size_t>(edge) >= edge_stats_.size()) {
    return {0.0, 0};
  }
  const EdgeStats& stats = edge_stats_[static_cast<size_t>(edge)];
  return {stats.total_seconds, stats.count};
}

void History::SetTaskObservation(EdgeId edge, double total_seconds,
                                 int64_t count) {
  EdgeStats& stats = edge_stats_[static_cast<size_t>(edge)];
  stats.total_seconds = total_seconds;
  stats.count = count;
  MarkTaskChanged(edge);
}

Result<History::CompactionStats> History::Compact(
    const CompactionOptions& options) {
  CompactionStats stats;
  stats.nodes_before = num_artifacts();
  stats.nodes_after = stats.nodes_before;
  if (options.max_nodes <= 0 || num_artifacts() <= options.max_nodes) {
    return stats;
  }
  const double fraction =
      std::min(1.0, std::max(0.0, options.retain_fraction));
  const int32_t target = std::max(
      1, static_cast<int32_t>(static_cast<double>(options.max_nodes) *
                              fraction));

  // Partition non-source nodes into protected (data sources and
  // materialized artifacts survive unconditionally: they back load edges
  // the store still honours) and eviction candidates.
  std::vector<NodeId> kept;
  std::vector<NodeId> candidates;
  for (NodeId v = 1; v < graph_.num_artifacts(); ++v) {
    if (IsSourceData(v) || record(v).materialized) {
      kept.push_back(v);
    } else {
      candidates.push_back(v);
    }
  }

  const int32_t slots =
      std::max(0, target - static_cast<int32_t>(kept.size()));
  if (static_cast<int32_t>(candidates.size()) > slots) {
    // Pareto retention over (reuse count, observed compute seconds,
    // recency). Exact skylines are O(n^2); instead retain the frontier's
    // per-criterion extreme points (top-K anchors, K = slots/8) and fill
    // the remaining slots by a max-normalised scalarized score — every
    // per-criterion maximum is provably retained, the rest approximates
    // the dominated-volume order.
    struct Scored {
      NodeId node;
      double access = 0.0;
      double compute = 0.0;
      double recency = 0.0;
      double combined = 0.0;
    };
    // Recency is the dense rank of a candidate's last access among the
    // accessed candidates' distinct access times, over their count: the
    // latest scores 1 and never-accessed candidates 0. A rank, unlike an
    // age, does not depend on the unit of the clock.
    std::vector<double> access_times;
    for (NodeId v : candidates) {
      if (record(v).access_count > 0) {
        access_times.push_back(record(v).last_access_seconds);
      }
    }
    std::sort(access_times.begin(), access_times.end());
    access_times.erase(std::unique(access_times.begin(), access_times.end()),
                       access_times.end());
    std::vector<Scored> scored;
    scored.reserve(candidates.size());
    double max_access = 0.0, max_compute = 0.0, max_recency = 0.0;
    for (NodeId v : candidates) {
      const ArtifactRecord& rec = record(v);
      Scored s;
      s.node = v;
      s.access = static_cast<double>(rec.access_count);
      s.compute = rec.compute_seconds;
      if (rec.access_count > 0) {
        const auto rank = std::lower_bound(access_times.begin(),
                                           access_times.end(),
                                           rec.last_access_seconds) -
                          access_times.begin() + 1;
        s.recency = static_cast<double>(rank) /
                    static_cast<double>(access_times.size());
      }
      max_access = std::max(max_access, s.access);
      max_compute = std::max(max_compute, s.compute);
      max_recency = std::max(max_recency, s.recency);
      scored.push_back(s);
    }
    for (Scored& s : scored) {
      s.combined = (max_access > 0.0 ? s.access / max_access : 0.0) +
                   (max_compute > 0.0 ? s.compute / max_compute : 0.0) +
                   (max_recency > 0.0 ? s.recency / max_recency : 0.0);
    }
    const int32_t anchors = std::max(1, slots / 8);
    std::vector<char> retained(scored.size(), 0);
    int32_t retained_count = 0;
    auto retain_top = [&](auto key) {
      std::vector<size_t> order(scored.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const double ka = key(scored[a]);
        const double kb = key(scored[b]);
        if (ka != kb) return ka > kb;
        // Canonical names are the stable identity across rebuilds; node
        // ids are not (they are re-assigned below).
        return graph_.artifact(scored[a].node).name <
               graph_.artifact(scored[b].node).name;
      });
      int32_t taken = 0;
      for (size_t i : order) {
        if (taken >= anchors || retained_count >= slots) break;
        ++taken;
        if (!retained[i]) {
          retained[i] = 1;
          ++retained_count;
        }
      }
    };
    retain_top([](const Scored& s) { return s.access; });
    retain_top([](const Scored& s) { return s.compute; });
    retain_top([](const Scored& s) { return s.recency; });
    std::vector<size_t> order(scored.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (scored[a].combined != scored[b].combined) {
        return scored[a].combined > scored[b].combined;
      }
      return graph_.artifact(scored[a].node).name <
             graph_.artifact(scored[b].node).name;
    });
    for (size_t i : order) {
      if (retained_count >= slots) break;
      if (!retained[i]) {
        retained[i] = 1;
        ++retained_count;
      }
    }
    for (size_t i = 0; i < scored.size(); ++i) {
      if (retained[i]) {
        kept.push_back(scored[i].node);
      }
    }
  } else {
    kept.insert(kept.end(), candidates.begin(), candidates.end());
  }
  std::sort(kept.begin(), kept.end());

  // Rebuild a fresh history from the retained nodes; hypergraph node and
  // edge slots cannot be reclaimed in place (the structure is
  // append-only), so the survivors are replayed through the public
  // mutators — which also rebuilds the index from scratch.
  const int32_t edges_before = graph_.num_tasks();
  History fresh;
  std::vector<NodeId> to_fresh(static_cast<size_t>(graph_.num_artifacts()),
                               kInvalidNode);
  to_fresh[static_cast<size_t>(graph_.source())] = fresh.graph_.source();
  for (NodeId v : kept) {
    HYPPO_ASSIGN_OR_RETURN(const NodeId nv,
                           fresh.RestoreArtifact(graph_.artifact(v),
                                                 record(v)));
    to_fresh[static_cast<size_t>(v)] = nv;
    if (record(v).materialized && !IsSourceData(v)) {
      HYPPO_RETURN_NOT_OK(fresh.MarkMaterialized(nv));
    }
  }
  for (EdgeId e : graph_.hypergraph().LiveEdges()) {
    if (graph_.task(e).type == TaskType::kLoad) {
      continue;  // load edges were re-derived from materialization state
    }
    bool alive = true;
    std::vector<NodeId> tails;
    std::vector<NodeId> heads;
    for (NodeId t : graph_.ordered_tail(e)) {
      const NodeId nt = to_fresh[static_cast<size_t>(t)];
      if (nt == kInvalidNode) {
        alive = false;
        break;
      }
      tails.push_back(nt);
    }
    if (alive) {
      for (NodeId h : graph_.ordered_head(e)) {
        const NodeId nh = to_fresh[static_cast<size_t>(h)];
        if (nh == kInvalidNode) {
          alive = false;
          break;
        }
        heads.push_back(nh);
      }
    }
    if (!alive) {
      continue;  // an endpoint was evicted; the derivation goes with it
    }
    HYPPO_ASSIGN_OR_RETURN(
        const EdgeId ne,
        fresh.ObserveTask(graph_.task(e), tails, heads, /*seconds=*/-1.0));
    fresh.edge_stats_[static_cast<size_t>(ne)] =
        edge_stats_[static_cast<size_t>(e)];
  }
  stats.nodes_after = fresh.num_artifacts();
  stats.nodes_dropped = stats.nodes_before - stats.nodes_after;
  stats.edges_dropped = edges_before - fresh.graph_.num_tasks();
  *this = std::move(fresh);
  journal_.rebuilt = true;
  return stats;
}

}  // namespace hyppo::core
