// Tests for the indexed equivalence-lookup layer (core/history.h's
// HistoryIndex), Pareto history compaction, and the indexed augmenter:
//  - index/graph consistency under randomized mutation interleavings,
//    checked by Verifier::CheckHistoryIndex;
//  - the indexed augmentation path is byte-for-byte equivalent to the
//    reference scan path kept in tests/augmenter_scan_oracle.h;
//  - compaction protects sources/materialized artifacts, keeps the
//    per-criterion Pareto anchors, and never leaves a plan worse than
//    executing the pipeline as written;
//  - end-to-end: runtimes planning from the indexed augmenter and from the
//    scan oracle execute byte-identical payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "analysis/verifier.h"
#include "augmenter_scan_oracle.h"
#include "core/augmenter.h"
#include "core/derive.h"
#include "core/history_io.h"
#include "core/hyppo.h"
#include "core/pipeline_builder.h"
#include "storage/serialization.h"
#include "workload/datagen.h"

namespace hyppo::core {
namespace {

using analysis::AnalysisReport;
using analysis::Verifier;
using oracle::ScanAugmenter;
using oracle::ScanRelevantEdges;

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

// data -> split -> scaler fit/transforms -> tree fit -> predict -> eval.
Result<Pipeline> BuildPipeline(const std::string& id,
                               const std::string& scaler_impl,
                               int max_depth = 4) {
  PipelineBuilder builder(id);
  HYPPO_ASSIGN_OR_RETURN(NodeId data,
                         builder.LoadDataset("idx-unit", 2000, 8));
  HYPPO_ASSIGN_OR_RETURN(auto split, builder.Split(data));
  HYPPO_ASSIGN_OR_RETURN(NodeId scaler,
                         builder.Fit("StandardScaler", scaler_impl,
                                     split.first));
  HYPPO_ASSIGN_OR_RETURN(NodeId train_s,
                         builder.Transform(scaler, split.first));
  HYPPO_ASSIGN_OR_RETURN(NodeId test_s,
                         builder.Transform(scaler, split.second));
  ml::Config config;
  config.SetInt("max_depth", max_depth);
  HYPPO_ASSIGN_OR_RETURN(
      NodeId model,
      builder.Fit("DecisionTreeClassifier", "skl.DecisionTreeClassifier",
                  train_s, config));
  HYPPO_ASSIGN_OR_RETURN(NodeId preds, builder.Predict(model, test_s));
  HYPPO_RETURN_NOT_OK(builder.Evaluate(preds, test_s, "accuracy").status());
  return std::move(builder).Build();
}

// Records the full pipeline structure (and fake observations) into the
// history, as the runtime would after execution.
void RecordIntoHistory(History& history, const Pipeline& pipeline,
                       double task_seconds) {
  std::map<NodeId, NodeId> to_history;
  for (NodeId v = 1; v < pipeline.graph.num_artifacts(); ++v) {
    to_history[v] = history.Observe(pipeline.graph.artifact(v));
    if (pipeline.graph.artifact(v).kind == ArtifactKind::kRaw) {
      history.RegisterSourceData(to_history[v]).ValueOrDie();
    }
  }
  for (EdgeId e : pipeline.graph.hypergraph().LiveEdges()) {
    const TaskInfo& task = pipeline.graph.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    std::vector<NodeId> tails;
    for (NodeId t : pipeline.graph.ordered_tail(e)) {
      if (t != pipeline.graph.source()) {
        tails.push_back(to_history[t]);
      }
    }
    std::vector<NodeId> heads;
    for (NodeId h : pipeline.graph.ordered_head(e)) {
      heads.push_back(to_history[h]);
      history.RecordComputeSeconds(to_history[h], task_seconds);
    }
    history.ObserveTask(task, tails, heads, task_seconds).ValueOrDie();
  }
}

// ---------------------------------------------------------------------------
// Index consistency.

TEST(HistoryIndexTest, FreshHistoryIndexesSourceNode) {
  History history;
  const std::string& source_name =
      history.graph().artifact(history.graph().source()).name;
  ASSERT_TRUE(history.FindArtifact(source_name).ok());
  EXPECT_EQ(*history.FindArtifact(source_name), history.graph().source());
  EXPECT_TRUE(history.FindArtifact("nope").status().IsNotFound());
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(HistoryIndexTest, IndexedLookupsMatchGraphScans) {
  History history;
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");
  RecordIntoHistory(history, pipeline, 0.5);
  const PipelineGraph& graph = history.graph();

  for (NodeId v = 0; v < graph.num_artifacts(); ++v) {
    const std::string& name = graph.artifact(v).name;
    ASSERT_TRUE(history.FindArtifact(name).ok()) << name;
    EXPECT_EQ(*history.FindArtifact(name), *graph.FindArtifact(name));
  }
  for (EdgeId e : graph.hypergraph().LiveEdges()) {
    const TaskInfo& task = graph.task(e);
    const std::string signature = graph.TaskSignature(e);
    if (task.type == TaskType::kLoad) {
      EXPECT_FALSE(history.HasTaskSignature(signature));
      continue;
    }
    EXPECT_TRUE(history.HasTaskSignature(signature)) << signature;
  }
  EXPECT_FALSE(history.HasTaskSignature("not|a|signature"));
}

TEST(HistoryIndexTest, BackwardRelevantEdgesMatchScanClosure) {
  History history;
  Pipeline p1 = *BuildPipeline("p1", "skl.StandardScaler");
  Pipeline p2 = *BuildPipeline("p2", "tfl.StandardScaler");
  RecordIntoHistory(history, p1, 0.5);
  RecordIntoHistory(history, p2, 0.25);

  // Every single-node seed and the all-nodes seed agree with the scan,
  // and the output is ascending (splice-order determinism).
  std::vector<NodeId> all;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    all.push_back(v);
    const std::vector<EdgeId> indexed =
        history.CollectBackwardRelevantEdges({v});
    EXPECT_EQ(indexed, ScanRelevantEdges(history, {v})) << "node " << v;
    EXPECT_TRUE(std::is_sorted(indexed.begin(), indexed.end()));
  }
  EXPECT_EQ(history.CollectBackwardRelevantEdges(all),
            ScanRelevantEdges(history, all));

  // Still equal after edge removals (dead edges must not resurface).
  NodeId state = kInvalidNode;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    if (history.graph().artifact(v).kind == ArtifactKind::kOpState) {
      state = v;
    }
  }
  ASSERT_NE(state, kInvalidNode);
  ASSERT_TRUE(history.MarkMaterialized(state).ok());
  ASSERT_TRUE(history.EvictMaterialized(state).ok());
  EXPECT_EQ(history.CollectBackwardRelevantEdges(all),
            ScanRelevantEdges(history, all));
}

TEST(HistoryIndexTest, RandomizedMutationsKeepIndexConsistent) {
  const Verifier verifier;
  for (uint64_t seed : {7u, 19u, 83u}) {
    std::mt19937_64 rng(seed);
    History history;
    std::vector<NodeId> nodes;  // non-source artifacts, by creation order
    int name_counter = 0;
    const char* ops[] = {"OpA", "OpB", "OpC"};

    auto random_node = [&]() {
      return nodes[rng() % nodes.size()];
    };

    for (int step = 0; step < 300; ++step) {
      const uint64_t action = rng() % 10;
      if (action < 3 || nodes.empty()) {
        // New artifact (occasionally a raw source).
        const bool raw = rng() % 8 == 0;
        const NodeId v = history.Observe(MakeArtifact(
            "art" + std::to_string(name_counter++),
            raw ? ArtifactKind::kRaw : ArtifactKind::kData,
            static_cast<int64_t>(64 + rng() % 4096)));
        if (raw) {
          history.RegisterSourceData(v).ValueOrDie();
        }
        nodes.push_back(v);
      } else if (action < 5) {
        // New derivation: tails from existing nodes, a fresh head keeps
        // the graph acyclic by construction.
        std::vector<NodeId> tails = {random_node()};
        if (rng() % 2 == 0) {
          tails.push_back(random_node());
        }
        std::sort(tails.begin(), tails.end());
        tails.erase(std::unique(tails.begin(), tails.end()), tails.end());
        const NodeId head = history.Observe(MakeArtifact(
            "art" + std::to_string(name_counter++), ArtifactKind::kData,
            256));
        const TaskInfo task =
            MakeTask(ops[rng() % 3], TaskType::kTransform,
                     "synthetic.Impl" + std::to_string(rng() % 2));
        history.ObserveTask(task, tails, {head},
                            static_cast<double>(rng() % 5)).ValueOrDie();
        nodes.push_back(head);
      } else if (action < 6) {
        (void)history.MarkMaterialized(random_node());
      } else if (action < 7) {
        (void)history.EvictMaterialized(random_node());  // may fail: fine
      } else if (action < 9) {
        history.RecordAccess(random_node(), static_cast<double>(step));
        history.RecordComputeSeconds(random_node(),
                                     static_cast<double>(rng() % 7));
      } else if (history.num_artifacts() > 12) {
        History::CompactionOptions copts;
        copts.max_nodes = history.num_artifacts() / 2;
        copts.retain_fraction = 0.75;
        ASSERT_TRUE(history.Compact(copts).ok());
        // Node ids were reassigned: rebuild the handle list.
        nodes.clear();
        for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
          nodes.push_back(v);
        }
      }
      if (step % 25 == 0) {
        const AnalysisReport report = verifier.CheckHistoryIndex(history);
        ASSERT_TRUE(report.ok())
            << "seed " << seed << " step " << step << ": "
            << report.ToString();
      }
    }
    const AnalysisReport report = verifier.CheckHistoryIndex(history);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.ToString();
    // MaterializedArtifacts (served from the index) agrees with the flags.
    std::vector<NodeId> expected;
    for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
      if (history.record(v).materialized && !history.IsSourceData(v)) {
        expected.push_back(v);
      }
    }
    EXPECT_EQ(history.MaterializedArtifacts(), expected);
  }
}

TEST(HistoryIndexTest, SerializationRoundTripRebuildsIndex) {
  History history;
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");
  RecordIntoHistory(history, pipeline, 0.5);
  NodeId state = kInvalidNode;
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    if (history.graph().artifact(v).kind == ArtifactKind::kOpState) {
      state = v;
    }
  }
  ASSERT_NE(state, kInvalidNode);
  ASSERT_TRUE(history.MarkMaterialized(state).ok());

  const Result<std::string> bytes = SerializeHistory(history);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  Result<History> restored = DeserializeHistory(*bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(*restored);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(restored->MaterializedArtifacts().size(), 1u);
}

// ---------------------------------------------------------------------------
// Verifier::CheckHistoryIndex corruption detection (the graph() backdoor
// mirrors the analysis corruption fixtures).

TEST(VerifierIndexTest, GraphBackdoorArtifactDesyncsIndex) {
  History history;
  history.Observe(MakeArtifact("a", ArtifactKind::kData, 64));
  ArtifactInfo rogue = MakeArtifact("rogue", ArtifactKind::kData, 64);
  history.graph().AddArtifact(rogue).ValueOrDie();
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.HasCheck("index.artifact-missing")) << report.ToString();
  EXPECT_TRUE(report.HasCheck("index.artifact-count"));
}

TEST(VerifierIndexTest, RecordsShorterThanGraphDetected) {
  // A node slipped into the graph behind the History mutators (the
  // signature of an unsynchronized writer racing readers) leaves the
  // statistics-record vector short. The verifier must flag the gap
  // explicitly instead of silently clamping the materialized sweep.
  History history;
  history.Observe(MakeArtifact("a", ArtifactKind::kData, 64));
  const Verifier verifier;
  EXPECT_FALSE(
      verifier.CheckHistoryIndex(history).HasCheck("index.records-short"));
  ArtifactInfo rogue = MakeArtifact("rogue", ArtifactKind::kData, 64);
  history.graph().AddArtifact(rogue).ValueOrDie();
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.HasCheck("index.records-short")) << report.ToString();
}

TEST(VerifierIndexTest, GraphBackdoorTaskDesyncsIndex) {
  History history;
  const NodeId a = history.Observe(MakeArtifact("a", ArtifactKind::kData, 64));
  const NodeId b = history.Observe(MakeArtifact("b", ArtifactKind::kData, 64));
  history.graph()
      .AddTask(MakeTask("Op", TaskType::kTransform, "skl.Op"), {a}, {b})
      .ValueOrDie();
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.HasCheck("index.task-missing")) << report.ToString();
  EXPECT_TRUE(report.HasCheck("index.task-count"));
}

TEST(VerifierIndexTest, GraphBackdoorFitDesyncsSiblingIndex) {
  History history;
  const NodeId a = history.Observe(MakeArtifact("a", ArtifactKind::kTrain, 64));
  const NodeId b =
      history.Observe(MakeArtifact("b", ArtifactKind::kOpState, 64));
  const NodeId c =
      history.Observe(MakeArtifact("c", ArtifactKind::kOpState, 64));
  TaskInfo fit = MakeTask("RandomForestRegressor", TaskType::kFit,
                          "skl.RandomForestRegressor");
  fit.config.SetInt("max_depth", 8);
  const EdgeId indexed = history.ObserveTask(fit, {a}, {b}, 0.5).ValueOrDie();
  const Verifier verifier;
  EXPECT_TRUE(verifier.CheckHistoryIndex(history).ok());
  DepthSibling sibling;
  ASSERT_TRUE(FindDepthSibling(history.graph(), indexed, &sibling));
  EXPECT_EQ(history.DepthSiblings(sibling.key), std::vector<EdgeId>{indexed});

  // A sibling fit behind the index's back, and an indexed fit whose
  // config (so its key) changed.
  fit.config.SetInt("max_depth", 4);
  history.graph().AddTask(fit, {a}, {c}).ValueOrDie();
  history.graph().task(indexed).config.SetInt("seed", 9);
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.HasCheck("index.sibling-missing")) << report.ToString();
  EXPECT_TRUE(report.HasCheck("index.sibling-mismatch"));
}

TEST(VerifierIndexTest, MaterializedFlagDriftDetected) {
  History history;
  const NodeId a = history.Observe(MakeArtifact("a", ArtifactKind::kData, 64));
  history.record_for_testing(a).materialized = true;  // behind the index's back
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.HasCheck("index.materialized-drift"))
      << report.ToString();
}

TEST(VerifierIndexTest, VerifyHistoryIncludesIndexChecks) {
  History history;
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");
  RecordIntoHistory(history, pipeline, 0.5);
  const Verifier verifier;
  EXPECT_TRUE(verifier.VerifyHistory(history).ok());
  ArtifactInfo rogue = MakeArtifact("feedfacefeedface", ArtifactKind::kData,
                                    64);
  history.graph().AddArtifact(rogue).ValueOrDie();
  const AnalysisReport report = verifier.VerifyHistory(history);
  EXPECT_TRUE(report.HasCheck("index.artifact-missing")) << report.ToString();
  // The rogue artifact has no statistics record, so serialization refuses
  // the history rather than reading past the records.
  EXPECT_TRUE(report.HasCheck("history.roundtrip")) << report.ToString();
}

// ---------------------------------------------------------------------------
// Pareto compaction.

TEST(HistoryCompactionTest, NoOpWhileUnderTheLimit) {
  History history;
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");
  RecordIntoHistory(history, pipeline, 0.5);
  const int32_t before = history.num_artifacts();
  History::CompactionOptions copts;
  copts.max_nodes = before + 10;
  const auto stats = history.Compact(copts);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nodes_dropped, 0);
  EXPECT_EQ(history.num_artifacts(), before);
  History::CompactionOptions disabled;  // max_nodes = 0
  EXPECT_EQ(history.Compact(disabled)->nodes_dropped, 0);
}

TEST(HistoryCompactionTest, ProtectsSourcesAndMaterializedArtifacts) {
  History history;
  const NodeId raw =
      history.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 4096));
  history.RegisterSourceData(raw).ValueOrDie();
  const NodeId pinned =
      history.Observe(MakeArtifact("pinned", ArtifactKind::kOpState, 64));
  history.ObserveTask(MakeTask("P", TaskType::kFit, "skl.P"), {raw},
                      {pinned}, 1.0)
      .ValueOrDie();
  ASSERT_TRUE(history.MarkMaterialized(pinned).ok());
  for (int i = 0; i < 30; ++i) {
    const NodeId v = history.Observe(MakeArtifact(
        "filler" + std::to_string(i), ArtifactKind::kData, 128));
    history.ObserveTask(MakeTask("F", TaskType::kTransform, "skl.F"), {raw},
                        {v}, 0.1)
        .ValueOrDie();
  }

  History::CompactionOptions copts;
  copts.max_nodes = 8;
  copts.retain_fraction = 0.75;
  const auto stats = history.Compact(copts);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->nodes_before, 32);
  EXPECT_GT(stats->nodes_dropped, 0);
  EXPECT_EQ(stats->nodes_before - stats->nodes_dropped, stats->nodes_after);
  EXPECT_LE(history.num_artifacts(), 8);
  // The protected nodes survived, with statistics and materialization.
  ASSERT_TRUE(history.FindArtifact("raw").ok());
  ASSERT_TRUE(history.FindArtifact("pinned").ok());
  const NodeId new_pinned = *history.FindArtifact("pinned");
  EXPECT_TRUE(history.IsMaterialized(new_pinned));
  // The pinned artifact's producing derivation survived with it.
  const std::vector<EdgeId> live = history.graph().hypergraph().LiveEdges();
  EXPECT_EQ(std::count_if(live.begin(), live.end(),
                          [&](EdgeId e) {
                            return history.graph().task(e).logical_op == "P";
                          }),
            1);
  const Verifier verifier;
  const AnalysisReport report = verifier.CheckHistoryIndex(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(HistoryCompactionTest, KeepsPerCriterionParetoAnchors) {
  History history;
  const NodeId raw =
      history.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 4096));
  history.RegisterSourceData(raw).ValueOrDie();
  auto derive = [&](const std::string& name) {
    const NodeId v =
        history.Observe(MakeArtifact(name, ArtifactKind::kData, 128));
    history.ObserveTask(MakeTask("D", TaskType::kTransform, "skl." + name),
                        {raw}, {v}, 0.1)
        .ValueOrDie();
    return v;
  };
  const NodeId hot = derive("hot");  // anchor: reuse count
  for (int i = 0; i < 50; ++i) {
    history.RecordAccess(hot, 1.0);
  }
  const NodeId costly = derive("costly");  // anchor: compute seconds
  history.RecordComputeSeconds(costly, 500.0);
  const NodeId recent = derive("recent");  // anchor: recency
  history.RecordAccess(recent, 99.0);
  for (int i = 0; i < 40; ++i) {
    derive("cold" + std::to_string(i));  // never accessed, cheap
  }

  History::CompactionOptions copts;
  copts.max_nodes = 20;
  copts.retain_fraction = 0.75;
  ASSERT_TRUE(history.Compact(copts).ok());
  // Every per-criterion extreme point survives compaction.
  EXPECT_TRUE(history.FindArtifact("hot").ok());
  EXPECT_TRUE(history.FindArtifact("costly").ok());
  EXPECT_TRUE(history.FindArtifact("recent").ok());
  EXPECT_LE(history.num_artifacts(), 15);  // 20 * 0.75
}

// Which candidates survive must not depend on the unit of the clock that
// stamps accesses: scaling every access time by 7 keeps the same set. "a"
// has more accesses, "b" a later one; one slot is left for them after the
// per-criterion anchors, and an age-based recency (1 / (1 + age)) hands it
// to "b" at one scale and to "a" at the other.
TEST(HistoryCompactionTest, RetentionIgnoresTheClockUnit) {
  auto retained = [](double scale) {
    History history;
    const NodeId raw =
        history.Observe(MakeArtifact("raw", ArtifactKind::kRaw, 4096));
    history.RegisterSourceData(raw).ValueOrDie();
    auto derive = [&](const std::string& name) {
      const NodeId v =
          history.Observe(MakeArtifact(name, ArtifactKind::kData, 128));
      history.ObserveTask(MakeTask("D", TaskType::kTransform, "skl." + name),
                          {raw}, {v}, 0.1)
          .ValueOrDie();
      return v;
    };
    const NodeId hot = derive("hot");
    for (int i = 0; i < 4; ++i) {
      history.RecordAccess(hot, 5.0 * scale);
    }
    history.RecordComputeSeconds(derive("costly"), 500.0);
    history.RecordAccess(derive("recent"), 10.0 * scale);
    const NodeId a = derive("a");
    history.RecordAccess(a, 0.0);
    history.RecordAccess(a, 0.0);
    history.RecordAccess(derive("b"), 9.0 * scale);
    for (int i = 0; i < 10; ++i) {
      derive("cold" + std::to_string(i));
    }
    History::CompactionOptions copts;
    copts.max_nodes = 5;  // raw + the three anchors + one of {a, b}
    copts.retain_fraction = 1.0;
    EXPECT_TRUE(history.Compact(copts).ok());
    std::set<std::string> names;
    for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
      names.insert(history.graph().artifact(v).name);
    }
    return names;
  };
  const std::set<std::string> unit = retained(1.0);
  EXPECT_EQ(unit.size(), 5u);
  EXPECT_EQ(unit.count("b"), 1u);
  EXPECT_EQ(retained(7.0), unit);
}

TEST(HistoryCompactionTest, CompactedHistoryVerifiesClean) {
  History history;
  Pipeline p1 = *BuildPipeline("p1", "skl.StandardScaler");
  Pipeline p2 = *BuildPipeline("p2", "tfl.StandardScaler");
  RecordIntoHistory(history, p1, 0.5);
  RecordIntoHistory(history, p2, 0.25);
  for (NodeId v = 1; v < history.graph().num_artifacts(); ++v) {
    history.RecordAccess(v, static_cast<double>(v));
    if (history.graph().artifact(v).kind == ArtifactKind::kOpState) {
      ASSERT_TRUE(history.MarkMaterialized(v).ok());
    }
  }
  History::CompactionOptions copts;
  copts.max_nodes = history.num_artifacts() - 2;
  copts.retain_fraction = 0.8;
  const auto stats = history.Compact(copts);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->nodes_dropped, 0);
  // The full invariant battery (graph, name closure, statistics, index,
  // serialization round-trip) holds on the compacted history.
  const Verifier verifier;
  const AnalysisReport report = verifier.VerifyHistory(history);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(HistoryCompactionTest, PlanNoWorseThanPipelineAsWritten) {
  Dictionary dictionary =
      Dictionary::FromRegistry(ml::OperatorRegistry::Global());
  CostEstimator estimator;
  Augmenter augmenter(&dictionary, &estimator);
  History history;
  Pipeline p1 = *BuildPipeline("p1", "skl.StandardScaler");
  Pipeline p2 = *BuildPipeline("p2", "tfl.StandardScaler");
  RecordIntoHistory(history, p1, 0.5);
  RecordIntoHistory(history, p2, 0.25);
  History::CompactionOptions copts;
  copts.max_nodes = 6;
  copts.retain_fraction = 0.5;
  ASSERT_TRUE(history.Compact(copts).ok());

  // A heavily compacted history can lose splice opportunities, but the
  // optimum over the augmentation is still bounded by the cost of the
  // pipeline exactly as written (the pipeline is a subhypergraph of A).
  Augmenter::Options options;
  auto aug = augmenter.Augment(p1, history, options);
  ASSERT_TRUE(aug.ok()) << aug.status();
  std::map<std::string, double> weight_by_signature;
  for (EdgeId e : aug->graph.hypergraph().LiveEdges()) {
    weight_by_signature[aug->graph.TaskSignature(e)] =
        aug->edge_weight[static_cast<size_t>(e)];
  }
  double as_written = 0.0;
  for (EdgeId e : p1.graph.hypergraph().LiveEdges()) {
    const auto it = weight_by_signature.find(p1.graph.TaskSignature(e));
    ASSERT_NE(it, weight_by_signature.end());
    as_written += it->second;
  }
  PlanGenerator generator;
  auto plan = generator.Optimize(*aug, PlanGenerator::Options());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_LE(plan->cost, as_written + 1e-9);
}

// ---------------------------------------------------------------------------
// Indexed vs scan augmentation differential.

struct AugFingerprint {
  std::map<std::string, std::pair<double, double>> edges;  // sig -> (w, s)
  std::set<std::string> new_tasks;
  std::vector<std::string> targets;
};

AugFingerprint Fingerprint(const Augmentation& aug) {
  AugFingerprint fp;
  for (EdgeId e : aug.graph.hypergraph().LiveEdges()) {
    fp.edges[aug.graph.TaskSignature(e)] = {
        aug.edge_weight[static_cast<size_t>(e)],
        aug.edge_seconds[static_cast<size_t>(e)]};
  }
  for (EdgeId e : aug.new_tasks) {
    fp.new_tasks.insert(aug.graph.TaskSignature(e));
  }
  for (NodeId t : aug.targets) {
    fp.targets.push_back(aug.graph.artifact(t).name);
  }
  return fp;
}

class AugmenterIndexDifferentialTest : public ::testing::Test {
 protected:
  AugmenterIndexDifferentialTest()
      : dictionary_(Dictionary::FromRegistry(ml::OperatorRegistry::Global())),
        augmenter_(&dictionary_, &estimator_),
        scan_(&dictionary_, &augmenter_) {}

  // Warm history: two equivalent pipeline variants, a deeper tree on the
  // same input, plus one materialized intermediate, so every augmentation
  // mechanism (splice, load edges, dictionary alternatives, derive edges
  // from a deeper sibling) is exercised.
  void WarmHistory() {
    Pipeline p1 = *BuildPipeline("p1", "skl.StandardScaler");
    Pipeline p2 = *BuildPipeline("p2", "tfl.StandardScaler");
    Pipeline deeper = *BuildPipeline("p3", "skl.StandardScaler", 8);
    RecordIntoHistory(history_, p1, 0.5);
    RecordIntoHistory(history_, p2, 0.25);
    RecordIntoHistory(history_, deeper, 0.75);
    for (NodeId v = 1; v < history_.graph().num_artifacts(); ++v) {
      if (history_.graph().artifact(v).kind == ArtifactKind::kOpState) {
        ASSERT_TRUE(history_.MarkMaterialized(v).ok());
        return;
      }
    }
  }

  Dictionary dictionary_;
  CostEstimator estimator_;
  Augmenter augmenter_;
  ScanAugmenter scan_;
  History history_;
};

TEST_F(AugmenterIndexDifferentialTest, IndexedAndScanAugmentationsIdentical) {
  WarmHistory();
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");

  // Without dictionary alternatives, p2's tfl scaler chain reaches the
  // augmentation only through the history splice.
  for (const bool use_equivalences : {true, false}) {
    SCOPED_TRACE(use_equivalences ? "with equivalences" : "history only");
    Augmenter::Options options;
    options.use_equivalences = use_equivalences;
    auto aug_indexed = augmenter_.Augment(pipeline, history_, options);
    ASSERT_TRUE(aug_indexed.ok()) << aug_indexed.status();
    auto aug_scan = scan_.Augment(pipeline, history_, options);
    ASSERT_TRUE(aug_scan.ok()) << aug_scan.status();

    const AugFingerprint fi = Fingerprint(*aug_indexed);
    const AugFingerprint fs = Fingerprint(*aug_scan);
    EXPECT_EQ(fi.edges, fs.edges);
    EXPECT_EQ(fi.new_tasks, fs.new_tasks);
    EXPECT_EQ(fi.targets, fs.targets);
    int64_t derives = 0;
    for (EdgeId e : aug_indexed->graph.hypergraph().LiveEdges()) {
      derives += aug_indexed->graph.task(e).type == TaskType::kDerive ? 1 : 0;
    }
    EXPECT_EQ(derives, use_equivalences ? 1 : 0);

    // Identical augmentations => cost-identical optimal plans.
    PlanGenerator generator;
    auto plan_indexed =
        generator.Optimize(*aug_indexed, PlanGenerator::Options());
    auto plan_scan = generator.Optimize(*aug_scan, PlanGenerator::Options());
    ASSERT_TRUE(plan_indexed.ok()) << plan_indexed.status();
    ASSERT_TRUE(plan_scan.ok()) << plan_scan.status();
    EXPECT_NEAR(plan_indexed->cost, plan_scan->cost, 1e-12);
  }
}

TEST_F(AugmenterIndexDifferentialTest, RetrievalAugmentationsIdentical) {
  WarmHistory();
  // Request every non-raw artifact the history knows, one at a time.
  std::vector<std::string> names;
  for (NodeId v = 1; v < history_.graph().num_artifacts(); ++v) {
    if (!history_.IsSourceData(v)) {
      names.push_back(history_.graph().artifact(v).name);
    }
  }
  ASSERT_FALSE(names.empty());
  const Augmenter::Options options;
  for (const std::string& name : names) {
    auto aug_indexed =
        augmenter_.AugmentForRetrieval(history_, {name}, options);
    auto aug_scan = scan_.AugmentForRetrieval(history_, {name}, options);
    ASSERT_TRUE(aug_indexed.ok()) << name << ": " << aug_indexed.status();
    ASSERT_TRUE(aug_scan.ok()) << name << ": " << aug_scan.status();
    const AugFingerprint fi = Fingerprint(*aug_indexed);
    const AugFingerprint fs = Fingerprint(*aug_scan);
    EXPECT_EQ(fi.edges, fs.edges) << name;
    EXPECT_EQ(fi.new_tasks, fs.new_tasks) << name;
    EXPECT_EQ(fi.targets, fs.targets) << name;
  }
  // Unknown names fail identically on both paths.
  EXPECT_TRUE(augmenter_.AugmentForRetrieval(history_, {"missing"}, options)
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(
      scan_.AugmentForRetrieval(history_, {"missing"}, options)
          .status()
          .IsNotFound());
}

TEST_F(AugmenterIndexDifferentialTest, MonitorCountsHitsAndMisses) {
  Monitor monitor;
  augmenter_.set_monitor(&monitor);
  Pipeline pipeline = *BuildPipeline("p", "skl.StandardScaler");
  Augmenter::Options options;

  // Cold history: every equivalence probe misses.
  ASSERT_TRUE(augmenter_.Augment(pipeline, history_, options).ok());
  EXPECT_EQ(monitor.num_index_hits(), 0);
  EXPECT_GT(monitor.num_index_misses(), 0);

  // Warm history: the pipeline's artifacts and tasks are all known.
  const int64_t misses_cold = monitor.num_index_misses();
  RecordIntoHistory(history_, pipeline, 0.5);
  ASSERT_TRUE(augmenter_.Augment(pipeline, history_, options).ok());
  EXPECT_GT(monitor.num_index_hits(), 0);
  EXPECT_GE(misses_cold, 1);
}

// ---------------------------------------------------------------------------
// End-to-end: a runtime planning from the indexed augmenter and one
// planning from the scan oracle execute byte-identical payloads and report
// cost-identical plans on fault-free runs.

// HyppoMethod's search and materialization over the scan oracle's
// augmentation.
class ScanOracleMethod final : public Method {
 public:
  explicit ScanOracleMethod(Runtime* runtime)
      : Method(runtime),
        scan_(&runtime->dictionary(), &runtime->augmenter()),
        materializer_(&runtime->augmenter()) {
    search_.dominance_pruning = true;
    materialization_.budget_bytes = runtime->options().storage_budget_bytes;
  }

  std::string name() const override { return "HYPPO over the scan oracle"; }

  Result<Planned> PlanPipeline(const Pipeline& pipeline) override {
    Planned planned;
    HYPPO_ASSIGN_OR_RETURN(
        planned.aug,
        scan_.Augment(pipeline, runtime_->history(), Augmenter::Options()));
    HYPPO_ASSIGN_OR_RETURN(planned.plan, ReplanAugmentation(planned.aug));
    return planned;
  }

  Result<Plan> ReplanAugmentation(const Augmentation& aug) override {
    HYPPO_ASSIGN_OR_RETURN(Plan plan, generator_.Optimize(aug, search_));
    if (runtime_->options().verify_plans) {
      HYPPO_RETURN_NOT_OK(VerifyPlanStructure(aug, aug.targets, plan));
    }
    return plan;
  }

  Status AfterExecution(const Pipeline& /*pipeline*/,
                        const Planned& /*planned*/,
                        const Runtime::ExecutionRecord& record) override {
    std::set<std::string> storable;
    for (const auto& [name, payload] : record.payloads_by_name) {
      storable.insert(name);
    }
    const Materializer::Decision decision =
        materializer_.Decide(runtime_->history(), storable, materialization_);
    return Materializer::Apply(runtime_->history(), runtime_->store(),
                               decision, record.payloads_by_name);
  }

 private:
  ScanAugmenter scan_;
  PlanGenerator generator_;
  PlanGenerator::Options search_;
  Materializer materializer_;
  Materializer::Options materialization_;
};

TEST(SystemIndexDifferentialTest, ExecutedPayloadsByteIdentical) {
  RuntimeOptions options;
  options.simulate = false;
  options.parallelism = 1;
  options.verify_plans = true;
  Runtime indexed_runtime(options);
  Runtime scan_runtime(options);
  for (Runtime* runtime : {&indexed_runtime, &scan_runtime}) {
    runtime->RegisterDataset("idx-unit", *workload::GenerateHiggs(2000, 8, 5));
  }
  HyppoMethod indexed(&indexed_runtime);
  ScanOracleMethod scan(&scan_runtime);

  for (const char* impl : {"skl.StandardScaler", "tfl.StandardScaler",
                           "skl.StandardScaler"}) {
    Pipeline pipeline = *BuildPipeline(std::string("p-") + impl, impl);
    auto run_indexed = indexed.Run(pipeline);
    auto run_scan = scan.Run(pipeline);
    ASSERT_TRUE(run_indexed.ok()) << run_indexed.status();
    ASSERT_TRUE(run_scan.ok()) << run_scan.status();
    EXPECT_NEAR(run_indexed->plan.cost, run_scan->plan.cost, 1e-9) << impl;
    EXPECT_EQ(run_indexed->plan.edges.size(), run_scan->plan.edges.size());
    for (NodeId t : pipeline.targets) {
      const std::string& name = pipeline.graph.artifact(t).name;
      const auto it_indexed = run_indexed->record.payloads_by_name.find(name);
      const auto it_scan = run_scan->record.payloads_by_name.find(name);
      ASSERT_NE(it_indexed, run_indexed->record.payloads_by_name.end());
      ASSERT_NE(it_scan, run_scan->record.payloads_by_name.end());
      const auto bytes_indexed = storage::SerializePayload(it_indexed->second);
      const auto bytes_scan = storage::SerializePayload(it_scan->second);
      ASSERT_TRUE(bytes_indexed.ok());
      ASSERT_TRUE(bytes_scan.ok());
      EXPECT_EQ(*bytes_indexed, *bytes_scan) << name;
    }
  }
  // The indexed runtime answered probes from the index; the oracle never
  // reports to a monitor.
  EXPECT_GT(indexed_runtime.monitor().num_index_hits(), 0);
  EXPECT_EQ(scan_runtime.monitor().num_index_hits(), 0);
}

// Runtime-level compaction trigger: bounded history, monitor counter.
TEST(SystemIndexDifferentialTest, RuntimeCompactsHistoryAtTheBound) {
  HyppoSystem::Options options;
  options.runtime.simulate = false;
  options.runtime.parallelism = 1;
  options.runtime.history_max_artifacts = 10;
  HyppoSystem system(options);
  system.RegisterDataset("idx-unit", *workload::GenerateHiggs(2000, 8, 5));

  // Distinct max_depth configs derive distinct downstream artifacts, so
  // the history keeps growing past the bound across runs.
  for (int depth : {3, 5, 7, 9}) {
    Pipeline pipeline = *BuildPipeline("c" + std::to_string(depth),
                                       "skl.StandardScaler", depth);
    auto report = system.RunPipeline(pipeline);
    ASSERT_TRUE(report.ok()) << report.status();
  }
  EXPECT_LE(system.runtime().history().num_artifacts(), 10);
  EXPECT_GT(system.runtime().monitor().num_history_compacted(), 0);
  const Verifier verifier;
  const AnalysisReport report =
      verifier.CheckHistoryIndex(system.runtime().history());
  EXPECT_TRUE(report.ok()) << report.ToString();
}

}  // namespace
}  // namespace hyppo::core
