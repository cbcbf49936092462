#include "analysis/static/static_analyzer.h"

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace hyppo::analysis {

namespace {

using core::ArtifactInfo;
using core::ArtifactKind;
using core::PipelineGraph;
using core::TaskInfo;
using core::TaskType;

bool IsDataKind(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kRaw:
    case ArtifactKind::kTrain:
    case ArtifactKind::kTest:
    case ArtifactKind::kData:
      return true;
    default:
      return false;
  }
}

// Inputs of one task edge bucketed by payload kind — mirrors the
// executor's input binding, which groups tail artifacts the same way.
struct InputShape {
  std::vector<const ArtifactInfo*> datasets;
  std::vector<const ArtifactInfo*> states;
  std::vector<const ArtifactInfo*> predictions;
  int sources = 0;
};

InputShape BucketInputs(const PipelineGraph& graph, EdgeId edge) {
  InputShape in;
  for (NodeId t : graph.ordered_tail(edge)) {
    const ArtifactInfo& a = graph.artifact(t);
    if (t == graph.source() || a.kind == ArtifactKind::kSource) {
      ++in.sources;
    } else if (a.kind == ArtifactKind::kOpState) {
      in.states.push_back(&a);
    } else if (a.kind == ArtifactKind::kPredictions) {
      in.predictions.push_back(&a);
    } else {
      in.datasets.push_back(&a);
    }
  }
  return in;
}

// Attaches a source location (when the parser stamped one) and the edge
// entity to a diagnostic.
void AddTaskError(AnalysisReport& report, const std::string& check,
                  const TaskInfo& task, EdgeId edge, std::string message) {
  Diagnostic d;
  d.severity = Severity::kError;
  d.check = check;
  d.entity = EntityKind::kEdge;
  d.entity_id = edge;
  d.line = task.source_line;
  d.message = std::move(message);
  report.Add(std::move(d));
}

void AddTaskWarning(AnalysisReport& report, const std::string& check,
                    const TaskInfo& task, EdgeId edge, std::string message) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.check = check;
  d.entity = EntityKind::kEdge;
  d.entity_id = edge;
  d.line = task.source_line;
  d.message = std::move(message);
  report.Add(std::move(d));
}

std::string TaskLabel(const TaskInfo& task) {
  return task.logical_op + "." + core::TaskTypeToString(task.type);
}

// Finds the non-load edge producing `node`, or -1.
EdgeId ProducerEdge(const PipelineGraph& graph, NodeId node) {
  for (EdgeId e : graph.hypergraph().bstar(node)) {
    if (graph.task(e).type != TaskType::kLoad) {
      return e;
    }
  }
  return -1;
}

// True when `edge` is a plain single-dataset fit (no state inputs) —
// the only fit shape whose input column count is trustworthy for
// downstream dimension checks (ensemble fits carry a sentinel).
bool IsPlainFit(const PipelineGraph& graph, EdgeId edge) {
  if (graph.task(edge).type != TaskType::kFit) {
    return false;
  }
  const InputShape in = BucketInputs(graph, edge);
  return in.datasets.size() == 1 && in.states.empty() &&
         in.predictions.empty();
}

void CheckSplitEdge(const PipelineGraph& graph, EdgeId edge,
                    const TaskInfo& task, const InputShape& in,
                    AnalysisReport& report) {
  const auto& heads = graph.ordered_head(edge);
  if (in.datasets.size() != 1 || !in.states.empty() ||
      !in.predictions.empty()) {
    AddTaskError(report, "shape.bad-arity", task, edge,
                 TaskLabel(task) + " expects exactly one dataset input, got " +
                     std::to_string(in.datasets.size()) + " dataset(s), " +
                     std::to_string(in.states.size()) + " state(s), " +
                     std::to_string(in.predictions.size()) +
                     " prediction(s)");
    return;
  }
  if (heads.size() != 2) {
    AddTaskError(report, "shape.bad-arity", task, edge,
                 TaskLabel(task) + " produces two outputs (train, test), " +
                     std::to_string(heads.size()) + " declared");
    return;
  }
  const ArtifactKind k0 = graph.artifact(heads[0]).kind;
  const ArtifactKind k1 = graph.artifact(heads[1]).kind;
  if (k0 != ArtifactKind::kTrain || k1 != ArtifactKind::kTest) {
    AddTaskError(report, "shape.kind-mismatch", task, edge,
                 TaskLabel(task) + " heads must be (train, test), got (" +
                     core::ArtifactKindToString(k0) + ", " +
                     core::ArtifactKindToString(k1) + ")");
  }
  const double test_size = task.config.GetDouble("test_size", 0.25);
  if (test_size <= 0.0 || test_size >= 1.0) {
    AddTaskError(report, "shape.bad-config", task, edge,
                 TaskLabel(task) + " test_size must be in (0, 1), got " +
                     std::to_string(test_size));
  }
}

void CheckFitEdge(const PipelineGraph& graph, EdgeId edge,
                  const TaskInfo& task, const InputShape& in,
                  AnalysisReport& report) {
  const auto& heads = graph.ordered_head(edge);
  // Plain fit: one dataset. Ensemble fit: base states + optional dataset.
  if (!in.predictions.empty() || in.datasets.size() > 1 ||
      in.datasets.size() + in.states.size() == 0) {
    AddTaskError(
        report, "shape.bad-arity", task, edge,
        TaskLabel(task) + " expects one dataset (plus op-states for "
                          "ensembles), got " +
            std::to_string(in.datasets.size()) + " dataset(s), " +
            std::to_string(in.states.size()) + " state(s), " +
            std::to_string(in.predictions.size()) + " prediction(s)");
    return;
  }
  if (heads.size() != 1 ||
      graph.artifact(heads[0]).kind != ArtifactKind::kOpState) {
    AddTaskError(report, "shape.kind-mismatch", task, edge,
                 TaskLabel(task) + " produces one op-state output");
  }
}

void CheckApplyEdge(const PipelineGraph& graph, EdgeId edge,
                    const TaskInfo& task, const InputShape& in,
                    AnalysisReport& report) {
  const auto& heads = graph.ordered_head(edge);
  if (in.states.size() != 1 || in.datasets.size() != 1 ||
      !in.predictions.empty()) {
    AddTaskError(report, "shape.bad-arity", task, edge,
                 TaskLabel(task) +
                     " expects exactly one op-state and one dataset, got " +
                     std::to_string(in.states.size()) + " state(s), " +
                     std::to_string(in.datasets.size()) + " dataset(s), " +
                     std::to_string(in.predictions.size()) +
                     " prediction(s)");
    return;
  }
  const ArtifactKind want = task.type == TaskType::kPredict
                                ? ArtifactKind::kPredictions
                                : ArtifactKind::kData;
  if (heads.size() != 1) {
    AddTaskError(report, "shape.bad-arity", task, edge,
                 TaskLabel(task) + " produces one output, " +
                     std::to_string(heads.size()) + " declared");
    return;
  }
  const ArtifactKind got = graph.artifact(heads[0]).kind;
  const bool head_ok = task.type == TaskType::kPredict
                           ? got == ArtifactKind::kPredictions
                           : IsDataKind(got);
  if (!head_ok) {
    AddTaskError(report, "shape.kind-mismatch", task, edge,
                 TaskLabel(task) + " output must be " +
                     core::ArtifactKindToString(want) + ", got " +
                     core::ArtifactKindToString(got));
  }
  // Dimension check: the data fed to transform/predict must match the
  // feature width the state was fitted on. Only plain fits propagate a
  // trustworthy column count (ensemble states carry a sentinel width).
  NodeId state_node = -1;
  for (NodeId t : graph.ordered_tail(edge)) {
    if (t != graph.source() &&
        graph.artifact(t).kind == ArtifactKind::kOpState) {
      state_node = t;
      break;
    }
  }
  if (state_node < 0) {
    return;
  }
  const EdgeId producer = ProducerEdge(graph, state_node);
  if (producer < 0 || !IsPlainFit(graph, producer)) {
    return;
  }
  const InputShape fit_in = BucketInputs(graph, producer);
  const int64_t fitted_cols = fit_in.datasets[0]->cols;
  const int64_t data_cols = in.datasets[0]->cols;
  if (fitted_cols > 0 && data_cols > 0 && fitted_cols != data_cols) {
    AddTaskError(report, "shape.dim-mismatch", task, edge,
                 TaskLabel(task) + " applies a state fitted on " +
                     std::to_string(fitted_cols) + " columns to data with " +
                     std::to_string(data_cols) + " columns");
  }
}

void CheckEvaluateEdge(const PipelineGraph& graph, EdgeId edge,
                       const TaskInfo& task, const InputShape& in,
                       AnalysisReport& report) {
  const auto& heads = graph.ordered_head(edge);
  if (in.predictions.size() != 1 || in.datasets.size() != 1 ||
      !in.states.empty()) {
    AddTaskError(report, "shape.bad-arity", task, edge,
                 TaskLabel(task) +
                     " expects exactly one predictions and one dataset "
                     "input, got " +
                     std::to_string(in.predictions.size()) +
                     " prediction(s), " + std::to_string(in.datasets.size()) +
                     " dataset(s), " + std::to_string(in.states.size()) +
                     " state(s)");
    return;
  }
  if (heads.size() != 1 ||
      graph.artifact(heads[0]).kind != ArtifactKind::kValue) {
    AddTaskError(report, "shape.kind-mismatch", task, edge,
                 TaskLabel(task) + " produces one value output");
  }
  const int64_t pred_rows = in.predictions[0]->rows;
  const int64_t data_rows = in.datasets[0]->rows;
  if (pred_rows > 0 && data_rows > 0 && pred_rows != data_rows) {
    AddTaskError(report, "shape.dim-mismatch", task, edge,
                 TaskLabel(task) + " compares " + std::to_string(pred_rows) +
                     " predictions against " + std::to_string(data_rows) +
                     " labelled rows");
  }
}

// Splits a dictionary key "lop.tasktype" at its last dot.
bool SplitKey(const std::string& key, std::string& lop, std::string& type) {
  const size_t dot = key.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == key.size()) {
    return false;
  }
  lop = key.substr(0, dot);
  type = key.substr(dot + 1);
  return true;
}

}  // namespace

AnalysisReport StaticAnalyzer::CheckPipelineShapes(
    const PipelineGraph& graph) const {
  AnalysisReport report;
  for (EdgeId e = 0; e < graph.num_tasks(); ++e) {
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      continue;  // load edges are s -> node by construction
    }
    const InputShape in = BucketInputs(graph, e);
    if (in.sources > 0) {
      AddTaskError(report, "shape.kind-mismatch", task, e,
                   TaskLabel(task) +
                       " consumes the source node directly; only load "
                       "tasks may read from s");
      continue;
    }
    switch (task.type) {
      case TaskType::kSplit:
        CheckSplitEdge(graph, e, task, in, report);
        break;
      case TaskType::kFit:
        CheckFitEdge(graph, e, task, in, report);
        break;
      case TaskType::kTransform:
      case TaskType::kPredict:
        CheckApplyEdge(graph, e, task, in, report);
        break;
      case TaskType::kEvaluate:
        CheckEvaluateEdge(graph, e, task, in, report);
        break;
      case TaskType::kLoad:
      case TaskType::kDerive:
      case TaskType::kPredictDepths:
        break;
    }
  }
  return report;
}

AnalysisReport StaticAnalyzer::CheckCatalog(
    const core::Dictionary& dictionary,
    const ml::OperatorRegistry& registry) const {
  AnalysisReport report;
  for (const std::string& key : dictionary.Keys()) {
    std::string lop;
    std::string type_name;
    if (!SplitKey(key, lop, type_name)) {
      report.AddError("catalog.malformed-key",
                      "dictionary key '" + key +
                          "' is not of the form lop.tasktype");
      continue;
    }
    Result<TaskType> type = core::TaskTypeFromString(type_name);
    if (!type.ok()) {
      report.AddError("catalog.malformed-key",
                      "dictionary key '" + key + "' has unknown task type '" +
                          type_name + "'");
      continue;
    }
    Result<ml::MlTask> ml_task = core::ToMlTask(*type);
    const std::vector<std::string>& impls = dictionary.ImplsFor(lop, *type);
    if (impls.empty()) {
      report.AddWarning("catalog.empty-entry",
                        "dictionary entry '" + key +
                            "' lists no implementations");
      continue;
    }
    std::set<std::string> seen;
    // Tolerance/determinism agreement across the equivalence class: every
    // implementation bound to one dictionary entry must declare the same
    // contracts, otherwise substituting one for another silently changes
    // what downstream consumers may assume.
    const ml::PhysicalOperator* reference = nullptr;
    for (const std::string& impl : impls) {
      if (!seen.insert(impl).second) {
        report.AddWarning("catalog.duplicate-impl",
                          "dictionary entry '" + key +
                              "' lists implementation '" + impl +
                              "' more than once");
        continue;
      }
      Result<const ml::PhysicalOperator*> op = registry.Get(impl);
      if (!op.ok()) {
        // Unknown operators are legal single-implementation operators
        // (paper §IV-C): the user may bind impls the registry never saw.
        report.AddWarning("catalog.unknown-impl",
                          "dictionary entry '" + key +
                              "' references implementation '" + impl +
                              "' that is not in the operator registry");
        continue;
      }
      if ((*op)->logical_op() != lop) {
        report.AddError("catalog.logical-op-mismatch",
                        "dictionary entry '" + key + "' binds '" + impl +
                            "' which implements logical operator '" +
                            (*op)->logical_op() + "', not '" + lop + "'");
        continue;
      }
      if (ml_task.ok() && !(*op)->SupportsTask(*ml_task)) {
        report.AddError("catalog.unsupported-task",
                        "dictionary entry '" + key + "' binds '" + impl +
                            "' which does not support task type '" +
                            type_name + "'");
        continue;
      }
      if (reference == nullptr) {
        reference = *op;
        continue;
      }
      if ((*op)->tolerance() != reference->tolerance()) {
        report.AddError(
            "catalog.tolerance-mismatch",
            "equivalence class '" + key + "' is inconsistent: '" +
                reference->impl_name() + "' declares " +
                ml::ToleranceToString(reference->tolerance()) +
                " tolerance but '" + impl + "' declares " +
                ml::ToleranceToString((*op)->tolerance()));
      }
      if ((*op)->determinism() != reference->determinism()) {
        report.AddWarning(
            "catalog.determinism-mismatch",
            "equivalence class '" + key + "' mixes determinism classes: '" +
                reference->impl_name() + "' is " +
                ml::DeterminismToString(reference->determinism()) +
                " but '" + impl + "' is " +
                ml::DeterminismToString((*op)->determinism()));
      }
    }
  }
  return report;
}

AnalysisReport StaticAnalyzer::CheckDeterminism(
    const PipelineGraph& graph, const core::Dictionary& dictionary,
    const ml::OperatorRegistry& registry) const {
  AnalysisReport report;
  const Severity severity =
      options_.require_bitwise ? Severity::kError : Severity::kWarning;
  for (EdgeId e = 0; e < graph.num_tasks(); ++e) {
    const TaskInfo& task = graph.task(e);
    if (task.type == TaskType::kLoad) {
      continue;
    }
    // The op the pipeline binds plus every dictionary-equivalent impl the
    // augmenter may substitute: any of them can end up executing this
    // task, so all must honour the reproducibility contract.
    std::vector<std::string> candidates;
    candidates.push_back(task.impl);
    for (const std::string& impl :
         dictionary.ImplsFor(task.logical_op, task.type)) {
      if (impl != task.impl) {
        candidates.push_back(impl);
      }
    }
    for (const std::string& impl : candidates) {
      Result<const ml::PhysicalOperator*> op = registry.Get(impl);
      if (!op.ok()) {
        if (impl == task.impl) {
          AddTaskWarning(report, "determinism.unknown-impl", task, e,
                         TaskLabel(task) + " binds implementation '" + impl +
                             "' that is not in the operator registry; its "
                             "determinism cannot be verified");
        }
        continue;
      }
      if ((*op)->determinism() == ml::Determinism::kNonDeterministic) {
        Diagnostic d;
        d.severity = severity;
        d.check = "determinism.non-deterministic-op";
        d.entity = EntityKind::kEdge;
        d.entity_id = e;
        d.line = task.source_line;
        d.message =
            TaskLabel(task) + " can bind non-deterministic implementation '" +
            impl + "'" +
            (options_.require_bitwise
                 ? " on a bitwise-contract path (fault recovery or "
                   "differential execution requires byte-identical replay)"
                 : "");
        report.Add(std::move(d));
      }
    }
  }
  return report;
}

AnalysisReport StaticAnalyzer::CheckCostMonotonicity(
    const std::vector<double>& edge_weight,
    const std::vector<double>& edge_seconds) const {
  AnalysisReport report;
  for (size_t i = 0; i < edge_weight.size(); ++i) {
    const double w = edge_weight[i];
    if (!std::isfinite(w) || w < 0.0) {
      report.AddError("cost.non-monotone",
                      "edge weight " + std::to_string(w) +
                          " breaks cost-model monotonicity (plan search "
                          "requires finite non-negative weights)",
                      EntityKind::kEdge, static_cast<int64_t>(i));
    }
  }
  for (size_t i = 0; i < edge_seconds.size(); ++i) {
    const double s = edge_seconds[i];
    if (!std::isfinite(s) || s < 0.0) {
      report.AddError("cost.non-monotone",
                      "edge seconds " + std::to_string(s) +
                          " is not a finite non-negative duration",
                      EntityKind::kEdge, static_cast<int64_t>(i));
    }
  }
  return report;
}

AnalysisReport StaticAnalyzer::AnalyzePipeline(
    const PipelineGraph& graph, const core::Dictionary& dictionary,
    const ml::OperatorRegistry& registry) const {
  AnalysisReport report = CheckPipelineShapes(graph);
  report.Merge(CheckDeterminism(graph, dictionary, registry));
  return report;
}

}  // namespace hyppo::analysis
