#include "core/pipeline_builder.h"

#include <algorithm>

namespace hyppo::core {

namespace {

// Rough static size estimate of an op-state, refined by observation later.
int64_t EstimateStateBytes(const std::string& logical_op, int64_t cols,
                           const ml::Config& config) {
  if (logical_op == "RandomForestClassifier" ||
      logical_op == "RandomForestRegressor" ||
      logical_op == "GradientBoostingRegressor") {
    const int64_t trees = config.GetInt("n_estimators", 20);
    const int64_t depth = config.GetInt("max_depth", 8);
    return trees * (int64_t{1} << std::min<int64_t>(depth, 12)) * 28;
  }
  if (logical_op == "DecisionTreeClassifier" ||
      logical_op == "DecisionTreeRegressor") {
    const int64_t depth = config.GetInt("max_depth", 6);
    return (int64_t{1} << std::min<int64_t>(depth, 12)) * 28;
  }
  if (logical_op == "KMeans") {
    return config.GetInt("n_clusters", 8) * cols * 8 + 64;
  }
  if (logical_op == "PCA") {
    return config.GetInt("n_components", 2) * cols * 8 + cols * 8 + 64;
  }
  // Scalers, imputers, linear models: a few vectors of size cols.
  return cols * 24 + 128;
}

int64_t TransformedCols(const std::string& logical_op, int64_t cols,
                        const ml::Config& config) {
  if (logical_op == "PolynomialFeatures") {
    return cols + cols * (cols + 1) / 2;
  }
  if (logical_op == "PCA") {
    return std::min<int64_t>(config.GetInt("n_components", 2), cols);
  }
  if (logical_op == "KMeans") {
    return config.GetInt("n_clusters", 8);
  }
  if (logical_op == "TaxiFeatures") {
    return cols + 3;
  }
  return cols;  // scalers, imputers, selectors (approximately)
}

}  // namespace

PipelineBuilder::PipelineBuilder(std::string pipeline_id)
    : id_(std::move(pipeline_id)) {}

Result<NodeId> PipelineBuilder::LoadDataset(const std::string& dataset_id,
                                            int64_t rows, int64_t cols,
                                            int64_t size_bytes) {
  ArtifactInfo info;
  info.name = SourceArtifactName(dataset_id);
  info.kind = ArtifactKind::kRaw;
  info.display = dataset_id;
  info.rows = rows;
  info.cols = cols;
  info.size_bytes = size_bytes > 0 ? size_bytes : (rows * (cols + 1) * 8);
  if (graph_.HasArtifact(info.name)) {
    return graph_.FindArtifact(info.name);
  }
  HYPPO_ASSIGN_OR_RETURN(NodeId node, graph_.AddArtifact(std::move(info)));
  HYPPO_RETURN_NOT_OK(graph_.AddLoadTask(node).status());
  return node;
}

std::vector<ArtifactInfo> PipelineBuilder::InferOutputs(
    const TaskInfo& task, const std::vector<NodeId>& inputs,
    int num_outputs) const {
  std::vector<std::string> input_names;
  input_names.reserve(inputs.size());
  for (NodeId in : inputs) {
    input_names.push_back(graph_.artifact(in).name);
  }
  const std::vector<std::string> names =
      TaskOutputNames(task, input_names, num_outputs);
  // The primary data input (first non-op-state input) drives shapes.
  const ArtifactInfo* data_in = nullptr;
  for (NodeId in : inputs) {
    const ArtifactInfo& a = graph_.artifact(in);
    if (a.kind != ArtifactKind::kOpState) {
      data_in = &a;
      break;
    }
  }
  std::vector<ArtifactInfo> outputs(static_cast<size_t>(num_outputs));
  for (int i = 0; i < num_outputs; ++i) {
    ArtifactInfo& out = outputs[static_cast<size_t>(i)];
    out.name = names[static_cast<size_t>(i)];
    switch (task.type) {
      case TaskType::kSplit: {
        const double test_size = task.config.GetDouble("test_size", 0.25);
        const int64_t rows = data_in != nullptr ? data_in->rows : 0;
        const int64_t cols = data_in != nullptr ? data_in->cols : 0;
        const int64_t test_rows =
            std::max<int64_t>(1, static_cast<int64_t>(
                                     static_cast<double>(rows) * test_size));
        out.kind = (i == 0) ? ArtifactKind::kTrain : ArtifactKind::kTest;
        out.rows = (i == 0) ? rows - test_rows : test_rows;
        out.cols = cols;
        out.size_bytes = out.rows * (cols + 1) * 8;
        out.display = (i == 0) ? "train" : "test";
        break;
      }
      case TaskType::kFit:
      case TaskType::kDerive: {
        out.kind = ArtifactKind::kOpState;
        const int64_t cols = data_in != nullptr ? data_in->cols : 8;
        out.rows = 1;
        out.cols = cols;
        out.size_bytes = EstimateStateBytes(task.logical_op, cols, task.config);
        out.display = task.logical_op + "_state";
        break;
      }
      case TaskType::kTransform: {
        const int64_t rows = data_in != nullptr ? data_in->rows : 0;
        const int64_t cols_in = data_in != nullptr ? data_in->cols : 0;
        const int64_t cols =
            TransformedCols(task.logical_op, cols_in, task.config);
        out.kind = data_in != nullptr &&
                           (data_in->kind == ArtifactKind::kTrain ||
                            data_in->kind == ArtifactKind::kTest)
                       ? data_in->kind
                       : ArtifactKind::kData;
        out.rows = rows;
        out.cols = cols;
        out.size_bytes = rows * (cols + 1) * 8;
        out.display = task.logical_op + "(" +
                      (data_in != nullptr ? data_in->display : "?") + ")";
        break;
      }
      case TaskType::kPredict: {
        const int64_t rows = data_in != nullptr ? data_in->rows : 0;
        out.kind = ArtifactKind::kPredictions;
        out.rows = rows;
        out.cols = 1;
        out.size_bytes = rows * 8;
        out.display = "preds";
        break;
      }
      case TaskType::kEvaluate: {
        out.kind = ArtifactKind::kValue;
        out.rows = 1;
        out.cols = 1;
        out.size_bytes = 8;
        out.display = task.config.GetString("metric", "value");
        break;
      }
      case TaskType::kLoad:
        out.kind = ArtifactKind::kData;
        break;
    }
  }
  return outputs;
}

Result<std::vector<NodeId>> PipelineBuilder::ApplyTask(
    const TaskInfo& task, const std::vector<NodeId>& inputs,
    int num_outputs) {
  if (num_outputs <= 0) {
    return Status::InvalidArgument("task must have at least one output");
  }
  for (NodeId in : inputs) {
    if (!graph_.hypergraph().IsValidNode(in) || in == graph_.source()) {
      return Status::InvalidArgument("invalid task input node");
    }
  }
  std::vector<ArtifactInfo> outputs = InferOutputs(task, inputs, num_outputs);
  std::vector<NodeId> heads;
  heads.reserve(outputs.size());
  for (ArtifactInfo& out : outputs) {
    heads.push_back(graph_.GetOrAddArtifact(out));
  }
  TaskInfo stamped = task;
  if (stamped.source_line == 0) {
    stamped.source_line = next_source_line_;
  }
  HYPPO_RETURN_NOT_OK(graph_.AddTask(stamped, inputs, heads).status());
  return heads;
}

Result<std::pair<NodeId, NodeId>> PipelineBuilder::Split(
    NodeId data, const ml::Config& config, const std::string& impl) {
  TaskInfo task;
  task.logical_op = "TrainTestSplit";
  task.type = TaskType::kSplit;
  task.config = config;
  task.impl = impl;
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, {data}, 2));
  return std::make_pair(outs[0], outs[1]);
}

Result<NodeId> PipelineBuilder::Fit(const std::string& logical_op,
                                    const std::string& impl, NodeId data,
                                    const ml::Config& config) {
  TaskInfo task;
  task.logical_op = logical_op;
  task.type = TaskType::kFit;
  task.config = config;
  task.impl = impl;
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, {data}, 1));
  return outs[0];
}

Result<NodeId> PipelineBuilder::FitEnsemble(
    const std::string& logical_op, const std::string& impl,
    const std::vector<NodeId>& base_states, NodeId train_or_invalid,
    const ml::Config& config) {
  TaskInfo task;
  task.logical_op = logical_op;
  task.type = TaskType::kFit;
  task.config = config;
  task.impl = impl;
  std::vector<NodeId> inputs = base_states;
  if (train_or_invalid != kInvalidNode) {
    inputs.push_back(train_or_invalid);
  }
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, inputs, 1));
  return outs[0];
}

Result<TaskInfo> PipelineBuilder::ProducerOf(NodeId state) const {
  const auto& bstar = graph_.hypergraph().bstar(state);
  for (EdgeId e : bstar) {
    const TaskInfo& task = graph_.task(e);
    if (task.type != TaskType::kLoad) {
      return task;
    }
  }
  return Status::NotFound("op-state node has no producing task");
}

Result<NodeId> PipelineBuilder::Transform(NodeId state, NodeId data) {
  HYPPO_ASSIGN_OR_RETURN(TaskInfo producer, ProducerOf(state));
  TaskInfo task;
  task.logical_op = producer.logical_op;
  task.type = TaskType::kTransform;
  task.config = producer.config;
  task.impl = producer.impl;
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, {state, data}, 1));
  return outs[0];
}

Result<NodeId> PipelineBuilder::Predict(NodeId state, NodeId data) {
  HYPPO_ASSIGN_OR_RETURN(TaskInfo producer, ProducerOf(state));
  TaskInfo task;
  task.logical_op = producer.logical_op;
  task.type = TaskType::kPredict;
  task.config = producer.config;
  task.impl = producer.impl;
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, {state, data}, 1));
  return outs[0];
}

Result<NodeId> PipelineBuilder::Evaluate(NodeId predictions, NodeId data,
                                         const std::string& metric) {
  TaskInfo task;
  task.logical_op = "Evaluator";
  task.type = TaskType::kEvaluate;
  task.config.Set("metric", metric);
  task.impl = "skl.Evaluator";
  HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outs,
                         ApplyTask(task, {predictions, data}, 1));
  return outs[0];
}

Result<Pipeline> PipelineBuilder::Build() && {
  Pipeline pipeline;
  pipeline.id = std::move(id_);
  pipeline.targets = graph_.SinkArtifacts();
  if (pipeline.targets.empty()) {
    return Status::FailedPrecondition("pipeline has no target artifacts");
  }
  pipeline.graph = std::move(graph_);
  return pipeline;
}

}  // namespace hyppo::core
