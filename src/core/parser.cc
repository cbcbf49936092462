#include "core/parser.h"

#include <map>
#include <vector>

#include "common/string_util.h"
#include "core/pipeline_builder.h"

namespace hyppo::core {

namespace {

// One parsed call argument: either an input variable reference or a
// key=value configuration entry.
struct Argument {
  bool is_config = false;
  std::string name;   // variable name or config key
  std::string value;  // config value (quotes stripped)
};

Result<std::string> CanonicalFramework(const std::string& alias) {
  if (alias == "sk" || alias == "skl" || alias == "sklearn") {
    return std::string("skl");
  }
  if (alias == "tf" || alias == "tfl" || alias == "tensorflow") {
    return std::string("tfl");
  }
  if (alias == "lgb" || alias == "lightgbm") {
    return std::string("lgb");
  }
  if (alias == "lib" || alias == "libsvm") {
    return std::string("lib");
  }
  return Status::ParseError("unknown framework alias '" + alias + "'");
}

std::string StripQuotes(std::string_view value) {
  if (value.size() >= 2 &&
      ((value.front() == '"' && value.back() == '"') ||
       (value.front() == '\'' && value.back() == '\''))) {
    return std::string(value.substr(1, value.size() - 2));
  }
  return std::string(value);
}

class ParserImpl {
 public:
  ParserImpl(const std::string& pipeline_id, const Dictionary& dictionary)
      : builder_(pipeline_id), dictionary_(dictionary) {}

  Status ParseLine(std::string_view line, int line_no) {
    line_ = line;
    line_no_ = line_no;
    builder_.set_next_source_line(line_no);
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') {
      return Status::OK();
    }
    const size_t eq = stripped.find('=');
    if (eq == std::string_view::npos) {
      return Err("expected an assignment", ColOf(stripped));
    }
    // Left-hand side: one or two comma-separated variables.
    std::vector<std::string> lhs;
    for (const std::string& piece :
         StrSplit(stripped.substr(0, eq), ',')) {
      lhs.emplace_back(StripWhitespace(piece));
      if (lhs.back().empty()) {
        return Err("empty assignment target", ColOf(stripped));
      }
    }
    // Right-hand side: callee(args).
    const std::string_view rhs = StripWhitespace(stripped.substr(eq + 1));
    if (rhs.empty()) {
      return Err("expected a call expression",
                 ColOf(stripped.substr(eq, 1)) + 1);
    }
    const size_t open = rhs.find('(');
    if (open == std::string_view::npos || rhs.back() != ')') {
      return Err("expected a call expression", ColOf(rhs));
    }
    const std::string callee(StripWhitespace(rhs.substr(0, open)));
    HYPPO_ASSIGN_OR_RETURN(
        std::vector<Argument> args,
        ParseArguments(rhs.substr(open + 1, rhs.size() - open - 2)));
    return Dispatch(lhs, callee, args, rhs);
  }

  Result<Pipeline> Finish() && { return std::move(builder_).Build(); }

 private:
  /// "line N, col M: message" parse error; omits the column when unknown.
  Status Err(const std::string& message, int col = 0) const {
    std::string loc = "line " + std::to_string(line_no_);
    if (col > 0) {
      loc += ", col " + std::to_string(col);
    }
    return Status::ParseError(loc + ": " + message);
  }

  /// 1-based column of `sub` within the current line. Views carved out of
  /// the line resolve by pointer arithmetic; detached strings by search.
  int ColOf(std::string_view sub) const {
    if (!sub.empty() && sub.data() >= line_.data() &&
        sub.data() < line_.data() + line_.size()) {
      return static_cast<int>(sub.data() - line_.data()) + 1;
    }
    const size_t pos = line_.find(sub);
    return pos == std::string_view::npos ? 0 : static_cast<int>(pos) + 1;
  }

  // Splits "a, b, k=v" into arguments. No nested parentheses in the DSL.
  Result<std::vector<Argument>> ParseArguments(std::string_view args_text) {
    std::vector<Argument> args;
    if (StripWhitespace(args_text).empty()) {
      return args;
    }
    std::string_view rest = args_text;
    while (true) {
      const size_t comma = rest.find(',');
      const std::string_view piece = rest.substr(0, comma);
      const std::string_view trimmed = StripWhitespace(piece);
      if (trimmed.empty()) {
        return Err("empty argument",
                   piece.empty() ? ColOf(rest) : ColOf(piece));
      }
      const size_t eq = trimmed.find('=');
      Argument arg;
      if (eq == std::string_view::npos) {
        arg.is_config = false;
        arg.name = std::string(trimmed);
      } else {
        arg.is_config = true;
        arg.name = std::string(StripWhitespace(trimmed.substr(0, eq)));
        arg.value = StripQuotes(StripWhitespace(trimmed.substr(eq + 1)));
      }
      args.push_back(std::move(arg));
      if (comma == std::string_view::npos) {
        break;
      }
      rest = rest.substr(comma + 1);
    }
    return args;
  }

  Status Dispatch(const std::vector<std::string>& lhs,
                  const std::string& callee,
                  const std::vector<Argument>& args, std::string_view rhs) {
    const std::vector<std::string> parts = StrSplit(callee, '.');
    if (parts.size() == 1 && parts[0] == "load") {
      return HandleLoad(lhs, args, rhs);
    }
    if (parts.size() == 1 && parts[0] == "evaluate") {
      return HandleEvaluate(lhs, args, rhs);
    }
    if (parts.size() == 3) {
      return HandleOperatorCall(lhs, parts[0], parts[1], parts[2], args, rhs);
    }
    if (parts.size() == 2) {
      return HandleMethodCall(lhs, parts[0], parts[1], args, rhs);
    }
    return Err("cannot parse call '" + callee + "'", ColOf(rhs));
  }

  Status HandleLoad(const std::vector<std::string>& lhs,
                    const std::vector<Argument>& args, std::string_view rhs) {
    if (lhs.size() != 1) {
      return Err("load produces one artifact");
    }
    std::string dataset_id;
    int64_t rows = 0;
    int64_t cols = 0;
    int64_t size = 0;
    for (const Argument& arg : args) {
      if (!arg.is_config) {
        dataset_id = StripQuotes(arg.name);
      } else if (arg.name == "rows") {
        rows = std::strtoll(arg.value.c_str(), nullptr, 10);
      } else if (arg.name == "cols") {
        cols = std::strtoll(arg.value.c_str(), nullptr, 10);
      } else if (arg.name == "size") {
        size = std::strtoll(arg.value.c_str(), nullptr, 10);
      }
    }
    if (dataset_id.empty() || rows <= 0 || cols <= 0) {
      return Err("load requires a dataset id and rows=/cols=", ColOf(rhs));
    }
    HYPPO_ASSIGN_OR_RETURN(NodeId node,
                           builder_.LoadDataset(dataset_id, rows, cols, size));
    variables_[lhs[0]] = node;
    return Status::OK();
  }

  Status HandleEvaluate(const std::vector<std::string>& lhs,
                        const std::vector<Argument>& args,
                        std::string_view rhs) {
    std::vector<NodeId> inputs;
    std::string metric = "rmse";
    for (const Argument& arg : args) {
      if (arg.is_config) {
        if (arg.name == "metric") {
          metric = arg.value;
        }
        continue;
      }
      HYPPO_ASSIGN_OR_RETURN(NodeId node, Lookup(arg.name));
      inputs.push_back(node);
    }
    if (lhs.size() != 1 || inputs.size() != 2) {
      return Err("evaluate(preds, data, metric=...) produces one value",
                 ColOf(rhs));
    }
    HYPPO_ASSIGN_OR_RETURN(NodeId value,
                           builder_.Evaluate(inputs[0], inputs[1], metric));
    variables_[lhs[0]] = value;
    return Status::OK();
  }

  // fw.Operator.tasktype(inputs..., k=v...)
  Status HandleOperatorCall(const std::vector<std::string>& lhs,
                            const std::string& fw_alias,
                            const std::string& logical_op,
                            const std::string& task_name,
                            const std::vector<Argument>& args,
                            std::string_view rhs) {
    Result<std::string> framework = CanonicalFramework(fw_alias);
    if (!framework.ok()) {
      return Err(framework.status().message(), ColOf(rhs));
    }
    Result<TaskType> type = TaskTypeFromString(task_name);
    if (!type.ok()) {
      return Err(type.status().message(), ColOf(rhs));
    }
    if (*type == TaskType::kDerive || *type == TaskType::kPredictDepths) {
      return Err(std::string(TaskTypeToString(*type)) +
                     " tasks are added by the optimizer, not written",
                 ColOf(rhs));
    }
    TaskInfo task;
    task.logical_op = logical_op;
    task.type = *type;
    task.impl = *framework + "." + logical_op;
    std::vector<NodeId> inputs;
    for (const Argument& arg : args) {
      if (arg.is_config) {
        task.config.Set(arg.name, arg.value);
      } else {
        HYPPO_ASSIGN_OR_RETURN(NodeId node, Lookup(arg.name));
        inputs.push_back(node);
      }
    }
    if (inputs.empty()) {
      return Err("operator call needs at least one input", ColOf(rhs));
    }
    // Unknown operators are single-implementation operators (§IV-C): the
    // dictionary lookup is advisory, not gating.
    (void)dictionary_.Knows(logical_op, *type);
    const int num_outputs = *type == TaskType::kSplit ? 2 : 1;
    if (static_cast<size_t>(num_outputs) != lhs.size()) {
      return Err("task produces " + std::to_string(num_outputs) +
                 " artifacts but " + std::to_string(lhs.size()) +
                 " were assigned");
    }
    HYPPO_ASSIGN_OR_RETURN(std::vector<NodeId> outputs,
                           builder_.ApplyTask(task, inputs, num_outputs));
    for (size_t i = 0; i < lhs.size(); ++i) {
      variables_[lhs[i]] = outputs[i];
    }
    return Status::OK();
  }

  // var.transform(data) / var.predict(data): operator identity comes from
  // the fitted state variable.
  Status HandleMethodCall(const std::vector<std::string>& lhs,
                          const std::string& var, const std::string& method,
                          const std::vector<Argument>& args,
                          std::string_view rhs) {
    HYPPO_ASSIGN_OR_RETURN(NodeId state, Lookup(var));
    std::vector<NodeId> inputs;
    for (const Argument& arg : args) {
      if (arg.is_config) {
        continue;  // method calls take no extra configuration
      }
      HYPPO_ASSIGN_OR_RETURN(NodeId node, Lookup(arg.name));
      inputs.push_back(node);
    }
    if (lhs.size() != 1 || inputs.size() != 1) {
      return Err(method + " takes one input artifact", ColOf(rhs));
    }
    if (method == "transform") {
      HYPPO_ASSIGN_OR_RETURN(NodeId out,
                             builder_.Transform(state, inputs[0]));
      variables_[lhs[0]] = out;
      return Status::OK();
    }
    if (method == "predict") {
      HYPPO_ASSIGN_OR_RETURN(NodeId out, builder_.Predict(state, inputs[0]));
      variables_[lhs[0]] = out;
      return Status::OK();
    }
    return Err("unknown method '" + method + "'", ColOf(rhs));
  }

  Result<NodeId> Lookup(const std::string& var) const {
    return LookupAt(var, ColOf(var));
  }

  Result<NodeId> LookupAt(const std::string& var, int col) const {
    auto it = variables_.find(var);
    if (it == variables_.end()) {
      return Err("unknown variable '" + var + "'", col);
    }
    return it->second;
  }

  PipelineBuilder builder_;
  const Dictionary& dictionary_;
  std::map<std::string, NodeId> variables_;
  std::string_view line_;
  int line_no_ = 0;
};

}  // namespace

Result<Pipeline> ParsePipeline(const std::string& source,
                               const std::string& pipeline_id,
                               const Dictionary& dictionary) {
  ParserImpl parser(pipeline_id, dictionary);
  int line_no = 0;
  for (const std::string& line : StrSplit(source, '\n')) {
    ++line_no;
    HYPPO_RETURN_NOT_OK(parser.ParseLine(line, line_no));
  }
  return std::move(parser).Finish();
}

}  // namespace hyppo::core
