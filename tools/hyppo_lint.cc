// hyppo_lint: standalone invariant checker for serialized HYPPO catalogs
// and (via --pipeline) for DSL pipeline sources before anything executes.
//
// Catalog mode loads a history and runs the full analysis verifier over
// it: hypergraph well-formedness, label consistency, canonical-name
// closure, materialization flags, serialization round-trip, and — when a
// budget is given — storage-budget compliance. The target is either a
// bare history log file, read strictly (core::DeserializeHistory: a torn
// tail is an error), or a catalog directory — what Runtime::SaveCatalog
// writes and what RuntimeOptions::store_dir holds, one layout
// (core/history_io.h). A directory's history is read as a restarting
// session reads it (core::ReadHistory: replay stops at a torn tail). A
// directory also gets the history<->store consistency audit: entry
// presence, charged-size agreement, orphans, and used_bytes accounting.
//
// Pipeline mode (--pipeline <dsl-file>) parses the DSL source and runs
// the static analyzer passes over it: shape & schema inference,
// determinism lint, and the equivalence soundness audit of the built-in
// operator catalog — the same passes the Runtime applies at submit time.
//
// Sweep mode (--sweep <n>) generates the canonical n-config demo sweep
// (workload::SweepGenerator::DemoSweep — the grid quickstart --sweep
// batch-executes) and runs the static analyzer over every member
// pipeline. Diagnostics identical across members — the ones rooted in
// the shared preprocessing prefix — are deduplicated and reported once,
// annotated with the number of affected configs, so a trunk problem
// reads as one finding instead of n copies.
//
// Usage:
//   hyppo_lint <catalog-dir | history-file> [options]
//   hyppo_lint --pipeline <dsl-file> [options]
//   hyppo_lint --sweep <n> [options]
//     --budget <bytes>   also enforce the storage budget (catalog mode)
//     --no-roundtrip     skip the serialize/deserialize round-trip check
//     --quiet            print only the summary line
//     --json             emit machine-readable JSON diagnostics on stdout
//
// Exit-code contract (stable, CI gates on it):
//   0  clean — no error-severity diagnostics (warnings allowed)
//   1  one or more error-severity diagnostics found
//   2  usage error, unreadable input, or unparseable history file

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/json_diagnostics.h"
#include "analysis/static/static_analyzer.h"
#include "analysis/verifier.h"
#include "core/history_io.h"
#include "core/parser.h"
#include "ml/registry.h"
#include "storage/disk_store.h"
#include "storage/serialization.h"
#include "workload/sweep_generator.h"

namespace {

namespace fs = std::filesystem;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <catalog-dir | history-file> "
               "[--budget <bytes>] [--no-roundtrip] [--quiet] [--json]\n"
               "       %s --pipeline <dsl-file> [--quiet] [--json]\n"
               "       %s --sweep <n> [--quiet] [--json]\n"
               "exit codes: 0 clean (warnings allowed), 1 errors found, "
               "2 usage/IO\n",
               argv0, argv0, argv0);
  return 2;
}

// Prints the report (text or JSON) and maps it onto the exit contract.
int Finish(const hyppo::analysis::AnalysisReport& report,
           const std::string& target, const std::string& detail, bool quiet,
           bool json) {
  if (json) {
    std::fputs(hyppo::analysis::ReportToJson(report, target).c_str(), stdout);
  } else {
    if (!quiet && !report.diagnostics().empty()) {
      std::fputs(report.ToString().c_str(), stdout);
    }
    std::printf("%s: %s%s\n", target.c_str(), detail.c_str(),
                report.Summary().c_str());
  }
  return report.ok() ? 0 : 1;
}

// Parses "line N, col M:" / "line N:" prefixes out of a parser error
// message so the diagnostic keeps its source location in the JSON output.
void LocateParseError(const std::string& message,
                      hyppo::analysis::Diagnostic& d) {
  int line = 0;
  int col = 0;
  if (std::sscanf(message.c_str(), "PARSE_ERROR: line %d, col %d", &line,
                  &col) == 2 ||
      std::sscanf(message.c_str(), "line %d, col %d", &line, &col) == 2 ||
      std::sscanf(message.c_str(), "PARSE_ERROR: line %d", &line) == 1 ||
      std::sscanf(message.c_str(), "line %d", &line) == 1) {
    d.line = line;
    d.column = col;
  }
}

int LintPipeline(const std::string& path, bool quiet, bool json) {
  hyppo::Result<std::string> source =
      hyppo::storage::ReadFileToString(path);
  if (!source.ok()) {
    std::fprintf(stderr, "hyppo_lint: %s\n",
                 source.status().ToString().c_str());
    return 2;
  }
  const hyppo::ml::OperatorRegistry& registry =
      hyppo::ml::OperatorRegistry::Global();
  const hyppo::core::Dictionary dictionary =
      hyppo::core::Dictionary::FromRegistry(registry);
  hyppo::analysis::AnalysisReport report;
  hyppo::Result<hyppo::core::Pipeline> pipeline =
      hyppo::core::ParsePipeline(*source, fs::path(path).stem().string(),
                                 dictionary);
  if (!pipeline.ok()) {
    hyppo::analysis::Diagnostic d;
    d.severity = hyppo::analysis::Severity::kError;
    d.check = "pipeline.parse-error";
    d.message = pipeline.status().ToString();
    LocateParseError(pipeline.status().message(), d);
    report.Add(std::move(d));
    return Finish(report, path, "", quiet, json);
  }
  const hyppo::analysis::StaticAnalyzer analyzer;
  report.Merge(analyzer.AnalyzePipeline(pipeline->graph, dictionary,
                                        registry));
  report.Merge(analyzer.CheckCatalog(dictionary, registry));
  const std::string detail =
      std::to_string(pipeline->graph.num_artifacts()) + " artifacts, " +
      std::to_string(pipeline->graph.num_tasks()) + " tasks: ";
  return Finish(report, path, detail, quiet, json);
}

// A diagnostic's identity for cross-config dedup: everything except which
// sweep member produced it. Members share node/edge ids for the common
// prefix (same builder, same trunk), so a trunk diagnostic is bitwise
// identical across configs and folds to one entry; a config-specific
// diagnostic (distinct message or entity) stays separate.
using DiagnosticKey =
    std::tuple<hyppo::analysis::Severity, std::string,
               hyppo::analysis::EntityKind, int64_t, int, int, std::string>;

DiagnosticKey KeyOf(const hyppo::analysis::Diagnostic& d) {
  return {d.severity, d.check, d.entity, d.entity_id, d.line, d.column,
          d.message};
}

int LintSweep(int num_configs, bool quiet, bool json) {
  namespace workload = hyppo::workload;
  constexpr double kScale = 0.005;  // static analysis only; never executed
  workload::SweepGenerator generator(workload::UseCase::Higgs(), kScale,
                                     /*seed=*/11);
  hyppo::Result<workload::SweepWorkload> sweep =
      generator.DemoSweep(num_configs, "lint-sweep");
  if (!sweep.ok()) {
    std::fprintf(stderr, "hyppo_lint: cannot generate sweep: %s\n",
                 sweep.status().ToString().c_str());
    return 2;
  }
  const hyppo::ml::OperatorRegistry& registry =
      hyppo::ml::OperatorRegistry::Global();
  const hyppo::core::Dictionary dictionary =
      hyppo::core::Dictionary::FromRegistry(registry);
  const hyppo::analysis::StaticAnalyzer analyzer;

  // Analyze every member, folding identical diagnostics (the shared
  // prefix produces the same finding in every config) into one entry
  // with an affected-config count.
  struct Folded {
    hyppo::analysis::Diagnostic diagnostic;
    int configs = 0;
  };
  std::map<DiagnosticKey, Folded> folded;
  int64_t raw_diagnostics = 0;
  for (const hyppo::core::Pipeline& member : sweep->pipelines) {
    hyppo::analysis::AnalysisReport member_report =
        analyzer.AnalyzePipeline(member.graph, dictionary, registry);
    for (const hyppo::analysis::Diagnostic& d : member_report.diagnostics()) {
      ++raw_diagnostics;
      Folded& entry = folded[KeyOf(d)];
      if (entry.configs == 0) {
        entry.diagnostic = d;
      }
      ++entry.configs;
    }
  }

  hyppo::analysis::AnalysisReport report;
  const int total = static_cast<int>(sweep->pipelines.size());
  for (auto& [key, entry] : folded) {
    hyppo::analysis::Diagnostic d = std::move(entry.diagnostic);
    d.message += " [affects " + std::to_string(entry.configs) + "/" +
                 std::to_string(total) + " sweep configs]";
    report.Add(std::move(d));
  }
  // The catalog audit is config-independent: run it once, not per member.
  report.Merge(analyzer.CheckCatalog(dictionary, registry));

  if (!quiet && !json) {
    const workload::PipelineSpec base = generator.DemoBaseSpec();
    std::printf("sweep: %d configs over base model %s (%lld distinct "
                "prefixes, %lld mergeable tasks)\n",
                total, base.model.impl.c_str(),
                static_cast<long long>(sweep->distinct_prefixes),
                static_cast<long long>(sweep->expected_merged_tasks));
    for (const workload::SweepAxis& axis :
         generator.DemoAxes(num_configs)) {
      std::printf("  axis %s: %zu values\n", axis.param.c_str(),
                  axis.values.size());
    }
  }
  const std::string detail =
      std::to_string(total) + " configs, " +
      std::to_string(raw_diagnostics) + " raw diagnostics folded to " +
      std::to_string(folded.size()) + ": ";
  return Finish(report, "sweep(" + std::to_string(num_configs) + ")", detail,
                quiet, json);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage(argv[0]);
  }
  std::string target;
  std::string pipeline_path;
  int sweep_configs = 0;
  int64_t budget_bytes = -1;
  bool roundtrip = true;
  bool quiet = false;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pipeline") == 0 && i + 1 < argc) {
      pipeline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sweep") == 0 && i + 1 < argc) {
      sweep_configs = std::atoi(argv[++i]);
      if (sweep_configs < 1) {
        std::fprintf(stderr, "hyppo_lint: invalid --sweep value '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget_bytes = std::strtoll(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-roundtrip") == 0) {
      roundtrip = false;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (argv[i][0] == '-') {
      return Usage(argv[0]);
    } else if (target.empty()) {
      target = argv[i];
    } else {
      return Usage(argv[0]);
    }
  }
  if (!pipeline_path.empty() || sweep_configs > 0) {
    if (!target.empty() || (!pipeline_path.empty() && sweep_configs > 0)) {
      return Usage(argv[0]);
    }
    return sweep_configs > 0 ? LintSweep(sweep_configs, quiet, json)
                             : LintPipeline(pipeline_path, quiet, json);
  }
  if (target.empty()) {
    return Usage(argv[0]);
  }

  // Accept a catalog directory, read as a session restores it
  // (core::ReadHistory), or a bare history log file.
  const bool is_dir = fs::is_directory(target);
  hyppo::Result<hyppo::core::History> history =
      hyppo::Status::Internal("not read");
  std::string detail;
  if (is_dir) {
    hyppo::Result<hyppo::core::StoredHistory> stored =
        hyppo::core::ReadHistory(target);
    if (!stored.ok() || stored->files.log_bytes == 0) {
      std::fprintf(stderr, "hyppo_lint: cannot read '%s': %s\n",
                   target.c_str(),
                   stored.ok() ? "no history.log"
                               : stored.status().ToString().c_str());
      return 2;
    }
    detail = "checkpoint " + std::to_string(stored->files.checkpoint_bytes) +
             " bytes + " + std::to_string(stored->frames) + " log frames, ";
    history = std::move(stored->history);
  } else {
    hyppo::Result<std::string> bytes =
        hyppo::storage::ReadFileToString(target);
    if (!bytes.ok()) {
      std::fprintf(stderr, "hyppo_lint: %s\n",
                   bytes.status().ToString().c_str());
      return 2;
    }
    history = hyppo::core::DeserializeHistory(*bytes);
    if (!history.ok()) {
      std::fprintf(stderr, "hyppo_lint: cannot parse '%s': %s\n",
                   target.c_str(), history.status().ToString().c_str());
      return 2;
    }
  }

  hyppo::analysis::Verifier::Options options;
  options.check_roundtrip = roundtrip;
  const hyppo::analysis::Verifier verifier(options);
  const hyppo::core::Dictionary dictionary =
      hyppo::core::Dictionary::FromRegistry(
          hyppo::ml::OperatorRegistry::Global());
  hyppo::analysis::AnalysisReport report =
      verifier.VerifyHistory(*history, &dictionary, budget_bytes);

  // Equivalence soundness audit: the catalog the history will be planned
  // against must be internally consistent.
  const hyppo::analysis::StaticAnalyzer analyzer;
  report.Merge(analyzer.CheckCatalog(dictionary,
                                     hyppo::ml::OperatorRegistry::Global()));

  // Catalog directory: open its store (indexing the payload file headers)
  // and run the full history<->store consistency check.
  if (is_dir) {
    hyppo::storage::DiskArtifactStore store(target);
    if (!store.init_status().ok()) {
      std::fprintf(stderr, "hyppo_lint: cannot open store '%s': %s\n",
                   target.c_str(),
                   store.init_status().ToString().c_str());
      return 2;
    }
    report.Merge(verifier.CheckStoreConsistency(*history, store));
  }

  // Derive tasks (depth cuts of a deeper sibling model) and predict_depths
  // tasks (one descent predicting for several depth siblings) are counted
  // apart: they stand in for fits and predicts that never ran.
  int64_t derives = 0;
  int64_t descents = 0;
  for (hyppo::EdgeId e : history->graph().hypergraph().LiveEdges()) {
    const hyppo::core::TaskType type = history->graph().task(e).type;
    derives += type == hyppo::core::TaskType::kDerive;
    descents += type == hyppo::core::TaskType::kPredictDepths;
  }
  detail += std::to_string(history->num_artifacts()) + " artifacts, " +
            std::to_string(history->num_tasks()) + " tasks (" +
            std::to_string(derives) + " derive, " + std::to_string(descents) +
            " predict_depths): ";
  return Finish(report, target, detail, quiet, json);
}
