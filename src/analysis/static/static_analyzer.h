#ifndef HYPPO_ANALYSIS_STATIC_STATIC_ANALYZER_H_
#define HYPPO_ANALYSIS_STATIC_STATIC_ANALYZER_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "core/dictionary.h"
#include "core/graph.h"
#include "ml/registry.h"

namespace hyppo::analysis {

/// \brief Configuration of the static analyzer passes.
struct StaticAnalyzerOptions {
  /// When true the determinism lint escalates non-deterministic
  /// implementations to error severity: bitwise-contract paths (executor
  /// differential suites, fault-recovery re-execution) require
  /// byte-identical reproduction, so a non-deterministic op reachable
  /// from such a path is a correctness bug, not a style issue.
  bool require_bitwise = false;
};

/// \brief Static pipeline & catalog analyzer (pre-execution checking).
///
/// Four passes over the parsed pipeline hypergraph, the task dictionary,
/// and the physical-operator registry — all running before the optimizer
/// or executor touch anything:
///
///  1. CheckPipelineShapes — abstract interpretation of (rows, cols,
///     artifact kind) through every task edge; rejects arity, kind, and
///     dimension mismatches with source-located diagnostics
///     (`shape.*` checks).
///  2. CheckCatalog — equivalence soundness audit: every registered
///     implementation of one logical operator must agree on signature,
///     output kind, tolerance class, and determinism class, and
///     dictionary entries must be type-compatible with the registry
///     (`catalog.*` checks).
///  3. CheckDeterminism — flags ops whose bound implementation (or any
///     dictionary-equivalent substitute the augmenter may bind) is
///     tagged non-deterministic (`determinism.*` checks; error severity
///     on bitwise-contract paths).
///  4. CheckCostMonotonicity — augmentation check: cost-model outputs
///     must be finite and non-negative so Dijkstra-style plan search
///     stays monotone (`cost.*` checks). core::VerifyPlanStructure runs
///     it with the structural plan checks of graph_checks.h whenever
///     `verify_plans` is on.
///
/// The Runtime runs AnalyzePipeline on every submission (fail-fast
/// admission).
class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(StaticAnalyzerOptions options = {})
      : options_(options) {}

  /// Pass 1: shape & schema inference over every task edge.
  AnalysisReport CheckPipelineShapes(const core::PipelineGraph& graph) const;

  /// Pass 2: equivalence soundness audit of dictionary vs registry.
  AnalysisReport CheckCatalog(const core::Dictionary& dictionary,
                              const ml::OperatorRegistry& registry) const;

  /// Pass 3: determinism lint over the ops a pipeline can bind.
  AnalysisReport CheckDeterminism(const core::PipelineGraph& graph,
                                  const core::Dictionary& dictionary,
                                  const ml::OperatorRegistry& registry) const;

  /// Pass 4 (cost leg): every augmentation edge weight must be finite and
  /// non-negative, and observed seconds must not be negative.
  AnalysisReport CheckCostMonotonicity(
      const std::vector<double>& edge_weight,
      const std::vector<double>& edge_seconds) const;

  /// Runs the pipeline-level passes (1 and 3) in one call — the Runtime
  /// submit-time entry point.
  AnalysisReport AnalyzePipeline(const core::PipelineGraph& graph,
                                 const core::Dictionary& dictionary,
                                 const ml::OperatorRegistry& registry) const;

  const StaticAnalyzerOptions& options() const { return options_; }

 private:
  StaticAnalyzerOptions options_;
};

}  // namespace hyppo::analysis

#endif  // HYPPO_ANALYSIS_STATIC_STATIC_ANALYZER_H_
