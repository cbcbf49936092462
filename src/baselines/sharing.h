#ifndef HYPPO_BASELINES_SHARING_H_
#define HYPPO_BASELINES_SHARING_H_

#include <string>
#include <vector>

#include "baselines/no_optimization.h"
#include "core/method.h"

namespace hyppo::baselines {

/// \brief Common-subexpression-elimination baseline: within one request,
/// identical tasks execute once; across requests nothing is kept (no
/// materialization, no equivalences).
///
/// For sequential single-pipeline execution this coincides with
/// NoOptimization (as the paper notes for scenario 1); for retrieval
/// requests over k artifacts (scenario 2) it executes the union of the
/// artifacts' original derivations, sharing common prefixes.
class SharingMethod final : public core::Method {
 public:
  explicit SharingMethod(core::Runtime* runtime) : core::Method(runtime) {}

  std::string name() const override { return "Sharing"; }

  /// One pipeline at a time this is NoOptimization: the pipeline
  /// hypergraph already shares identical subexpressions by construction.
  Result<Planned> PlanPipeline(const core::Pipeline& pipeline) override {
    return PlanAsWritten(*runtime_, pipeline);
  }

  Result<Planned> PlanRetrieval(
      const std::vector<std::string>& artifact_names) override;

  Status AfterExecution(const core::Pipeline& /*pipeline*/,
                        const Planned& /*planned*/,
                        const core::Runtime::ExecutionRecord& /*record*/)
      override {
    return Status::OK();  // never materializes
  }
};

}  // namespace hyppo::baselines

#endif  // HYPPO_BASELINES_SHARING_H_
