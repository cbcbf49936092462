#ifndef HYPPO_BASELINES_NO_OPTIMIZATION_H_
#define HYPPO_BASELINES_NO_OPTIMIZATION_H_

#include <string>

#include "core/method.h"

namespace hyppo::baselines {

/// Plans `pipeline` exactly as written: every task of its hypergraph, with
/// no history, no materialized artifacts and no equivalences. The plan of
/// NoOptimization, and of Sharing for single pipelines.
Result<core::Method::Planned> PlanAsWritten(core::Runtime& runtime,
                                            const core::Pipeline& pipeline);

/// \brief The paper's straw man: executes every pipeline exactly as
/// written — no reuse, no materialization, no equivalences.
class NoOptimizationMethod final : public core::Method {
 public:
  explicit NoOptimizationMethod(core::Runtime* runtime)
      : core::Method(runtime) {}

  std::string name() const override { return "NoOptimization"; }

  Result<Planned> PlanPipeline(const core::Pipeline& pipeline) override {
    return PlanAsWritten(*runtime_, pipeline);
  }

  Status AfterExecution(const core::Pipeline& /*pipeline*/,
                        const Planned& /*planned*/,
                        const core::Runtime::ExecutionRecord& /*record*/)
      override {
    return Status::OK();  // never materializes
  }
};

}  // namespace hyppo::baselines

#endif  // HYPPO_BASELINES_NO_OPTIMIZATION_H_
