// TAXI exploration with ensembles: regression pipelines on the NYC-taxi
// stand-in, extended with the paper's "advanced analysis" workload —
// StackingRegressor/VotingRegressor ensembles that combine models trained
// in earlier iterations (scenario 3). Reusing the already-fitted base
// models is where equivalence-aware planning shines.

#include <cstdio>

#include "common/string_util.h"
#include "core/hyppo.h"
#include "workload/datagen.h"
#include "workload/pipeline_generator.h"

int main() {
  using namespace hyppo;
  using namespace hyppo::workload;

  const UseCase use_case = UseCase::Taxi();
  const double multiplier = 0.004;  // 4000 rows

  core::RuntimeOptions runtime_options;
  runtime_options.storage_budget_bytes = 4ll << 20;
  core::Runtime runtime(runtime_options);
  runtime.RegisterDatasetGenerator(
      use_case.DatasetId(multiplier), [&]() {
        return GenerateUseCase(use_case, multiplier, /*seed=*/42);
      });
  core::HyppoMethod hyppo(&runtime);
  PipelineGenerator generator(use_case, multiplier, /*seed=*/3);

  auto run = [&](const core::Pipeline& pipeline) {
    auto outcome = hyppo.Run(pipeline);
    outcome.status().Abort("run");
    return std::make_pair(outcome->record.seconds,
                          outcome->plan.edges.size());
  };

  // Phase 1: six ordinary exploratory iterations train a pool of models.
  std::printf("phase 1: exploratory iterations\n");
  for (int i = 0; i < 6; ++i) {
    auto pipeline = generator.Next();
    pipeline.status().Abort("generate");
    auto [seconds, tasks] = run(*pipeline);
    std::printf("  iter %d: %-30s %s (%zu tasks)\n", i,
                generator.history_specs().back().model.Signature().substr(0, 30).c_str(),
                FormatSeconds(seconds).c_str(), tasks);
  }

  // Phase 2: ensembles over the trained models. The shared preprocessing
  // prefix and the base model fits come straight from the history.
  std::printf("\nphase 2: ensembles over past models\n");
  const PipelineSpec base = generator.history_specs().front();
  std::vector<StageSpec> models;
  for (const PipelineSpec& spec : generator.history_specs()) {
    bool duplicate = false;
    for (const StageSpec& m : models) {
      duplicate = duplicate || m.Signature() == spec.model.Signature();
    }
    if (!duplicate && spec.PrefixSignature() == base.PrefixSignature()) {
      models.push_back(spec.model);
    }
  }
  while (models.size() < 2) {
    models.push_back(generator.RandomModel());
  }
  for (const char* ensemble : {"VotingRegressor", "StackingRegressor"}) {
    auto pipeline = generator.BuildEnsemblePipeline(base, models, ensemble,
                                                    std::string("ens-") +
                                                        ensemble);
    pipeline.status().Abort("ensemble");
    auto [seconds, tasks] = run(*pipeline);
    std::printf("  %-18s over %zu base models: %s (%zu tasks)\n", ensemble,
                models.size(), FormatSeconds(seconds).c_str(), tasks);
  }

  std::printf("\nhistory: %d artifacts, %d tasks, %zu materialized\n",
              runtime.history().num_artifacts(),
              runtime.history().num_tasks(),
              runtime.history().MaterializedArtifacts().size());
  return 0;
}
