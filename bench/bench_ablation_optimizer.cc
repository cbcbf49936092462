// Ablation of the plan-search variants (§IV-E): runtime and plan quality
// of HYPPO-STACK / HYPPO-PRIORITY / the A* extension / the greedy
// linear-time variant, the effect of dominance pruning, and the
// exploration knob c_exp. Search times are medians (with p10/p90) of
// MeasureRepeated batches that alternate between the variants. Exits
// non-zero when an exact variant (every one but GREEDY) returns a plan
// costlier than the optimum on any graph.
// Pass `--json <path>` to also dump the measurements as a JSON document
// (bench/BENCH_ablation_optimizer.json is a committed snapshot).

#include <cmath>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/optimizer.h"
#include "workload/synthetic_hypergraph.h"

namespace {

using namespace hyppo;
using namespace hyppo::bench;
using namespace hyppo::workload;
using Strategy = core::PlanGenerator::Strategy;

core::PlanGenerator::Options MakeOptions(Strategy strategy, bool dominance,
                                         double exploration = 0.0) {
  core::PlanGenerator::Options options;
  options.strategy = strategy;
  options.dominance_pruning = dominance;
  options.exploration = exploration;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  Banner("Plan-search ablation", "§IV-E variants and extensions");
  const Scale scale = BenchScale();
  const bool full = scale == Scale::kFull;
  const int n = scale == Scale::kSmoke ? 8 : (full ? 18 : 14);
  const int m = 2;
  const int repetitions = scale == Scale::kSmoke ? 1 : (full ? 10 : 4);
  JsonWriter json("ablation_optimizer");
  const core::PlanGenerator generator;

  Table strategies({"variant", "median time", "p10", "p90",
                    "mean expansions", "cost gap"});
  struct Variant {
    const char* name;
    Strategy strategy;
    bool dominance;
  };
  const Variant variants[] = {
      {"STACK", Strategy::kStack, false},
      {"STACK + dominance", Strategy::kStack, true},
      {"PRIORITY", Strategy::kPriority, false},
      {"PRIORITY + dominance", Strategy::kPriority, true},
      {"A* (extension)", Strategy::kAStar, false},
      {"A* + dominance", Strategy::kAStar, true},
      {"GREEDY (linear)", Strategy::kGreedy, false},
  };
  std::vector<core::Augmentation> graphs;
  for (int rep = 0; rep < repetitions; ++rep) {
    SyntheticConfig config;
    config.num_artifacts = n;
    config.alternatives = m;
    config.seed = 500 + static_cast<uint64_t>(rep);
    auto synthetic = GenerateSyntheticHypergraph(config);
    synthetic.status().Abort("generate");
    graphs.push_back(std::move(synthetic->aug));
  }
  // Plan quality: one search per variant and graph (searches are
  // deterministic), against the first variant's optimum.
  std::vector<double> expansions(std::size(variants), 0.0);
  std::vector<double> gaps(std::size(variants), 0.0);
  bool exact_variants_agree = true;
  for (size_t g = 0; g < graphs.size(); ++g) {
    double optimal = -1.0;
    for (size_t i = 0; i < std::size(variants); ++i) {
      core::PlanGenerator::SearchStats stats;
      auto plan = generator.Optimize(
          graphs[g], MakeOptions(variants[i].strategy, variants[i].dominance),
          &stats);
      plan.status().Abort("optimize");
      expansions[i] += static_cast<double>(stats.expansions);
      if (optimal < 0.0) {
        optimal = plan->cost;
      }
      const double gap = plan->cost / optimal - 1.0;
      gaps[i] += gap;
      // Exact searches may sum the same optimum in another order, hence
      // the rounding tolerance.
      if (variants[i].strategy != Strategy::kGreedy && std::fabs(gap) > 1e-9) {
        std::fprintf(stderr, "%s: cost gap %.3g on seed %d\n",
                     variants[i].name, gap, 500 + static_cast<int>(g));
        exact_variants_agree = false;
      }
    }
  }
  // Search time: one call solves every graph once, so a measurement
  // divided by the graph count is the mean search time per graph.
  std::vector<std::function<void()>> timed;
  for (const Variant& variant : variants) {
    const core::PlanGenerator::Options options =
        MakeOptions(variant.strategy, variant.dominance);
    timed.push_back([&generator, &graphs, options]() {
      for (const core::Augmentation& aug : graphs) {
        generator.Optimize(aug, options).status().Abort("optimize");
      }
    });
  }
  const std::vector<RepeatedMeasurement> measured = MeasureRepeated(timed);
  const double per_graph = 1.0 / static_cast<double>(graphs.size());
  for (size_t i = 0; i < std::size(variants); ++i) {
    const RepeatedMeasurement& t = measured[i];
    strategies.AddRow(
        {variants[i].name, FormatSeconds(t.median * per_graph),
         FormatSeconds(t.p10 * per_graph), FormatSeconds(t.p90 * per_graph),
         FormatDouble(expansions[i] / repetitions, 0),
         FormatDouble(100.0 * gaps[i] / repetitions, 2) + "%"});
    json.AddRow("variants")
        .Set("variant", variants[i].name)
        .Set("repeats", t.repeats)
        .Set("median_seconds", t.median * per_graph)
        .Set("p10_seconds", t.p10 * per_graph)
        .Set("p90_seconds", t.p90 * per_graph)
        .Set("mean_expansions", expansions[i] / repetitions)
        .Set("cost_gap_percent", 100.0 * gaps[i] / repetitions);
  }
  std::printf(
      "\nsearch variants on %d synthetic graphs (n=%d, m=%d), time per "
      "graph:\n",
      repetitions, n, m);
  strategies.Print();

  // Exploration knob: forcing new tasks raises plan cost monotonically.
  std::printf("\nexploration knob c_exp (plan cost vs exploitation):\n");
  SyntheticConfig config;
  config.num_artifacts = 12;
  config.alternatives = 2;
  config.seed = 99;
  auto synthetic = GenerateSyntheticHypergraph(config);
  synthetic.status().Abort("generate");
  // Mark half the edges as new tasks.
  for (EdgeId e : synthetic->aug.graph.hypergraph().LiveEdges()) {
    if (e % 2 == 0 &&
        synthetic->aug.graph.task(e).type != core::TaskType::kLoad) {
      synthetic->aug.new_tasks.push_back(e);
    }
  }
  Table knob({"c_exp", "plan cost", "vs exploitation"});
  double exploitation_cost = -1.0;
  for (double c_exp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    auto plan = generator.Optimize(
        synthetic->aug, MakeOptions(Strategy::kPriority, false, c_exp));
    plan.status().Abort("optimize");
    if (exploitation_cost < 0.0) {
      exploitation_cost = plan->cost;
    }
    knob.AddRow({FormatDouble(c_exp, 2), FormatDouble(plan->cost, 3),
                 "+" + FormatDouble(
                           100.0 * (plan->cost / exploitation_cost - 1.0), 1) +
                     "%"});
    json.AddRow("exploration_knob")
        .Set("c_exp", c_exp)
        .Set("plan_cost", plan->cost)
        .Set("vs_exploitation_percent",
             100.0 * (plan->cost / exploitation_cost - 1.0));
  }
  knob.Print();
  std::printf(
      "\nExpected: dominance pruning and A* cut expansions without\n"
      "changing plan cost; GREEDY trades a small cost gap for linear time;\n"
      "plan cost grows with c_exp (the price of exploration).\n");
  const std::string json_path =
      hyppo::bench::ResolveJsonPath(args, "BENCH_ablation_optimizer.json");
  if (!json.WriteTo(json_path)) {
    return 1;
  }
  if (!exact_variants_agree) {
    std::fprintf(stderr, "FAIL: an exact search variant missed the optimum\n");
    return 1;
  }
  return 0;
}
