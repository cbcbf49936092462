// Ablation of the plan-search variants (§IV-E): runtime and plan quality
// of HYPPO-STACK / HYPPO-PRIORITY / the A* extension / the greedy
// linear-time variant, the effect of dominance pruning, and the
// exploration knob c_exp. Exits non-zero when an exact variant (every
// one but GREEDY) returns a plan costlier than the optimum on any graph.
// Pass `--json <path>` to also dump the measurements as a JSON document
// (bench/BENCH_ablation_optimizer.json is a committed snapshot).

#include <cmath>

#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/optimizer.h"
#include "workload/synthetic_hypergraph.h"

namespace {

using namespace hyppo;
using namespace hyppo::bench;
using namespace hyppo::workload;
using Strategy = core::PlanGenerator::Strategy;

struct Row {
  double seconds = 0.0;
  double cost = 0.0;
  int64_t expansions = 0;
};

Row Measure(const core::Augmentation& aug, Strategy strategy,
            bool dominance, double exploration = 0.0) {
  core::PlanGenerator generator;
  core::PlanGenerator::Options options;
  options.strategy = strategy;
  options.dominance_pruning = dominance;
  options.exploration = exploration;
  core::PlanGenerator::SearchStats stats;
  WallClock clock;
  Stopwatch watch(clock);
  auto plan = generator.Optimize(aug, options, &stats);
  plan.status().Abort("optimize");
  Row row;
  row.seconds = watch.Elapsed();
  row.cost = plan->cost;
  row.expansions = stats.expansions;
  return row;
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

  Table strategies({"variant", "mean time", "mean expansions", "cost gap"});
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
  std::vector<double> totals(std::size(variants), 0.0);
  std::vector<double> expansions(std::size(variants), 0.0);
  std::vector<double> gaps(std::size(variants), 0.0);
  bool exact_variants_agree = true;
  for (int rep = 0; rep < repetitions; ++rep) {
    SyntheticConfig config;
    config.num_artifacts = n;
    config.alternatives = m;
    config.seed = 500 + static_cast<uint64_t>(rep);
    auto synthetic = GenerateSyntheticHypergraph(config);
    synthetic.status().Abort("generate");
    double optimal = -1.0;
    for (size_t i = 0; i < std::size(variants); ++i) {
      Row row = Measure(synthetic->aug, variants[i].strategy,
                        variants[i].dominance);
      totals[i] += row.seconds;
      expansions[i] += static_cast<double>(row.expansions);
      if (optimal < 0.0) {
        optimal = row.cost;
      }
      const double gap = row.cost / optimal - 1.0;
      gaps[i] += gap;
      // Exact searches may sum the same optimum in another order, hence
      // the rounding tolerance.
      if (variants[i].strategy != Strategy::kGreedy && std::fabs(gap) > 1e-9) {
        std::fprintf(stderr, "%s: cost gap %.3g on seed %d\n",
                     variants[i].name, gap, 500 + rep);
        exact_variants_agree = false;
      }
    }
  }
  for (size_t i = 0; i < std::size(variants); ++i) {
    strategies.AddRow(
        {variants[i].name, FormatSeconds(totals[i] / repetitions),
         FormatDouble(expansions[i] / repetitions, 0),
         FormatDouble(100.0 * gaps[i] / repetitions, 2) + "%"});
    json.AddRow("variants")
        .Set("variant", variants[i].name)
        .Set("mean_seconds", totals[i] / repetitions)
        .Set("mean_expansions", expansions[i] / repetitions)
        .Set("cost_gap_percent", 100.0 * gaps[i] / repetitions);
  }
  std::printf("\nsearch variants on synthetic graphs (n=%d, m=%d):\n", n, m);
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
    Row row =
        Measure(synthetic->aug, Strategy::kPriority, false, c_exp);
    if (exploitation_cost < 0.0) {
      exploitation_cost = row.cost;
    }
    knob.AddRow({FormatDouble(c_exp, 2), FormatDouble(row.cost, 3),
                 "+" + FormatDouble(
                           100.0 * (row.cost / exploitation_cost - 1.0), 1) +
                     "%"});
    json.AddRow("exploration_knob")
        .Set("c_exp", c_exp)
        .Set("plan_cost", row.cost)
        .Set("vs_exploitation_percent",
             100.0 * (row.cost / exploitation_cost - 1.0));
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
