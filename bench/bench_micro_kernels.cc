// Micro-benchmark of the ml/kernels compute layer: the scalar reference
// tier vs the simd tier for GEMV (column layout), covariance (shifted
// SYRK), and pairwise squared distances, at several shapes.
//
// Every simd result is checked against the scalar reference with a
// max-abs-diff bound (the cross-tier equivalence gate); a violation exits
// non-zero, so this binary doubles as the CI smoke check for the kernel
// layer. Each time is the median over at least five repeated batches,
// reported with its p10/p90 spread (bench_util's MeasureRepeated). Pass
// `--json [<path>]` to dump the measurements plus a machine section (core
// count and simd tier); bench/BENCH_kernels.json is a committed snapshot.
//
// The simd column (and its gate) appears only when the build's simd tier
// can run here (kernels::SimdEnabled()); a build without a simd tier
// (HYPPO_SIMD_ISA=off) prints the scalar column alone.
//
// The `tree_fit` section times whole tree fits through the operator
// registry: {exact (skl), histogram (lgb)} x {single tree, 20-tree forest,
// 30-stage boosting} at a narrow and a PolynomialFeatures-wide shape. Each
// row also reports the per-level cost coefficient its time implies under
// the fit operators' CostHint formulas (seconds per row x column x level),
// the measurement behind ml::TreeLevelSeconds. Forest fits are also timed
// at 1 and 4 threads at those shapes, and forest and single-tree fits at
// the smallest shape that fans out (ml::TreeFitter::kFanOutMinCells),
// each checked byte for byte against the 1-thread fit. Single trees are
// also timed by thread count at 3000 x 495 (the wide HIGGS training
// split), where their split scans fan out, and at the smallest root node
// that does (ml::TreeFitter::kScanFanOutMinCells).
//
// The `bin_columns` section times the histogram fitter's per-fit work
// (ml::TreeFitter::Make) and, alternated, its binning alone: by arithmetic
// (ml::BinColumn) and by a std::upper_bound search per value over the same
// edges, whose codes the arithmetic ones must equal. The
// `quantile_transform` section times both QuantileTransformer transforms
// at 1 and 4 threads, at 3000 x 30 and at the smallest 30-column shape
// that fans out (ml::kColumnFanOutMinCells), checked byte for byte against
// the 1-thread output.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "ml/kernels/kernels.h"
#include "ml/ops/ops.h"
#include "ml/ops/tree_builder.h"
#include "ml/registry.h"
#include "storage/serialization.h"

namespace {

using namespace hyppo;
using namespace hyppo::bench;
namespace kernels = hyppo::ml::kernels;

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

bool g_equivalence_ok = true;

void Fail(const std::string& message) {
  std::fprintf(stderr, "EQUIVALENCE FAILURE: %s\n", message.c_str());
  g_equivalence_ok = false;
}

// One kernel at one shape: the scalar reference, and the simd tier when
// it can run here, each writing into its own output buffer.
struct Case {
  std::string kernel;
  std::string shape;
  double flops = 0.0;
  // Max-abs-diff bound of simd against scalar.
  double bound = 0.0;
  std::function<void()> scalar;
  std::function<void()> simd;
  const std::vector<double>* scalar_out = nullptr;
  const std::vector<double>* simd_out = nullptr;
};

// Times both tiers of `c`, gates simd against scalar, prints a table row
// per tier, and appends JSON rows.
void RunCase(const Case& c, bool simd_on, Table& table, JsonWriter& json) {
  const RepeatedMeasurement scalar = MeasureRepeated(c.scalar);
  const double scalar_median = scalar.median;
  const auto report = [&](const char* variant,
                          const RepeatedMeasurement& m, double max_diff) {
    const double gflops = m.median > 0.0 ? c.flops / m.median / 1e9 : 0.0;
    if (gflops <= 0.0) {
      Fail(c.kernel + "/" + c.shape + "/" + variant + " zero throughput");
    }
    table.AddRow({c.kernel, c.shape, variant,
                  FormatDouble(m.median * 1e3, 3) + " ms",
                  FormatDouble(m.p10 * 1e3, 3) + "-" +
                      FormatDouble(m.p90 * 1e3, 3) + " ms",
                  FormatDouble(gflops, 2), Speedup(scalar_median, m.median),
                  FormatDouble(max_diff, 3)});
    json.AddRow(c.kernel)
        .Set("shape", c.shape)
        .Set("variant", variant)
        .Set("seconds", m.median)
        .Set("p10_seconds", m.p10)
        .Set("p90_seconds", m.p90)
        .Set("repeats", static_cast<double>(m.repeats))
        .Set("gflops", gflops)
        .Set("speedup_vs_scalar",
             m.median > 0.0 ? scalar_median / m.median : 0.0)
        .Set("max_abs_diff", max_diff);
  };
  report("scalar", scalar, 0.0);
  if (simd_on) {
    const RepeatedMeasurement simd = MeasureRepeated(c.simd);
    const double max_diff = MaxAbsDiff(*c.scalar_out, *c.simd_out);
    if (max_diff > c.bound) {
      Fail(c.kernel + "/" + c.shape + "/simd max_abs_diff " +
           FormatDouble(max_diff, 3) + " > bound " +
           FormatDouble(c.bound, 3));
    }
    report("simd", simd, max_diff);
  }
}

std::vector<double> RandomVector(size_t n, Rng& rng) {
  std::vector<double> out(n);
  for (double& v : out) {
    v = rng.Gaussian();
  }
  return out;
}

struct Shape {
  int64_t rows = 0;  // data rows
  int64_t cols = 0;  // data columns
  int64_t k = 0;     // centers
};

// Rows of the fan-out floor shape, whose columns make up the floor's
// cells.
constexpr int64_t kFloorRows = 100;

// One tree model family of the tree_fit section, with the CostHint factor
// that multiplies its per-level cost: trees x depth x 0.5 for forests
// (feature subsampling), depth for one tree, stages x depth for boosting.
struct TreeModel {
  const char* name;
  const char* logical_op;
  int64_t n_estimators;  // 0 for a single tree
  int64_t max_depth;
  double cost_factor;
  bool regression;
};

constexpr TreeModel kTreeModel = {"tree", "DecisionTreeClassifier", 0, 6,
                                  6.0, false};
constexpr TreeModel kForestModel = {"forest", "RandomForestClassifier", 20,
                                    8, 20.0 * 8.0 * 0.5, false};
constexpr TreeModel kBoostingModel = {"boosting",
                                      "GradientBoostingRegressor", 30, 3,
                                      30.0 * 3.0, true};
constexpr TreeModel kModels[] = {kTreeModel, kForestModel, kBoostingModel};

// Gaussian features with a linear-rule target (binary, or continuous for
// regression models).
ml::DatasetPtr TreeData(int64_t rows, int64_t cols, bool regression,
                        Rng& rng) {
  auto data = std::make_shared<ml::Dataset>(rows, cols);
  std::vector<double> target(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    double dot = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double v = rng.Gaussian();
      data->at(r, c) = v;
      dot += (c % 3 == 0 ? 1.0 : -0.5) * v;
    }
    target[static_cast<size_t>(r)] =
        regression ? dot + 0.1 * rng.Gaussian() : (dot > 0.0 ? 1.0 : 0.0);
  }
  data->set_target(std::move(target));
  return data;
}

// Times every tree model in both modes at one shape; returns the implied
// per-level coefficients of the exact and the histogram fits.
void RunTreeFits(const Shape& shape, Table& table, JsonWriter& json,
                 std::vector<double>& exact_coeffs,
                 std::vector<double>& histogram_coeffs) {
  Rng rng(7);
  const std::string shape_name =
      std::to_string(shape.rows) + "x" + std::to_string(shape.cols);
  const double cells = static_cast<double>(shape.rows * shape.cols);
  for (const TreeModel& model : kModels) {
    ml::TaskInputs inputs;
    inputs.datasets.push_back(
        TreeData(shape.rows, shape.cols, model.regression, rng));
    ml::Config config;
    config.SetInt("max_depth", model.max_depth);
    if (model.n_estimators > 0) {
      config.SetInt("n_estimators", model.n_estimators);
    }
    for (const char* framework : {"skl", "lgb"}) {
      const std::string impl =
          std::string(framework) + "." + model.logical_op;
      auto op = ml::OperatorRegistry::Global().Get(impl);
      if (!op.ok()) {
        Fail(impl + ": " + op.status().ToString());
        continue;
      }
      bool fit_ok = true;
      const RepeatedMeasurement m = MeasureRepeated([&]() {
        fit_ok = fit_ok && (*op)->Execute(ml::MlTask::kFit, inputs, config)
                               .ok();
      });
      if (!fit_ok) {
        Fail(impl + "/" + shape_name + " fit failed");
      }
      const bool histogram = std::string(framework) == "lgb";
      const double coeff = m.median / (model.cost_factor * cells);
      (histogram ? histogram_coeffs : exact_coeffs).push_back(coeff);
      table.AddRow({model.name, histogram ? "histogram" : "exact",
                    shape_name, FormatDouble(m.median * 1e3, 3) + " ms",
                    FormatDouble(m.p10 * 1e3, 3) + "-" +
                        FormatDouble(m.p90 * 1e3, 3) + " ms",
                    FormatDouble(coeff * 1e9, 3)});
      json.AddRow("tree_fit")
          .Set("model", model.name)
          .Set("impl", impl)
          .Set("mode", histogram ? "histogram" : "exact")
          .Set("shape", shape_name)
          .Set("seconds", m.median)
          .Set("p10_seconds", m.p10)
          .Set("p90_seconds", m.p90)
          .Set("repeats", static_cast<double>(m.repeats))
          .Set("level_cell_seconds", coeff);
    }
  }
}

// Fits by thread count: no pool (the executor's path at parallelism 1)
// and a pool of three workers (parallelism 4). The 4-thread fit must
// reproduce the 1-thread op-state byte for byte.
void RunThreadCounts(const Shape& shape, const TreeModel& model,
                     Table& table, JsonWriter& json) {
  Rng rng(11);
  const std::string shape_name =
      std::to_string(shape.rows) + "x" + std::to_string(shape.cols);
  ml::TaskInputs inputs;
  inputs.datasets.push_back(
      TreeData(shape.rows, shape.cols, model.regression, rng));
  ml::Config config;
  config.SetInt("max_depth", model.max_depth);
  if (model.n_estimators > 0) {
    config.SetInt("n_estimators", model.n_estimators);
  }
  ThreadPool pool(3);
  for (const char* framework : {"skl", "lgb"}) {
    const std::string impl = std::string(framework) + "." + model.logical_op;
    auto op = ml::OperatorRegistry::Global().Get(impl);
    if (!op.ok()) {
      Fail(impl + ": " + op.status().ToString());
      continue;
    }
    double one_thread_seconds = 0.0;
    std::string one_thread_bytes;
    for (const int threads : {1, 4}) {
      inputs.pool = threads == 1 ? nullptr : &pool;
      bool fit_ok = true;
      ml::OpStatePtr state;
      const RepeatedMeasurement m = MeasureRepeated([&]() {
        auto out = (*op)->Execute(ml::MlTask::kFit, inputs, config);
        fit_ok = fit_ok && out.ok();
        if (out.ok()) {
          state = out->states[0];
        }
      });
      auto bytes = storage::SerializePayload(state);
      if (!fit_ok || !bytes.ok()) {
        Fail(impl + "/" + shape_name + " fit failed");
        continue;
      }
      if (threads == 1) {
        one_thread_seconds = m.median;
        one_thread_bytes = *bytes;
      }
      const bool identical = *bytes == one_thread_bytes;
      if (!identical) {
        Fail(impl + "/" + shape_name + " op-state differs at " +
             std::to_string(threads) + " threads");
      }
      const double speedup = one_thread_seconds / m.median;
      table.AddRow({impl, shape_name, std::to_string(threads),
                    FormatDouble(m.median * 1e3, 3) + " ms",
                    FormatDouble(m.p10 * 1e3, 3) + "-" +
                        FormatDouble(m.p90 * 1e3, 3) + " ms",
                    FormatDouble(speedup, 2) + "x"});
      json.AddRow("tree_fit")
          .Set("model", model.name)
          .Set("impl", impl)
          .Set("mode", std::string(framework) == "lgb" ? "histogram"
                                                       : "exact")
          .Set("shape", shape_name)
          .Set("threads", static_cast<double>(threads))
          .Set("seconds", m.median)
          .Set("p10_seconds", m.p10)
          .Set("p90_seconds", m.p90)
          .Set("repeats", static_cast<double>(m.repeats))
          .Set("speedup_vs_1_thread", speedup)
          .Set("identical", identical ? "true" : "false");
    }
  }
}

// Histogram binning at one shape; see the header comment.
void RunBinColumns(const Shape& shape, Table& table, JsonWriter& json) {
  Rng rng(13);
  const std::string shape_name =
      std::to_string(shape.rows) + "x" + std::to_string(shape.cols);
  const ml::DatasetPtr data =
      TreeData(shape.rows, shape.cols, /*regression=*/false, rng);
  ml::TreeOptions options;
  options.histogram = true;
  const size_t n = static_cast<size_t>(shape.rows);
  const size_t d = static_cast<size_t>(shape.cols);
  std::vector<std::vector<double>> edges(d);
  std::vector<uint8_t> codes(n * d);
  std::vector<uint8_t> searched(n * d);
  const auto bin = [&]() {
    for (size_t c = 0; c < d; ++c) {
      ml::BinColumn(data->col_data(static_cast<int64_t>(c)), n,
                    options.max_bins, edges[c], codes.data() + c * n);
    }
  };
  bin();  // the search below reads these edges
  bool make_ok = true;
  const std::vector<RepeatedMeasurement> m = MeasureRepeated(
      {[&]() { make_ok = make_ok && ml::TreeFitter::Make(*data, options).ok(); },
       bin,
       [&]() {
         for (size_t c = 0; c < d; ++c) {
           const double* col = data->col_data(static_cast<int64_t>(c));
           const std::vector<double>& e = edges[c];
           for (size_t r = 0; r < n; ++r) {
             searched[c * n + r] = static_cast<uint8_t>(
                 std::upper_bound(e.begin(), e.end(), col[r]) - e.begin());
           }
         }
       }});
  const bool identical = codes == searched;
  if (!make_ok || !identical) {
    Fail("bin_columns/" + shape_name +
         (make_ok ? " arithmetic codes differ from search" : " Make failed"));
  }
  table.AddRow({shape_name, FormatDouble(m[0].median * 1e3, 3) + " ms",
                FormatDouble(m[0].p10 * 1e3, 3) + "-" +
                    FormatDouble(m[0].p90 * 1e3, 3) + " ms",
                FormatDouble(m[1].median * 1e3, 3) + " ms",
                FormatDouble(m[2].median * 1e3, 3) + " ms",
                identical ? "yes" : "NO"});
  json.AddRow("bin_columns")
      .Set("shape", shape_name)
      .Set("max_bins", static_cast<double>(options.max_bins))
      .Set("seconds", m[0].median)
      .Set("p10_seconds", m[0].p10)
      .Set("p90_seconds", m[0].p90)
      .Set("repeats", static_cast<double>(m[0].repeats))
      .Set("arithmetic_seconds", m[1].median)
      .Set("arithmetic_p10_seconds", m[1].p10)
      .Set("arithmetic_p90_seconds", m[1].p90)
      .Set("search_seconds", m[2].median)
      .Set("search_p10_seconds", m[2].p10)
      .Set("search_p90_seconds", m[2].p90)
      .Set("identical", identical ? "true" : "false");
}

// QuantileTransformer transforms at 1 and 4 threads, alternated; the
// 4-thread output must reproduce the 1-thread output byte for byte.
void RunQuantileTransform(const Shape& shape, Table& table,
                          JsonWriter& json) {
  Rng rng(17);
  const std::string shape_name =
      std::to_string(shape.rows) + "x" + std::to_string(shape.cols);
  const ml::DatasetPtr data =
      TreeData(shape.rows, shape.cols, /*regression=*/true, rng);
  ThreadPool pool(3);
  for (const char* impl :
       {"skl.QuantileTransformer", "tfl.QuantileTransformer"}) {
    auto op = ml::OperatorRegistry::Global().Get(impl);
    if (!op.ok()) {
      Fail(std::string(impl) + ": " + op.status().ToString());
      continue;
    }
    ml::TaskInputs fit_inputs;
    fit_inputs.datasets.push_back(data);
    auto fitted = (*op)->Execute(ml::MlTask::kFit, fit_inputs, ml::Config());
    if (!fitted.ok()) {
      Fail(std::string(impl) + "/" + shape_name + " fit failed");
      continue;
    }
    std::vector<ml::DatasetPtr> outputs(2);
    std::vector<std::function<void()>> variants;
    for (size_t v = 0; v < 2; ++v) {
      variants.push_back([&, v]() {
        ml::TaskInputs inputs;
        inputs.datasets.push_back(data);
        inputs.states.push_back(fitted->states[0]);
        inputs.pool = v == 0 ? nullptr : &pool;
        auto out =
            (*op)->Execute(ml::MlTask::kTransform, inputs, ml::Config());
        outputs[v] = out.ok() ? out->datasets[0] : nullptr;
      });
    }
    const std::vector<RepeatedMeasurement> m = MeasureRepeated(variants);
    std::vector<std::string> bytes(2);
    bool ok = true;
    for (size_t v = 0; v < 2; ++v) {
      auto serialized = outputs[v] != nullptr
                            ? storage::SerializePayload(outputs[v])
                            : Result<std::string>(Status::InvalidArgument("transform failed"));
      ok = ok && serialized.ok();
      if (serialized.ok()) {
        bytes[v] = std::move(*serialized);
      }
    }
    const bool identical = ok && bytes[0] == bytes[1];
    if (!identical) {
      Fail(std::string(impl) + "/" + shape_name +
           " transform differs at 4 threads");
    }
    for (size_t v = 0; v < 2; ++v) {
      const int threads = v == 0 ? 1 : 4;
      const double speedup = m[0].median / m[v].median;
      table.AddRow({impl, shape_name, std::to_string(threads),
                    FormatDouble(m[v].median * 1e3, 3) + " ms",
                    FormatDouble(m[v].p10 * 1e3, 3) + "-" +
                        FormatDouble(m[v].p90 * 1e3, 3) + " ms",
                    FormatDouble(speedup, 2) + "x"});
      json.AddRow("quantile_transform")
          .Set("impl", impl)
          .Set("shape", shape_name)
          .Set("threads", static_cast<double>(threads))
          .Set("seconds", m[v].median)
          .Set("p10_seconds", m[v].p10)
          .Set("p90_seconds", m[v].p90)
          .Set("repeats", static_cast<double>(m[v].repeats))
          .Set("speedup_vs_1_thread", speedup)
          .Set("identical", identical ? "true" : "false");
    }
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  Banner("Kernel micro-benchmarks: scalar reference vs simd tier",
         "ml/kernels dispatch layer (docs/KERNELS.md)");

  const bool simd_on = kernels::SimdEnabled();
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("machine: cores=%u simd build=%s backend=%s enabled=%s\n\n",
              cores, kernels::SimdBuildIsa(), kernels::simd::BackendName(),
              simd_on ? "yes" : "no (simd column skipped)");
  JsonWriter json("bench_micro_kernels");
  json.AddRow("machine")
      .Set("cores", static_cast<double>(cores))
      .Set("simd_build_isa", kernels::SimdBuildIsa())
      .Set("simd_backend", kernels::simd::BackendName())
      .Set("simd_enabled", simd_on ? "true" : "false");

  std::vector<Shape> data_shapes;  // rows x cols (x centers)
  // HIGGS at the perfbench scale, raw (30 columns) and widened by degree-2
  // PolynomialFeatures (30 + 30 * 31 / 2 = 495 columns), and its 3000-row
  // training split.
  std::vector<Shape> tree_shapes = {{4000, 30, 0}, {4000, 495, 0}};
  std::vector<Shape> bin_shapes = {{4000, 30, 0}, {3000, 495, 0}};
  Shape wide_split = {3000, 495, 0};
  Shape quantile_shape = {3000, 30, 0};
  switch (BenchScale()) {
    case Scale::kSmoke:
      data_shapes = {{2048, 16, 8}, {1024, 32, 4}};
      tree_shapes = {{500, 8, 0}, {500, 40, 0}};
      bin_shapes = {{500, 40, 0}};
      wide_split = {500, 40, 0};
      quantile_shape = {500, 8, 0};
      break;
    case Scale::kFull:
      data_shapes = {{200000, 28, 8}, {100000, 64, 16}, {400000, 16, 32}};
      break;
    case Scale::kReduced:
      data_shapes = {{50000, 28, 8}, {100000, 16, 16}};
      break;
  }

  Table table({"kernel", "shape", "variant", "median", "p10-p90", "GFLOP/s",
               "vs scalar", "max|diff|"});
  Rng rng(42);

  for (const Shape& shape : data_shapes) {
    const int64_t rows = shape.rows;
    const int64_t d = shape.cols;
    const int64_t k = shape.k;
    const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
    std::vector<const double*> cols(static_cast<size_t>(d));
    for (int64_t c = 0; c < d; ++c) {
      cols[static_cast<size_t>(c)] = values.data() + c * rows;
    }
    const auto weights = RandomVector(static_cast<size_t>(d), rng);
    const auto shiftv = RandomVector(static_cast<size_t>(d), rng);
    const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
    const std::string rows_x_d =
        std::to_string(rows) + "x" + std::to_string(d);

    std::vector<double> y_ref(static_cast<size_t>(rows));
    std::vector<double> y_simd(static_cast<size_t>(rows));
    RunCase({"gemv_columns", rows_x_d, 2.0 * static_cast<double>(rows * d),
             1e-10 * static_cast<double>(d),
             [&]() {
               kernels::ref::GemvColumns(cols.data(), rows, d, shiftv.data(),
                                         weights.data(), 0.5, y_ref.data());
             },
             [&]() {
               kernels::simd::GemvColumns(cols.data(), rows, d, shiftv.data(),
                                          weights.data(), 0.5, y_simd.data());
             },
             &y_ref, &y_simd},
            simd_on, table, json);

    std::vector<double> g_ref(static_cast<size_t>(d * d));
    std::vector<double> g_simd(static_cast<size_t>(d * d));
    RunCase({"covariance", rows_x_d, static_cast<double>(rows * d * (d + 1)),
             1e-9 * static_cast<double>(rows),
             [&]() {
               kernels::ref::GramColumns(cols.data(), rows, d, shiftv.data(),
                                         nullptr, g_ref.data());
             },
             [&]() {
               kernels::simd::GramColumns(cols.data(), rows, d, shiftv.data(),
                                          nullptr, g_simd.data());
             },
             &g_ref, &g_simd},
            simd_on, table, json);

    std::vector<double> dist_ref(static_cast<size_t>(rows * k));
    std::vector<double> dist_simd(static_cast<size_t>(rows * k));
    RunCase({"distances", rows_x_d + "x" + std::to_string(k),
             3.0 * static_cast<double>(rows * d * k),
             1e-10 * static_cast<double>(d),
             [&]() {
               kernels::ref::PairwiseSquaredDistances(
                   cols.data(), rows, d, centers.data(), k, dist_ref.data());
             },
             [&]() {
               kernels::simd::PairwiseSquaredDistances(
                   cols.data(), rows, d, centers.data(), k, dist_simd.data());
             },
             &dist_ref, &dist_simd},
            simd_on, table, json);
  }

  Table tree_table({"model", "mode", "shape", "median", "p10-p90",
                    "ns/cell/level"});
  std::vector<double> exact_coeffs;
  std::vector<double> histogram_coeffs;
  for (const Shape& shape : tree_shapes) {
    RunTreeFits(shape, tree_table, json, exact_coeffs, histogram_coeffs);
  }
  Table thread_table(
      {"fit", "shape", "threads", "median", "p10-p90", "vs 1 thread"});
  for (const Shape& shape : tree_shapes) {
    RunThreadCounts(shape, kForestModel, thread_table, json);
  }
  // The smallest shape that fans out: forests and, for the per-column
  // work alone, a single tree.
  const Shape floor_shape = {
      kFloorRows,
      (ml::TreeFitter::kFanOutMinCells + kFloorRows - 1) / kFloorRows, 0};
  RunThreadCounts(floor_shape, kForestModel, thread_table, json);
  RunThreadCounts(floor_shape, kTreeModel, thread_table, json);
  // Single trees whose split scans fan out: the wide training split, and
  // the smallest root node that scans over the pool.
  RunThreadCounts(wide_split, kTreeModel, thread_table, json);
  const Shape scan_floor_shape = {
      kFloorRows,
      (ml::TreeFitter::kScanFanOutMinCells + kFloorRows - 1) / kFloorRows, 0};
  RunThreadCounts(scan_floor_shape, kTreeModel, thread_table, json);
  Table bin_table({"shape", "Make", "p10-p90", "binning: arithmetic",
                   "search", "identical"});
  for (const Shape& shape : bin_shapes) {
    RunBinColumns(shape, bin_table, json);
  }
  Table quantile_table(
      {"transform", "shape", "threads", "median", "p10-p90", "vs 1 thread"});
  RunQuantileTransform(quantile_shape, quantile_table, json);
  // The smallest shape whose columns fan out.
  RunQuantileTransform(
      {(ml::kColumnFanOutMinCells + quantile_shape.cols - 1) /
           quantile_shape.cols,
       quantile_shape.cols, 0},
      quantile_table, json);

  table.Print();
  std::printf("\ntree fits (tree_fit section):\n");
  tree_table.Print();
  std::printf("median per-level cost: exact %.3g s, histogram %.3g s per "
              "row x column\n",
              Median(exact_coeffs), Median(histogram_coeffs));
  std::printf("\nfits by thread count (tree_fit section, "
              "fan-out floor %lld cells):\n",
              static_cast<long long>(ml::TreeFitter::kFanOutMinCells));
  thread_table.Print();
  std::printf("\nhistogram binning (bin_columns section, serial):\n");
  bin_table.Print();
  std::printf("\nQuantileTransformer transforms by thread count "
              "(quantile_transform section):\n");
  quantile_table.Print();
  const std::string json_path = ResolveJsonPath(args, "BENCH_kernels.json");
  if (!json.WriteTo(json_path)) {
    return 1;
  }
  if (!g_equivalence_ok) {
    std::fprintf(stderr, "bench_micro_kernels: equivalence checks FAILED\n");
    return 1;
  }
  std::printf("equivalence checks passed\n");
  return 0;
}
