#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// QuantileTransformer: maps each feature to a uniform [0,1] distribution
// via its empirical CDF over `n_quantiles` reference points (linear
// interpolation between them, clipping outside the fitted range).
//
// skl: per-value binary search over the quantile grid. tfl: sorts the
// incoming column once and sweeps the grid in a single merge pass.
// Identical outputs, different complexity profiles (q-grid lookups vs.
// n log n sort).

OpStatePtr MakeState(std::vector<double> quantiles, int64_t n_quantiles,
                     int64_t cols) {
  auto state = std::make_shared<VectorState>("QuantileTransformer");
  state->vectors["quantiles"] = std::move(quantiles);  // cols x q
  state->scalars["q"] = static_cast<double>(n_quantiles);
  state->scalars["d"] = static_cast<double>(cols);
  return state;
}

// CDF value of x over an ascending quantile grid, linearly interpolated.
double GridCdf(const double* grid, int64_t q, double x) {
  if (x <= grid[0]) {
    return 0.0;
  }
  if (x >= grid[q - 1]) {
    return 1.0;
  }
  const double* hi = std::upper_bound(grid, grid + q, x);
  const int64_t index = hi - grid;  // in [1, q-1]
  const double lo_value = grid[index - 1];
  const double hi_value = grid[index];
  const double lo_cdf =
      static_cast<double>(index - 1) / static_cast<double>(q - 1);
  const double hi_cdf = static_cast<double>(index) / static_cast<double>(q - 1);
  if (hi_value <= lo_value) {
    return lo_cdf;
  }
  return lo_cdf + (hi_cdf - lo_cdf) * (x - lo_value) / (hi_value - lo_value);
}

class QuantileTransformerBase : public Estimator {
 public:
  explicit QuantileTransformerBase(std::string framework)
      : Estimator("QuantileTransformer", std::move(framework),
                  /*transforms=*/true, /*predicts=*/false) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    if (task == MlTask::kFit) {
      return 9e-9 * cells *
             std::log2(std::max<double>(2.0, static_cast<double>(rows)));
    }
    return 4e-9 * cells;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() < 2) {
      return Status::InvalidArgument(
          "QuantileTransformer.fit: needs at least two rows");
    }
    const int64_t q = std::clamp<int64_t>(
        config.GetInt("n_quantiles", 100), 2, data.rows());
    std::vector<double> quantiles(static_cast<size_t>(data.cols() * q));
    std::vector<double> buf;
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      buf.assign(col, col + data.rows());
      std::sort(buf.begin(), buf.end());
      for (int64_t k = 0; k < q; ++k) {
        const double pos = static_cast<double>(k) /
                           static_cast<double>(q - 1) *
                           static_cast<double>(buf.size() - 1);
        const size_t lo = static_cast<size_t>(pos);
        const double frac = pos - static_cast<double>(lo);
        const double value =
            lo + 1 < buf.size()
                ? buf[lo] * (1.0 - frac) + buf[lo + 1] * frac
                : buf[lo];
        quantiles[static_cast<size_t>(c * q + k)] = value;
      }
    }
    return MakeState(std::move(quantiles), q, data.cols());
  }

  Result<const VectorState*> GetState(const OpState& state,
                                      const Dataset& data) const {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr ||
        static_cast<int64_t>(vs->scalar("d")) != data.cols()) {
      return Status::InvalidArgument(
          impl_name() + ".transform: incompatible op-state");
    }
    return vs;
  }
};

// Per-value binary search.
class SklQuantileTransformer final : public QuantileTransformerBase {
 public:
  SklQuantileTransformer() : QuantileTransformerBase("skl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    HYPPO_ASSIGN_OR_RETURN(const VectorState* vs, GetState(state, data));
    const int64_t q = static_cast<int64_t>(vs->scalar("q"));
    const std::vector<double>& grid = vs->vec("quantiles");
    Dataset out(data.rows(), data.cols());
    out.set_column_names(data.column_names());
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* src = data.col_data(c);
      double* dst = out.col_data(c);
      const double* col_grid = grid.data() + c * q;
      for (int64_t r = 0; r < data.rows(); ++r) {
        dst[r] = GridCdf(col_grid, q, src[r]);
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

// Sort-and-merge: identical values, one sort + linear sweep per column.
class TflQuantileTransformer final : public QuantileTransformerBase {
 public:
  TflQuantileTransformer() : QuantileTransformerBase("tfl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    HYPPO_ASSIGN_OR_RETURN(const VectorState* vs, GetState(state, data));
    const int64_t q = static_cast<int64_t>(vs->scalar("q"));
    const std::vector<double>& grid = vs->vec("quantiles");
    Dataset out(data.rows(), data.cols());
    out.set_column_names(data.column_names());
    std::vector<int64_t> order(static_cast<size_t>(data.rows()));
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* src = data.col_data(c);
      double* dst = out.col_data(c);
      const double* col_grid = grid.data() + c * q;
      for (int64_t r = 0; r < data.rows(); ++r) {
        order[static_cast<size_t>(r)] = r;
      }
      std::sort(order.begin(), order.end(),
                [src](int64_t a, int64_t b) { return src[a] < src[b]; });
      int64_t grid_index = 0;
      for (int64_t i = 0; i < data.rows(); ++i) {
        const int64_t row = order[static_cast<size_t>(i)];
        const double x = src[row];
        while (grid_index + 1 < q && col_grid[grid_index + 1] < x) {
          ++grid_index;
        }
        // Delegate the local interpolation to the shared helper so both
        // implementations agree bit-for-bit.
        dst[row] = GridCdf(col_grid, q, x);
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

}  // namespace

Status RegisterQuantileOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<SklQuantileTransformer>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<TflQuantileTransformer>()));
  return Status::OK();
}

}  // namespace hyppo::ml
