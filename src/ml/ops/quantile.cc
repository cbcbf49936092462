#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// QuantileTransformer: maps each feature to a uniform [0,1] distribution
// via its empirical CDF over `n_quantiles` reference points (linear
// interpolation between them, clipping outside the fitted range). As in
// scikit-learn, the fit ignores NaN and the transform maps NaN to NaN; a
// column with no value but NaN fits a grid of NaN and transforms to NaN.
//
// skl: per-value binary search over the quantile grid. tfl: sorts the
// incoming column once and sweeps the grid in a single merge pass.
// Identical outputs, different complexity profiles (q-grid lookups vs.
// n log n sort). Above kColumnFanOutMinCells cells, both fit and
// transform their columns over the pool, each column as serially.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

OpStatePtr MakeState(std::vector<double> quantiles, int64_t n_quantiles,
                     int64_t cols) {
  auto state = std::make_shared<VectorState>("QuantileTransformer");
  state->vectors["quantiles"] = std::move(quantiles);  // cols x q
  state->scalars["q"] = static_cast<double>(n_quantiles);
  state->scalars["d"] = static_cast<double>(cols);
  return state;
}

// std::upper_bound over grid[0, q) with its probe sequence, each step
// picked by a select rather than a branch: the number of grid values
// <= x, for an ascending grid.
int64_t GridUpperBound(const double* grid, int64_t q, double x) {
  int64_t first = 0;
  int64_t len = q;
  while (len > 0) {
    const int64_t half = len >> 1;
    // All ones when x < grid[first + half], all zeros otherwise.
    const int64_t left = -static_cast<int64_t>(x < grid[first + half]);
    first += ~left & (half + 1);
    len = (left & half) | (~left & (len - half - 1));
  }
  return first;
}

// CDF value of x over an ascending, NaN-free quantile grid, linearly
// interpolated; `index` is GridUpperBound(grid, q, x) and is read only
// when x lies strictly inside the grid, where it is in [1, q - 1].
double InterpolateCdf(const double* grid, int64_t q, double x,
                      int64_t index) {
  if (x <= grid[0]) {
    return 0.0;
  }
  if (x >= grid[q - 1]) {
    return 1.0;
  }
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

// CDF value of a non-NaN x over an ascending, NaN-free quantile grid.
double GridCdf(const double* grid, int64_t q, double x) {
  const bool inside = x > grid[0] && x < grid[q - 1];
  return InterpolateCdf(grid, q, x, inside ? GridUpperBound(grid, q, x) : 0);
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
                           ThreadPool* pool) const override {
    if (data.rows() < 2) {
      return Status::InvalidArgument(
          "QuantileTransformer.fit: needs at least two rows");
    }
    const int64_t q = std::clamp<int64_t>(
        config.GetInt("n_quantiles", 100), 2, data.rows());
    std::vector<double> quantiles(static_cast<size_t>(data.cols() * q));
    const int64_t lanes = ColumnLanes(pool, data.rows(), data.cols());
    std::vector<std::vector<double>> bufs(static_cast<size_t>(lanes));
    for (std::vector<double>& buf : bufs) {
      buf.reserve(static_cast<size_t>(data.rows()));
    }
    ForEachOnLanes(pool, data.cols(), lanes, [&](int64_t c, int64_t lane) {
      FitColumn(data.col_data(c), data.rows(), q,
                bufs[static_cast<size_t>(lane)],
                quantiles.data() + c * q);
    });
    return MakeState(std::move(quantiles), q, data.cols());
  }

  // Fits one column's q-point grid from its non-NaN values, sorted into
  // `buf`; a column of NaN alone gets a grid of NaN.
  static void FitColumn(const double* col, int64_t rows, int64_t q,
                        std::vector<double>& buf, double* grid) {
    buf.clear();
    for (int64_t r = 0; r < rows; ++r) {
      if (!std::isnan(col[r])) {
        buf.push_back(col[r]);
      }
    }
    if (buf.empty()) {
      std::fill(grid, grid + q, kNaN);
      return;
    }
    std::sort(buf.begin(), buf.end());
    for (int64_t k = 0; k < q; ++k) {
      const double pos = static_cast<double>(k) / static_cast<double>(q - 1) *
                         static_cast<double>(buf.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      grid[k] = lo + 1 < buf.size()
                    ? buf[lo] * (1.0 - frac) + buf[lo + 1] * frac
                    : buf[lo];
    }
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

  // Runs transform_column(src, dst, grid, q, lane) for every column over
  // `lanes` lanes of `pool`; a column whose grid is NaN maps to NaN.
  template <typename TransformColumn>
  Result<Dataset> TransformColumns(const OpState& state, const Dataset& data,
                                   ThreadPool* pool, int64_t lanes,
                                   const TransformColumn& transform_column)
      const {
    HYPPO_ASSIGN_OR_RETURN(const VectorState* vs, GetState(state, data));
    const int64_t q = static_cast<int64_t>(vs->scalar("q"));
    const std::vector<double>& grid = vs->vec("quantiles");
    Dataset out(data.rows(), data.cols());
    out.set_column_names(data.column_names());
    ForEachOnLanes(pool, data.cols(), lanes, [&](int64_t c, int64_t lane) {
      const double* col_grid = grid.data() + c * q;
      double* dst = out.col_data(c);
      if (std::isnan(col_grid[0])) {
        std::fill(dst, dst + data.rows(), kNaN);
        return;
      }
      transform_column(data.col_data(c), dst, col_grid, q, lane);
    });
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

// Per-value binary search.
class SklQuantileTransformer final : public QuantileTransformerBase {
 public:
  SklQuantileTransformer() : QuantileTransformerBase("skl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state, const Dataset& data,
                              ThreadPool* pool) const override {
    const int64_t rows = data.rows();
    return TransformColumns(
        state, data, pool, ColumnLanes(pool, rows, data.cols()),
        [rows](const double* src, double* dst, const double* grid, int64_t q,
               int64_t /*lane*/) {
          for (int64_t r = 0; r < rows; ++r) {
            dst[r] = std::isnan(src[r]) ? kNaN : GridCdf(grid, q, src[r]);
          }
        });
  }
};

// Sort-and-merge: identical values, one sort + linear sweep per column.
class TflQuantileTransformer final : public QuantileTransformerBase {
 public:
  TflQuantileTransformer() : QuantileTransformerBase("tfl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state, const Dataset& data,
                              ThreadPool* pool) const override {
    const int64_t rows = data.rows();
    const int64_t lanes = ColumnLanes(pool, rows, data.cols());
    std::vector<std::vector<int64_t>> orders(static_cast<size_t>(lanes));
    for (std::vector<int64_t>& order : orders) {
      order.reserve(static_cast<size_t>(rows));
    }
    return TransformColumns(
        state, data, pool, lanes,
        [rows, &orders](const double* src, double* dst, const double* grid,
                        int64_t q, int64_t lane) {
          // The non-NaN rows in value order; NaN rows map to NaN.
          std::vector<int64_t>& order = orders[static_cast<size_t>(lane)];
          order.clear();
          for (int64_t r = 0; r < rows; ++r) {
            if (std::isnan(src[r])) {
              dst[r] = kNaN;
            } else {
              order.push_back(r);
            }
          }
          std::sort(order.begin(), order.end(),
                    [src](int64_t a, int64_t b) { return src[a] < src[b]; });
          // The number of grid values <= x, as GridUpperBound counts it,
          // only grows along the sorted values.
          int64_t index = 0;
          for (const int64_t row : order) {
            const double x = src[row];
            while (index < q && grid[index] <= x) {
              ++index;
            }
            dst[row] = InterpolateCdf(grid, q, x, index);
          }
        });
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
