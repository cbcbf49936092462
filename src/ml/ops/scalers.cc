#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// Applies per-column affine transform out = (x - shift) / scale.
Dataset AffineTransform(const Dataset& data, const std::vector<double>& shift,
                        const std::vector<double>& scale) {
  Dataset out(data.rows(), data.cols());
  out.set_column_names(data.column_names());
  for (int64_t c = 0; c < data.cols(); ++c) {
    const double* src = data.col_data(c);
    double* dst = out.col_data(c);
    const double sh = shift[static_cast<size_t>(c)];
    const double sc = scale[static_cast<size_t>(c)];
    const double inv = sc == 0.0 ? 1.0 : 1.0 / sc;
    for (int64_t r = 0; r < data.rows(); ++r) {
      dst[r] = (src[r] - sh) * inv;
    }
  }
  if (data.has_target()) {
    out.set_target(data.target());
  }
  return out;
}

Status CheckColumns(const OpState& state, const Dataset& data,
                    const std::string& who) {
  const auto* vs = dynamic_cast<const VectorState*>(&state);
  if (vs == nullptr) {
    return Status::InvalidArgument(who + ": op-state has wrong type");
  }
  const auto it = vs->vectors.find("shift");
  if (it == vs->vectors.end() ||
      static_cast<int64_t>(it->second.size()) != data.cols()) {
    return Status::InvalidArgument(
        who + ": op-state fitted on different column count");
  }
  return Status::OK();
}

// Shared transform for all shift/scale scalers.
class AffineScalerBase : public Estimator {
 public:
  AffineScalerBase(std::string logical_op, std::string framework)
      : Estimator(std::move(logical_op), std::move(framework),
                  /*transforms=*/true, /*predicts=*/false) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    return (task == MlTask::kFit ? 2.5e-9 : 1.5e-9) * cells;
  }

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data,
                              ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckColumns(state, data, impl_name()));
    const auto& vs = static_cast<const VectorState&>(state);
    return AffineTransform(data, vs.vec("shift"), vs.vec("scale"));
  }

  static OpStatePtr MakeState(const std::string& logical_op,
                              std::vector<double> shift,
                              std::vector<double> scale) {
    auto state = std::make_shared<VectorState>(logical_op);
    state->vectors["shift"] = std::move(shift);
    state->vectors["scale"] = std::move(scale);
    return state;
  }
};

// ---------------------------------------------------------------------------
// StandardScaler: shift = mean, scale = population stddev.

// skl: textbook two-pass algorithm (mean pass + variance pass).
class SklStandardScaler final : public AffineScalerBase {
 public:
  SklStandardScaler() : AffineScalerBase("StandardScaler", "skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    const int64_t rows = data.rows();
    if (rows == 0) {
      return Status::InvalidArgument("StandardScaler.fit: empty dataset");
    }
    std::vector<double> mean(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> std(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      double sum = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        sum += col[r];
      }
      const double mu = sum / static_cast<double>(rows);
      double sq = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        const double d = col[r] - mu;
        sq += d * d;
      }
      mean[static_cast<size_t>(c)] = mu;
      std[static_cast<size_t>(c)] = std::sqrt(sq / static_cast<double>(rows));
    }
    return MakeState(logical_op(), std::move(mean), std::move(std));
  }
};

// tfl: single-pass Welford streaming moments (TensorFlow-style).
class TflStandardScaler final : public AffineScalerBase {
 public:
  TflStandardScaler() : AffineScalerBase("StandardScaler", "tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    const int64_t rows = data.rows();
    if (rows == 0) {
      return Status::InvalidArgument("StandardScaler.fit: empty dataset");
    }
    std::vector<double> mean(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> std(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      double mu = 0.0;
      double m2 = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        const double delta = col[r] - mu;
        mu += delta / static_cast<double>(r + 1);
        m2 += delta * (col[r] - mu);
      }
      mean[static_cast<size_t>(c)] = mu;
      std[static_cast<size_t>(c)] = std::sqrt(m2 / static_cast<double>(rows));
    }
    return MakeState(logical_op(), std::move(mean), std::move(std));
  }
};

// ---------------------------------------------------------------------------
// MinMaxScaler: shift = min, scale = max - min.

class SklMinMaxScaler final : public AffineScalerBase {
 public:
  SklMinMaxScaler() : AffineScalerBase("MinMaxScaler", "skl") {
    set_tolerance(Tolerance::kExact);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("MinMaxScaler.fit: empty dataset");
    }
    std::vector<double> lo(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> range(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      double mn = col[0];
      double mx = col[0];
      for (int64_t r = 1; r < data.rows(); ++r) {
        mn = std::min(mn, col[r]);
        mx = std::max(mx, col[r]);
      }
      lo[static_cast<size_t>(c)] = mn;
      range[static_cast<size_t>(c)] = mx - mn;
    }
    return MakeState(logical_op(), std::move(lo), std::move(range));
  }
};

// tfl variant: min/max via std::minmax_element pairs trick (fewer
// comparisons, different constant factor), identical result.
class TflMinMaxScaler final : public AffineScalerBase {
 public:
  TflMinMaxScaler() : AffineScalerBase("MinMaxScaler", "tfl") {
    set_tolerance(Tolerance::kExact);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("MinMaxScaler.fit: empty dataset");
    }
    std::vector<double> lo(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> range(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      auto [mn_it, mx_it] = std::minmax_element(col, col + data.rows());
      lo[static_cast<size_t>(c)] = *mn_it;
      range[static_cast<size_t>(c)] = *mx_it - *mn_it;
    }
    return MakeState(logical_op(), std::move(lo), std::move(range));
  }
};

// ---------------------------------------------------------------------------
// RobustScaler: shift = median, scale = IQR.

double MedianOfSorted(const std::vector<double>& sorted) {
  const size_t n = sorted.size();
  if (n % 2 == 1) {
    return sorted[n / 2];
  }
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

// Quantile with linear interpolation (NumPy default), on sorted data.
double QuantileOfSorted(const std::vector<double>& sorted, double q) {
  const size_t n = sorted.size();
  if (n == 1) {
    return sorted[0];
  }
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= n) {
    return sorted[n - 1];
  }
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

// skl: full sort per column, O(n log n).
class SklRobustScaler final : public AffineScalerBase {
 public:
  SklRobustScaler() : AffineScalerBase("RobustScaler", "skl") {
    set_tolerance(Tolerance::kExact);
  }

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    if (task == MlTask::kFit) {
      return 8e-9 * static_cast<double>(rows) * static_cast<double>(cols) *
             std::log2(std::max<double>(2.0, static_cast<double>(rows)));
    }
    return 1.5e-9 * static_cast<double>(rows) * static_cast<double>(cols);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("RobustScaler.fit: empty dataset");
    }
    std::vector<double> median(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> iqr(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> buf;
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      buf.assign(col, col + data.rows());
      std::sort(buf.begin(), buf.end());
      median[static_cast<size_t>(c)] = MedianOfSorted(buf);
      iqr[static_cast<size_t>(c)] =
          QuantileOfSorted(buf, 0.75) - QuantileOfSorted(buf, 0.25);
    }
    return MakeState(logical_op(), std::move(median), std::move(iqr));
  }
};

// tfl: selection-based quantiles via nth_element, O(n) expected — a
// genuinely cheaper algorithm for the same statistics.
class TflRobustScaler final : public AffineScalerBase {
 public:
  TflRobustScaler() : AffineScalerBase("RobustScaler", "tfl") {
    set_tolerance(Tolerance::kExact);
  }

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    return (task == MlTask::kFit ? 6e-9 : 1.5e-9) * cells;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("RobustScaler.fit: empty dataset");
    }
    std::vector<double> median(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> iqr(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> buf;
    // Matches the interpolated quantiles of the sorted implementation by
    // selecting the two straddling order statistics per quantile.
    auto quantile = [&](double q) {
      const size_t n = buf.size();
      if (n == 1) {
        return buf[0];
      }
      const double pos = q * static_cast<double>(n - 1);
      const size_t lo = static_cast<size_t>(pos);
      const double frac = pos - static_cast<double>(lo);
      std::nth_element(buf.begin(), buf.begin() + static_cast<int64_t>(lo),
                       buf.end());
      const double vlo = buf[lo];
      if (frac == 0.0 || lo + 1 >= n) {
        return vlo;
      }
      std::nth_element(buf.begin() + static_cast<int64_t>(lo) + 1,
                       buf.begin() + static_cast<int64_t>(lo) + 1,
                       buf.end());
      const double vhi = buf[lo + 1];
      return vlo * (1.0 - frac) + vhi * frac;
    };
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      buf.assign(col, col + data.rows());
      median[static_cast<size_t>(c)] = quantile(0.5);
      const double q75 = quantile(0.75);
      const double q25 = quantile(0.25);
      iqr[static_cast<size_t>(c)] = q75 - q25;
    }
    return MakeState(logical_op(), std::move(median), std::move(iqr));
  }
};

// ---------------------------------------------------------------------------
// MaxAbsScaler: shift = 0, scale = max |x|.

class SklMaxAbsScaler final : public AffineScalerBase {
 public:
  SklMaxAbsScaler() : AffineScalerBase("MaxAbsScaler", "skl") {
    set_tolerance(Tolerance::kExact);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("MaxAbsScaler.fit: empty dataset");
    }
    std::vector<double> shift(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> scale(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      double mx = 0.0;
      for (int64_t r = 0; r < data.rows(); ++r) {
        mx = std::max(mx, std::fabs(col[r]));
      }
      scale[static_cast<size_t>(c)] = mx;
    }
    return MakeState(logical_op(), std::move(shift), std::move(scale));
  }
};

// tfl: tracks min and max separately, derives max-abs; same output.
class TflMaxAbsScaler final : public AffineScalerBase {
 public:
  TflMaxAbsScaler() : AffineScalerBase("MaxAbsScaler", "tfl") {
    set_tolerance(Tolerance::kExact);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    if (data.rows() == 0) {
      return Status::InvalidArgument("MaxAbsScaler.fit: empty dataset");
    }
    std::vector<double> shift(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> scale(static_cast<size_t>(data.cols()), 0.0);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      auto [mn_it, mx_it] = std::minmax_element(col, col + data.rows());
      scale[static_cast<size_t>(c)] = std::max(std::fabs(*mn_it),
                                               std::fabs(*mx_it));
    }
    return MakeState(logical_op(), std::move(shift), std::move(scale));
  }
};

// ---------------------------------------------------------------------------
// Normalizer: stateless row-wise L2 normalization (fit is a no-op, like
// sklearn's Normalizer). Single implementation — the paper gives use-case
// specific preprocessing a single physical operator.

class SklNormalizer final : public Estimator {
 public:
  SklNormalizer()
      : Estimator("Normalizer", "skl", /*transforms=*/true,
                  /*predicts=*/false) {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& /*data*/, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    return OpStatePtr(std::make_shared<VectorState>("Normalizer"));
  }

  Result<Dataset> DoTransform(const OpState& /*state*/,
                              const Dataset& data,
                              ThreadPool* /*pool*/) const override {
    Dataset out(data.rows(), data.cols());
    out.set_column_names(data.column_names());
    for (int64_t r = 0; r < data.rows(); ++r) {
      double sq = 0.0;
      for (int64_t c = 0; c < data.cols(); ++c) {
        const double v = data.at(r, c);
        sq += v * v;
      }
      const double inv = sq > 0.0 ? 1.0 / std::sqrt(sq) : 1.0;
      for (int64_t c = 0; c < data.cols(); ++c) {
        out.at(r, c) = data.at(r, c) * inv;
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

}  // namespace

Status RegisterScalerOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklStandardScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflStandardScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklMinMaxScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflMinMaxScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklRobustScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflRobustScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklMaxAbsScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflMaxAbsScaler>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklNormalizer>()));
  return Status::OK();
}

}  // namespace hyppo::ml
