#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// Missing values are encoded as NaN, as in the two Kaggle use cases.
bool IsMissing(double v) { return std::isnan(v); }

Dataset FillMissing(const Dataset& data, const std::vector<double>& fill) {
  Dataset out(data.rows(), data.cols());
  out.set_column_names(data.column_names());
  for (int64_t c = 0; c < data.cols(); ++c) {
    const double* src = data.col_data(c);
    double* dst = out.col_data(c);
    const double value = fill[static_cast<size_t>(c)];
    for (int64_t r = 0; r < data.rows(); ++r) {
      dst[r] = IsMissing(src[r]) ? value : src[r];
    }
  }
  if (data.has_target()) {
    out.set_target(data.target());
  }
  return out;
}

class ImputerBase : public Estimator {
 public:
  ImputerBase(std::string framework)
      : Estimator("SimpleImputer", std::move(framework), /*transforms=*/true,
                  /*predicts=*/false) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    if (task == MlTask::kFit &&
        config.GetString("strategy", "mean") == "median") {
      return 7e-9 * cells;
    }
    return (task == MlTask::kFit ? 3e-9 : 1.5e-9) * cells;
  }

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data,
                              ThreadPool* /*pool*/) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr ||
        static_cast<int64_t>(vs->vec("fill").size()) != data.cols()) {
      return Status::InvalidArgument(
          impl_name() + ".transform: incompatible op-state");
    }
    return FillMissing(data, vs->vec("fill"));
  }

  // Mean or median of each column's present values, the columns over
  // `pool` above kColumnFanOutMinCells cells.
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* pool) const final {
    const std::string strategy = config.GetString("strategy", "mean");
    if (strategy != "mean" && strategy != "median") {
      return Status::InvalidArgument("SimpleImputer: unknown strategy '" +
                                     strategy + "'");
    }
    const bool median = strategy == "median";
    std::vector<double> fill(static_cast<size_t>(data.cols()), 0.0);
    const int64_t lanes = ColumnLanes(pool, data.rows(), data.cols());
    std::vector<std::vector<double>> bufs(static_cast<size_t>(lanes));
    ForEachOnLanes(pool, data.cols(), lanes, [&](int64_t c, int64_t lane) {
      fill[static_cast<size_t>(c)] = FitColumn(
          data.col_data(c), data.rows(), median,
          bufs[static_cast<size_t>(lane)]);
    });
    auto state = std::make_shared<VectorState>("SimpleImputer");
    state->vectors["fill"] = std::move(fill);
    return OpStatePtr(std::move(state));
  }

  // One column's fill value (0 if none is present); `buf` is the running
  // lane's scratch.
  virtual double FitColumn(const double* col, int64_t rows, bool median,
                           std::vector<double>& buf) const = 0;

  // Collects the column's present values into `buf`; false if none.
  static bool CollectPresent(const double* col, int64_t rows,
                             std::vector<double>& buf) {
    buf.clear();
    for (int64_t r = 0; r < rows; ++r) {
      if (!IsMissing(col[r])) {
        buf.push_back(col[r]);
      }
    }
    return !buf.empty();
  }
};

// skl: mean strategy via accumulation; median strategy via full sort.
class SklSimpleImputer final : public ImputerBase {
 public:
  SklSimpleImputer() : ImputerBase("skl") {}

 protected:
  double FitColumn(const double* col, int64_t rows, bool median,
                   std::vector<double>& buf) const override {
    if (!median) {
      double sum = 0.0;
      int64_t count = 0;
      for (int64_t r = 0; r < rows; ++r) {
        if (!IsMissing(col[r])) {
          sum += col[r];
          ++count;
        }
      }
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    if (!CollectPresent(col, rows, buf)) {
      return 0.0;
    }
    std::sort(buf.begin(), buf.end());
    const size_t n = buf.size();
    return (n % 2 == 1) ? buf[n / 2] : 0.5 * (buf[n / 2 - 1] + buf[n / 2]);
  }
};

// tfl: mean via Kahan-compensated accumulation; median via nth_element.
class TflSimpleImputer final : public ImputerBase {
 public:
  TflSimpleImputer() : ImputerBase("tfl") {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    if (task == MlTask::kFit &&
        config.GetString("strategy", "mean") == "median") {
      return 5e-9 * cells;
    }
    return (task == MlTask::kFit ? 3.5e-9 : 1.5e-9) * cells;
  }

 protected:
  double FitColumn(const double* col, int64_t rows, bool median,
                   std::vector<double>& buf) const override {
    if (!median) {
      // Kahan summation: numerically equal (to ulps) but a different
      // algorithm with a different constant factor.
      double sum = 0.0;
      double comp = 0.0;
      int64_t count = 0;
      for (int64_t r = 0; r < rows; ++r) {
        if (IsMissing(col[r])) {
          continue;
        }
        const double y = col[r] - comp;
        const double t = sum + y;
        comp = (t - sum) - y;
        sum = t;
        ++count;
      }
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    if (!CollectPresent(col, rows, buf)) {
      return 0.0;
    }
    const size_t n = buf.size();
    auto mid = buf.begin() + static_cast<int64_t>(n / 2);
    std::nth_element(buf.begin(), mid, buf.end());
    if (n % 2 == 1) {
      return *mid;
    }
    const double hi = *mid;
    const double lo = *std::max_element(buf.begin(), mid);
    return 0.5 * (lo + hi);
  }
};

}  // namespace

Status RegisterImputerOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklSimpleImputer>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflSimpleImputer>()));
  return Status::OK();
}

}  // namespace hyppo::ml
