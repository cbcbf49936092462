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
                              const Dataset& data) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr ||
        static_cast<int64_t>(vs->vec("fill").size()) != data.cols()) {
      return Status::InvalidArgument(
          impl_name() + ".transform: incompatible op-state");
    }
    return FillMissing(data, vs->vec("fill"));
  }

  static OpStatePtr MakeState(std::vector<double> fill) {
    auto state = std::make_shared<VectorState>("SimpleImputer");
    state->vectors["fill"] = std::move(fill);
    return state;
  }
};

// skl: mean strategy via accumulation; median strategy via full sort.
class SklSimpleImputer final : public ImputerBase {
 public:
  SklSimpleImputer() : ImputerBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const std::string strategy = config.GetString("strategy", "mean");
    if (strategy != "mean" && strategy != "median") {
      return Status::InvalidArgument("SimpleImputer: unknown strategy '" +
                                     strategy + "'");
    }
    std::vector<double> fill(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> buf;
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      if (strategy == "mean") {
        double sum = 0.0;
        int64_t count = 0;
        for (int64_t r = 0; r < data.rows(); ++r) {
          if (!IsMissing(col[r])) {
            sum += col[r];
            ++count;
          }
        }
        fill[static_cast<size_t>(c)] =
            count > 0 ? sum / static_cast<double>(count) : 0.0;
      } else {
        buf.clear();
        for (int64_t r = 0; r < data.rows(); ++r) {
          if (!IsMissing(col[r])) {
            buf.push_back(col[r]);
          }
        }
        if (buf.empty()) {
          fill[static_cast<size_t>(c)] = 0.0;
          continue;
        }
        std::sort(buf.begin(), buf.end());
        const size_t n = buf.size();
        fill[static_cast<size_t>(c)] =
            (n % 2 == 1) ? buf[n / 2] : 0.5 * (buf[n / 2 - 1] + buf[n / 2]);
      }
    }
    return MakeState(std::move(fill));
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
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const std::string strategy = config.GetString("strategy", "mean");
    if (strategy != "mean" && strategy != "median") {
      return Status::InvalidArgument("SimpleImputer: unknown strategy '" +
                                     strategy + "'");
    }
    std::vector<double> fill(static_cast<size_t>(data.cols()), 0.0);
    std::vector<double> buf;
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      if (strategy == "mean") {
        // Kahan summation: numerically equal (to ulps) but a different
        // algorithm with a different constant factor.
        double sum = 0.0;
        double comp = 0.0;
        int64_t count = 0;
        for (int64_t r = 0; r < data.rows(); ++r) {
          if (IsMissing(col[r])) {
            continue;
          }
          const double y = col[r] - comp;
          const double t = sum + y;
          comp = (t - sum) - y;
          sum = t;
          ++count;
        }
        fill[static_cast<size_t>(c)] =
            count > 0 ? sum / static_cast<double>(count) : 0.0;
      } else {
        buf.clear();
        for (int64_t r = 0; r < data.rows(); ++r) {
          if (!IsMissing(col[r])) {
            buf.push_back(col[r]);
          }
        }
        if (buf.empty()) {
          fill[static_cast<size_t>(c)] = 0.0;
          continue;
        }
        const size_t n = buf.size();
        auto mid = buf.begin() + static_cast<int64_t>(n / 2);
        std::nth_element(buf.begin(), mid, buf.end());
        if (n % 2 == 1) {
          fill[static_cast<size_t>(c)] = *mid;
        } else {
          const double hi = *mid;
          const double lo = *std::max_element(buf.begin(), mid);
          fill[static_cast<size_t>(c)] = 0.5 * (lo + hi);
        }
      }
    }
    return MakeState(std::move(fill));
  }
};

}  // namespace

Status RegisterImputerOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklSimpleImputer>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflSimpleImputer>()));
  return Status::OK();
}

}  // namespace hyppo::ml
