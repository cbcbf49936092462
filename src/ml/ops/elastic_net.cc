#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/kernels/kernels.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// ElasticNet: least squares with combined L1/L2 regularization,
//   (1/2n)||y - Xw - b||^2 + alpha*(l1_ratio*||w||_1
//                                   + (1-l1_ratio)/2*||w||_2^2).
// skl: cyclic coordinate descent. tfl: proximal gradient (ISTA with the
// L2 term folded into the smooth part). Both converge to the same optimum
// of the strictly convex objective (l1_ratio < 1), at different costs.

OpStatePtr MakeState(std::vector<double> weights, double intercept) {
  auto state = std::make_shared<VectorState>("ElasticNet");
  state->vectors["weights"] = std::move(weights);
  state->scalars["intercept"] = intercept;
  return state;
}

double SoftThreshold(double x, double lambda) {
  if (x > lambda) {
    return x - lambda;
  }
  if (x < -lambda) {
    return x + lambda;
  }
  return 0.0;
}

struct Centered {
  std::vector<double> feature_mean;
  double target_mean = 0.0;
};

Centered CenterStats(const Dataset& data) {
  Centered stats;
  stats.feature_mean.assign(static_cast<size_t>(data.cols()), 0.0);
  for (int64_t c = 0; c < data.cols(); ++c) {
    stats.feature_mean[static_cast<size_t>(c)] =
        kernels::Sum(data.col_data(c), data.rows()) /
        static_cast<double>(data.rows());
  }
  stats.target_mean = kernels::Sum(data.target().data(), data.rows()) /
                      static_cast<double>(data.rows());
  return stats;
}

class ElasticNetBase : public Estimator {
 public:
  explicit ElasticNetBase(std::string framework)
      : Estimator("ElasticNet", std::move(framework), /*transforms=*/false,
                  /*predicts=*/true) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    return (task == MlTask::kFit ? 3e-8 : 1.2e-9) * cells;
  }

 protected:
  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr ||
        static_cast<int64_t>(vs->vec("weights").size()) != data.cols()) {
      return Status::InvalidArgument(impl_name() +
                                     ".predict: incompatible op-state");
    }
    const std::vector<double>& w = vs->vec("weights");
    std::vector<double> preds(static_cast<size_t>(data.rows()),
                              vs->scalar("intercept"));
    std::vector<const double*> cols(static_cast<size_t>(data.cols()));
    for (int64_t c = 0; c < data.cols(); ++c) {
      cols[static_cast<size_t>(c)] = data.col_data(c);
    }
    kernels::GemvColumns(cols.data(), data.rows(), data.cols(),
                         /*shift=*/nullptr, w.data(), vs->scalar("intercept"),
                         preds.data());
    return preds;
  }

  static Status CheckInput(const Dataset& data, const std::string& who) {
    if (!data.has_target()) {
      return Status::InvalidArgument(who + ".fit: dataset has no target");
    }
    if (data.rows() < 2) {
      return Status::InvalidArgument(who + ".fit: needs at least two rows");
    }
    return Status::OK();
  }
};

class SklElasticNet final : public ElasticNetBase {
 public:
  SklElasticNet() : ElasticNetBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckInput(data, impl_name()));
    const double alpha = config.GetDouble("alpha", 0.1);
    const double l1_ratio = config.GetDouble("l1_ratio", 0.5);
    const double l1 = alpha * l1_ratio;
    const double l2 = alpha * (1.0 - l1_ratio);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const Centered stats = CenterStats(data);
    std::vector<double> w(static_cast<size_t>(d), 0.0);
    std::vector<double> residual(static_cast<size_t>(n));
    for (int64_t r = 0; r < n; ++r) {
      residual[static_cast<size_t>(r)] =
          data.target()[static_cast<size_t>(r)] - stats.target_mean;
    }
    std::vector<double> col_sq(static_cast<size_t>(d), 0.0);
    for (int64_t c = 0; c < d; ++c) {
      col_sq[static_cast<size_t>(c)] =
          kernels::ShiftedSumSq(data.col_data(c),
                                stats.feature_mean[static_cast<size_t>(c)],
                                n) /
          static_cast<double>(n);
    }
    for (int sweep = 0; sweep < 1000; ++sweep) {
      double max_delta = 0.0;
      for (int64_t c = 0; c < d; ++c) {
        if (col_sq[static_cast<size_t>(c)] < 1e-30) {
          continue;
        }
        const double* col = data.col_data(c);
        const double mu = stats.feature_mean[static_cast<size_t>(c)];
        double rho = kernels::ShiftedDot(col, mu, residual.data(), n) /
                     static_cast<double>(n);
        const double old_w = w[static_cast<size_t>(c)];
        rho += col_sq[static_cast<size_t>(c)] * old_w;
        const double new_w = SoftThreshold(rho, l1) /
                             (col_sq[static_cast<size_t>(c)] + l2);
        const double delta = new_w - old_w;
        if (delta != 0.0) {
          kernels::ShiftedAxpy(-delta, col, mu, residual.data(), n);
          w[static_cast<size_t>(c)] = new_w;
        }
        max_delta = std::max(max_delta, std::fabs(delta));
      }
      if (max_delta < 1e-11) {
        break;
      }
    }
    double intercept = stats.target_mean;
    for (int64_t c = 0; c < d; ++c) {
      intercept -= w[static_cast<size_t>(c)] *
                   stats.feature_mean[static_cast<size_t>(c)];
    }
    return MakeState(std::move(w), intercept);
  }
};

class TflElasticNet final : public ElasticNetBase {
 public:
  TflElasticNet() : ElasticNetBase("tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckInput(data, impl_name()));
    const double alpha = config.GetDouble("alpha", 0.1);
    const double l1_ratio = config.GetDouble("l1_ratio", 0.5);
    const double l1 = alpha * l1_ratio;
    const double l2 = alpha * (1.0 - l1_ratio);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const Centered stats = CenterStats(data);
    double lipschitz = l2;
    for (int64_t c = 0; c < d; ++c) {
      lipschitz +=
          kernels::ShiftedSumSq(data.col_data(c),
                                stats.feature_mean[static_cast<size_t>(c)],
                                n) /
          static_cast<double>(n);
    }
    const double step = 1.0 / std::max(lipschitz, 1e-12);
    std::vector<double> w(static_cast<size_t>(d), 0.0);
    std::vector<double> residual(static_cast<size_t>(n));
    std::vector<double> grad(static_cast<size_t>(d));
    for (int iter = 0; iter < 6000; ++iter) {
      for (int64_t r = 0; r < n; ++r) {
        residual[static_cast<size_t>(r)] =
            data.target()[static_cast<size_t>(r)] - stats.target_mean;
      }
      for (int64_t c = 0; c < d; ++c) {
        const double wc = w[static_cast<size_t>(c)];
        if (wc == 0.0) {
          continue;
        }
        kernels::ShiftedAxpy(-wc, data.col_data(c),
                             stats.feature_mean[static_cast<size_t>(c)],
                             residual.data(), n);
      }
      for (int64_t c = 0; c < d; ++c) {
        grad[static_cast<size_t>(c)] =
            l2 * w[static_cast<size_t>(c)] -
            kernels::ShiftedDot(data.col_data(c),
                                stats.feature_mean[static_cast<size_t>(c)],
                                residual.data(), n) /
                static_cast<double>(n);
      }
      double max_delta = 0.0;
      for (int64_t c = 0; c < d; ++c) {
        const double proposed = SoftThreshold(
            w[static_cast<size_t>(c)] - step * grad[static_cast<size_t>(c)],
            step * l1);
        max_delta =
            std::max(max_delta, std::fabs(proposed - w[static_cast<size_t>(c)]));
        w[static_cast<size_t>(c)] = proposed;
      }
      if (max_delta < 1e-11 && iter > 4) {
        break;
      }
    }
    double intercept = stats.target_mean;
    for (int64_t c = 0; c < d; ++c) {
      intercept -= w[static_cast<size_t>(c)] *
                   stats.feature_mean[static_cast<size_t>(c)];
    }
    return MakeState(std::move(w), intercept);
  }
};

}  // namespace

Status RegisterElasticNetOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklElasticNet>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflElasticNet>()));
  return Status::OK();
}

}  // namespace hyppo::ml
