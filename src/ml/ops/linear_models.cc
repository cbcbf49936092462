#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/kernels/kernels.h"
#include "ml/linalg.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// Column-pointer view of a dataset for the column-layout kernels.
std::vector<const double*> ColumnPointers(const Dataset& data) {
  std::vector<const double*> cols(static_cast<size_t>(data.cols()));
  for (int64_t c = 0; c < data.cols(); ++c) {
    cols[static_cast<size_t>(c)] = data.col_data(c);
  }
  return cols;
}

// Linear models learn weights over the features plus an intercept, stored
// in a VectorState as "weights" (size d) and scalar "intercept".

OpStatePtr MakeLinearState(const std::string& logical_op,
                           std::vector<double> weights, double intercept) {
  auto state = std::make_shared<VectorState>(logical_op);
  state->vectors["weights"] = std::move(weights);
  state->scalars["intercept"] = intercept;
  return state;
}

Result<std::vector<double>> LinearPredict(const OpState& state,
                                          const Dataset& data,
                                          const std::string& who) {
  const auto* vs = dynamic_cast<const VectorState*>(&state);
  if (vs == nullptr ||
      static_cast<int64_t>(vs->vec("weights").size()) != data.cols()) {
    return Status::InvalidArgument(who + ".predict: incompatible op-state");
  }
  const std::vector<double>& w = vs->vec("weights");
  const double b = vs->scalar("intercept");
  std::vector<double> preds(static_cast<size_t>(data.rows()), b);
  const std::vector<const double*> cols = ColumnPointers(data);
  kernels::GemvColumns(cols.data(), data.rows(), data.cols(),
                       /*shift=*/nullptr, w.data(), b, preds.data());
  return preds;
}

// Augmented Gram matrix G = [X 1]'[X 1] (row-major (d+1)^2) and moment
// vector m = [X 1]'y.
void AugmentedNormalEquations(const Dataset& data, std::vector<double>& gram,
                              std::vector<double>& moment) {
  const int64_t d = data.cols();
  const int64_t n = data.rows();
  const int64_t a = d + 1;
  gram.assign(static_cast<size_t>(a * a), 0.0);
  moment.assign(static_cast<size_t>(a), 0.0);
  const std::vector<const double*> cols = ColumnPointers(data);
  // d x d Gram block via the SYRK kernel, spread into the augmented layout.
  std::vector<double> body(static_cast<size_t>(d * d), 0.0);
  kernels::GramColumns(cols.data(), n, d, /*shift=*/nullptr,
                       /*weight=*/nullptr, body.data());
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      gram[static_cast<size_t>(i * a + j)] =
          body[static_cast<size_t>(i * d + j)];
    }
  }
  const double* y = data.target().data();
  for (int64_t i = 0; i < d; ++i) {
    const double* ci = cols[static_cast<size_t>(i)];
    const double col_sum = kernels::Sum(ci, n);
    gram[static_cast<size_t>(i * a + d)] = col_sum;
    gram[static_cast<size_t>(d * a + i)] = col_sum;
    moment[static_cast<size_t>(i)] = kernels::Dot(ci, y, n);
  }
  gram[static_cast<size_t>(d * a + d)] = static_cast<double>(n);
  moment[static_cast<size_t>(d)] = kernels::Sum(y, n);
}

// Conjugate gradient for symmetric positive definite systems; the
// "tfl"-flavoured iterative counterpart to the Cholesky solve.
std::vector<double> ConjugateGradient(const std::vector<double>& a, int64_t n,
                                      const std::vector<double>& b,
                                      double ridge, int max_iters,
                                      double tol) {
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  std::vector<double> r = b;
  std::vector<double> p = r;
  std::vector<double> ap(static_cast<size_t>(n));
  double rs_old = kernels::Dot(r.data(), r.data(), n);
  for (int it = 0; it < max_iters && rs_old > tol; ++it) {
    // ap = (A + ridge I) p as a GEMV plus a fused axpy.
    kernels::Gemv(a.data(), n, n, p.data(), ap.data());
    kernels::Axpy(ridge, p.data(), ap.data(), n);
    const double denom = kernels::Dot(p.data(), ap.data(), n);
    if (std::fabs(denom) < 1e-300) {
      break;
    }
    const double alpha = rs_old / denom;
    kernels::Axpy(alpha, p.data(), x.data(), n);
    kernels::Axpy(-alpha, ap.data(), r.data(), n);
    const double rs_new = kernels::Dot(r.data(), r.data(), n);
    const double beta = rs_new / rs_old;
    for (int64_t i = 0; i < n; ++i) {
      p[static_cast<size_t>(i)] =
          r[static_cast<size_t>(i)] + beta * p[static_cast<size_t>(i)];
    }
    rs_old = rs_new;
  }
  return x;
}

Status CheckRegressionInput(const Dataset& data, const std::string& who) {
  if (!data.has_target()) {
    return Status::InvalidArgument(who + ".fit: dataset has no target");
  }
  if (data.rows() < 2) {
    return Status::InvalidArgument(who + ".fit: needs at least two rows");
  }
  return Status::OK();
}

class LinearModelBase : public Estimator {
 public:
  LinearModelBase(std::string logical_op, std::string framework)
      : Estimator(std::move(logical_op), std::move(framework),
                  /*transforms=*/false, /*predicts=*/true) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double n = static_cast<double>(rows);
    const double d = static_cast<double>(cols);
    if (task == MlTask::kFit) {
      return 1.2e-9 * n * d * d + 4e-9 * d * d * d;
    }
    return 1.2e-9 * n * d;
  }

 protected:
  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    return LinearPredict(state, data, impl_name());
  }
};

// ---------------------------------------------------------------------------
// LinearRegression / Ridge: "skl" solves the (ridge-regularized) normal
// equations exactly via Cholesky; "tfl" solves the same system with
// conjugate gradient. Both reach the same optimum, at different costs.

class NormalEquationModel : public LinearModelBase {
 public:
  NormalEquationModel(std::string logical_op, std::string framework,
                      bool exact)
      : LinearModelBase(std::move(logical_op), std::move(framework)),
        exact_(exact) {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckRegressionInput(data, impl_name()));
    const double alpha = logical_op() == "Ridge"
                             ? config.GetDouble("alpha", 1.0)
                             : config.GetDouble("alpha", 0.0);
    const int64_t d = data.cols();
    const int64_t a = d + 1;
    std::vector<double> gram;
    std::vector<double> moment;
    AugmentedNormalEquations(data, gram, moment);
    // Ridge penalizes the weights but not the intercept.
    for (int64_t i = 0; i < d; ++i) {
      gram[static_cast<size_t>(i * a + i)] += alpha;
    }
    std::vector<double> solution;
    if (exact_) {
      // Small extra ridge for numerical robustness of plain least squares.
      HYPPO_ASSIGN_OR_RETURN(
          solution, CholeskySolve(std::move(gram), a, moment, 1e-8));
    } else {
      solution = ConjugateGradient(gram, a, moment, 1e-8,
                                   /*max_iters=*/2000, /*tol=*/1e-18);
    }
    std::vector<double> weights(solution.begin(), solution.begin() + d);
    return MakeLinearState(logical_op(), std::move(weights),
                           solution[static_cast<size_t>(d)]);
  }

 private:
  bool exact_;
};

class SklLinearRegression final : public NormalEquationModel {
 public:
  SklLinearRegression()
      : NormalEquationModel("LinearRegression", "skl", /*exact=*/true) {}
};

class TflLinearRegression final : public NormalEquationModel {
 public:
  TflLinearRegression()
      : NormalEquationModel("LinearRegression", "tfl", /*exact=*/false) {}
};

class SklRidge final : public NormalEquationModel {
 public:
  SklRidge() : NormalEquationModel("Ridge", "skl", /*exact=*/true) {}
};

class TflRidge final : public NormalEquationModel {
 public:
  TflRidge() : NormalEquationModel("Ridge", "tfl", /*exact=*/false) {}
};

// ---------------------------------------------------------------------------
// Lasso: L1-regularized least squares.
// skl: cyclic coordinate descent. tfl: FISTA (accelerated proximal
// gradient). Both converge to the same optimum of the convex objective
//   (1/2n)||y - Xw - b||^2 + alpha ||w||_1.

struct CenteredDesign {
  std::vector<double> feature_mean;
  double target_mean = 0.0;
};

CenteredDesign CenterStats(const Dataset& data) {
  CenteredDesign stats;
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

double SoftThreshold(double x, double lambda) {
  if (x > lambda) {
    return x - lambda;
  }
  if (x < -lambda) {
    return x + lambda;
  }
  return 0.0;
}

class SklLasso final : public LinearModelBase {
 public:
  SklLasso() : LinearModelBase("Lasso", "skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckRegressionInput(data, impl_name()));
    const double alpha = config.GetDouble("alpha", 0.1);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const CenteredDesign stats = CenterStats(data);
    std::vector<double> w(static_cast<size_t>(d), 0.0);
    // residual = y_c - X_c w, maintained incrementally.
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
        const double new_w =
            SoftThreshold(rho, alpha) / col_sq[static_cast<size_t>(c)];
        const double delta = new_w - old_w;
        if (delta != 0.0) {
          kernels::ShiftedAxpy(-delta, col, mu, residual.data(), n);
          w[static_cast<size_t>(c)] = new_w;
        }
        max_delta = std::max(max_delta, std::fabs(delta));
      }
      if (max_delta < 1e-10) {
        break;
      }
    }
    double intercept = stats.target_mean;
    for (int64_t c = 0; c < d; ++c) {
      intercept -= w[static_cast<size_t>(c)] *
                   stats.feature_mean[static_cast<size_t>(c)];
    }
    return MakeLinearState(logical_op(), std::move(w), intercept);
  }
};

class TflLasso final : public LinearModelBase {
 public:
  TflLasso() : LinearModelBase("Lasso", "tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckRegressionInput(data, impl_name()));
    const double alpha = config.GetDouble("alpha", 0.1);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const CenteredDesign stats = CenterStats(data);
    // Lipschitz constant of the gradient: largest eigenvalue of X_c'X_c/n,
    // upper-bounded by its trace.
    double lipschitz = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      lipschitz +=
          kernels::ShiftedSumSq(data.col_data(c),
                                stats.feature_mean[static_cast<size_t>(c)],
                                n) /
          static_cast<double>(n);
    }
    lipschitz = std::max(lipschitz, 1e-12);
    const double step = 1.0 / lipschitz;
    std::vector<double> w(static_cast<size_t>(d), 0.0);
    std::vector<double> z = w;  // FISTA momentum point
    double t_momentum = 1.0;
    std::vector<double> residual(static_cast<size_t>(n));
    std::vector<double> grad(static_cast<size_t>(d));
    for (int iter = 0; iter < 4000; ++iter) {
      // residual at z.
      for (int64_t r = 0; r < n; ++r) {
        residual[static_cast<size_t>(r)] =
            data.target()[static_cast<size_t>(r)] - stats.target_mean;
      }
      for (int64_t c = 0; c < d; ++c) {
        const double zc = z[static_cast<size_t>(c)];
        if (zc == 0.0) {
          continue;
        }
        kernels::ShiftedAxpy(-zc, data.col_data(c),
                             stats.feature_mean[static_cast<size_t>(c)],
                             residual.data(), n);
      }
      for (int64_t c = 0; c < d; ++c) {
        grad[static_cast<size_t>(c)] =
            -kernels::ShiftedDot(data.col_data(c),
                                 stats.feature_mean[static_cast<size_t>(c)],
                                 residual.data(), n) /
            static_cast<double>(n);
      }
      double max_delta = 0.0;
      const double t_next =
          0.5 * (1.0 + std::sqrt(1.0 + 4.0 * t_momentum * t_momentum));
      for (int64_t c = 0; c < d; ++c) {
        const double proposed = SoftThreshold(
            z[static_cast<size_t>(c)] - step * grad[static_cast<size_t>(c)],
            step * alpha);
        const double old_w = w[static_cast<size_t>(c)];
        z[static_cast<size_t>(c)] =
            proposed + ((t_momentum - 1.0) / t_next) * (proposed - old_w);
        max_delta = std::max(max_delta, std::fabs(proposed - old_w));
        w[static_cast<size_t>(c)] = proposed;
      }
      t_momentum = t_next;
      if (max_delta < 1e-10 && iter > 4) {
        break;
      }
    }
    double intercept = stats.target_mean;
    for (int64_t c = 0; c < d; ++c) {
      intercept -= w[static_cast<size_t>(c)] *
                   stats.feature_mean[static_cast<size_t>(c)];
    }
    return MakeLinearState(logical_op(), std::move(w), intercept);
  }
};

// ---------------------------------------------------------------------------
// LogisticRegression: L2-regularized. skl: Newton (IRLS) with Cholesky
// inner solves; tfl: truncated Newton with conjugate-gradient inner solves.
// Predict returns the positive-class probability.

class LogisticBase : public LinearModelBase {
 public:
  LogisticBase(std::string framework, bool exact_inner)
      : LinearModelBase("LogisticRegression", std::move(framework)),
        exact_inner_(exact_inner) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double n = static_cast<double>(rows);
    const double d = static_cast<double>(cols);
    if (task == MlTask::kFit) {
      return 8.0 * (1.5e-9 * n * d * d + 4e-9 * d * d * d);
    }
    return 1.5e-9 * n * d;
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckRegressionInput(data, impl_name()));
    const double alpha = config.GetDouble("alpha", 1e-3);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const int64_t a = d + 1;
    std::vector<double> w(static_cast<size_t>(a), 0.0);  // last = intercept
    const std::vector<const double*> cols = ColumnPointers(data);
    std::vector<double> margins(static_cast<size_t>(n));
    std::vector<double> probs(static_cast<size_t>(n));
    std::vector<double> diff(static_cast<size_t>(n));
    std::vector<double> row_weight(static_cast<size_t>(n));
    std::vector<double> gradient(static_cast<size_t>(a));
    std::vector<double> hessian(static_cast<size_t>(a * a));
    std::vector<double> hess_body(static_cast<size_t>(d * d));
    for (int newton = 0; newton < 50; ++newton) {
      // margins = Xw + b, probs = sigmoid(margins).
      kernels::GemvColumns(cols.data(), n, d, /*shift=*/nullptr, w.data(),
                           /*bias=*/w[static_cast<size_t>(d)], margins.data());
      for (int64_t r = 0; r < n; ++r) {
        probs[static_cast<size_t>(r)] =
            1.0 / (1.0 + std::exp(-margins[static_cast<size_t>(r)]));
        diff[static_cast<size_t>(r)] = probs[static_cast<size_t>(r)] -
                                       data.target()[static_cast<size_t>(r)];
      }
      // gradient = X'(p - y)/n + alpha w (intercept unpenalized).
      std::fill(gradient.begin(), gradient.end(), 0.0);
      for (int64_t c = 0; c < d; ++c) {
        gradient[static_cast<size_t>(c)] =
            kernels::Dot(cols[static_cast<size_t>(c)], diff.data(), n) /
                static_cast<double>(n) +
            alpha * w[static_cast<size_t>(c)];
      }
      gradient[static_cast<size_t>(d)] =
          kernels::Sum(diff.data(), n) / static_cast<double>(n);
      double gnorm =
          std::sqrt(kernels::Dot(gradient.data(), gradient.data(), a));
      if (gnorm < 1e-10) {
        break;
      }
      // Hessian = X'RX/n + alpha I with R = diag(p(1-p)): the d x d body is
      // a row-weighted SYRK; the border column is X'r and sum(r).
      for (int64_t r = 0; r < n; ++r) {
        row_weight[static_cast<size_t>(r)] =
            probs[static_cast<size_t>(r)] *
            (1.0 - probs[static_cast<size_t>(r)]);
      }
      kernels::GramColumns(cols.data(), n, d, /*shift=*/nullptr,
                           row_weight.data(), hess_body.data());
      std::fill(hessian.begin(), hessian.end(), 0.0);
      for (int64_t i = 0; i < d; ++i) {
        for (int64_t j = 0; j < d; ++j) {
          hessian[static_cast<size_t>(i * a + j)] =
              hess_body[static_cast<size_t>(i * d + j)];
        }
        const double border = kernels::Dot(cols[static_cast<size_t>(i)],
                                           row_weight.data(), n);
        hessian[static_cast<size_t>(i * a + d)] = border;
        hessian[static_cast<size_t>(d * a + i)] = border;
      }
      hessian[static_cast<size_t>(d * a + d)] =
          kernels::Sum(row_weight.data(), n);
      for (size_t i = 0; i < hessian.size(); ++i) {
        hessian[i] /= static_cast<double>(n);
      }
      for (int64_t i = 0; i < d; ++i) {
        hessian[static_cast<size_t>(i * a + i)] += alpha;
      }
      std::vector<double> step;
      if (exact_inner_) {
        HYPPO_ASSIGN_OR_RETURN(
            step, CholeskySolve(hessian, a, gradient, 1e-9));
      } else {
        step = ConjugateGradient(hessian, a, gradient, 1e-9,
                                 /*max_iters=*/500, /*tol=*/1e-20);
      }
      for (int64_t i = 0; i < a; ++i) {
        w[static_cast<size_t>(i)] -= step[static_cast<size_t>(i)];
      }
    }
    std::vector<double> weights(w.begin(), w.begin() + d);
    return MakeLinearState(logical_op(), std::move(weights),
                           w[static_cast<size_t>(d)]);
  }

  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    HYPPO_ASSIGN_OR_RETURN(std::vector<double> margins,
                           LinearPredict(state, data, impl_name()));
    for (double& m : margins) {
      m = 1.0 / (1.0 + std::exp(-m));
    }
    return margins;
  }

 private:
  bool exact_inner_;
};

class SklLogisticRegression final : public LogisticBase {
 public:
  SklLogisticRegression() : LogisticBase("skl", /*exact_inner=*/true) {}
};

class TflLogisticRegression final : public LogisticBase {
 public:
  TflLogisticRegression() : LogisticBase("tfl", /*exact_inner=*/false) {}
};

}  // namespace

Status RegisterLinearModelOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<SklLinearRegression>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<TflLinearRegression>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklRidge>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflRidge>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklLasso>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflLasso>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<SklLogisticRegression>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<TflLogisticRegression>()));
  return Status::OK();
}

}  // namespace hyppo::ml
