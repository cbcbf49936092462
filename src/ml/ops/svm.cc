#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/kernels/kernels.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// Binary linear SVM with hinge loss; labels are {0,1}, converted to ±1
// internally. Predict emits hard {0,1} labels.
//
// The two implementations optimize the same objective
//   min_w  (1/2)||w||^2 + C Σ max(0, 1 - y_i (w·x_i + b))
// with different algorithms: dual coordinate descent (liblinear-style,
// "skl") and Pegasos primal SGD ("lib", after libsvm in the paper's
// library list). Being iterative optimizers of the same convex objective,
// they agree on (almost all) predicted labels rather than bitwise weights —
// the paper's stochastic-equivalence case (§III-C2, note 1).

OpStatePtr MakeSvmState(std::vector<double> weights, double intercept) {
  auto state = std::make_shared<VectorState>("LinearSVM");
  state->vectors["weights"] = std::move(weights);
  state->scalars["intercept"] = intercept;
  return state;
}

class SvmBase : public Estimator {
 public:
  explicit SvmBase(std::string framework)
      : Estimator("LinearSVM", std::move(framework), /*transforms=*/false,
                  /*predicts=*/true) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    return (task == MlTask::kFit ? 4e-8 : 1.5e-9) * cells;
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
    const double b = vs->scalar("intercept");
    std::vector<double> preds(static_cast<size_t>(data.rows()), b);
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      const double wc = w[static_cast<size_t>(c)];
      for (int64_t r = 0; r < data.rows(); ++r) {
        preds[static_cast<size_t>(r)] += wc * col[r];
      }
    }
    for (double& p : preds) {
      p = p >= 0.0 ? 1.0 : 0.0;
    }
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

// Dual coordinate descent for L1-loss SVM (liblinear Algorithm 3, with a
// fixed cyclic order for determinism). The intercept is handled by
// augmenting each example with a constant-1 feature.
class SklLinearSvm final : public SvmBase {
 public:
  SklLinearSvm() : SvmBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckInput(data, impl_name()));
    const double c_param = config.GetDouble("C", 1.0);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    std::vector<double> alpha(static_cast<size_t>(n), 0.0);
    std::vector<double> w(static_cast<size_t>(d + 1), 0.0);
    std::vector<double> row(static_cast<size_t>(d));
    // Squared norms of augmented rows.
    std::vector<double> sq(static_cast<size_t>(n), 0.0);
    for (int64_t r = 0; r < n; ++r) {
      data.CopyRow(r, row.data());
      sq[static_cast<size_t>(r)] =
          kernels::Dot(row.data(), row.data(), d) + 1.0;
    }
    const int max_sweeps = static_cast<int>(config.GetInt("max_iter", 60));
    for (int sweep = 0; sweep < max_sweeps; ++sweep) {
      double max_step = 0.0;
      for (int64_t r = 0; r < n; ++r) {
        data.CopyRow(r, row.data());
        const double y =
            data.target()[static_cast<size_t>(r)] >= 0.5 ? 1.0 : -1.0;
        double margin = w[static_cast<size_t>(d)];
        margin += kernels::Dot(row.data(), w.data(), d);
        const double grad = y * margin - 1.0;
        const double old_alpha = alpha[static_cast<size_t>(r)];
        double new_alpha =
            std::clamp(old_alpha - grad / sq[static_cast<size_t>(r)], 0.0,
                       c_param);
        const double delta = (new_alpha - old_alpha) * y;
        if (delta != 0.0) {
          for (int64_t c = 0; c < d; ++c) {
            w[static_cast<size_t>(c)] += delta * row[static_cast<size_t>(c)];
          }
          w[static_cast<size_t>(d)] += delta;
          alpha[static_cast<size_t>(r)] = new_alpha;
        }
        max_step = std::max(max_step, std::fabs(delta));
      }
      if (max_step < 1e-8) {
        break;
      }
    }
    std::vector<double> weights(w.begin(), w.begin() + d);
    return MakeSvmState(std::move(weights), w[static_cast<size_t>(d)]);
  }
};

// Pegasos: primal stochastic sub-gradient with 1/(λt) steps and averaging
// over the final epoch; seeded deterministically from config.
class LibLinearSvm final : public SvmBase {
 public:
  LibLinearSvm() : SvmBase("lib") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    HYPPO_RETURN_NOT_OK(CheckInput(data, impl_name()));
    const double c_param = config.GetDouble("C", 1.0);
    const int64_t n = data.rows();
    const int64_t d = data.cols();
    const double lambda = 1.0 / (c_param * static_cast<double>(n));
    const int epochs = static_cast<int>(config.GetInt("max_iter", 40));
    Rng rng(static_cast<uint64_t>(config.GetInt("seed", 11)));
    std::vector<double> w(static_cast<size_t>(d + 1), 0.0);
    std::vector<double> w_avg(static_cast<size_t>(d + 1), 0.0);
    std::vector<double> row(static_cast<size_t>(d));
    int64_t t = 1;
    int64_t avg_count = 0;
    for (int epoch = 0; epoch < epochs; ++epoch) {
      for (int64_t step = 0; step < n; ++step, ++t) {
        const int64_t r = static_cast<int64_t>(rng.NextBelow(
            static_cast<uint64_t>(n)));
        data.CopyRow(r, row.data());
        const double y =
            data.target()[static_cast<size_t>(r)] >= 0.5 ? 1.0 : -1.0;
        double margin = w[static_cast<size_t>(d)];
        margin += kernels::Dot(row.data(), w.data(), d);
        const double eta = 1.0 / (lambda * static_cast<double>(t));
        const double shrink = 1.0 - eta * lambda;
        for (int64_t c = 0; c < d; ++c) {
          w[static_cast<size_t>(c)] *= shrink;
        }
        if (y * margin < 1.0) {
          const double scale = eta * y / static_cast<double>(n) *
                               static_cast<double>(n);  // per-example step
          for (int64_t c = 0; c < d; ++c) {
            w[static_cast<size_t>(c)] += scale * row[static_cast<size_t>(c)];
          }
          w[static_cast<size_t>(d)] += scale;
        }
        if (epoch >= epochs - 5) {
          for (int64_t c = 0; c <= d; ++c) {
            w_avg[static_cast<size_t>(c)] += w[static_cast<size_t>(c)];
          }
          ++avg_count;
        }
      }
    }
    if (avg_count > 0) {
      for (double& v : w_avg) {
        v /= static_cast<double>(avg_count);
      }
    } else {
      w_avg = w;
    }
    std::vector<double> weights(w_avg.begin(), w_avg.begin() + d);
    return MakeSvmState(std::move(weights), w_avg[static_cast<size_t>(d)]);
  }
};

}  // namespace

Status RegisterSvmOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklLinearSvm>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<LibLinearSvm>()));
  return Status::OK();
}

}  // namespace hyppo::ml
