#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
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

// Column means of a dataset.
std::vector<double> ColumnMeans(const Dataset& data) {
  std::vector<double> mean(static_cast<size_t>(data.cols()), 0.0);
  for (int64_t c = 0; c < data.cols(); ++c) {
    mean[static_cast<size_t>(c)] =
        kernels::Sum(data.col_data(c), data.rows()) /
        static_cast<double>(data.rows());
  }
  return mean;
}

// Row-major d x d covariance of mean-centered data — a shifted SYRK.
std::vector<double> Covariance(const Dataset& data,
                               const std::vector<double>& mean) {
  const int64_t d = data.cols();
  const std::vector<const double*> cols = ColumnPointers(data);
  std::vector<double> cov(static_cast<size_t>(d * d), 0.0);
  kernels::GramColumns(cols.data(), data.rows(), d, mean.data(),
                       /*weight=*/nullptr, cov.data());
  const double scale = 1.0 / static_cast<double>(data.rows() - 1);
  for (double& v : cov) {
    v *= scale;
  }
  return cov;
}

// Fixes the sign of each component so that its largest-magnitude coordinate
// is positive; removes the eigenvector sign ambiguity so both
// implementations produce identical projections (paper §III-C2 requires
// equivalent tasks to produce identical results on the same input).
void CanonicalizeSigns(std::vector<double>& components, int64_t k, int64_t d) {
  for (int64_t i = 0; i < k; ++i) {
    double* comp = components.data() + i * d;
    int64_t arg = 0;
    for (int64_t j = 1; j < d; ++j) {
      if (std::fabs(comp[j]) > std::fabs(comp[arg])) {
        arg = j;
      }
    }
    if (comp[arg] < 0.0) {
      for (int64_t j = 0; j < d; ++j) {
        comp[j] = -comp[j];
      }
    }
  }
}

OpStatePtr MakePcaState(std::vector<double> mean,
                        std::vector<double> components, int64_t k,
                        int64_t d) {
  auto state = std::make_shared<VectorState>("PCA");
  state->vectors["mean"] = std::move(mean);
  state->vectors["components"] = std::move(components);  // row-major k x d
  state->scalars["k"] = static_cast<double>(k);
  state->scalars["d"] = static_cast<double>(d);
  return state;
}

class PcaBase : public Estimator {
 public:
  explicit PcaBase(std::string framework)
      : Estimator("PCA", std::move(framework), /*transforms=*/true,
                  /*predicts=*/false) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double d = static_cast<double>(cols);
    if (task == MlTask::kFit) {
      // Covariance accumulation dominates.
      return 2e-9 * static_cast<double>(rows) * d * d + 5e-8 * d * d * d;
    }
    const double k = static_cast<double>(config.GetInt("n_components", 2));
    return 2e-9 * static_cast<double>(rows) * d * k;
  }

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data,
                              ThreadPool* /*pool*/) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr) {
      return Status::InvalidArgument("PCA.transform: incompatible op-state");
    }
    const int64_t k = static_cast<int64_t>(vs->scalar("k"));
    const int64_t d = static_cast<int64_t>(vs->scalar("d"));
    if (d != data.cols()) {
      return Status::InvalidArgument(
          "PCA.transform: fitted on different column count");
    }
    const std::vector<double>& mean = vs->vec("mean");
    const std::vector<double>& comp = vs->vec("components");
    std::vector<std::string> names;
    names.reserve(static_cast<size_t>(k));
    for (int64_t i = 0; i < k; ++i) {
      names.push_back("pc" + std::to_string(i));
    }
    Dataset out = Dataset::WithColumns(data.rows(), std::move(names));
    const std::vector<const double*> cols = ColumnPointers(data);
    for (int64_t i = 0; i < k; ++i) {
      kernels::GemvColumns(cols.data(), data.rows(), d, mean.data(),
                           comp.data() + i * d, /*bias=*/0.0, out.col_data(i));
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

// skl: exact covariance eigen-decomposition (Jacobi sweeps).
class SklPca final : public PcaBase {
 public:
  SklPca() : PcaBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const int64_t d = data.cols();
    const int64_t k =
        std::min<int64_t>(config.GetInt("n_components", 2), d);
    if (data.rows() < 2) {
      return Status::InvalidArgument("PCA.fit: needs at least two rows");
    }
    std::vector<double> mean = ColumnMeans(data);
    std::vector<double> cov = Covariance(data, mean);
    HYPPO_ASSIGN_OR_RETURN(EigenDecomposition eig,
                           JacobiEigenSymmetric(std::move(cov), d));
    std::vector<double> components(static_cast<size_t>(k * d));
    for (int64_t i = 0; i < k; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        components[static_cast<size_t>(i * d + j)] =
            eig.eigenvectors[static_cast<size_t>(i * d + j)];
      }
    }
    CanonicalizeSigns(components, k, d);
    return MakePcaState(std::move(mean), std::move(components), k, d);
  }
};

// tfl: subspace (orthogonal/power) iteration on the covariance with
// deflation — the torch.pca_lowrank-style iterative approach.
class TflPca final : public PcaBase {
 public:
  TflPca() : PcaBase("tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const int64_t d = data.cols();
    const int64_t k =
        std::min<int64_t>(config.GetInt("n_components", 2), d);
    if (data.rows() < 2) {
      return Status::InvalidArgument("PCA.fit: needs at least two rows");
    }
    std::vector<double> mean = ColumnMeans(data);
    std::vector<double> cov = Covariance(data, mean);
    std::vector<double> components(static_cast<size_t>(k * d), 0.0);
    Rng rng(7);
    std::vector<double> v(static_cast<size_t>(d));
    std::vector<double> av(static_cast<size_t>(d));
    for (int64_t i = 0; i < k; ++i) {
      for (double& x : v) {
        x = rng.Gaussian();
      }
      double eigenvalue = 0.0;
      for (int iter = 0; iter < 1000; ++iter) {
        // Deflate against previously extracted components.
        for (int64_t p = 0; p < i; ++p) {
          const double* prev = components.data() + p * d;
          const double proj = kernels::Dot(v.data(), prev, d);
          for (int64_t j = 0; j < d; ++j) {
            v[static_cast<size_t>(j)] -= proj * prev[j];
          }
        }
        kernels::Gemv(cov.data(), d, d, v.data(), av.data());
        const double norm = std::sqrt(kernels::Dot(av.data(), av.data(), d));
        if (norm < 1e-30) {
          break;
        }
        double diff = 0.0;
        for (int64_t j = 0; j < d; ++j) {
          const double next = av[static_cast<size_t>(j)] / norm;
          diff += std::fabs(next - v[static_cast<size_t>(j)]);
          v[static_cast<size_t>(j)] = next;
        }
        eigenvalue = norm;
        if (diff < 1e-12 && iter > 2) {
          break;
        }
      }
      (void)eigenvalue;
      for (int64_t j = 0; j < d; ++j) {
        components[static_cast<size_t>(i * d + j)] =
            v[static_cast<size_t>(j)];
      }
    }
    CanonicalizeSigns(components, k, d);
    return MakePcaState(std::move(mean), std::move(components), k, d);
  }
};

}  // namespace

Status RegisterPcaOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklPca>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflPca>()));
  return Status::OK();
}

}  // namespace hyppo::ml
