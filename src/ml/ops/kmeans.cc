#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "ml/kernels/kernels.h"
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

// KMeans clustering. fit -> centroids (VectorState "centroids", row-major
// k x d); transform -> per-cluster distances as features; predict ->
// assigned cluster index.
//
// skl: full-batch Lloyd iterations. tfl: mini-batch k-means. Both use
// k-means++-style deterministic seeding from the same RNG stream, so they
// converge to nearby (statistically equivalent) centroid sets; exact
// equality is not guaranteed (stochastic-equivalence case of §III-C2).
class KMeansBase : public Estimator {
 public:
  explicit KMeansBase(std::string framework)
      : Estimator("KMeans", std::move(framework), /*transforms=*/true,
                  /*predicts=*/true) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& config) const override {
    const double k = static_cast<double>(config.GetInt("n_clusters", 8));
    const double cells = static_cast<double>(rows) * static_cast<double>(cols);
    if (task == MlTask::kFit) {
      return 2e-9 * cells * k * (framework() == "tfl" ? 3.0 : 15.0);
    }
    return 2e-9 * cells * k;
  }

 protected:
  static Result<const VectorState*> GetState(const OpState& state,
                                             const Dataset& data,
                                             const std::string& who) {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr) {
      return Status::InvalidArgument(who + ": incompatible op-state");
    }
    const int64_t d = static_cast<int64_t>(vs->scalar("d"));
    if (d != data.cols()) {
      return Status::InvalidArgument(who +
                                     ": fitted on different column count");
    }
    return vs;
  }

  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data,
                              ThreadPool* /*pool*/) const override {
    HYPPO_ASSIGN_OR_RETURN(const VectorState* vs,
                           GetState(state, data, impl_name() + ".transform"));
    const int64_t k = static_cast<int64_t>(vs->scalar("k"));
    const int64_t d = data.cols();
    const std::vector<double>& centroids = vs->vec("centroids");
    std::vector<std::string> names;
    for (int64_t i = 0; i < k; ++i) {
      names.push_back("dist_c" + std::to_string(i));
    }
    Dataset out = Dataset::WithColumns(data.rows(), std::move(names));
    const std::vector<const double*> cols = ColumnPointers(data);
    std::vector<double> sq(static_cast<size_t>(data.rows() * k));
    kernels::PairwiseSquaredDistances(cols.data(), data.rows(), d,
                                      centroids.data(), k, sq.data());
    for (int64_t i = 0; i < k; ++i) {
      double* dst = out.col_data(i);
      for (int64_t r = 0; r < data.rows(); ++r) {
        dst[r] = std::sqrt(sq[static_cast<size_t>(r * k + i)]);
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }

  Result<std::vector<double>> DoPredict(const OpState& state,
                                        const Dataset& data) const override {
    HYPPO_ASSIGN_OR_RETURN(const VectorState* vs,
                           GetState(state, data, impl_name() + ".predict"));
    const int64_t k = static_cast<int64_t>(vs->scalar("k"));
    const int64_t d = data.cols();
    const std::vector<double>& centroids = vs->vec("centroids");
    std::vector<double> assignment(static_cast<size_t>(data.rows()), 0.0);
    const std::vector<const double*> cols = ColumnPointers(data);
    std::vector<int64_t> index(static_cast<size_t>(data.rows()), 0);
    kernels::NearestCentroids(cols.data(), data.rows(), d, centroids.data(),
                              k, index.data(), /*sq=*/nullptr);
    for (int64_t r = 0; r < data.rows(); ++r) {
      assignment[static_cast<size_t>(r)] =
          static_cast<double>(index[static_cast<size_t>(r)]);
    }
    return assignment;
  }

  // k-means++ seeding shared by both implementations.
  static std::vector<double> SeedCentroids(const Dataset& data, int64_t k,
                                           Rng& rng) {
    const int64_t d = data.cols();
    std::vector<double> centroids(static_cast<size_t>(k * d), 0.0);
    std::vector<double> row(static_cast<size_t>(d));
    const int64_t first = static_cast<int64_t>(
        rng.NextBelow(static_cast<uint64_t>(data.rows())));
    data.CopyRow(first, row.data());
    std::copy(row.begin(), row.end(), centroids.begin());
    std::vector<double> min_sq(static_cast<size_t>(data.rows()),
                               std::numeric_limits<double>::infinity());
    const std::vector<const double*> cols = ColumnPointers(data);
    std::vector<double> sq(static_cast<size_t>(data.rows()));
    for (int64_t i = 1; i < k; ++i) {
      // Update distances against the last placed centroid.
      const double* last = centroids.data() + (i - 1) * d;
      kernels::PairwiseSquaredDistances(cols.data(), data.rows(), d, last,
                                        /*k=*/1, sq.data());
      double total = 0.0;
      for (int64_t r = 0; r < data.rows(); ++r) {
        min_sq[static_cast<size_t>(r)] =
            std::min(min_sq[static_cast<size_t>(r)], sq[static_cast<size_t>(r)]);
        total += min_sq[static_cast<size_t>(r)];
      }
      double draw = rng.NextDouble() * total;
      int64_t chosen = data.rows() - 1;
      for (int64_t r = 0; r < data.rows(); ++r) {
        draw -= min_sq[static_cast<size_t>(r)];
        if (draw < 0.0) {
          chosen = r;
          break;
        }
      }
      data.CopyRow(chosen, row.data());
      std::copy(row.begin(), row.end(), centroids.begin() + i * d);
    }
    return centroids;
  }

  static OpStatePtr MakeState(std::vector<double> centroids, int64_t k,
                              int64_t d) {
    auto state = std::make_shared<VectorState>("KMeans");
    state->vectors["centroids"] = std::move(centroids);
    state->scalars["k"] = static_cast<double>(k);
    state->scalars["d"] = static_cast<double>(d);
    return state;
  }
};

class SklKMeans final : public KMeansBase {
 public:
  SklKMeans() : KMeansBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const int64_t k =
        std::min<int64_t>(config.GetInt("n_clusters", 8), data.rows());
    const int max_iter = static_cast<int>(config.GetInt("max_iter", 50));
    Rng rng(static_cast<uint64_t>(config.GetInt("seed", 17)));
    const int64_t d = data.cols();
    std::vector<double> centroids = SeedCentroids(data, k, rng);
    const std::vector<const double*> cols = ColumnPointers(data);
    std::vector<int64_t> assign(static_cast<size_t>(data.rows()), 0);
    std::vector<double> sums(static_cast<size_t>(k * d));
    std::vector<int64_t> counts(static_cast<size_t>(k));
    for (int iter = 0; iter < max_iter; ++iter) {
      std::fill(sums.begin(), sums.end(), 0.0);
      std::fill(counts.begin(), counts.end(), 0);
      kernels::NearestCentroids(cols.data(), data.rows(), d, centroids.data(),
                                k, assign.data(), /*sq=*/nullptr);
      for (int64_t r = 0; r < data.rows(); ++r) {
        ++counts[static_cast<size_t>(assign[static_cast<size_t>(r)])];
      }
      // Per (center, dim) the accumulation stays row-ascending — the same
      // order as the previous row-at-a-time loop.
      for (int64_t c = 0; c < d; ++c) {
        const double* col = cols[static_cast<size_t>(c)];
        for (int64_t r = 0; r < data.rows(); ++r) {
          sums[static_cast<size_t>(assign[static_cast<size_t>(r)] * d + c)] +=
              col[r];
        }
      }
      double shift = 0.0;
      for (int64_t i = 0; i < k; ++i) {
        if (counts[static_cast<size_t>(i)] == 0) {
          continue;
        }
        double* centroid = centroids.data() + i * d;
        const double* sum = sums.data() + i * d;
        for (int64_t c = 0; c < d; ++c) {
          const double next =
              sum[c] / static_cast<double>(counts[static_cast<size_t>(i)]);
          shift += std::fabs(next - centroid[c]);
          centroid[c] = next;
        }
      }
      if (shift < 1e-9) {
        break;
      }
    }
    return MakeState(std::move(centroids), k, d);
  }
};

class TflKMeans final : public KMeansBase {
 public:
  TflKMeans() : KMeansBase("tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const int64_t k =
        std::min<int64_t>(config.GetInt("n_clusters", 8), data.rows());
    const int64_t batch =
        std::min<int64_t>(config.GetInt("batch_size", 256), data.rows());
    const int max_iter = static_cast<int>(config.GetInt("max_iter", 150));
    Rng rng(static_cast<uint64_t>(config.GetInt("seed", 17)));
    const int64_t d = data.cols();
    std::vector<double> centroids = SeedCentroids(data, k, rng);
    std::vector<int64_t> per_center(static_cast<size_t>(k), 0);
    std::vector<double> row(static_cast<size_t>(d));
    for (int iter = 0; iter < max_iter; ++iter) {
      for (int64_t b = 0; b < batch; ++b) {
        const int64_t r = static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(data.rows())));
        data.CopyRow(r, row.data());
        double best = std::numeric_limits<double>::infinity();
        int64_t best_i = 0;
        for (int64_t i = 0; i < k; ++i) {
          const double* centroid = centroids.data() + i * d;
          double sq = 0.0;
          for (int64_t c = 0; c < d; ++c) {
            const double diff = row[static_cast<size_t>(c)] - centroid[c];
            sq += diff * diff;
          }
          if (sq < best) {
            best = sq;
            best_i = i;
          }
        }
        const double eta =
            1.0 / static_cast<double>(++per_center[static_cast<size_t>(best_i)]);
        double* centroid = centroids.data() + best_i * d;
        for (int64_t c = 0; c < d; ++c) {
          centroid[c] += eta * (row[static_cast<size_t>(c)] - centroid[c]);
        }
      }
    }
    return MakeState(std::move(centroids), k, d);
  }
};

}  // namespace

Status RegisterKMeansOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklKMeans>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<TflKMeans>()));
  return Status::OK();
}

}  // namespace hyppo::ml
