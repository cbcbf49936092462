#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ml/kernels/kernels.h"
#include "ml/operator.h"
#include "ml/ops/ops.h"

namespace hyppo::ml {

namespace {

// ---------------------------------------------------------------------------
// PolynomialFeatures (degree 2, no bias): output columns are the original
// features followed by all products x_i * x_j, i <= j.

std::vector<std::string> PolynomialNames(
    const std::vector<std::string>& names) {
  std::vector<std::string> out = names;
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i; j < names.size(); ++j) {
      out.push_back(names[i] + "*" + names[j]);
    }
  }
  return out;
}

class PolynomialFeaturesBase : public Estimator {
 public:
  explicit PolynomialFeaturesBase(std::string framework)
      : Estimator("PolynomialFeatures", std::move(framework),
                  /*transforms=*/true, /*predicts=*/false) {}

  double CostHint(MlTask task, int64_t rows, int64_t cols,
                  const Config& /*config*/) const override {
    if (task == MlTask::kTransform) {
      return 2e-9 * static_cast<double>(rows) * static_cast<double>(cols) *
             static_cast<double>(cols);
    }
    return 1e-9 * static_cast<double>(cols);
  }

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const int64_t degree = config.GetInt("degree", 2);
    if (degree != 2) {
      return Status::NotImplemented(
          "PolynomialFeatures supports degree=2 only");
    }
    auto state = std::make_shared<VectorState>("PolynomialFeatures");
    state->scalars["input_cols"] = static_cast<double>(data.cols());
    return OpStatePtr(std::move(state));
  }

  Status CheckState(const OpState& state, const Dataset& data) const {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr ||
        static_cast<int64_t>(vs->scalar("input_cols")) != data.cols()) {
      return Status::InvalidArgument(
          impl_name() + ".transform: incompatible op-state");
    }
    return Status::OK();
  }
};

// skl: pairwise products column pair by column pair.
class SklPolynomialFeatures final : public PolynomialFeaturesBase {
 public:
  SklPolynomialFeatures() : PolynomialFeaturesBase("skl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    HYPPO_RETURN_NOT_OK(CheckState(state, data));
    const int64_t c_in = data.cols();
    const int64_t c_out = c_in + c_in * (c_in + 1) / 2;
    Dataset out(data.rows(), c_out);
    out.set_column_names(PolynomialNames(data.column_names()));
    for (int64_t c = 0; c < c_in; ++c) {
      std::copy(data.col_data(c), data.col_data(c) + data.rows(),
                out.col_data(c));
    }
    int64_t k = c_in;
    for (int64_t i = 0; i < c_in; ++i) {
      const double* a = data.col_data(i);
      for (int64_t j = i; j < c_in; ++j) {
        kernels::Multiply(a, data.col_data(j), out.col_data(k++),
                          data.rows());
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

// tfl: row-blocked evaluation (better cache behaviour on wide outputs);
// identical values.
class TflPolynomialFeatures final : public PolynomialFeaturesBase {
 public:
  TflPolynomialFeatures() : PolynomialFeaturesBase("tfl") {}

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    HYPPO_RETURN_NOT_OK(CheckState(state, data));
    const int64_t c_in = data.cols();
    const int64_t c_out = c_in + c_in * (c_in + 1) / 2;
    Dataset out(data.rows(), c_out);
    out.set_column_names(PolynomialNames(data.column_names()));
    constexpr int64_t kBlock = 256;
    std::vector<double> row(static_cast<size_t>(c_in));
    for (int64_t r0 = 0; r0 < data.rows(); r0 += kBlock) {
      const int64_t r1 = std::min(data.rows(), r0 + kBlock);
      for (int64_t r = r0; r < r1; ++r) {
        data.CopyRow(r, row.data());
        for (int64_t c = 0; c < c_in; ++c) {
          out.at(r, c) = row[static_cast<size_t>(c)];
        }
        int64_t k = c_in;
        for (int64_t i = 0; i < c_in; ++i) {
          for (int64_t j = i; j < c_in; ++j) {
            out.at(r, k++) = row[static_cast<size_t>(i)] *
                             row[static_cast<size_t>(j)];
          }
        }
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// VarianceThreshold: keeps columns whose variance exceeds `threshold`.

class VarianceThresholdBase : public Estimator {
 public:
  explicit VarianceThresholdBase(std::string framework)
      : Estimator("VarianceThreshold", std::move(framework),
                  /*transforms=*/true, /*predicts=*/false) {}

 protected:
  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr) {
      return Status::InvalidArgument(
          impl_name() + ".transform: incompatible op-state");
    }
    const std::vector<double>& kept = vs->vec("kept");
    std::vector<int64_t> cols;
    cols.reserve(kept.size());
    for (double c : kept) {
      cols.push_back(static_cast<int64_t>(c));
    }
    return data.SelectCols(cols);
  }

  static OpStatePtr MakeState(std::vector<double> kept) {
    auto state = std::make_shared<VectorState>("VarianceThreshold");
    state->vectors["kept"] = std::move(kept);
    return state;
  }
};

// skl: two-pass variance.
class SklVarianceThreshold final : public VarianceThresholdBase {
 public:
  SklVarianceThreshold() : VarianceThresholdBase("skl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const double threshold = config.GetDouble("threshold", 0.0);
    std::vector<double> kept;
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* col = data.col_data(c);
      const double mu = kernels::Sum(col, data.rows()) /
                        static_cast<double>(data.rows());
      const double sq = kernels::ShiftedSumSq(col, mu, data.rows());
      if (sq / static_cast<double>(data.rows()) > threshold) {
        kept.push_back(static_cast<double>(c));
      }
    }
    if (kept.empty()) {
      return Status::InvalidArgument(
          "VarianceThreshold removed every column");
    }
    return MakeState(std::move(kept));
  }
};

// tfl: E[x^2] - E[x]^2 single pass.
class TflVarianceThreshold final : public VarianceThresholdBase {
 public:
  TflVarianceThreshold() : VarianceThresholdBase("tfl") {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& config,
                           ThreadPool* /*pool*/) const override {
    const double threshold = config.GetDouble("threshold", 0.0);
    std::vector<double> kept;
    for (int64_t c = 0; c < data.cols(); ++c) {
      double sum = 0.0;
      double sq = 0.0;
      kernels::SumAndSumSq(data.col_data(c), data.rows(), &sum, &sq);
      const double n = static_cast<double>(data.rows());
      const double variance = sq / n - (sum / n) * (sum / n);
      if (variance > threshold) {
        kept.push_back(static_cast<double>(c));
      }
    }
    if (kept.empty()) {
      return Status::InvalidArgument(
          "VarianceThreshold removed every column");
    }
    return MakeState(std::move(kept));
  }
};

// ---------------------------------------------------------------------------
// TaxiFeatures: TAXI-specific feature engineering (haversine distance,
// bearing, Manhattan distance from pickup/dropoff coordinates). Expects
// column names pickup_lat, pickup_lon, dropoff_lat, dropoff_lon; appends
// three engineered columns. Single implementation (use-case specific).

class SklTaxiFeatures final : public Estimator {
 public:
  SklTaxiFeatures()
      : Estimator("TaxiFeatures", "skl", /*transforms=*/true,
                  /*predicts=*/false) {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& data, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    auto state = std::make_shared<VectorState>("TaxiFeatures");
    state->scalars["input_cols"] = static_cast<double>(data.cols());
    return OpStatePtr(std::move(state));
  }

  Result<Dataset> DoTransform(const OpState& /*state*/,
                              const Dataset& data) const override {
    int64_t idx[4] = {-1, -1, -1, -1};
    static constexpr const char* kNames[4] = {"pickup_lat", "pickup_lon",
                                              "dropoff_lat", "dropoff_lon"};
    for (int64_t c = 0; c < data.cols(); ++c) {
      for (int k = 0; k < 4; ++k) {
        if (data.column_names()[static_cast<size_t>(c)] == kNames[k]) {
          idx[k] = c;
        }
      }
    }
    for (int k = 0; k < 4; ++k) {
      if (idx[k] < 0) {
        return Status::InvalidArgument(
            std::string("TaxiFeatures: missing column ") + kNames[k]);
      }
    }
    Dataset out = data;
    std::vector<double> haversine(static_cast<size_t>(data.rows()));
    std::vector<double> manhattan(static_cast<size_t>(data.rows()));
    std::vector<double> bearing(static_cast<size_t>(data.rows()));
    constexpr double kEarthRadiusKm = 6371.0;
    constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
    for (int64_t r = 0; r < data.rows(); ++r) {
      const double lat1 = data.at(r, idx[0]) * kDegToRad;
      const double lon1 = data.at(r, idx[1]) * kDegToRad;
      const double lat2 = data.at(r, idx[2]) * kDegToRad;
      const double lon2 = data.at(r, idx[3]) * kDegToRad;
      const double dlat = lat2 - lat1;
      const double dlon = lon2 - lon1;
      const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                       std::cos(lat1) * std::cos(lat2) *
                           std::sin(dlon / 2) * std::sin(dlon / 2);
      haversine[static_cast<size_t>(r)] =
          2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, a)));
      manhattan[static_cast<size_t>(r)] =
          std::fabs(dlat) * kEarthRadiusKm + std::fabs(dlon) * kEarthRadiusKm;
      bearing[static_cast<size_t>(r)] =
          std::atan2(std::sin(dlon) * std::cos(lat2),
                     std::cos(lat1) * std::sin(lat2) -
                         std::sin(lat1) * std::cos(lat2) * std::cos(dlon));
    }
    HYPPO_RETURN_NOT_OK(out.AddColumn("haversine_km", haversine));
    HYPPO_RETURN_NOT_OK(out.AddColumn("manhattan_km", manhattan));
    HYPPO_RETURN_NOT_OK(out.AddColumn("bearing", bearing));
    return out;
  }
};

// ---------------------------------------------------------------------------
// LogTarget: log1p-transforms the target (the standard TAXI trick of
// predicting log trip duration). Single implementation.

class SklLogTarget final : public Estimator {
 public:
  SklLogTarget()
      : Estimator("LogTarget", "skl", /*transforms=*/true,
                  /*predicts=*/false) {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& /*data*/, const Config& /*config*/,
                           ThreadPool* /*pool*/) const override {
    return OpStatePtr(std::make_shared<VectorState>("LogTarget"));
  }

  Result<Dataset> DoTransform(const OpState& /*state*/,
                              const Dataset& data) const override {
    if (!data.has_target()) {
      return Status::InvalidArgument("LogTarget: dataset has no target");
    }
    Dataset out = data;
    std::vector<double> target = data.target();
    for (double& t : target) {
      t = std::log1p(std::max(0.0, t));
    }
    out.set_target(std::move(target));
    return out;
  }
};

// ---------------------------------------------------------------------------
// Binarizer: thresholds features to {0,1}. Single implementation
// (HIGGS-specific preprocessing in our workload).

class SklBinarizer final : public Estimator {
 public:
  SklBinarizer()
      : Estimator("Binarizer", "skl", /*transforms=*/true,
                  /*predicts=*/false) {}

 protected:
  Result<OpStatePtr> DoFit(const Dataset& /*data*/, const Config& config,
                           ThreadPool* /*pool*/) const override {
    auto state = std::make_shared<VectorState>("Binarizer");
    state->scalars["threshold"] = config.GetDouble("threshold", 0.0);
    return OpStatePtr(std::move(state));
  }

  Result<Dataset> DoTransform(const OpState& state,
                              const Dataset& data) const override {
    const auto* vs = dynamic_cast<const VectorState*>(&state);
    if (vs == nullptr) {
      return Status::InvalidArgument("Binarizer: incompatible op-state");
    }
    const double threshold = vs->scalar("threshold");
    Dataset out(data.rows(), data.cols());
    out.set_column_names(data.column_names());
    for (int64_t c = 0; c < data.cols(); ++c) {
      const double* src = data.col_data(c);
      double* dst = out.col_data(c);
      for (int64_t r = 0; r < data.rows(); ++r) {
        dst[r] = src[r] > threshold ? 1.0 : 0.0;
      }
    }
    if (data.has_target()) {
      out.set_target(data.target());
    }
    return out;
  }
};

}  // namespace

Status RegisterFeatureOperators(OperatorRegistry& registry) {
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<SklPolynomialFeatures>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<TflPolynomialFeatures>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<SklVarianceThreshold>()));
  HYPPO_RETURN_NOT_OK(
      registry.Register(std::make_unique<TflVarianceThreshold>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklTaxiFeatures>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklLogTarget>()));
  HYPPO_RETURN_NOT_OK(registry.Register(std::make_unique<SklBinarizer>()));
  return Status::OK();
}

}  // namespace hyppo::ml
