#ifndef HYPPO_CORE_COST_MODEL_H_
#define HYPPO_CORE_COST_MODEL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/result.h"
#include "core/task.h"
#include "ml/registry.h"

namespace hyppo::core {

/// \brief Monetary cost model (paper §III-C3 and §V-B1).
///
///   price(e)   = time(e) × price_per_time_unit
///              + Σ_{v ∈ tail(e)} size(v) × price_per_size_unit
///   price(run) = cet × 0.00018 + B × 0.023
///
/// The constants are the paper's averaged AWS/GCP/Azure quotes; sizes are
/// charged per GB.
struct PricingModel {
  double price_per_time_unit = 0.00018;  // EUR per second of compute
  double price_per_gb = 0.023;           // EUR per GB of storage

  /// Monetary cost of one task given its duration and total input bytes.
  double TaskPrice(double seconds, int64_t input_bytes) const {
    return seconds * price_per_time_unit +
           static_cast<double>(input_bytes) / 1e9 * price_per_gb;
  }

  /// Monetary cost of a whole experiment: cumulative execution time plus
  /// the rented storage budget.
  double ExperimentPrice(double cet_seconds, int64_t budget_bytes) const {
    return cet_seconds * price_per_time_unit +
           static_cast<double>(budget_bytes) / 1e9 * price_per_gb;
  }
};

/// \brief Task time estimator (paper §IV-G).
///
/// Maintains per-(impl, task type) statistics bucketed by the logarithm of
/// the input cell count ("crude estimate buckets rather than specific
/// values"). With no observations it falls back to the implementation's
/// registered cost formula (PhysicalOperator::CostHint). The monitor feeds
/// observations after every executed task, so estimates sharpen as the
/// history grows.
///
/// Thread-safe: concurrent serving sessions (src/serving) Observe from
/// their execution threads while other sessions estimate during
/// planning, so the bucket map is guarded by an internal mutex.
class CostEstimator {
 public:
  explicit CostEstimator(
      const ml::OperatorRegistry* registry = &ml::OperatorRegistry::Global())
      : registry_(registry) {}

  /// Records an observed execution.
  void Observe(const std::string& impl, TaskType type, int64_t rows,
               int64_t cols, double seconds);

  /// Estimated execution time of a (bound) task on the given input shape.
  /// Load tasks are not handled here — their cost comes from the storage
  /// tier model.
  double EstimateTaskSeconds(const TaskInfo& task, int64_t rows,
                             int64_t cols) const;

  /// Number of recorded observations.
  int64_t num_observations() const {
    return num_observations_.load(std::memory_order_relaxed);
  }

 private:
  struct BucketStats {
    double total_seconds = 0.0;
    double total_cells = 0.0;
    int64_t count = 0;
  };

  static std::string StatsKey(const std::string& impl, TaskType type) {
    return impl + "|" + TaskTypeToString(type);
  }
  static int CellBucket(int64_t rows, int64_t cols);

  const ml::OperatorRegistry* registry_;
  /// Guards stats_ (observations land from execution threads while
  /// planners estimate concurrently).
  mutable std::mutex stats_mutex_;
  std::map<std::string, std::map<int, BucketStats>> stats_;
  std::atomic<int64_t> num_observations_{0};
};

}  // namespace hyppo::core

#endif  // HYPPO_CORE_COST_MODEL_H_
