#include "core/cost_model.h"

#include <cmath>

namespace hyppo::core {

int CostEstimator::CellBucket(int64_t rows, int64_t cols) {
  const double cells =
      std::max<double>(1.0, static_cast<double>(rows) *
                                std::max<int64_t>(1, cols));
  return static_cast<int>(std::floor(std::log2(cells)));
}

void CostEstimator::Observe(const std::string& impl, TaskType type,
                            int64_t rows, int64_t cols, double seconds) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    BucketStats& bucket =
        stats_[StatsKey(impl, type)][CellBucket(rows, cols)];
    bucket.total_seconds += seconds;
    bucket.total_cells += static_cast<double>(rows) *
                          static_cast<double>(std::max<int64_t>(1, cols));
    ++bucket.count;
  }
  num_observations_.fetch_add(1, std::memory_order_relaxed);
}

double CostEstimator::EstimateTaskSeconds(const TaskInfo& task, int64_t rows,
                                          int64_t cols) const {
  const double cells = std::max<double>(
      1.0, static_cast<double>(rows) *
               static_cast<double>(std::max<int64_t>(1, cols)));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    auto key_it = stats_.find(StatsKey(task.impl, task.type));
    if (key_it != stats_.end() && !key_it->second.empty()) {
      const int bucket = CellBucket(rows, cols);
      // Exact bucket, else nearest observed bucket scaled linearly by cell
      // count (operators in the catalog are near-linear in cells at fixed
      // configuration).
      auto exact = key_it->second.find(bucket);
      if (exact != key_it->second.end()) {
        return exact->second.total_seconds /
               static_cast<double>(exact->second.count);
      }
      int best_distance = 1 << 30;
      const BucketStats* best = nullptr;
      for (const auto& [b, stats] : key_it->second) {
        const int distance = std::abs(b - bucket);
        if (distance < best_distance) {
          best_distance = distance;
          best = &stats;
        }
      }
      if (best != nullptr && best->total_cells > 0.0) {
        const double seconds_per_cell =
            best->total_seconds / best->total_cells;
        return seconds_per_cell * cells;
      }
    }
  }
  // Fallback: the implementation's registered cost formula.
  if (!task.impl.empty()) {
    Result<const ml::PhysicalOperator*> op = registry_->Get(task.impl);
    if (op.ok()) {
      Result<ml::MlTask> ml_task = ToMlTask(task.type);
      if (ml_task.ok()) {
        return (*op)->CostHint(*ml_task, rows, cols, task.config);
      }
    }
  }
  // Unknown operator: generic linear-in-cells guess.
  return 1e-8 * cells;
}

}  // namespace hyppo::core
