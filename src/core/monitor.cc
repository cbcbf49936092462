#include "core/monitor.h"

namespace hyppo::core {

void Monitor::RecordTask(const std::string& impl, TaskType type, int64_t rows,
                         int64_t cols, double seconds) {
  {
    // A one-descent prediction does the work of the predicts it replaces,
    // so it is aggregated with them.
    std::lock_guard<std::mutex> lock(aggregates_mutex_);
    Aggregate& agg = by_task_type_[type == TaskType::kPredictDepths
                                       ? TaskType::kPredict
                                       : type];
    agg.total_seconds += seconds;
    ++agg.count;
  }
  Add(&num_task_records_, 1);
  if (estimator_ != nullptr && type != TaskType::kLoad && !impl.empty()) {
    estimator_->Observe(impl, type, rows, cols, seconds);
  }
}

void Monitor::RecordArtifact(ArtifactKind kind, int64_t size_bytes,
                             double compute_seconds) {
  std::lock_guard<std::mutex> lock(aggregates_mutex_);
  Aggregate& agg = by_artifact_kind_[kind];
  agg.total_seconds += compute_seconds;
  agg.total_bytes += size_bytes;
  ++agg.count;
}

}  // namespace hyppo::core
