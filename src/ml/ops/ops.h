#ifndef HYPPO_ML_OPS_OPS_H_
#define HYPPO_ML_OPS_OPS_H_

#include <cstdint>

#include "common/status.h"
#include "common/thread_pool.h"
#include "ml/registry.h"

namespace hyppo::ml {

/// Dataset cells (rows x columns) from which the per-column operators
/// (QuantileTransformer fit and transform, SimpleImputer fit) hand their
/// columns to the pool. Their work per cell is far below a tree fit's, so
/// their floor is higher than TreeFitter::kFanOutMinCells: on a 4-core
/// host, SimpleImputer fits at 1000 x 30 and 1500 x 30 ran 0.7-0.98x as
/// fast on 4 threads as on 1, and 1.7-3.4x as fast at 2185 x 30. The
/// `quantile_transform` rows of bench/BENCH_kernels.json time the floor
/// shape (see docs/OPERATORS.md, "Per-column operators").
inline constexpr int64_t kColumnFanOutMinCells = 65536;

/// Lanes that per-column work on a `rows` x `cols` dataset runs on: every
/// thread of `pool`, the caller's included, from kColumnFanOutMinCells
/// cells on; otherwise 1, the caller alone.
inline int64_t ColumnLanes(const ThreadPool* pool, int64_t rows,
                           int64_t cols) {
  if (pool == nullptr || rows * cols < kColumnFanOutMinCells) {
    return 1;
  }
  return int64_t{pool->num_workers()} + 1;
}

/// Per-family registration hooks, called by RegisterBuiltinOperators.
Status RegisterSplitOperators(OperatorRegistry& registry);
Status RegisterScalerOperators(OperatorRegistry& registry);
Status RegisterImputerOperators(OperatorRegistry& registry);
Status RegisterFeatureOperators(OperatorRegistry& registry);
Status RegisterPcaOperators(OperatorRegistry& registry);
Status RegisterLinearModelOperators(OperatorRegistry& registry);
Status RegisterSvmOperators(OperatorRegistry& registry);
Status RegisterTreeOperators(OperatorRegistry& registry);
Status RegisterForestOperators(OperatorRegistry& registry);
Status RegisterBoostingOperators(OperatorRegistry& registry);
Status RegisterKMeansOperators(OperatorRegistry& registry);
Status RegisterEnsembleOperators(OperatorRegistry& registry);
Status RegisterEvaluatorOperators(OperatorRegistry& registry);
Status RegisterElasticNetOperators(OperatorRegistry& registry);
Status RegisterQuantileOperators(OperatorRegistry& registry);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OPS_OPS_H_
