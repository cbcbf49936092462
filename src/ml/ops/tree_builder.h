#ifndef HYPPO_ML_OPS_TREE_BUILDER_H_
#define HYPPO_ML_OPS_TREE_BUILDER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/op_state.h"

namespace hyppo {
class ThreadPool;
}  // namespace hyppo

namespace hyppo::ml {

/// \brief Options controlling decision tree induction.
struct TreeOptions {
  int32_t max_depth = 6;
  int64_t min_samples_leaf = 5;
  int64_t min_samples_split = 10;
  /// Number of features considered per split; 0 means all. Forests set
  /// this for feature subsampling.
  int64_t max_features = 0;
  /// Split finding strategy: exact scans every boundary between distinct
  /// feature values, in an order sorted once per fit (scikit-learn-style);
  /// histogram bins features once per fit and scans bin boundaries
  /// (LightGBM-style). The two strategies yield statistically equivalent
  /// but not bitwise-identical trees.
  bool histogram = false;
  /// Number of histogram bins, in [2, 256] (bin codes are bytes). Checked
  /// in both modes, so equivalent skl and lgb fits accept the same configs.
  int32_t max_bins = 64;
  /// Classification uses gini impurity over binary labels; regression uses
  /// variance reduction. Leaves predict the mean target (for classifiers,
  /// the positive-class fraction).
  bool classifier = false;
};

/// Fit-cost model of one tree level: seconds per (sampled row x column).
/// Derived from the `tree_fit` rows of bench/BENCH_kernels.json (see
/// docs/OPERATORS.md, "Tree fitting"); the fit operators' CostHints share
/// it so the planner compares skl and lgb trees on measured costs.
double TreeLevelSeconds(bool histogram, double rows, double cols);

/// \brief Grows the decision trees of one fit.
///
/// Construction does the work that depends only on the dataset, once:
/// exact mode orders every column's rows by value (NaN last); histogram
/// mode computes bin edges from the non-NaN range of each column and a
/// byte bin code per value. Those per-fit arrays are read-only afterwards.
/// Each tree then works on index ranges in one scratch slot, which the
/// fit's trees reuse in turn. Rows whose value is NaN go right at every
/// split, and no exact threshold sits next to a NaN.
///
/// With a pool and a dataset of at least kFanOutMinCells cells, the
/// per-column work fans out over the pool, and a fit of several trees gets
/// up to one slot per pool thread (the caller's included), so BuildEach
/// grows its trees concurrently. Every slot is allocated on the calling
/// thread by Make.
///
/// Trees are bitwise identical to sorting each node's (value, target)
/// pairs and binning each row per node, because node sums and split scans
/// add the same doubles in the same order; and bitwise identical at any
/// pool size, because a tree depends only on its rows, targets and seed.
class TreeFitter {
 public:
  /// Dataset cells (rows x columns) from which a fit fans out. Below it,
  /// sorting or binning a column costs about what handing it to another
  /// thread does: on a 4-core host, a single tree at 100 x 5 fitted
  /// 0.5-0.65x as fast on 4 threads as on 1, and 1.2-1.4x as fast at
  /// 100 x 20. The `threads` rows of bench/BENCH_kernels.json's `tree_fit`
  /// section time the floor shape (see docs/OPERATORS.md, "Tree fitting").
  static constexpr int64_t kFanOutMinCells = 2048;

  /// Fails with InvalidArgument when `options.max_bins` is outside
  /// [2, 256] or `data` has no rows. The fitter keeps a reference to
  /// `data`, which must outlive it. `pool` may be null (serial); `trees`
  /// is how many trees the fit will grow at most, which bounds its slots.
  static Result<TreeFitter> Make(const Dataset& data,
                                 const TreeOptions& options,
                                 ThreadPool* pool = nullptr,
                                 int64_t trees = 1);

  TreeFitter(TreeFitter&&) noexcept;
  TreeFitter& operator=(TreeFitter&&) noexcept;
  ~TreeFitter();

  /// Builds one tree on `rows` (indices into the dataset, duplicates
  /// allowed, e.g. a bootstrap sample) against `targets` (size
  /// data.rows(); typically data.target() or residuals). `seed` drives
  /// feature subsampling.
  Result<FlatTree> Build(const std::vector<double>& targets,
                         const std::vector<int64_t>& rows, uint64_t seed);

  /// Fills `rows` (data.rows() entries) with tree `tree`'s rows.
  using SampleFn =
      std::function<void(int64_t tree, std::vector<int64_t>& rows)>;

  /// Builds `seeds.size()` trees against `targets`: tree t on the rows
  /// `sample(t, ...)` writes, with seed `seeds[t]`. Trees grow
  /// concurrently when the fit has more than one slot, so `sample` must be
  /// safe to call from several threads for distinct trees. The result is
  /// in tree order, whatever the schedule.
  Result<std::vector<FlatTree>> BuildEach(const std::vector<double>& targets,
                                          const std::vector<uint64_t>& seeds,
                                          const SampleFn& sample);

  class Impl;

 private:
  TreeFitter(std::unique_ptr<Impl> impl, ThreadPool* pool);

  std::unique_ptr<Impl> impl_;
  ThreadPool* pool_;
};

/// Predicts with one tree for all rows of `data`, adding
/// `weight * prediction` into `out` (size data.rows()). Each row reads
/// only the features on its root-to-leaf path.
void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OPS_TREE_BUILDER_H_
