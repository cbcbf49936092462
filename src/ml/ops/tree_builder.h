#ifndef HYPPO_ML_OPS_TREE_BUILDER_H_
#define HYPPO_ML_OPS_TREE_BUILDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

/// Histogram binning of one column of `rows` values, as TreeFitter does it
/// once per fit. `edges` gets the max_bins - 1 interior bin edges, spread
/// evenly over the column's non-NaN range, or none for a constant or
/// all-NaN column (whose codes are all 0). `codes[r]` gets the number of
/// edges <= col[r], the bin std::upper_bound finds; NaN gets the last bin.
/// Each code is computed by arithmetic, a guess from the value's offset in
/// the range corrected against the neighbouring edges, so it needs no
/// search unless the range's width overflows or underflows.
void BinColumn(const double* col, size_t rows, int32_t max_bins,
               std::vector<double>& edges, uint8_t* codes);

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
/// grows its trees concurrently. A fit of one slot instead scans the
/// candidate features of nodes of at least kScanFanOutMinCells cells over
/// the pool, and replays the serial scan's margin rule in feature order.
/// Every slot is allocated on the calling thread by Make.
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

  /// Node cells (sampled rows x candidate features) from which a fit of
  /// one slot scans a node's candidate features over the pool. Every node
  /// that fans out pays a hand-off: on a 4-core host, a floor of 16384
  /// made lgb boosting at 3000 x 30 (each stage's upper nodes above it)
  /// 1.8-2.6x slower, 65536 (the roots alone) 1.3-1.6x slower, and this
  /// floor leaves such fits serial, while single trees at 3000 x 495 still fitted 2.0x (lgb) and
  /// 2.3x (skl) as fast on 4 threads as on 1. The `tree_fit` rows of
  /// bench/BENCH_kernels.json time 3000 x 495 and the floor's shape.
  static constexpr int64_t kScanFanOutMinCells = 131072;

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
  /// data.rows(); typically data.target() or residuals). `seed` is the
  /// root's feature-sample seed (see ChildSampleSeed).
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

/// Seed of a child node's feature sample. Each node that subsamples
/// features (TreeOptions::max_features) draws a shuffle of 0..d-1 from a
/// generator seeded with its own sample seed: the tree seed at the root,
/// ChildSampleSeed(parent's seed, went left) below it. A node's candidates
/// therefore depend only on its path from the root, not on how many nodes
/// were built before it, so cutting a tree deeper than `k` at depth `k`
/// (CutTreeAtDepth) leaves the tree grown with max_depth k.
uint64_t ChildSampleSeed(uint64_t parent, bool left);

/// `tree` with every node at depth `max_depth` made a leaf and the nodes
/// below it dropped, renumbered in pre-order. A node keeps its mean target
/// as its value whether it is split or not, so for a tree grown with a
/// larger max_depth this is, bit for bit, the tree the same fit grows with
/// max_depth `max_depth`.
FlatTree CutTreeAtDepth(const FlatTree& tree, int32_t max_depth);

/// Logical operators whose fit with max_depth k is their fit with a larger
/// max_depth and an otherwise equal config cut at depth k: the decision
/// trees and the random forests, exact (skl) and histogram (lgb) alike.
/// Boosting is not among them: each stage fits the residuals the shallower
/// stages before it leave.
bool IsDepthCuttable(const std::string& logical_op);

/// The op-state of a depth-cuttable model fitted with max_depth
/// `max_depth`, cut from `state`, the op-state of a fit with a larger
/// max_depth and an otherwise equal config: every tree cut with
/// CutTreeAtDepth, weights unchanged. InvalidArgument for any other state.
Result<OpStatePtr> CutModelAtDepth(const OpState& state, int32_t max_depth);

/// Predicts with one tree for all rows of `data`, adding
/// `weight * prediction` into `out` (size data.rows()). Each row reads
/// only the features on its root-to-leaf path.
void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_OPS_TREE_BUILDER_H_
