#include "ml/ops/tree_builder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace hyppo::ml {

namespace {

// Per-level fit cost, seconds per (row x column): for each mode, the
// median `level_cell_seconds` of the six serial `tree_fit` rows in
// bench/BENCH_kernels.json (tree, forest and boosting fits at 4000 x 30
// and 4000 x 495, each time divided by its CostHint factor) when they
// were first measured. It prices CPU time per tree, so fan-out over a
// pool leaves it unchanged.
constexpr double kExactLevelSecondsPerCell = 1.2e-8;
constexpr double kHistogramLevelSecondsPerCell = 3.5e-9;

// Histogram bin codes are bytes.
constexpr int32_t kMaxBins = 256;

// Impurity proxy that is maximized by a split: for regression this is the
// standard variance-reduction surrogate sum^2/count; for binary
// classification with mean-encoded labels gini reduction reduces to the
// same expression on label sums, so one scorer serves both.
double Score(double sum, double count) {
  return count > 0.0 ? sum * sum / count : 0.0;
}

// Integer sort key of a feature value: numbers keep their order, equal
// values (+0.0 and -0.0 included) get equal keys and NaN sorts last.
uint64_t SortKey(double value) {
  if (std::isnan(value)) {
    return ~uint64_t{0};
  }
  if (value == 0.0) {
    value = 0.0;
  }
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

struct SplitDecision {
  int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

}  // namespace

void BinColumn(const double* col, size_t rows, int32_t max_bins,
               std::vector<double>& edges, uint8_t* codes) {
  edges.clear();
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < rows; ++r) {
    if (std::isnan(col[r])) {
      continue;
    }
    mn = std::min(mn, col[r]);
    mx = std::max(mx, col[r]);
  }
  if (!(mx > mn)) {
    std::fill(codes, codes + rows, uint8_t{0});
    return;  // constant or all-NaN column: no usable edges
  }
  for (int32_t b = 1; b < max_bins; ++b) {
    edges.push_back(mn + (mx - mn) * static_cast<double>(b) /
                             static_cast<double>(max_bins));
  }
  const double* e = edges.data();
  const size_t last = edges.size();
  // Bins per unit of value: edge b - 1 sits near mn + b / scale.
  const double scale = static_cast<double>(max_bins) / (mx - mn);
  if (!(std::isfinite(scale) && scale > 0.0)) {
    // mx - mn overflowed or is too small to divide by: search.
    for (size_t r = 0; r < rows; ++r) {
      codes[r] = static_cast<uint8_t>(std::upper_bound(e, e + last, col[r]) -
                                      e);
    }
    return;
  }
  for (size_t r = 0; r < rows; ++r) {
    const double v = col[r];
    size_t c = last;  // NaN: right of every edge
    if (!std::isnan(v)) {
      // Guess the bin, then walk to the one with e[c - 1] <= v < e[c]:
      // for non-decreasing edges that is the number of edges <= v, the
      // upper_bound answer, whatever the guess.
      c = static_cast<size_t>(std::clamp(
          (v - mn) * scale, 0.0, static_cast<double>(last)));
      while (c > 0 && v < e[c - 1]) {
        --c;
      }
      while (c < last && e[c] <= v) {
        ++c;
      }
    }
    codes[r] = static_cast<uint8_t>(c);
  }
}

class TreeFitter::Impl {
 public:
  Impl() = default;
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;
  virtual ~Impl() = default;
  /// Grows one tree in scratch slot `slot`; calls on distinct slots may
  /// run concurrently.
  virtual Result<FlatTree> Build(int64_t slot,
                                 const std::vector<double>& targets,
                                 const std::vector<int64_t>& rows,
                                 uint64_t seed) = 0;
  virtual int64_t num_slots() const = 0;
  virtual size_t rows() const = 0;
};

namespace {

// The per-fit arrays for one index width: `Index` holds a dataset row
// index, so uint16_t serves datasets of up to 65536 rows and int32_t the
// rest. Read-only once built, and shared by every slot of the fit.
template <typename Index>
struct FitColumns {
  std::vector<Index> order;                // exact: d x n
  std::vector<uint8_t> has_ties;           // exact: d
  std::vector<std::vector<double>> edges;  // histogram: per column
  std::vector<uint8_t> codes;              // histogram: d x n

  // Exact mode orders each column's rows by value, NaN last, and notes
  // whether the column holds equal values. Histogram mode bins each column
  // with BinColumn: its edges and one bin code per value, computed by
  // arithmetic and equal to the std::upper_bound bin the per-row search
  // gives (NaN lands in the last bin, right of every threshold). Columns
  // fan out over `lanes` lanes of `pool`, each lane's scratch allocated
  // here.
  FitColumns(const Dataset& data, const TreeOptions& options,
             ThreadPool* pool, int64_t lanes) {
    const size_t n = static_cast<size_t>(data.rows());
    const size_t d = static_cast<size_t>(data.cols());
    lanes = std::min(lanes, static_cast<int64_t>(d));
    if (!options.histogram) {
      order.resize(d * n);
      has_ties.resize(d);
      std::vector<std::vector<std::pair<uint64_t, Index>>> keyed(
          static_cast<size_t>(lanes),
          std::vector<std::pair<uint64_t, Index>>(n));
      ForEachOnLanes(pool, static_cast<int64_t>(d), lanes,
                     [&](int64_t f, int64_t lane) {
                       SortColumn(data, static_cast<size_t>(f),
                                  keyed[static_cast<size_t>(lane)]);
                     });
      return;
    }
    edges.resize(d);
    for (std::vector<double>& e : edges) {
      e.reserve(static_cast<size_t>(options.max_bins - 1));
    }
    codes.resize(d * n);
    ForEachOnLanes(pool, static_cast<int64_t>(d), lanes,
                   [&](int64_t f, int64_t /*lane*/) {
                     const size_t column = static_cast<size_t>(f);
                     BinColumn(data.col_data(f), n, options.max_bins,
                               edges[column], codes.data() + column * n);
                   });
  }

  void SortColumn(const Dataset& data, size_t f,
                  std::vector<std::pair<uint64_t, Index>>& keyed) {
    const size_t n = keyed.size();
    const double* col = data.col_data(static_cast<int64_t>(f));
    for (size_t r = 0; r < n; ++r) {
      keyed[r] = {SortKey(col[r]), static_cast<Index>(r)};
    }
    std::sort(keyed.begin(), keyed.end());
    Index* out = order.data() + f * n;
    bool ties = false;
    for (size_t i = 0; i < n; ++i) {
      out[i] = keyed[i].second;
      ties = ties || (i > 0 && keyed[i].first == keyed[i - 1].first);
    }
    has_ties[f] = ties ? 1 : 0;
  }
};

// One scratch slot: grows trees, one at a time, on lists of row indices,
// each node owning one range of every list:
// - `sample_`, the tree's rows in sample order, duplicates included (node
//   sums, histograms);
// - exact mode only: `lists_`, per feature the tree's distinct rows in
//   (value, target) order, each standing for its multiplicity in the
//   sample. Expanded, a node's range is exactly what sorting the node's
//   (value, target) pairs gives.
// A split marks each row's side and stable-partitions the ranges, so every
// child range keeps its order. Every buffer is sized in the constructor
// for a sample of up to n rows. A grower given a `scan_pool` scans large
// nodes' candidate features over `lanes` lanes of it (see FindSplit).
template <typename Index>
class TreeGrower {
 public:
  TreeGrower(const Dataset& data, const TreeOptions& options,
             const FitColumns<Index>& columns, ThreadPool* scan_pool,
             int64_t lanes)
      : data_(data),
        options_(options),
        columns_(columns),
        n_(static_cast<size_t>(data.rows())),
        d_(static_cast<size_t>(data.cols())),
        scan_pool_(lanes > 1 ? scan_pool : nullptr),
        lanes_(scan_pool_ != nullptr ? lanes : 1),
        side_(n_),
        feature_pool_(d_) {
    sample_.reserve(n_);
    scratch_.reserve(n_);
    features_.reserve(d_);
    if (scan_pool_ != nullptr) {
      feature_max_.resize(d_);
    }
    if (options_.histogram) {
      // Zeroed once here; every scan zeroes the bins it touched.
      const size_t bins = static_cast<size_t>(lanes_ * options_.max_bins);
      bin_sum_.resize(bins);
      bin_count_.resize(bins);
      node_targets_.reserve(n_);
    } else {
      multiplicity_.resize(n_);
      lists_.reserve(d_ * n_ + 1);
    }
  }

  Result<FlatTree> Build(const std::vector<double>& targets,
                         const std::vector<int64_t>& rows, uint64_t seed) {
    if (targets.size() != n_) {
      return Status::InvalidArgument("BuildTree: targets size mismatch");
    }
    if (rows.empty()) {
      return Status::InvalidArgument("BuildTree: no rows");
    }
    sample_.resize(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] < 0 || static_cast<size_t>(rows[i]) >= n_) {
        return Status::InvalidArgument("BuildTree: row index out of range");
      }
      sample_[i] = static_cast<Index>(rows[i]);
    }
    scratch_.resize(rows.size());
    if (options_.histogram) {
      node_targets_.resize(rows.size());
    }
    targets_ = targets.data();
    tree_ = FlatTree();
    Range root{0, rows.size(), 0, 0};
    if (!options_.histogram) {
      root.list_end = OrderSample();
    }
    BuildNode(root, 0, seed);
    return std::move(tree_);
  }

 private:
  // A node's rows: [begin, end) of `sample_` and, in exact mode,
  // [list_begin, list_end) of every feature's list.
  struct Range {
    size_t begin = 0;
    size_t end = 0;
    size_t list_begin = 0;
    size_t list_end = 0;
  };

  // Exact mode, once per tree: counts each row's multiplicity in the
  // sample, keeps each column's order of the rows present and orders every
  // run of equal values by target. Returns the number of distinct rows.
  size_t OrderSample() {
    std::fill(multiplicity_.begin(), multiplicity_.end(), 0);
    size_t distinct = 0;
    for (Index row : sample_) {
      distinct += multiplicity_[row]++ == 0 ? 1 : 0;
    }
    distinct_ = distinct;
    // One slack element: the branch-free copy below writes one past the
    // last kept row.
    lists_.resize(d_ * distinct_ + 1);
    const double* t = targets_;
    const auto by_target = [t](Index a, Index b) { return t[a] < t[b]; };
    for (size_t f = 0; f < d_; ++f) {
      const Index* order = columns_.order.data() + f * n_;
      const double* col = data_.col_data(static_cast<int64_t>(f));
      Index* out = lists_.data() + f * distinct_;
      size_t pos = 0;
      if (columns_.has_ties[f] == 0) {
        // Every run is one row: keep the order of the rows present.
        for (size_t i = 0; i < n_; ++i) {
          out[pos] = order[i];
          pos += multiplicity_[order[i]] > 0 ? 1 : 0;
        }
        continue;
      }
      size_t i = 0;
      while (i < n_) {
        const double value = col[order[i]];
        size_t j = i + 1;
        if (std::isnan(value)) {
          j = n_;  // NaN run: never scanned, so left in row order
        } else {
          while (j < n_ && col[order[j]] == value) {
            ++j;
          }
        }
        const size_t run_begin = pos;
        for (size_t k = i; k < j; ++k) {
          if (multiplicity_[order[k]] > 0) {
            out[pos++] = order[k];
          }
        }
        if (pos - run_begin > 1 && !std::isnan(value)) {
          std::sort(out + run_begin, out + pos, by_target);
        }
        i = j;
      }
    }
    return distinct_;
  }

  // Chooses the candidate features for one node split: a shuffle of
  // 0..d-1 drawn from a generator seeded with the node's sample seed, so
  // the sample depends on the node's path, not on the build order.
  void SampleFeatures(uint64_t sample_seed) {
    const size_t k =
        options_.max_features > 0
            ? std::min(static_cast<size_t>(options_.max_features), d_)
            : d_;
    std::iota(feature_pool_.begin(), feature_pool_.end(), int64_t{0});
    if (k < d_) {
      Rng rng(sample_seed);
      rng.Shuffle(feature_pool_);
      std::sort(feature_pool_.begin(),
                feature_pool_.begin() + static_cast<ptrdiff_t>(k));
    }
    features_.assign(feature_pool_.begin(),
                     feature_pool_.begin() + static_cast<ptrdiff_t>(k));
  }

  // What every candidate scan of one node shares.
  struct NodeStats {
    double total_sum = 0.0;
    double n = 0.0;     // sampled rows, duplicates included
    double base = 0.0;  // Score of the unsplit node
  };

  // Chooses the node's split: the first largest gain over the candidate
  // features in order, where a gain counts as larger only when it beats
  // the best so far by more than 1e-12. With a scan pool and at least
  // kScanFanOutMinCells node rows x candidates, the candidates' largest
  // eligible gains are found in parallel first. The rule then runs in
  // feature order, rescanning only the features whose largest gain beats
  // the running best by the margin: the best only grows, so no other
  // feature could have changed it, and the split is the serial scan's bit
  // for bit. Reducing per-feature bests would not be, because the margin
  // rule is not associative.
  SplitDecision FindSplit(const Range& node, double total_sum) {
    NodeStats stats;
    stats.total_sum = total_sum;
    stats.n = static_cast<double>(node.end - node.begin);
    stats.base = Score(total_sum, stats.n);
    SplitDecision best;
    const auto rule = [&best](int64_t f) {
      return [&best, f](double gain, const auto& threshold) {
        if (gain > best.gain + 1e-12) {
          best.gain = gain;
          best.feature = static_cast<int32_t>(f);
          best.threshold = threshold();
        }
      };
    };
    const int64_t k = static_cast<int64_t>(features_.size());
    if (scan_pool_ == nullptr ||
        static_cast<int64_t>(node.end - node.begin) * k <
            TreeFitter::kScanFanOutMinCells) {
      for (int64_t f : features_) {
        ScanFeature(node, stats, f, 0, rule(f));
      }
      return best;
    }
    ForEachOnLanes(scan_pool_, k, std::min(lanes_, k),
                   [&](int64_t j, int64_t lane) {
                     double max_gain = -std::numeric_limits<double>::infinity();
                     ScanFeature(node, stats, features_[static_cast<size_t>(j)],
                                 static_cast<size_t>(lane),
                                 [&max_gain](double gain, const auto&) {
                                   max_gain = std::max(max_gain, gain);
                                 });
                     feature_max_[static_cast<size_t>(j)] = max_gain;
                   });
    for (int64_t j = 0; j < k; ++j) {
      if (feature_max_[static_cast<size_t>(j)] > best.gain + 1e-12) {
        const int64_t f = features_[static_cast<size_t>(j)];
        ScanFeature(node, stats, f, 0, rule(f));
      }
    }
    return best;
  }

  // Calls visit(gain, threshold) for every eligible boundary of feature
  // `f` at `node`, in scan order; threshold() computes the boundary's
  // threshold. Histogram scans use lane `lane`'s bins.
  template <typename Visit>
  void ScanFeature(const Range& node, const NodeStats& stats, int64_t f,
                   size_t lane, Visit&& visit) {
    if (options_.histogram) {
      ScanHistogram(node, stats, f, lane, visit);
    } else {
      ScanExact(node, stats, f, visit);
    }
  }

  // Exact mode: scans the boundaries between distinct values of the
  // feature's (value, target) list, adding every row's target once per
  // occurrence.
  template <typename Visit>
  void ScanExact(const Range& node, const NodeStats& stats, int64_t f,
                 Visit& visit) const {
    const double min_leaf = static_cast<double>(options_.min_samples_leaf);
    const size_t distinct = node.list_end - node.list_begin;
    const Index* list =
        lists_.data() + static_cast<size_t>(f) * distinct_ + node.list_begin;
    const double* col = data_.col_data(f);
    double left_sum = 0.0;
    int64_t left_count = 0;
    double value = col[list[0]];
    for (size_t i = 0; i + 1 < distinct; ++i) {
      const Index row = list[i];
      const double target = targets_[row];
      for (int32_t c = multiplicity_[row]; c > 0; --c) {
        left_sum += target;
      }
      left_count += multiplicity_[row];
      const double next = col[list[i + 1]];
      const double current = value;
      value = next;
      if (current == next) {
        continue;
      }
      if (std::isnan(next)) {
        break;  // NaN sorts last: no threshold next to a NaN
      }
      const double left_n = static_cast<double>(left_count);
      const double right_n = stats.n - left_n;
      if (right_n < min_leaf) {
        break;
      }
      if (left_n < min_leaf) {
        continue;
      }
      const double gain = Score(left_sum, left_n) +
                          Score(stats.total_sum - left_sum, right_n) -
                          stats.base;
      visit(gain, [current, next]() { return 0.5 * (current + next); });
    }
  }

  // Histogram mode: accumulates per-bin count/sum in sample order and
  // scans bin boundaries. Thresholds are bin edges. The node's targets
  // come from `node_targets_`, gathered once per node in sample order.
  // Only the bins from the lowest to the highest code the node touches
  // are scanned and zeroed afterwards: every other bin holds no row, so
  // the scan would skip its boundary anyway.
  template <typename Visit>
  void ScanHistogram(const Range& node, const NodeStats& stats, int64_t f,
                     size_t lane, Visit& visit) {
    const std::vector<double>& edges = columns_.edges[static_cast<size_t>(f)];
    if (edges.empty()) {
      return;  // constant feature
    }
    const double min_leaf = static_cast<double>(options_.min_samples_leaf);
    const size_t bins = static_cast<size_t>(options_.max_bins);
    double* bin_sum = bin_sum_.data() + lane * bins;
    uint32_t* bin_count = bin_count_.data() + lane * bins;
    const uint8_t* codes = columns_.codes.data() + static_cast<size_t>(f) * n_;
    size_t lo = bins;
    size_t hi = 0;
    for (size_t i = node.begin; i < node.end; ++i) {
      const size_t code = codes[sample_[i]];
      bin_sum[code] += node_targets_[i];
      ++bin_count[code];
      lo = std::min(lo, code);
      hi = std::max(hi, code);
    }
    double left_sum = 0.0;
    double left_n = 0.0;
    // Bins - 1 boundaries, one per edge; those below lo or past hi have
    // an empty bin on their left.
    const size_t last = std::min(hi, bins - 2);
    for (size_t b = lo; b <= last; ++b) {
      left_sum += bin_sum[b];
      left_n += static_cast<double>(bin_count[b]);
      const double right_n = stats.n - left_n;
      if (left_n < min_leaf || right_n < min_leaf) {
        continue;
      }
      if (bin_count[b] == 0) {
        continue;
      }
      const double gain = Score(left_sum, left_n) +
                          Score(stats.total_sum - left_sum, right_n) -
                          stats.base;
      visit(gain, [&edges, b]() { return edges[b]; });
    }
    std::fill(bin_sum + lo, bin_sum + hi + 1, 0.0);
    std::fill(bin_count + lo, bin_count + hi + 1, uint32_t{0});
  }

  // Stable partition of list[0, count) by side_, left rows first; returns
  // the number of left rows.
  size_t Partition(Index* list, size_t count) {
    size_t left = 0;
    size_t right = 0;
    for (size_t i = 0; i < count; ++i) {
      const Index row = list[i];
      const size_t is_left = side_[row];
      list[left] = row;
      scratch_[right] = row;
      left += is_left;
      right += 1 - is_left;
    }
    std::copy_n(scratch_.begin(), right, list + left);
    return left;
  }

  int32_t AddLeaf(double value) {
    const int32_t id = static_cast<int32_t>(tree_.feature.size());
    tree_.feature.push_back(-1);
    tree_.threshold.push_back(0.0);
    tree_.left.push_back(-1);
    tree_.right.push_back(-1);
    tree_.value.push_back(value);
    return id;
  }

  bool MaySplit(size_t rows, int32_t depth) const {
    return depth < options_.max_depth &&
           static_cast<int64_t>(rows) >= options_.min_samples_split;
  }

  // Grows the subtree of `node`, whose feature sample is seeded with
  // `sample_seed` (ChildSampleSeed of its parent's, the tree seed at the
  // root).
  int32_t BuildNode(const Range& node, int32_t depth, uint64_t sample_seed) {
    const size_t count = node.end - node.begin;
    const bool may_split = MaySplit(count, depth);
    double sum = 0.0;
    if (options_.histogram && may_split) {
      // Gather the targets in sample order for the histogram passes.
      for (size_t i = node.begin; i < node.end; ++i) {
        const double target = targets_[sample_[i]];
        node_targets_[i] = target;
        sum += target;
      }
    } else {
      for (size_t i = node.begin; i < node.end; ++i) {
        sum += targets_[sample_[i]];
      }
    }
    const double mean = sum / static_cast<double>(count);
    if (!may_split) {
      return AddLeaf(mean);
    }
    SampleFeatures(sample_seed);
    const SplitDecision split = FindSplit(node, sum);
    if (split.feature < 0) {
      return AddLeaf(mean);
    }
    const double* col = data_.col_data(split.feature);
    size_t left_count = 0;
    for (size_t i = node.begin; i < node.end; ++i) {
      const Index row = sample_[i];
      const uint8_t is_left = col[row] <= split.threshold ? 1 : 0;
      side_[row] = is_left;
      left_count += is_left;
    }
    if (left_count == 0 || left_count == count) {
      return AddLeaf(mean);
    }
    Partition(sample_.data() + node.begin, count);
    Range left{node.begin, node.begin + left_count, node.list_begin,
               node.list_begin};
    Range right{left.end, node.end, node.list_begin, node.list_begin};
    // The value-ordered lists matter only to children that search splits.
    if (!options_.histogram && (MaySplit(left_count, depth + 1) ||
                                MaySplit(count - left_count, depth + 1))) {
      const size_t distinct = node.list_end - node.list_begin;
      size_t list_left = 0;
      for (size_t f = 0; f < d_; ++f) {
        list_left = Partition(
            lists_.data() + f * distinct_ + node.list_begin, distinct);
      }
      left.list_end = node.list_begin + list_left;
      right.list_begin = left.list_end;
      right.list_end = node.list_end;
    }
    const int32_t id = static_cast<int32_t>(tree_.feature.size());
    tree_.feature.push_back(split.feature);
    tree_.threshold.push_back(split.threshold);
    tree_.left.push_back(-1);
    tree_.right.push_back(-1);
    tree_.value.push_back(mean);
    const int32_t left_id =
        BuildNode(left, depth + 1, ChildSampleSeed(sample_seed, true));
    const int32_t right_id =
        BuildNode(right, depth + 1, ChildSampleSeed(sample_seed, false));
    tree_.left[static_cast<size_t>(id)] = left_id;
    tree_.right[static_cast<size_t>(id)] = right_id;
    return id;
  }

  const Dataset& data_;
  const TreeOptions& options_;
  const FitColumns<Index>& columns_;
  const size_t n_;  // dataset rows
  const size_t d_;  // dataset columns
  ThreadPool* const scan_pool_;  // null: every scan runs on the caller
  const int64_t lanes_;          // scan lanes, the caller's included

  std::vector<Index> sample_;          // the tree's rows
  std::vector<Index> scratch_;         // partition buffer
  size_t distinct_ = 0;                // exact: distinct rows of the tree
  std::vector<Index> lists_;           // exact: d_ x distinct_
  std::vector<int32_t> multiplicity_;  // exact: n_
  std::vector<uint8_t> side_;          // n_: 1 = goes left
  std::vector<int64_t> feature_pool_;  // d_
  std::vector<int64_t> features_;      // candidates of the current node
  std::vector<double> feature_max_;    // per candidate: largest gain
  std::vector<double> bin_sum_;        // histogram: lanes_ x max_bins
  std::vector<uint32_t> bin_count_;    // histogram: lanes_ x max_bins
  std::vector<double> node_targets_;   // histogram: targets in sample order

  // The current tree.
  const double* targets_ = nullptr;
  FlatTree tree_;
};

// The fitter for one index width: the per-fit arrays and `slots` growers.
// A fit of one slot grows its trees one after another, so that slot scans
// its splits over the pool instead.
template <typename Index>
class FitterImpl final : public TreeFitter::Impl {
 public:
  FitterImpl(const Dataset& data, const TreeOptions& options,
             ThreadPool* pool, int64_t slots, int64_t lanes)
      : n_(static_cast<size_t>(data.rows())),
        options_(options),
        columns_(data, options_, pool, lanes) {
    growers_.reserve(static_cast<size_t>(slots));
    for (int64_t s = 0; s < slots; ++s) {
      growers_.emplace_back(data, options_, columns_,
                            slots == 1 ? pool : nullptr, lanes);
    }
  }

  Result<FlatTree> Build(int64_t slot, const std::vector<double>& targets,
                         const std::vector<int64_t>& rows,
                         uint64_t seed) override {
    return growers_[static_cast<size_t>(slot)].Build(targets, rows, seed);
  }

  int64_t num_slots() const override {
    return static_cast<int64_t>(growers_.size());
  }

  size_t rows() const override { return n_; }

 private:
  const size_t n_;
  const TreeOptions options_;
  const FitColumns<Index> columns_;
  std::vector<TreeGrower<Index>> growers_;
};

}  // namespace

double TreeLevelSeconds(bool histogram, double rows, double cols) {
  return (histogram ? kHistogramLevelSecondsPerCell
                    : kExactLevelSecondsPerCell) *
         rows * cols;
}

Result<TreeFitter> TreeFitter::Make(const Dataset& data,
                                    const TreeOptions& options,
                                    ThreadPool* pool, int64_t trees) {
  if (options.max_bins < 2 || options.max_bins > kMaxBins) {
    return Status::InvalidArgument(
        "BuildTree: max_bins must be in [2, 256], got " +
        std::to_string(options.max_bins));
  }
  if (data.rows() <= 0) {
    return Status::InvalidArgument("BuildTree: no rows");
  }
  if (data.rows() > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("BuildTree: too many rows");
  }
  // Threads the fit may use, the caller's included.
  int64_t threads = 1;
  if (pool != nullptr && data.rows() * data.cols() >= kFanOutMinCells) {
    threads = int64_t{pool->num_workers()} + 1;
  }
  if (threads == 1) {
    pool = nullptr;
  }
  const int64_t slots = std::clamp<int64_t>(trees, 1, threads);
  std::unique_ptr<Impl> impl;
  if (data.rows() <= int64_t{std::numeric_limits<uint16_t>::max()} + 1) {
    impl = std::make_unique<FitterImpl<uint16_t>>(data, options, pool, slots,
                                                  threads);
  } else {
    impl = std::make_unique<FitterImpl<int32_t>>(data, options, pool, slots,
                                                 threads);
  }
  return TreeFitter(std::move(impl), pool);
}

TreeFitter::TreeFitter(std::unique_ptr<Impl> impl, ThreadPool* pool)
    : impl_(std::move(impl)), pool_(pool) {}
TreeFitter::TreeFitter(TreeFitter&&) noexcept = default;
TreeFitter& TreeFitter::operator=(TreeFitter&&) noexcept = default;
TreeFitter::~TreeFitter() = default;

Result<FlatTree> TreeFitter::Build(const std::vector<double>& targets,
                                   const std::vector<int64_t>& rows,
                                   uint64_t seed) {
  return impl_->Build(0, targets, rows, seed);
}

Result<std::vector<FlatTree>> TreeFitter::BuildEach(
    const std::vector<double>& targets, const std::vector<uint64_t>& seeds,
    const SampleFn& sample) {
  const int64_t trees = static_cast<int64_t>(seeds.size());
  const int64_t lanes = std::min(trees, impl_->num_slots());
  // One row buffer per slot, allocated here before the fan-out.
  std::vector<std::vector<int64_t>> rows(static_cast<size_t>(lanes),
                                         std::vector<int64_t>(impl_->rows()));
  std::vector<FlatTree> out(seeds.size());
  std::vector<Status> failures(seeds.size());
  ForEachOnLanes(pool_, trees, lanes, [&](int64_t t, int64_t lane) {
    std::vector<int64_t>& lane_rows = rows[static_cast<size_t>(lane)];
    sample(t, lane_rows);
    Result<FlatTree> tree = impl_->Build(lane, targets, lane_rows,
                                         seeds[static_cast<size_t>(t)]);
    if (tree.ok()) {
      out[static_cast<size_t>(t)] = std::move(*tree);
    } else {
      failures[static_cast<size_t>(t)] = tree.status();
    }
  });
  for (const Status& failure : failures) {
    HYPPO_RETURN_NOT_OK(failure);
  }
  return out;
}

uint64_t ChildSampleSeed(uint64_t parent, bool left) {
  return HashCombine(parent, left ? 1 : 2);
}

namespace {

// Appends `tree`'s node `node`, at depth `depth`, and its subtree down to
// `max_depth` to `out` in pre-order, the order BuildNode adds nodes in.
int32_t CutNode(const FlatTree& tree, size_t node, int32_t depth,
                int32_t max_depth, FlatTree& out) {
  const int32_t id = static_cast<int32_t>(out.feature.size());
  const bool leaf = tree.feature[node] < 0 || depth >= max_depth;
  out.feature.push_back(leaf ? -1 : tree.feature[node]);
  out.threshold.push_back(leaf ? 0.0 : tree.threshold[node]);
  out.left.push_back(-1);
  out.right.push_back(-1);
  out.value.push_back(tree.value[node]);
  if (leaf) {
    return id;
  }
  const int32_t left =
      CutNode(tree, static_cast<size_t>(tree.left[node]), depth + 1,
              max_depth, out);
  const int32_t right =
      CutNode(tree, static_cast<size_t>(tree.right[node]), depth + 1,
              max_depth, out);
  out.left[static_cast<size_t>(id)] = left;
  out.right[static_cast<size_t>(id)] = right;
  return id;
}

}  // namespace

FlatTree CutTreeAtDepth(const FlatTree& tree, int32_t max_depth) {
  FlatTree out;
  if (!tree.feature.empty()) {
    CutNode(tree, 0, 0, max_depth, out);
  }
  return out;
}

bool IsDepthCuttable(const std::string& logical_op) {
  return logical_op == "DecisionTreeClassifier" ||
         logical_op == "DecisionTreeRegressor" ||
         logical_op == "RandomForestClassifier" ||
         logical_op == "RandomForestRegressor";
}

Result<OpStatePtr> CutModelAtDepth(const OpState& state, int32_t max_depth) {
  if (!IsDepthCuttable(state.logical_op())) {
    return Status::InvalidArgument("cannot cut a " + state.logical_op() +
                                   " model at a depth");
  }
  if (const auto* ts = dynamic_cast<const TreeState*>(&state)) {
    auto cut = std::make_shared<TreeState>(ts->logical_op());
    cut->tree = CutTreeAtDepth(ts->tree, max_depth);
    cut->is_classifier = ts->is_classifier;
    return OpStatePtr(std::move(cut));
  }
  if (const auto* fs = dynamic_cast<const ForestState*>(&state)) {
    auto cut = std::make_shared<ForestState>(fs->logical_op());
    cut->trees.reserve(fs->trees.size());
    for (const FlatTree& tree : fs->trees) {
      cut->trees.push_back(CutTreeAtDepth(tree, max_depth));
    }
    cut->tree_weights = fs->tree_weights;
    cut->base_prediction = fs->base_prediction;
    cut->is_classifier = fs->is_classifier;
    return OpStatePtr(std::move(cut));
  }
  return Status::InvalidArgument(state.logical_op() +
                                 " op-state holds no trees to cut");
}

void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out) {
  for (int64_t r = 0; r < data.rows(); ++r) {
    size_t node = 0;
    while (tree.feature[node] >= 0) {
      node = static_cast<size_t>(
          data.at(r, tree.feature[node]) <= tree.threshold[node]
              ? tree.left[node]
              : tree.right[node]);
    }
    out[static_cast<size_t>(r)] += weight * tree.value[node];
  }
}

namespace {

// AccumulateTreePredictions for every cut of `tree` at once: adds
// `weight * value` of the node at depth min(depths[i], leaf depth) on each
// row's path into `out[i]`. `path` is scratch.
void AccumulateDepthPredictions(const FlatTree& tree, const Dataset& data,
                                double weight,
                                const std::vector<int32_t>& depths,
                                int32_t deepest, std::vector<int32_t>& path,
                                std::vector<std::vector<double>>& out) {
  if (tree.feature.empty()) {
    return;
  }
  for (int64_t r = 0; r < data.rows(); ++r) {
    path.clear();
    size_t node = 0;
    path.push_back(0);
    while (tree.feature[node] >= 0 &&
           static_cast<int32_t>(path.size()) <= deepest) {
      node = static_cast<size_t>(
          data.at(r, tree.feature[node]) <= tree.threshold[node]
              ? tree.left[node]
              : tree.right[node]);
      path.push_back(static_cast<int32_t>(node));
    }
    const int32_t reached = static_cast<int32_t>(path.size()) - 1;
    for (size_t i = 0; i < depths.size(); ++i) {
      const int32_t at = path[static_cast<size_t>(std::min(depths[i], reached))];
      out[i][static_cast<size_t>(r)] +=
          weight * tree.value[static_cast<size_t>(at)];
    }
  }
}

}  // namespace

Result<std::vector<std::vector<double>>> PredictAtDepths(
    const OpState& state, const Dataset& data,
    const std::vector<int32_t>& depths) {
  if (!IsDepthCuttable(state.logical_op())) {
    return Status::InvalidArgument("cannot predict a " + state.logical_op() +
                                   " model at depths");
  }
  int32_t deepest = 0;
  for (int32_t depth : depths) {
    if (depth < 0) {
      return Status::InvalidArgument("negative depth " +
                                     std::to_string(depth));
    }
    deepest = std::max(deepest, depth);
  }
  const size_t rows = static_cast<size_t>(data.rows());
  std::vector<int32_t> path;
  path.reserve(static_cast<size_t>(deepest) + 1);
  if (const auto* ts = dynamic_cast<const TreeState*>(&state)) {
    std::vector<std::vector<double>> out(depths.size(),
                                         std::vector<double>(rows, 0.0));
    AccumulateDepthPredictions(ts->tree, data, 1.0, depths, deepest, path,
                               out);
    return out;
  }
  if (const auto* fs = dynamic_cast<const ForestState*>(&state)) {
    std::vector<std::vector<double>> out(
        depths.size(), std::vector<double>(rows, fs->base_prediction));
    for (size_t t = 0; t < fs->trees.size(); ++t) {
      AccumulateDepthPredictions(fs->trees[t], data, fs->tree_weights[t],
                                 depths, deepest, path, out);
    }
    return out;
  }
  return Status::InvalidArgument(state.logical_op() +
                                 " op-state holds no trees to predict with");
}

}  // namespace hyppo::ml
