#include "tree_builder_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/rng.h"

namespace hyppo::ml::oracle {

namespace {

// Impurity proxy that is maximized by a split: for regression this is the
// standard variance-reduction surrogate sum^2/count; for binary
// classification with mean-encoded labels gini reduction reduces to the
// same expression on label sums, so one scorer serves both.
double Score(double sum, double count) {
  return count > 0.0 ? sum * sum / count : 0.0;
}

struct SplitDecision {
  int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

struct BuildContext {
  const Dataset* data = nullptr;
  const std::vector<double>* targets = nullptr;
  TreeOptions options;
  std::vector<int64_t> feature_pool;
  // Histogram mode: per-feature bin edges (size max_bins - 1 interior
  // boundaries) computed once per build.
  std::vector<std::vector<double>> bin_edges;
  FlatTree tree;
};

// Chooses the candidate features for one node split: a fresh shuffle of
// 0..d-1 seeded with the node's own sample seed (ml::ChildSampleSeed).
std::vector<int64_t> SampleFeatures(BuildContext& ctx, uint64_t sample_seed) {
  const int64_t d = ctx.data->cols();
  const int64_t k = ctx.options.max_features > 0
                        ? std::min(ctx.options.max_features, d)
                        : d;
  if (k == d) {
    return ctx.feature_pool;
  }
  std::vector<int64_t> pool = ctx.feature_pool;
  Rng rng(sample_seed);
  rng.Shuffle(pool);
  pool.resize(static_cast<size_t>(k));
  std::sort(pool.begin(), pool.end());
  return pool;
}

// Exact split finding: sort (value, target) per candidate feature and scan
// boundaries between distinct values.
SplitDecision FindExactSplit(BuildContext& ctx,
                             const std::vector<int64_t>& rows,
                             const std::vector<int64_t>& features,
                             double total_sum) {
  SplitDecision best;
  const double n = static_cast<double>(rows.size());
  const double base = Score(total_sum, n);
  std::vector<std::pair<double, double>> pairs(rows.size());
  for (int64_t f : features) {
    const double* col = ctx.data->col_data(f);
    for (size_t i = 0; i < rows.size(); ++i) {
      pairs[i] = {col[rows[i]], (*ctx.targets)[static_cast<size_t>(rows[i])]};
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const std::pair<double, double>& a,
                 const std::pair<double, double>& b) {
                const bool a_nan = std::isnan(a.first);
                const bool b_nan = std::isnan(b.first);
                if (a_nan || b_nan) {
                  return a_nan == b_nan ? a.second < b.second : b_nan;
                }
                return a < b;
              });
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < pairs.size(); ++i) {
      left_sum += pairs[i].second;
      if (pairs[i].first == pairs[i + 1].first) {
        continue;
      }
      if (std::isnan(pairs[i + 1].first)) {
        break;
      }
      const double left_n = static_cast<double>(i + 1);
      const double right_n = n - left_n;
      if (left_n < static_cast<double>(ctx.options.min_samples_leaf) ||
          right_n < static_cast<double>(ctx.options.min_samples_leaf)) {
        continue;
      }
      const double gain =
          Score(left_sum, left_n) + Score(total_sum - left_sum, right_n) -
          base;
      if (gain > best.gain + 1e-12) {
        best.gain = gain;
        best.feature = static_cast<int32_t>(f);
        best.threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
      }
    }
  }
  return best;
}

// Histogram split finding: accumulate per-bin count/sum and scan bin
// boundaries. Thresholds are bin edges.
SplitDecision FindHistogramSplit(BuildContext& ctx,
                                 const std::vector<int64_t>& rows,
                                 const std::vector<int64_t>& features,
                                 double total_sum) {
  SplitDecision best;
  const double n = static_cast<double>(rows.size());
  const double base = Score(total_sum, n);
  const int32_t bins = ctx.options.max_bins;
  std::vector<double> bin_sum(static_cast<size_t>(bins));
  std::vector<double> bin_count(static_cast<size_t>(bins));
  for (int64_t f : features) {
    const std::vector<double>& edges = ctx.bin_edges[static_cast<size_t>(f)];
    if (edges.empty()) {
      continue;  // constant feature
    }
    std::fill(bin_sum.begin(), bin_sum.end(), 0.0);
    std::fill(bin_count.begin(), bin_count.end(), 0.0);
    const double* col = ctx.data->col_data(f);
    for (int64_t row : rows) {
      const double v = col[row];
      const size_t bin = static_cast<size_t>(
          std::upper_bound(edges.begin(), edges.end(), v) - edges.begin());
      bin_sum[bin] += (*ctx.targets)[static_cast<size_t>(row)];
      bin_count[bin] += 1.0;
    }
    double left_sum = 0.0;
    double left_n = 0.0;
    for (size_t b = 0; b + 1 < static_cast<size_t>(bins); ++b) {
      left_sum += bin_sum[b];
      left_n += bin_count[b];
      const double right_n = n - left_n;
      if (left_n < static_cast<double>(ctx.options.min_samples_leaf) ||
          right_n < static_cast<double>(ctx.options.min_samples_leaf)) {
        continue;
      }
      if (bin_count[b] == 0.0) {
        continue;
      }
      const double gain =
          Score(left_sum, left_n) + Score(total_sum - left_sum, right_n) -
          base;
      if (gain > best.gain + 1e-12 && b < edges.size()) {
        best.gain = gain;
        best.feature = static_cast<int32_t>(f);
        best.threshold = edges[b];
      }
    }
  }
  return best;
}

int32_t AddLeaf(BuildContext& ctx, double value) {
  const int32_t id = static_cast<int32_t>(ctx.tree.feature.size());
  ctx.tree.feature.push_back(-1);
  ctx.tree.threshold.push_back(0.0);
  ctx.tree.left.push_back(-1);
  ctx.tree.right.push_back(-1);
  ctx.tree.value.push_back(value);
  return id;
}

int32_t BuildNode(BuildContext& ctx, std::vector<int64_t>& rows,
                  int32_t depth, uint64_t sample_seed) {
  double sum = 0.0;
  for (int64_t row : rows) {
    sum += (*ctx.targets)[static_cast<size_t>(row)];
  }
  const double mean = rows.empty()
                          ? 0.0
                          : sum / static_cast<double>(rows.size());
  if (depth >= ctx.options.max_depth ||
      static_cast<int64_t>(rows.size()) < ctx.options.min_samples_split) {
    return AddLeaf(ctx, mean);
  }
  const std::vector<int64_t> features = SampleFeatures(ctx, sample_seed);
  const SplitDecision split =
      ctx.options.histogram ? FindHistogramSplit(ctx, rows, features, sum)
                            : FindExactSplit(ctx, rows, features, sum);
  if (split.feature < 0) {
    return AddLeaf(ctx, mean);
  }
  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  left_rows.reserve(rows.size());
  right_rows.reserve(rows.size());
  const double* col = ctx.data->col_data(split.feature);
  for (int64_t row : rows) {
    if (col[row] <= split.threshold) {
      left_rows.push_back(row);
    } else {
      right_rows.push_back(row);
    }
  }
  if (left_rows.empty() || right_rows.empty()) {
    return AddLeaf(ctx, mean);
  }
  rows.clear();
  rows.shrink_to_fit();
  const int32_t id = static_cast<int32_t>(ctx.tree.feature.size());
  ctx.tree.feature.push_back(split.feature);
  ctx.tree.threshold.push_back(split.threshold);
  ctx.tree.left.push_back(-1);
  ctx.tree.right.push_back(-1);
  ctx.tree.value.push_back(mean);
  const int32_t left_id = BuildNode(ctx, left_rows, depth + 1,
                                    ChildSampleSeed(sample_seed, true));
  const int32_t right_id = BuildNode(ctx, right_rows, depth + 1,
                                     ChildSampleSeed(sample_seed, false));
  ctx.tree.left[static_cast<size_t>(id)] = left_id;
  ctx.tree.right[static_cast<size_t>(id)] = right_id;
  return id;
}

std::vector<std::vector<double>> ComputeBinEdges(const Dataset& data,
                                                 int32_t max_bins) {
  std::vector<std::vector<double>> edges(static_cast<size_t>(data.cols()));
  for (int64_t c = 0; c < data.cols(); ++c) {
    const double* col = data.col_data(c);
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (int64_t r = 0; r < data.rows(); ++r) {
      if (std::isnan(col[r])) {
        continue;
      }
      mn = std::min(mn, col[r]);
      mx = std::max(mx, col[r]);
    }
    if (!(mx > mn)) {
      continue;  // constant or NaN column: no usable edges
    }
    auto& e = edges[static_cast<size_t>(c)];
    e.reserve(static_cast<size_t>(max_bins - 1));
    for (int32_t b = 1; b < max_bins; ++b) {
      e.push_back(mn + (mx - mn) * static_cast<double>(b) /
                           static_cast<double>(max_bins));
    }
  }
  return edges;
}

}  // namespace

Result<FlatTree> BuildTree(const Dataset& data,
                           const std::vector<double>& targets,
                           const std::vector<int64_t>& rows,
                           const TreeOptions& options, uint64_t seed) {
  if (static_cast<int64_t>(targets.size()) != data.rows()) {
    return Status::InvalidArgument("BuildTree: targets size mismatch");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("BuildTree: no rows");
  }
  BuildContext ctx;
  ctx.data = &data;
  ctx.targets = &targets;
  ctx.options = options;
  ctx.feature_pool.resize(static_cast<size_t>(data.cols()));
  std::iota(ctx.feature_pool.begin(), ctx.feature_pool.end(), 0);
  if (options.histogram) {
    ctx.bin_edges = ComputeBinEdges(data, options.max_bins);
  }
  std::vector<int64_t> root_rows = rows;
  BuildNode(ctx, root_rows, 0, seed);
  return std::move(ctx.tree);
}

void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out) {
  std::vector<double> row(static_cast<size_t>(data.cols()));
  for (int64_t r = 0; r < data.rows(); ++r) {
    data.CopyRow(r, row.data());
    int32_t node = 0;
    while (tree.feature[static_cast<size_t>(node)] >= 0) {
      const size_t i = static_cast<size_t>(node);
      node = (row[static_cast<size_t>(tree.feature[i])] <= tree.threshold[i])
                 ? tree.left[i]
                 : tree.right[i];
    }
    out[static_cast<size_t>(r)] +=
        weight * tree.value[static_cast<size_t>(node)];
  }
}

}  // namespace hyppo::ml::oracle
