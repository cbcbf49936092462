#ifndef HYPPO_TESTS_TREE_BUILDER_ORACLE_H_
#define HYPPO_TESTS_TREE_BUILDER_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/op_state.h"
#include "ml/ops/tree_builder.h"

// The per-node tree builder that ml::TreeFitter replaced, kept as the
// bitwise oracle for it: every node sorts its (value, target) pairs per
// candidate feature and bins every row with std::upper_bound. It follows
// the same NaN rule as the fitter (NaN sorts last, no exact threshold
// next to a NaN, bin edges span the non-NaN range, NaN rows go right).
namespace hyppo::ml::oracle {

/// Builds one decision tree on `rows` (indices into `data`) against
/// `targets` (size data.rows()); `seed` is the root's feature-sample seed,
/// and every node samples its features as the fitter does (see
/// ml::ChildSampleSeed).
Result<FlatTree> BuildTree(const Dataset& data,
                           const std::vector<double>& targets,
                           const std::vector<int64_t>& rows,
                           const TreeOptions& options, uint64_t seed);

/// Predicts with one tree for all rows of `data` by copying each full
/// row, adding `weight * prediction` into `out` (size data.rows()).
void AccumulateTreePredictions(const FlatTree& tree, const Dataset& data,
                               double weight, std::vector<double>& out);

}  // namespace hyppo::ml::oracle

#endif  // HYPPO_TESTS_TREE_BUILDER_ORACLE_H_
