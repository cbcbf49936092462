#ifndef HYPPO_ML_LINALG_H_
#define HYPPO_ML_LINALG_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace hyppo::ml {

/// \brief Minimal dense linear algebra used by the exact ("skl"-flavoured)
/// model implementations. Matrices are row-major `n x n` unless stated.

/// Solves A x = b for symmetric positive-definite A via Cholesky.
/// A is row-major n x n; returns InvalidArgument if A is not PD (after
/// adding `ridge` to the diagonal).
Result<std::vector<double>> CholeskySolve(std::vector<double> a, int64_t n,
                                          const std::vector<double>& b,
                                          double ridge = 0.0);

/// Jacobi eigen-decomposition of a symmetric matrix.
/// On return, `eigenvalues` are sorted descending and `eigenvectors` holds
/// the corresponding unit eigenvectors as rows (row-major k==n).
struct EigenDecomposition {
  std::vector<double> eigenvalues;
  std::vector<double> eigenvectors;  // row i = eigenvector of eigenvalue i
  int64_t n = 0;
};
Result<EigenDecomposition> JacobiEigenSymmetric(std::vector<double> a,
                                                int64_t n,
                                                int max_sweeps = 64);

}  // namespace hyppo::ml

#endif  // HYPPO_ML_LINALG_H_
