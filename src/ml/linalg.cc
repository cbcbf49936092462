#include "ml/linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hyppo::ml {

Result<std::vector<double>> CholeskySolve(std::vector<double> a, int64_t n,
                                          const std::vector<double>& b,
                                          double ridge) {
  if (static_cast<int64_t>(b.size()) != n) {
    return Status::InvalidArgument("CholeskySolve: size mismatch");
  }
  for (int64_t i = 0; i < n; ++i) {
    a[static_cast<size_t>(i * n + i)] += ridge;
  }
  // In-place lower Cholesky factorization.
  for (int64_t j = 0; j < n; ++j) {
    double diag = a[static_cast<size_t>(j * n + j)];
    for (int64_t k = 0; k < j; ++k) {
      const double v = a[static_cast<size_t>(j * n + k)];
      diag -= v * v;
    }
    if (diag <= 1e-12) {
      return Status::InvalidArgument(
          "CholeskySolve: matrix not positive definite");
    }
    const double root = std::sqrt(diag);
    a[static_cast<size_t>(j * n + j)] = root;
    for (int64_t i = j + 1; i < n; ++i) {
      double sum = a[static_cast<size_t>(i * n + j)];
      for (int64_t k = 0; k < j; ++k) {
        sum -= a[static_cast<size_t>(i * n + k)] *
               a[static_cast<size_t>(j * n + k)];
      }
      a[static_cast<size_t>(i * n + j)] = sum / root;
    }
  }
  // Forward substitution: L y = b.
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    double sum = b[static_cast<size_t>(i)];
    for (int64_t k = 0; k < i; ++k) {
      sum -= a[static_cast<size_t>(i * n + k)] * y[static_cast<size_t>(k)];
    }
    y[static_cast<size_t>(i)] = sum / a[static_cast<size_t>(i * n + i)];
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  for (int64_t i = n - 1; i >= 0; --i) {
    double sum = y[static_cast<size_t>(i)];
    for (int64_t k = i + 1; k < n; ++k) {
      sum -= a[static_cast<size_t>(k * n + i)] * x[static_cast<size_t>(k)];
    }
    x[static_cast<size_t>(i)] = sum / a[static_cast<size_t>(i * n + i)];
  }
  return x;
}

Result<EigenDecomposition> JacobiEigenSymmetric(std::vector<double> a,
                                                int64_t n, int max_sweeps) {
  if (static_cast<int64_t>(a.size()) != n * n) {
    return Status::InvalidArgument("JacobiEigenSymmetric: size mismatch");
  }
  // v starts as identity; accumulates rotations (columns are eigenvectors).
  std::vector<double> v(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    v[static_cast<size_t>(i * n + i)] = 1.0;
  }
  auto at = [&](std::vector<double>& m, int64_t r, int64_t c) -> double& {
    return m[static_cast<size_t>(r * n + c)];
  };
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        off += at(a, p, q) * at(a, p, q);
      }
    }
    if (off < 1e-22) {
      break;
    }
    for (int64_t p = 0; p < n; ++p) {
      for (int64_t q = p + 1; q < n; ++q) {
        const double apq = at(a, p, q);
        if (std::fabs(apq) < 1e-18) {
          continue;
        }
        const double app = at(a, p, p);
        const double aqq = at(a, q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int64_t k = 0; k < n; ++k) {
          const double akp = at(a, k, p);
          const double akq = at(a, k, q);
          at(a, k, p) = c * akp - s * akq;
          at(a, k, q) = s * akp + c * akq;
        }
        for (int64_t k = 0; k < n; ++k) {
          const double apk = at(a, p, k);
          const double aqk = at(a, q, k);
          at(a, p, k) = c * apk - s * aqk;
          at(a, q, k) = s * apk + c * aqk;
        }
        for (int64_t k = 0; k < n; ++k) {
          const double vkp = at(v, k, p);
          const double vkq = at(v, k, q);
          at(v, k, p) = c * vkp - s * vkq;
          at(v, k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  EigenDecomposition decomp;
  decomp.n = n;
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
    return at(a, x, x) > at(a, y, y);
  });
  decomp.eigenvalues.reserve(static_cast<size_t>(n));
  decomp.eigenvectors.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t src = order[static_cast<size_t>(i)];
    decomp.eigenvalues.push_back(at(a, src, src));
    for (int64_t k = 0; k < n; ++k) {
      decomp.eigenvectors[static_cast<size_t>(i * n + k)] = at(v, k, src);
    }
  }
  return decomp;
}

}  // namespace hyppo::ml
