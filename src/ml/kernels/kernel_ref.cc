#include "ml/kernels/kernels.h"

namespace hyppo::ml::kernels::ref {

// Naive textbook loops, one accumulator each. These pin down the
// semantics of every kernel; the simd implementations must agree with
// them up to floating-point association and fma contraction (asserted by
// tests/ml_kernels_test.cc with a max-abs-diff bound).

void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    double sum = 0.0;
    const double* row = m + r * cols;
    for (int64_t c = 0; c < cols; ++c) {
      sum += row[c] * x[c];
    }
    y[r] = sum;
  }
}

void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out) {
  for (int64_t r = 0; r < rows; ++r) {
    double sum = bias;
    for (int64_t c = 0; c < num_cols; ++c) {
      const double v = shift ? cols[c][r] - shift[c] : cols[c][r];
      sum += w[c] * v;
    }
    out[r] = sum;
  }
}

void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out) {
  for (int64_t i = 0; i < num_cols; ++i) {
    const double si = shift ? shift[i] : 0.0;
    for (int64_t j = i; j < num_cols; ++j) {
      const double sj = shift ? shift[j] : 0.0;
      double sum = 0.0;
      for (int64_t r = 0; r < rows; ++r) {
        const double vi = cols[i][r] - si;
        const double vj = cols[j][r] - sj;
        sum += weight ? weight[r] * vi * vj : vi * vj;
      }
      out[i * num_cols + j] = sum;
      out[j * num_cols + i] = sum;
    }
  }
}

void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      double sq = 0.0;
      for (int64_t c = 0; c < dims; ++c) {
        const double diff = cols[c][r] - center[c];
        sq += diff * diff;
      }
      out[r * k + i] = sq;
    }
  }
}

void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq) {
  if (rows <= 0 || k <= 0) {
    return;
  }
  for (int64_t r = 0; r < rows; ++r) {
    double best = 0.0;
    int64_t best_i = 0;
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      double d = 0.0;
      for (int64_t c = 0; c < dims; ++c) {
        const double diff = cols[c][r] - center[c];
        d += diff * diff;
      }
      if (i == 0 || d < best) {
        best = d;
        best_i = i;
      }
    }
    if (index != nullptr) {
      index[r] = best_i;
    }
    if (sq != nullptr) {
      sq[r] = best;
    }
  }
}

double Dot(const double* a, const double* b, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

double ShiftedDot(const double* x, double shift, const double* y, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += (x[i] - shift) * y[i];
  }
  return sum;
}

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    y[i] += alpha * (x[i] - shift);
  }
}

void Multiply(const double* a, const double* b, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

double Sum(const double* x, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += x[i];
  }
  return sum;
}

double ShiftedSumSq(const double* x, double shift, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double d = x[i] - shift;
    sum += d * d;
  }
  return sum;
}

void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq) {
  double s = 0.0;
  double q = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s += x[i];
    q += x[i] * x[i];
  }
  *sum = s;
  *sum_sq = q;
}

}  // namespace hyppo::ml::kernels::ref
