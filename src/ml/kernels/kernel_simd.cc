// The simd:: kernel tier: AVX2/FMA intrinsics. This is the ONLY
// translation unit in the library compiled with ISA flags, and CMake
// builds it only when HYPPO_SIMD_ISA selects AVX2 (see
// src/ml/CMakeLists.txt). It is compiled with -ffp-contract=off: every
// fused multiply-add below is *explicit* (Vec8::Fma / std::fma), never a
// compiler contraction, so the tier's numeric behavior is fixed by this
// source file alone.
//
// Determinism: every kernel fixes its per-output-element operation
// sequence — matrix kernels accumulate in ascending reduction-index
// order with fused multiply-adds, reductions use a fixed 8-lane bank
// folded by a fixed binary tree plus a scalar tail. A vector lane and
// the scalar tail execute the *same* per-element fma chain, so an
// element's bits do not depend on whether it lands in a vector chunk or
// the tail.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ml/kernels/kernels.h"

namespace hyppo::ml::kernels::simd {

namespace {

// ---------------------------------------------------------------------------
// Vec8: a fixed 8-lane double vector held in two 256-bit registers. The
// lane count is a tier constant, not the native register width, so the
// accumulation order (and therefore the bits) is fixed by this file.

struct Vec8 {
  __m256d lo;
  __m256d hi;

  static Vec8 Zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static Vec8 Broadcast(double s) {
    return {_mm256_set1_pd(s), _mm256_set1_pd(s)};
  }
  static Vec8 Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  void Store(double* p) const {
    _mm256_storeu_pd(p, lo);
    _mm256_storeu_pd(p + 4, hi);
  }
  double Lane(int i) const {
    alignas(32) double tmp[8];
    Store(tmp);
    return tmp[i];
  }
  static Vec8 Add(const Vec8& a, const Vec8& b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  static Vec8 Sub(const Vec8& a, const Vec8& b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  static Vec8 Mul(const Vec8& a, const Vec8& b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  static Vec8 Fma(const Vec8& a, const Vec8& b, const Vec8& c) {
    return {_mm256_fmadd_pd(a.lo, b.lo, c.lo),
            _mm256_fmadd_pd(a.hi, b.hi, c.hi)};
  }
};

/// Fixed-order horizontal sum: (((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))).
inline double ReduceTree(const Vec8& v) {
  return ((v.Lane(0) + v.Lane(1)) + (v.Lane(2) + v.Lane(3))) +
         ((v.Lane(4) + v.Lane(5)) + (v.Lane(6) + v.Lane(7)));
}

/// 8-lane banked fused dot product: ReduceTree(banks) + fma'd tail.
inline double Dot8(const double* a, const double* b, int64_t n) {
  Vec8 acc = Vec8::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = Vec8::Fma(Vec8::Load(a + i), Vec8::Load(b + i), acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail = std::fma(a[i], b[i], tail);
  }
  return ReduceTree(acc) + tail;
}

}  // namespace

void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y) {
  for (int64_t r = 0; r < rows; ++r) {
    y[r] = Dot8(m + r * cols, x, cols);
  }
}

// out[r] = bias + sum_c w[c] * (cols[c][r] - shift[c]); ascending-c fma
// chain per output row. Vector rows and scalar-tail rows run the same
// per-element chain, so results are independent of chunk boundaries.
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out) {
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    Vec8 acc = Vec8::Broadcast(bias);
    for (int64_t c = 0; c < num_cols; ++c) {
      const Vec8 col = Vec8::Load(cols[c] + r);
      const Vec8 centered =
          shift ? Vec8::Sub(col, Vec8::Broadcast(shift[c])) : col;
      acc = Vec8::Fma(Vec8::Broadcast(w[c]), centered, acc);
    }
    acc.Store(out + r);
  }
  for (; r < rows; ++r) {
    double sum = bias;
    for (int64_t c = 0; c < num_cols; ++c) {
      const double v = shift ? cols[c][r] - shift[c] : cols[c][r];
      sum = std::fma(w[c], v, sum);
    }
    out[r] = sum;
  }
}

namespace {

constexpr int64_t kGramTile = 16;

// One Gram entry: 8-lane banked row reduction. The weighted form
// multiplies weight*(ci-si) first, then fma's with (cj-sj) — the same
// left-to-right association as the reference.
inline double GramPair8(const double* ci, double si, const double* cj,
                        double sj, const double* weight, int64_t rows) {
  const Vec8 bsi = Vec8::Broadcast(si);
  const Vec8 bsj = Vec8::Broadcast(sj);
  Vec8 acc = Vec8::Zero();
  int64_t r = 0;
  if (weight == nullptr) {
    for (; r + 8 <= rows; r += 8) {
      acc = Vec8::Fma(Vec8::Sub(Vec8::Load(ci + r), bsi),
                      Vec8::Sub(Vec8::Load(cj + r), bsj), acc);
    }
    double tail = 0.0;
    for (; r < rows; ++r) {
      tail = std::fma(ci[r] - si, cj[r] - sj, tail);
    }
    return ReduceTree(acc) + tail;
  }
  for (; r + 8 <= rows; r += 8) {
    const Vec8 wi =
        Vec8::Mul(Vec8::Load(weight + r), Vec8::Sub(Vec8::Load(ci + r), bsi));
    acc = Vec8::Fma(wi, Vec8::Sub(Vec8::Load(cj + r), bsj), acc);
  }
  double tail = 0.0;
  for (; r < rows; ++r) {
    tail = std::fma(weight[r] * (ci[r] - si), cj[r] - sj, tail);
  }
  return ReduceTree(acc) + tail;
}

}  // namespace

// Upper-triangle tiles, mirrored into the lower triangle.
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out) {
  for (int64_t i0 = 0; i0 < num_cols; i0 += kGramTile) {
    const int64_t i1 = std::min(num_cols, i0 + kGramTile);
    for (int64_t j0 = i0; j0 < num_cols; j0 += kGramTile) {
      const int64_t j1 = std::min(num_cols, j0 + kGramTile);
      for (int64_t i = i0; i < i1; ++i) {
        const double si = shift ? shift[i] : 0.0;
        for (int64_t j = std::max(i, j0); j < j1; ++j) {
          const double sj = shift ? shift[j] : 0.0;
          const double v = GramPair8(cols[i], si, cols[j], sj, weight, rows);
          out[i * num_cols + j] = v;
          out[j * num_cols + i] = v;
        }
      }
    }
  }
}

// Distances: ascending-dimension fused accumulation per (row, center)
// element; rows vectorized 8 at a time with per-lane independence, so
// vector chunks and the scalar row tail agree bitwise.
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out) {
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      Vec8 acc = Vec8::Zero();
      for (int64_t c = 0; c < dims; ++c) {
        const Vec8 diff =
            Vec8::Sub(Vec8::Load(cols[c] + r), Vec8::Broadcast(center[c]));
        acc = Vec8::Fma(diff, diff, acc);
      }
      alignas(64) double lanes[8];
      acc.Store(lanes);
      for (int64_t t = 0; t < 8; ++t) {
        out[(r + t) * k + i] = lanes[t];
      }
    }
  }
  for (; r < rows; ++r) {
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      double sq = 0.0;
      for (int64_t c = 0; c < dims; ++c) {
        const double diff = cols[c][r] - center[c];
        sq = std::fma(diff, diff, sq);
      }
      out[r * k + i] = sq;
    }
  }
}

// Distances per 8-row group held in a [center][lane] tile (the fma chain
// of PairwiseSquaredDistances, so a lane and the scalar row tail produce
// identical bits), then a scalar argmin scan over centers in ascending
// order with a strict '<' — ties break toward the lowest index exactly
// like the reference tier, which is what keeps the *index* outputs
// bitwise identical across tiers even though the simd tier's squared
// distances round differently.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq) {
  if (rows <= 0 || k <= 0) {
    return;
  }
  std::vector<double> tile(static_cast<size_t>(k) * 8);
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      Vec8 acc = Vec8::Zero();
      for (int64_t c = 0; c < dims; ++c) {
        const Vec8 diff =
            Vec8::Sub(Vec8::Load(cols[c] + r), Vec8::Broadcast(center[c]));
        acc = Vec8::Fma(diff, diff, acc);
      }
      acc.Store(tile.data() + i * 8);
    }
    for (int64_t t = 0; t < 8; ++t) {
      double best = tile[static_cast<size_t>(t)];
      int64_t best_i = 0;
      for (int64_t i = 1; i < k; ++i) {
        const double d = tile[static_cast<size_t>(i * 8 + t)];
        if (d < best) {
          best = d;
          best_i = i;
        }
      }
      if (index != nullptr) {
        index[r + t] = best_i;
      }
      if (sq != nullptr) {
        sq[r + t] = best;
      }
    }
  }
  for (; r < rows; ++r) {
    double best = 0.0;
    int64_t best_i = 0;
    for (int64_t i = 0; i < k; ++i) {
      const double* center = centers + i * dims;
      double d = 0.0;
      for (int64_t c = 0; c < dims; ++c) {
        const double diff = cols[c][r] - center[c];
        d = std::fma(diff, diff, d);
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

// ---------------------------------------------------------------------------
// Fused vector kernels.

double Dot(const double* a, const double* b, int64_t n) {
  return Dot8(a, b, n);
}

double ShiftedDot(const double* x, double shift, const double* y, int64_t n) {
  const Vec8 bshift = Vec8::Broadcast(shift);
  Vec8 acc = Vec8::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = Vec8::Fma(Vec8::Sub(Vec8::Load(x + i), bshift), Vec8::Load(y + i),
                    acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail = std::fma(x[i] - shift, y[i], tail);
  }
  return ReduceTree(acc) + tail;
}

// The elementwise ops below intentionally use separate multiply and add
// (no fma): each output element is the exact operation sequence of the
// reference, so Axpy/ShiftedAxpy/Multiply stay bitwise identical across
// both tiers. (-ffp-contract=off on this TU guarantees the compiler does
// not fuse them behind our back.)

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  const Vec8 balpha = Vec8::Broadcast(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Vec8::Add(Vec8::Load(y + i), Vec8::Mul(balpha, Vec8::Load(x + i)))
        .Store(y + i);
  }
  for (; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n) {
  const Vec8 balpha = Vec8::Broadcast(alpha);
  const Vec8 bshift = Vec8::Broadcast(shift);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Vec8 centered = Vec8::Sub(Vec8::Load(x + i), bshift);
    Vec8::Add(Vec8::Load(y + i), Vec8::Mul(balpha, centered)).Store(y + i);
  }
  for (; i < n; ++i) {
    y[i] += alpha * (x[i] - shift);
  }
}

void Multiply(const double* a, const double* b, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Vec8::Mul(Vec8::Load(a + i), Vec8::Load(b + i)).Store(out + i);
  }
  for (; i < n; ++i) {
    out[i] = a[i] * b[i];
  }
}

double Sum(const double* x, int64_t n) {
  Vec8 acc = Vec8::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = Vec8::Add(acc, Vec8::Load(x + i));
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += x[i];
  }
  return ReduceTree(acc) + tail;
}

double ShiftedSumSq(const double* x, double shift, int64_t n) {
  const Vec8 bshift = Vec8::Broadcast(shift);
  Vec8 acc = Vec8::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Vec8 d = Vec8::Sub(Vec8::Load(x + i), bshift);
    acc = Vec8::Fma(d, d, acc);
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = x[i] - shift;
    tail = std::fma(d, d, tail);
  }
  return ReduceTree(acc) + tail;
}

void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq) {
  Vec8 acc_s = Vec8::Zero();
  Vec8 acc_q = Vec8::Zero();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Vec8 v = Vec8::Load(x + i);
    acc_s = Vec8::Add(acc_s, v);
    acc_q = Vec8::Fma(v, v, acc_q);
  }
  double tail_s = 0.0;
  double tail_q = 0.0;
  for (; i < n; ++i) {
    tail_s += x[i];
    tail_q = std::fma(x[i], x[i], tail_q);
  }
  *sum = ReduceTree(acc_s) + tail_s;
  *sum_sq = ReduceTree(acc_q) + tail_q;
}

}  // namespace hyppo::ml::kernels::simd
