#include "ml/kernels/kernels.h"

namespace hyppo::ml::kernels {

namespace {

// Work threshold (flop estimate) below which the scalar reference runs:
// for tiny problems the simd tier's setup dominates and the association
// difference is irrelevant. Path selection depends only on the problem
// shape, so a given call site always takes the same numeric path.
constexpr double kSimdMinWork = 16.0 * 1024.0;

inline bool UseSimd(double work) {
  return work >= kSimdMinWork && SimdEnabled();
}

}  // namespace

// The build configuration: CMake defines HYPPO_SIMD_AVX2 when it builds
// kernel_simd.cc for AVX2; the runtime probe then asks the CPU once
// whether it can execute that ISA. This TU carries no ISA flags, so the
// probe itself runs on any x86-64 CPU.
#if defined(HYPPO_SIMD_AVX2)

const char* SimdBuildIsa() { return "avx2"; }

const char* simd::BackendName() { return "avx2-intrinsics"; }

bool SimdEnabled() {
  static const bool enabled = __builtin_cpu_supports("avx2") != 0 &&
                              __builtin_cpu_supports("fma") != 0;
  return enabled;
}

#else

const char* SimdBuildIsa() { return "generic"; }

const char* simd::BackendName() { return "none"; }

bool SimdEnabled() { return false; }

#endif

// ---------------------------------------------------------------------------
// Dispatching entry points: shape threshold first (tiny problems take the
// scalar reference), then the CPU probe (simd tier when it can run).

void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y) {
  const double work =
      2.0 * static_cast<double>(rows) * static_cast<double>(cols);
  UseSimd(work) ? simd::Gemv(m, rows, cols, x, y)
                : ref::Gemv(m, rows, cols, x, y);
}

void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out) {
  const double work =
      2.0 * static_cast<double>(rows) * static_cast<double>(num_cols);
  UseSimd(work)
      ? simd::GemvColumns(cols, rows, num_cols, shift, w, bias, out)
      : ref::GemvColumns(cols, rows, num_cols, shift, w, bias, out);
}

void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out) {
  const double work = static_cast<double>(rows) *
                      static_cast<double>(num_cols) *
                      static_cast<double>(num_cols);
  UseSimd(work) ? simd::GramColumns(cols, rows, num_cols, shift, weight, out)
                : ref::GramColumns(cols, rows, num_cols, shift, weight, out);
}

void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out) {
  const double work = 3.0 * static_cast<double>(rows) *
                      static_cast<double>(dims) * static_cast<double>(k);
  UseSimd(work)
      ? simd::PairwiseSquaredDistances(cols, rows, dims, centers, k, out)
      : ref::PairwiseSquaredDistances(cols, rows, dims, centers, k, out);
}

void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq) {
  const double work = 3.0 * static_cast<double>(rows) *
                      static_cast<double>(dims) * static_cast<double>(k);
  UseSimd(work)
      ? simd::NearestCentroids(cols, rows, dims, centers, k, index, sq)
      : ref::NearestCentroids(cols, rows, dims, centers, k, index, sq);
}

// ---------------------------------------------------------------------------
// Fused vector kernels: no shape threshold, the simd tier whenever it is
// enabled. The elementwise ops (Axpy/ShiftedAxpy/Multiply) are bitwise
// identical in both tiers (plain mul-then-add per element), so their
// routing is purely a speed choice.

double Dot(const double* a, const double* b, int64_t n) {
  return SimdEnabled() ? simd::Dot(a, b, n) : ref::Dot(a, b, n);
}

double ShiftedDot(const double* x, double shift, const double* y, int64_t n) {
  return SimdEnabled() ? simd::ShiftedDot(x, shift, y, n)
                       : ref::ShiftedDot(x, shift, y, n);
}

void Axpy(double alpha, const double* x, double* y, int64_t n) {
  SimdEnabled() ? simd::Axpy(alpha, x, y, n) : ref::Axpy(alpha, x, y, n);
}

void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n) {
  SimdEnabled() ? simd::ShiftedAxpy(alpha, x, shift, y, n)
                : ref::ShiftedAxpy(alpha, x, shift, y, n);
}

void Multiply(const double* a, const double* b, double* out, int64_t n) {
  SimdEnabled() ? simd::Multiply(a, b, out, n) : ref::Multiply(a, b, out, n);
}

double Sum(const double* x, int64_t n) {
  return SimdEnabled() ? simd::Sum(x, n) : ref::Sum(x, n);
}

double ShiftedSumSq(const double* x, double shift, int64_t n) {
  return SimdEnabled() ? simd::ShiftedSumSq(x, shift, n)
                       : ref::ShiftedSumSq(x, shift, n);
}

void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq) {
  SimdEnabled() ? simd::SumAndSumSq(x, n, sum, sum_sq)
                : ref::SumAndSumSq(x, n, sum, sum_sq);
}

}  // namespace hyppo::ml::kernels
