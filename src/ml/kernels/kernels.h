#ifndef HYPPO_ML_KERNELS_KERNELS_H_
#define HYPPO_ML_KERNELS_KERNELS_H_

#include <cstdint>

namespace hyppo::ml::kernels {

/// \brief High-performance compute kernels backing the physical operators.
///
/// Two explicit tiers plus a dispatcher, all producing deterministic
/// results:
///
///  - `ref::*`   scalar reference implementations — the semantic ground
///               truth the property tests and benches compare against,
///               the path for tiny problems, and the only tier of builds
///               and CPUs without AVX2+FMA.
///  - `simd::*`  AVX2/FMA implementations on a fixed 8-lane vector. The
///               one translation unit (kernel_simd.cc) is compiled, with
///               -mavx2 -mfma, only when the HYPPO_SIMD_ISA CMake cache
///               variable selects AVX2 (which then defines
///               HYPPO_SIMD_AVX2 for every user of the library); nothing
///               else in the library carries ISA flags. Without it the
///               build has no simd tier: SimdEnabled() is false and
///               simd:: names the reference kernels.
///  - dispatch   the unqualified functions below select the tier per
///               call: tiny problems (a shape threshold) run the scalar
///               reference, everything else runs the simd tier when
///               SimdEnabled(), else the reference. Every call runs
///               serially on the calling thread.
///
/// Determinism contract: for a given shape, each tier fixes the
/// floating-point accumulation order of every output element, and the
/// tier choice depends only on the shape and the (cached) CPU probe, so
/// a call site produces the same bits on every run on one machine —
/// HYPPO's equivalence semantics and the differential / chaos tests,
/// which compare payloads byte-wise across executor parallelism levels,
/// rely on this. The tiers differ from each other only by floating-point
/// association/contraction (bounded by the property tests): `simd` uses
/// fma chains and a fixed 8-lane bank with a fixed reduction tree. See
/// docs/KERNELS.md.

// ---------------------------------------------------------------------------
// Scalar reference path. Exported so tests and benches can compare against
// it; operator code should call the dispatching entry points instead.

namespace ref {

/// y = M x for row-major M (rows x cols).
void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);

/// out[r] = bias + sum_c w[c] * (cols[c][r] - (shift ? shift[c] : 0)) for a
/// column-major matrix given as `num_cols` column pointers of length
/// `rows` — the dataset-layout GEMV used by linear predict and PCA
/// projection.
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);

/// SYRK-style column Gram matrix: out (row-major d x d, d = num_cols) with
///   out[i][j] = sum_r weight_r * (cols[i][r] - shift_i) * (cols[j][r] - shift_j)
/// where shift defaults to 0 (Gram / normal equations) and weight to 1.
/// With shift = column means this is the (unnormalized) covariance; with
/// weight = p(1-p) it is the logistic-regression Hessian body.
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);

/// Squared Euclidean distances between every data row and every center:
/// out[r * k + i] = || x_r - center_i ||^2 with column-major data and
/// row-major centers (k x dims).
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);

/// Nearest center per data row: the reference distances (ascending
/// dimensions, `sq += diff * diff`) scanned over ascending centers with a
/// strict '<'. Writes nothing when rows <= 0 or k <= 0.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq);

// One-accumulator fused vector loops (same semantics as the dispatching
// entry points below).
double Dot(const double* a, const double* b, int64_t n);
double ShiftedDot(const double* x, double shift, const double* y, int64_t n);
void Axpy(double alpha, const double* x, double* y, int64_t n);
void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n);
void Multiply(const double* a, const double* b, double* out, int64_t n);
double Sum(const double* x, int64_t n);
double ShiftedSumSq(const double* x, double shift, int64_t n);
void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq);

}  // namespace ref

// ---------------------------------------------------------------------------
// SIMD path (kernel_simd.cc — the only TU compiled with ISA flags, built
// only for AVX2). Deterministic accumulation order per output element:
// matrix kernels accumulate in the same ascending-index order as the
// reference (with explicit fma), and reductions use a fixed 8-lane bank
// reduced by a fixed binary tree (((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)))
// plus a scalar tail.
//
// Safety: on a CPU without AVX2+FMA (SimdEnabled() == false), calling
// into simd:: is undefined (illegal instruction). The dispatcher checks;
// direct callers (tests, benches) must gate on SimdEnabled() themselves.

namespace simd {

#if defined(HYPPO_SIMD_AVX2)

void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);
/// Fused distances + argmin. The argmin scan matches the reference
/// exactly (ascending centers, strict '<'), so the index output is
/// bitwise identical across tiers; the squared distances carry the simd
/// tier's fma rounding. Writes nothing when rows <= 0 or k <= 0.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq);

// Fused vector kernels. The reductions use the 8-lane banked order; the
// elementwise ops (Axpy/ShiftedAxpy/Multiply) perform exactly the
// per-element operation sequence of the reference (mul then add, no
// contraction), so they stay bitwise identical across tiers.
double Dot(const double* a, const double* b, int64_t n);
double ShiftedDot(const double* x, double shift, const double* y, int64_t n);
void Axpy(double alpha, const double* x, double* y, int64_t n);
void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n);
void Multiply(const double* a, const double* b, double* out, int64_t n);
double Sum(const double* x, int64_t n);
double ShiftedSumSq(const double* x, double shift, int64_t n);
void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq);

#else

// No simd tier in this build: the names resolve to the reference kernels,
// so direct callers compile unchanged (and SimdEnabled() is false).
using namespace ref;

#endif

/// Name of the backend this build's simd tier vectorizes with:
/// "avx2-intrinsics", or "none" when the build has no simd tier.
const char* BackendName();

}  // namespace simd

// ---------------------------------------------------------------------------
// SIMD tier configuration.

/// ISA the simd translation unit was compiled for, as selected by the
/// HYPPO_SIMD_ISA CMake cache variable: "avx2", or "generic" when the
/// build has no simd tier (HYPPO_SIMD_ISA=off, non-x86, or a compiler
/// without -mavx2 -mfma).
const char* SimdBuildIsa();

/// True when the build has a simd tier and the running CPU supports its
/// ISA (cached cpuid probe), i.e. when the dispatcher may select it.
bool SimdEnabled();

// ---------------------------------------------------------------------------
// Dispatching entry points. Path selection depends only on the problem
// shape and SimdEnabled(), so a given shape always takes the same
// numeric path on a given machine.

void Gemv(const double* m, int64_t rows, int64_t cols, const double* x,
          double* y);
void GemvColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* w, double bias,
                 double* out);
void GramColumns(const double* const* cols, int64_t rows, int64_t num_cols,
                 const double* shift, const double* weight, double* out);
void PairwiseSquaredDistances(const double* const* cols, int64_t rows,
                              int64_t dims, const double* centers, int64_t k,
                              double* out);

/// Nearest center per data row: index[r] = argmin_i squared distance,
/// sq[r] = the minimum squared distance (either output may be null). Ties
/// break toward the lowest index in every tier.
void NearestCentroids(const double* const* cols, int64_t rows, int64_t dims,
                      const double* centers, int64_t k, int64_t* index,
                      double* sq);

// --- fused vector kernels (memory-bound; simd tier whenever enabled) ---

double Dot(const double* a, const double* b, int64_t n);
/// sum_i (x[i] - shift) * y[i] — the coordinate-descent correlation step.
double ShiftedDot(const double* x, double shift, const double* y, int64_t n);
/// y[i] += alpha * x[i].
void Axpy(double alpha, const double* x, double* y, int64_t n);
/// y[i] += alpha * (x[i] - shift) — fused centered update (residual
/// maintenance in lasso/elastic-net).
void ShiftedAxpy(double alpha, const double* x, double shift, double* y,
                 int64_t n);
/// out[i] = a[i] * b[i] (polynomial feature products).
void Multiply(const double* a, const double* b, double* out, int64_t n);
double Sum(const double* x, int64_t n);
/// sum_i (x[i] - shift)^2 — fused centered second moment.
double ShiftedSumSq(const double* x, double shift, int64_t n);
/// Single-pass sum and sum of squares (variance-threshold style).
void SumAndSumSq(const double* x, int64_t n, double* sum, double* sum_sq);

}  // namespace hyppo::ml::kernels

#endif  // HYPPO_ML_KERNELS_KERNELS_H_
