#include "ml/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace hyppo::ml::kernels {
namespace {

std::vector<double> RandomVector(size_t n, Rng& rng) {
  std::vector<double> out(n);
  for (double& v : out) {
    v = rng.Gaussian();
  }
  return out;
}

// Column-pointer array over a column-major buffer (rows per column).
std::vector<const double*> Columns(const std::vector<double>& values,
                                   int64_t rows, int64_t cols) {
  std::vector<const double*> out(static_cast<size_t>(cols));
  for (int64_t c = 0; c < cols; ++c) {
    out[static_cast<size_t>(c)] = values.data() + c * rows;
  }
  return out;
}

double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

// --- dispatch vs. naive loops ----------------------------------------------
// The dispatched reductions change only the association against a naive
// loop, so they agree within a max-abs-diff bound that scales with the
// reduction length; the elementwise ops are exact in every tier.

TEST(KernelsFused, ReductionsWithinTolerance) {
  Rng rng(6);
  for (int64_t n : {0, 1, 2, 3, 4, 5, 63, 1000}) {
    const auto x = RandomVector(static_cast<size_t>(n), rng);
    const auto y = RandomVector(static_cast<size_t>(n), rng);
    const double bound = 1e-12 * static_cast<double>(n + 1);
    double dot_naive = 0.0;
    double sum_naive = 0.0;
    double sq_naive = 0.0;
    double shifted_dot_naive = 0.0;
    double shifted_sq_naive = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      dot_naive += x[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
      sum_naive += x[static_cast<size_t>(i)];
      sq_naive += x[static_cast<size_t>(i)] * x[static_cast<size_t>(i)];
      shifted_dot_naive +=
          (x[static_cast<size_t>(i)] - 0.5) * y[static_cast<size_t>(i)];
      const double dv = x[static_cast<size_t>(i)] - 0.5;
      shifted_sq_naive += dv * dv;
    }
    EXPECT_NEAR(Dot(x.data(), y.data(), n), dot_naive, bound);
    EXPECT_NEAR(Sum(x.data(), n), sum_naive, bound);
    EXPECT_NEAR(ShiftedDot(x.data(), 0.5, y.data(), n), shifted_dot_naive,
                bound);
    EXPECT_NEAR(ShiftedSumSq(x.data(), 0.5, n), shifted_sq_naive, bound);
    double sum_out = -1.0;
    double sq_out = -1.0;
    SumAndSumSq(x.data(), n, &sum_out, &sq_out);
    EXPECT_NEAR(sum_out, sum_naive, bound);
    EXPECT_NEAR(sq_out, sq_naive, bound);
  }
}

TEST(KernelsFused, AxpyAndMultiplyExact) {
  Rng rng(7);
  const int64_t n = 257;
  const auto x = RandomVector(static_cast<size_t>(n), rng);
  std::vector<double> y_kernel = RandomVector(static_cast<size_t>(n), rng);
  std::vector<double> y_naive = y_kernel;
  Axpy(-0.75, x.data(), y_kernel.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    y_naive[static_cast<size_t>(i)] += -0.75 * x[static_cast<size_t>(i)];
  }
  EXPECT_EQ(y_kernel, y_naive);
  ShiftedAxpy(0.5, x.data(), 0.25, y_kernel.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    y_naive[static_cast<size_t>(i)] +=
        0.5 * (x[static_cast<size_t>(i)] - 0.25);
  }
  EXPECT_EQ(y_kernel, y_naive);
  std::vector<double> product(static_cast<size_t>(n));
  Multiply(x.data(), y_kernel.data(), product.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(product[static_cast<size_t>(i)],
              x[static_cast<size_t>(i)] * y_kernel[static_cast<size_t>(i)]);
  }
}

// --- argmin semantics ------------------------------------------------------

TEST(KernelsArgmin, TiesBreakTowardLowestIndex) {
  // Two identical centers: every row is equidistant, so the argmin must be
  // center 0 for all rows.
  const int64_t rows = 600;  // above the simd threshold, not a multiple of 8
  const int64_t d = 2;
  std::vector<double> values(static_cast<size_t>(rows * d));
  Rng rng(12);
  for (double& v : values) {
    v = rng.Gaussian();
  }
  const auto cols = Columns(values, rows, d);
  const std::vector<double> centers = {0.5, -0.5, 0.5, -0.5};
  std::vector<int64_t> idx(static_cast<size_t>(rows), -1);
  NearestCentroids(cols.data(), rows, d, centers.data(), 2, idx.data(),
                   nullptr);
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_EQ(idx[static_cast<size_t>(r)], 0) << "row " << r;
  }
}

TEST(KernelsArgmin, ReferenceMinimumIsReferenceDistanceBitwise) {
  // ref::NearestCentroids accumulates each distance exactly like
  // ref::PairwiseSquaredDistances, so its minimum must be bitwise the
  // first smallest entry of the reference distance row.
  Rng rng(14);
  const int64_t rows = 301;
  const int64_t d = 6;
  const int64_t k = 5;
  const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
  const auto cols = Columns(values, rows, d);
  const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
  std::vector<double> dist(static_cast<size_t>(rows * k));
  ref::PairwiseSquaredDistances(cols.data(), rows, d, centers.data(), k,
                                dist.data());
  std::vector<int64_t> idx(static_cast<size_t>(rows), -1);
  std::vector<double> sq(static_cast<size_t>(rows), -1.0);
  ref::NearestCentroids(cols.data(), rows, d, centers.data(), k, idx.data(),
                        sq.data());
  for (int64_t r = 0; r < rows; ++r) {
    const double* row = dist.data() + r * k;
    const int64_t best = std::min_element(row, row + k) - row;
    EXPECT_EQ(idx[static_cast<size_t>(r)], best) << "row " << r;
    EXPECT_EQ(sq[static_cast<size_t>(r)], row[best]) << "row " << r;
  }
}

// --- dispatch tier selection -------------------------------------------------
// Dispatch runs the scalar reference below the small-work threshold and
// the simd tier above it whenever SimdEnabled() (the reference otherwise),
// serially: its bits must equal a direct call into the selected tier.

TEST(KernelsDispatch, BitwiseRefBelowThresholdAndSelectedTierAbove) {
  const bool simd_ok = SimdEnabled();
  Rng rng(26);
  struct Case {
    int64_t m, k, n;  // GEMV m x k; column-major data rows = m * n / 4
    bool above;
  };
  const Case cases[] = {{8, 8, 8, false}, {131, 129, 127, true}};
  for (const Case& s : cases) {
    const std::string label = s.above ? "above" : "below";
    const bool use_simd = s.above && simd_ok;
    const auto a = RandomVector(static_cast<size_t>(s.m * s.k), rng);
    const auto b = RandomVector(static_cast<size_t>(s.k), rng);
    std::vector<double> y_tier(static_cast<size_t>(s.m), -1.0);
    std::vector<double> y_dispatch(static_cast<size_t>(s.m), -2.0);
    use_simd ? simd::Gemv(a.data(), s.m, s.k, b.data(), y_tier.data())
             : ref::Gemv(a.data(), s.m, s.k, b.data(), y_tier.data());
    Gemv(a.data(), s.m, s.k, b.data(), y_dispatch.data());
    EXPECT_EQ(y_tier, y_dispatch) << "gemv " << label;

    // Column-major data: rows = m * n / 4, so both cases straddle the 8-lane
    // body and land on either side of the threshold.
    const int64_t rows = s.m * s.n / 4;
    const int64_t d = s.above ? 9 : 2;
    const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
    const auto cols = Columns(values, rows, d);
    const auto w = RandomVector(static_cast<size_t>(d), rng);
    y_tier.assign(static_cast<size_t>(rows), -1.0);
    y_dispatch.assign(static_cast<size_t>(rows), -2.0);
    use_simd ? simd::GemvColumns(cols.data(), rows, d, w.data(), w.data(),
                                 0.5, y_tier.data())
             : ref::GemvColumns(cols.data(), rows, d, w.data(), w.data(), 0.5,
                                y_tier.data());
    GemvColumns(cols.data(), rows, d, w.data(), w.data(), 0.5,
                y_dispatch.data());
    EXPECT_EQ(y_tier, y_dispatch) << "gemv_columns " << label;

    std::vector<double> g_tier(static_cast<size_t>(d * d), -1.0);
    std::vector<double> g_dispatch(static_cast<size_t>(d * d), -2.0);
    use_simd ? simd::GramColumns(cols.data(), rows, d, w.data(), nullptr,
                                 g_tier.data())
             : ref::GramColumns(cols.data(), rows, d, w.data(), nullptr,
                                g_tier.data());
    GramColumns(cols.data(), rows, d, w.data(), nullptr, g_dispatch.data());
    EXPECT_EQ(g_tier, g_dispatch) << "gram " << label;

    const int64_t k = 3;
    const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
    std::vector<double> dist_tier(static_cast<size_t>(rows * k), -1.0);
    std::vector<double> dist_dispatch(static_cast<size_t>(rows * k), -2.0);
    use_simd ? simd::PairwiseSquaredDistances(cols.data(), rows, d,
                                              centers.data(), k,
                                              dist_tier.data())
             : ref::PairwiseSquaredDistances(cols.data(), rows, d,
                                             centers.data(), k,
                                             dist_tier.data());
    PairwiseSquaredDistances(cols.data(), rows, d, centers.data(), k,
                             dist_dispatch.data());
    EXPECT_EQ(dist_tier, dist_dispatch) << "distances " << label;

    std::vector<int64_t> idx_tier(static_cast<size_t>(rows), -1);
    std::vector<int64_t> idx_dispatch(static_cast<size_t>(rows), -2);
    std::vector<double> sq_tier(static_cast<size_t>(rows), -1.0);
    std::vector<double> sq_dispatch(static_cast<size_t>(rows), -2.0);
    use_simd ? simd::NearestCentroids(cols.data(), rows, d, centers.data(), k,
                                      idx_tier.data(), sq_tier.data())
             : ref::NearestCentroids(cols.data(), rows, d, centers.data(), k,
                                     idx_tier.data(), sq_tier.data());
    NearestCentroids(cols.data(), rows, d, centers.data(), k,
                     idx_dispatch.data(), sq_dispatch.data());
    EXPECT_EQ(idx_tier, idx_dispatch) << "nearest index " << label;
    EXPECT_EQ(sq_tier, sq_dispatch) << "nearest sq " << label;
  }
  // The fused vector kernels have no threshold: simd whenever enabled.
  const auto x = RandomVector(1001, rng);
  const auto y = RandomVector(1001, rng);
  EXPECT_EQ(Dot(x.data(), y.data(), 1001),
            simd_ok ? simd::Dot(x.data(), y.data(), 1001)
                    : ref::Dot(x.data(), y.data(), 1001));
  EXPECT_EQ(Sum(x.data(), 1001),
            simd_ok ? simd::Sum(x.data(), 1001) : ref::Sum(x.data(), 1001));
}

// A build without a simd tier (HYPPO_SIMD_ISA=off, non-x86, or a compiler
// without -mavx2 -mfma) names no vector ISA and dispatches every kernel,
// above the threshold too, to the scalar reference.
TEST(KernelsDispatch, BuildWithoutVectorIsaRunsReferenceAboveThreshold) {
  if (std::string(SimdBuildIsa()) != "generic") {
    GTEST_SKIP() << "this build has the '" << SimdBuildIsa()
                 << "' simd tier";
  }
  EXPECT_FALSE(SimdEnabled());
  EXPECT_STREQ(simd::BackendName(), "none");
  Rng rng(27);
  const int64_t n = 100000;
  const auto x = RandomVector(static_cast<size_t>(n), rng);
  const auto y = RandomVector(static_cast<size_t>(n), rng);
  EXPECT_EQ(Dot(x.data(), y.data(), n), ref::Dot(x.data(), y.data(), n));
  const int64_t rows = 5000;
  const int64_t d = 9;  // rows * d * d is far above the threshold
  const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
  const auto cols = Columns(values, rows, d);
  const auto shift = RandomVector(static_cast<size_t>(d), rng);
  std::vector<double> g_ref(static_cast<size_t>(d * d), -1.0);
  std::vector<double> g_dispatch(static_cast<size_t>(d * d), -2.0);
  ref::GramColumns(cols.data(), rows, d, shift.data(), nullptr, g_ref.data());
  GramColumns(cols.data(), rows, d, shift.data(), nullptr, g_dispatch.data());
  EXPECT_EQ(g_ref, g_dispatch);
}

// --- simd tier --------------------------------------------------------------
// The simd:: tier fixes its own 8-lane-banked accumulation order, so it may
// differ from ref:: within a reduction-length tolerance. Suites skip when
// no simd tier runs here: the build has none, or the CPU lacks its ISA
// (calling into simd:: there would execute unsupported instructions).

class KernelsSimd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!SimdEnabled()) {
      GTEST_SKIP() << "no simd tier runs here (build ISA '" << SimdBuildIsa()
                   << "')";
    }
  }
};

TEST_F(KernelsSimd, GemvAndGemvColumnsWithinTolerance) {
  Rng rng(21);
  for (int64_t rows : {0, 1, 31, 97, 301}) {
    for (int64_t cols : {1, 4, 8, 9, 63, 300}) {
      const auto m = RandomVector(static_cast<size_t>(rows * cols), rng);
      const auto x = RandomVector(static_cast<size_t>(cols), rng);
      std::vector<double> y_ref(static_cast<size_t>(rows), -1.0);
      std::vector<double> y_simd(static_cast<size_t>(rows), -2.0);
      ref::Gemv(m.data(), rows, cols, x.data(), y_ref.data());
      simd::Gemv(m.data(), rows, cols, x.data(), y_simd.data());
      EXPECT_LE(MaxAbsDiff(y_ref, y_simd),
                1e-12 * static_cast<double>(cols + 1))
          << "rows=" << rows << " cols=" << cols;
      const auto values = Columns(m, rows, cols);
      const auto shift = RandomVector(static_cast<size_t>(cols), rng);
      ref::GemvColumns(values.data(), rows, cols, shift.data(), x.data(), 0.5,
                       y_ref.data());
      simd::GemvColumns(values.data(), rows, cols, shift.data(), x.data(),
                        0.5, y_simd.data());
      EXPECT_LE(MaxAbsDiff(y_ref, y_simd),
                1e-12 * static_cast<double>(cols + 1))
          << "columns rows=" << rows << " cols=" << cols;
    }
  }
}

TEST_F(KernelsSimd, GramAndDistancesWithinTolerance) {
  Rng rng(22);
  for (int64_t rows : {0, 1, 77, 501}) {
    for (int64_t d : {1, 2, 7, 8, 9, 17}) {
      const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
      const auto cols = Columns(values, rows, d);
      const auto shift = RandomVector(static_cast<size_t>(d), rng);
      const double bound = 1e-12 * static_cast<double>(rows + 1);
      std::vector<double> g_ref(static_cast<size_t>(d * d), -1.0);
      std::vector<double> g_simd(static_cast<size_t>(d * d), -2.0);
      ref::GramColumns(cols.data(), rows, d, shift.data(), nullptr,
                       g_ref.data());
      simd::GramColumns(cols.data(), rows, d, shift.data(), nullptr,
                        g_simd.data());
      EXPECT_LE(MaxAbsDiff(g_ref, g_simd), bound)
          << "gram rows=" << rows << " d=" << d;
      const int64_t k = 3;
      const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
      std::vector<double> sq_ref(static_cast<size_t>(rows * k), -1.0);
      std::vector<double> sq_simd(static_cast<size_t>(rows * k), -2.0);
      ref::PairwiseSquaredDistances(cols.data(), rows, d, centers.data(), k,
                                    sq_ref.data());
      simd::PairwiseSquaredDistances(cols.data(), rows, d, centers.data(), k,
                                     sq_simd.data());
      EXPECT_LE(MaxAbsDiff(sq_ref, sq_simd),
                1e-12 * static_cast<double>(d + 1))
          << "distances rows=" << rows << " d=" << d;
    }
  }
}

TEST_F(KernelsSimd, FusedReductionsWithinTolerance) {
  Rng rng(23);
  for (int64_t n : {0, 1, 2, 7, 8, 9, 63, 1000}) {
    const auto x = RandomVector(static_cast<size_t>(n), rng);
    const auto y = RandomVector(static_cast<size_t>(n), rng);
    const double bound = 1e-12 * static_cast<double>(n + 1);
    double dot_naive = 0.0;
    double sum_naive = 0.0;
    double sq_naive = 0.0;
    double shifted_dot_naive = 0.0;
    double shifted_sq_naive = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      dot_naive += x[static_cast<size_t>(i)] * y[static_cast<size_t>(i)];
      sum_naive += x[static_cast<size_t>(i)];
      sq_naive += x[static_cast<size_t>(i)] * x[static_cast<size_t>(i)];
      shifted_dot_naive +=
          (x[static_cast<size_t>(i)] - 0.5) * y[static_cast<size_t>(i)];
      const double dv = x[static_cast<size_t>(i)] - 0.5;
      shifted_sq_naive += dv * dv;
    }
    EXPECT_NEAR(simd::Dot(x.data(), y.data(), n), dot_naive, bound);
    EXPECT_NEAR(simd::Sum(x.data(), n), sum_naive, bound);
    EXPECT_NEAR(simd::ShiftedDot(x.data(), 0.5, y.data(), n),
                shifted_dot_naive, bound);
    EXPECT_NEAR(simd::ShiftedSumSq(x.data(), 0.5, n), shifted_sq_naive,
                bound);
    double sum_out = -1.0;
    double sq_out = -1.0;
    simd::SumAndSumSq(x.data(), n, &sum_out, &sq_out);
    EXPECT_NEAR(sum_out, sum_naive, bound);
    EXPECT_NEAR(sq_out, sq_naive, bound);
  }
}

TEST_F(KernelsSimd, ElementwiseOpsBitwiseMatchNaive) {
  // Axpy/ShiftedAxpy/Multiply perform exactly the per-element mul-then-add
  // sequence of the reference (no contraction), so equality is exact.
  Rng rng(24);
  const int64_t n = 261;  // 8-lane main loop plus a 5-element tail
  const auto x = RandomVector(static_cast<size_t>(n), rng);
  std::vector<double> y_kernel = RandomVector(static_cast<size_t>(n), rng);
  std::vector<double> y_naive = y_kernel;
  simd::Axpy(-0.75, x.data(), y_kernel.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    y_naive[static_cast<size_t>(i)] += -0.75 * x[static_cast<size_t>(i)];
  }
  EXPECT_EQ(y_kernel, y_naive);
  simd::ShiftedAxpy(0.5, x.data(), 0.25, y_kernel.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    y_naive[static_cast<size_t>(i)] +=
        0.5 * (x[static_cast<size_t>(i)] - 0.25);
  }
  EXPECT_EQ(y_kernel, y_naive);
  std::vector<double> product(static_cast<size_t>(n));
  simd::Multiply(x.data(), y_kernel.data(), product.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(product[static_cast<size_t>(i)],
              x[static_cast<size_t>(i)] * y_kernel[static_cast<size_t>(i)]);
  }
}

TEST_F(KernelsSimd, NearestCentroidsArgminBitwiseMatchesReference) {
  // The simd tier's squared distances round differently (fma), but its
  // argmin scan fixes the same semantics as every other tier (ascending
  // centers, strict '<'), so the index outputs must agree exactly. The
  // shape spans the 8-row vector body plus a scalar tail.
  Rng rng(30);
  const int64_t rows = 603;
  const int64_t d = 5;
  const int64_t k = 7;
  const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
  const auto cols = Columns(values, rows, d);
  const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
  std::vector<int64_t> idx_ref(static_cast<size_t>(rows), -1);
  std::vector<int64_t> idx_simd(static_cast<size_t>(rows), -2);
  std::vector<double> sq_ref(static_cast<size_t>(rows), -1.0);
  std::vector<double> sq_simd(static_cast<size_t>(rows), -2.0);
  ref::NearestCentroids(cols.data(), rows, d, centers.data(), k,
                        idx_ref.data(), sq_ref.data());
  simd::NearestCentroids(cols.data(), rows, d, centers.data(), k,
                         idx_simd.data(), sq_simd.data());
  EXPECT_EQ(idx_ref, idx_simd);
  EXPECT_LE(MaxAbsDiff(sq_ref, sq_simd),
            1e-12 * static_cast<double>(d + 1));
  // The fused kernel's minimum must be bitwise consistent with the simd
  // tier's own distance matrix.
  std::vector<double> dist(static_cast<size_t>(rows * k));
  simd::PairwiseSquaredDistances(cols.data(), rows, d, centers.data(), k,
                                 dist.data());
  for (int64_t r = 0; r < rows; ++r) {
    const size_t row = static_cast<size_t>(r);
    EXPECT_EQ(sq_simd[row],
              dist[static_cast<size_t>(r * k + idx_simd[row])])
        << "row " << r;
  }
}

TEST_F(KernelsSimd, NearestCentroidsTiesBreakTowardLowestIndex) {
  // Duplicated centers produce bitwise-equal distances in every tier, so
  // the tie must resolve to the lowest index in both the vector body and
  // the scalar tail.
  Rng rng(31);
  const int64_t rows = 603;
  const int64_t d = 3;
  std::vector<double> values(static_cast<size_t>(rows * d));
  for (double& v : values) {
    v = rng.Gaussian();
  }
  const auto cols = Columns(values, rows, d);
  // centers 0 and 2 are identical; 1 is pushed far away so the duplicate
  // pair always wins and the tie is exercised on every row.
  const std::vector<double> centers = {0.25, -0.5, 1.0,  //
                                       50.0, 50.0, 50.0,  //
                                       0.25, -0.5, 1.0};
  std::vector<int64_t> idx(static_cast<size_t>(rows), -1);
  simd::NearestCentroids(cols.data(), rows, d, centers.data(), 3, idx.data(),
                         nullptr);
  for (int64_t r = 0; r < rows; ++r) {
    EXPECT_EQ(idx[static_cast<size_t>(r)], 0) << "row " << r;
  }
}

// The executor calls kernels from its pool workers, several at once.
// Dispatch keeps no per-thread state, so a call above the small-work
// threshold must route to the simd tier and yield the direct-call bits on
// whichever thread it runs.
constexpr int kCallerThreads = 4;

TEST_F(KernelsSimd, DispatchBitwiseEqualAcrossThreadsAndMatchesTier) {
  Rng rng(26);
  const int64_t rows = 1001;
  const int64_t d = 17;  // above the small-work threshold; spans two tiles
  const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
  const auto cols = Columns(values, rows, d);
  const auto shift = RandomVector(static_cast<size_t>(d), rng);
  std::vector<double> g_tier(static_cast<size_t>(d * d));
  simd::GramColumns(cols.data(), rows, d, shift.data(), nullptr,
                    g_tier.data());
  std::vector<double> g_caller(static_cast<size_t>(d * d));
  GramColumns(cols.data(), rows, d, shift.data(), nullptr, g_caller.data());
  EXPECT_EQ(g_tier, g_caller);

  std::vector<std::vector<double>> g_workers(
      kCallerThreads, std::vector<double>(static_cast<size_t>(d * d), -1.0));
  ThreadPool pool(kCallerThreads - 1);
  pool.ParallelFor(kCallerThreads, [&](int64_t t) {
    GramColumns(cols.data(), rows, d, shift.data(), nullptr,
                g_workers[static_cast<size_t>(t)].data());
  });
  for (size_t t = 0; t < g_workers.size(); ++t) {
    EXPECT_EQ(g_caller, g_workers[t]) << "worker call " << t;
  }
}

TEST_F(KernelsSimd, NearestCentroidsDispatchBitwiseEqualAcrossThreads) {
  Rng rng(33);
  const int64_t rows = 60000;
  const int64_t d = 8;
  const int64_t k = 3;  // above the small-work threshold
  const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
  const auto cols = Columns(values, rows, d);
  const auto centers = RandomVector(static_cast<size_t>(k * d), rng);
  std::vector<int64_t> idx_tier(static_cast<size_t>(rows));
  std::vector<double> sq_tier(static_cast<size_t>(rows));
  simd::NearestCentroids(cols.data(), rows, d, centers.data(), k,
                         idx_tier.data(), sq_tier.data());
  std::vector<int64_t> idx_caller(static_cast<size_t>(rows));
  std::vector<double> sq_caller(static_cast<size_t>(rows));
  NearestCentroids(cols.data(), rows, d, centers.data(), k, idx_caller.data(),
                   sq_caller.data());
  EXPECT_EQ(idx_tier, idx_caller);
  EXPECT_EQ(sq_tier, sq_caller);

  std::vector<std::vector<int64_t>> idx_workers(
      kCallerThreads, std::vector<int64_t>(static_cast<size_t>(rows), -1));
  std::vector<std::vector<double>> sq_workers(
      kCallerThreads, std::vector<double>(static_cast<size_t>(rows), -1.0));
  ThreadPool pool(kCallerThreads - 1);
  pool.ParallelFor(kCallerThreads, [&](int64_t t) {
    NearestCentroids(cols.data(), rows, d, centers.data(), k,
                     idx_workers[static_cast<size_t>(t)].data(),
                     sq_workers[static_cast<size_t>(t)].data());
  });
  for (int t = 0; t < kCallerThreads; ++t) {
    EXPECT_EQ(idx_caller, idx_workers[static_cast<size_t>(t)])
        << "worker call " << t;
    EXPECT_EQ(sq_caller, sq_workers[static_cast<size_t>(t)])
        << "worker call " << t;
  }
}

// --- degenerate shapes across tiers -----------------------------------------
// Empty and single-element shapes take the tail paths in every tier; there
// a reduction has at most one term, so all tiers must agree bitwise.

TEST(KernelsDegenerate, EmptyAndSingleElementShapesAgreeAcrossTiers) {
  const bool simd_ok = SimdEnabled();
  struct Shape {
    int64_t rows, cols;
  };
  Rng rng(29);
  // Row-major GEMV: zero rows, an empty reduction (also past the 8-row
  // vector body), and one-term reductions.
  for (const Shape& s :
       {Shape{0, 5}, Shape{3, 0}, Shape{9, 0}, Shape{3, 1}, Shape{1, 1}}) {
    const auto m = RandomVector(static_cast<size_t>(s.rows * s.cols), rng);
    const auto x = RandomVector(static_cast<size_t>(s.cols), rng);
    std::vector<double> y_ref(static_cast<size_t>(s.rows), -1.0);
    ref::Gemv(m.data(), s.rows, s.cols, x.data(), y_ref.data());
    if (simd_ok) {
      std::vector<double> y_simd(static_cast<size_t>(s.rows), -3.0);
      simd::Gemv(m.data(), s.rows, s.cols, x.data(), y_simd.data());
      EXPECT_EQ(y_ref, y_simd) << "simd rows=" << s.rows << " cols=" << s.cols;
    }
  }
  // Column-pointer kernels: zero rows, a single cell, and no columns. Bias
  // stays 0.0 because the simd tier fuses w*v+bias into one fma (a single
  // rounding) where ref rounds the product first; exactness across tiers
  // only holds when accumulation starts from zero.
  for (const Shape& s : {Shape{0, 1}, Shape{1, 1}, Shape{9, 0}}) {
    const int64_t rows = s.rows;
    const int64_t d = s.cols;
    const auto values = RandomVector(static_cast<size_t>(rows * d), rng);
    const auto cols = Columns(values, rows, d);
    const auto w = RandomVector(static_cast<size_t>(d), rng);
    std::vector<double> y_ref(static_cast<size_t>(rows), -1.0);
    ref::GemvColumns(cols.data(), rows, d, nullptr, w.data(), 0.0,
                     y_ref.data());
    std::vector<double> g_ref(static_cast<size_t>(d * d), -1.0);
    ref::GramColumns(cols.data(), rows, d, nullptr, nullptr, g_ref.data());
    if (simd_ok) {
      std::vector<double> y_simd(static_cast<size_t>(rows), -3.0);
      simd::GemvColumns(cols.data(), rows, d, nullptr, w.data(), 0.0,
                        y_simd.data());
      EXPECT_EQ(y_ref, y_simd) << "simd rows=" << rows << " d=" << d;
      std::vector<double> g_simd(static_cast<size_t>(d * d), -3.0);
      simd::GramColumns(cols.data(), rows, d, nullptr, nullptr,
                        g_simd.data());
      EXPECT_EQ(g_ref, g_simd) << "simd gram rows=" << rows << " d=" << d;
    }
  }
}

TEST(KernelsDegenerate, NearestCentroidsWithoutCentersWritesNothing) {
  // k = 0 has no argmin: every tier must leave both outputs untouched,
  // including row counts that reach the simd tier's 8-row vector body.
  const bool simd_ok = SimdEnabled();
  for (int64_t rows : {int64_t{0}, int64_t{7}, int64_t{16}}) {
    const int64_t d = 1;
    const std::vector<double> values(static_cast<size_t>(rows * d), 0.5);
    const auto cols = Columns(values, rows, d);
    const std::vector<double> centers;
    const size_t n = static_cast<size_t>(rows);
    std::vector<int64_t> idx(n, -7);
    std::vector<double> sq(n, -7.0);
    ref::NearestCentroids(cols.data(), rows, d, centers.data(), 0, idx.data(),
                          sq.data());
    EXPECT_EQ(idx, std::vector<int64_t>(n, -7)) << "ref rows=" << rows;
    EXPECT_EQ(sq, std::vector<double>(n, -7.0)) << "ref rows=" << rows;
    if (simd_ok) {
      simd::NearestCentroids(cols.data(), rows, d, centers.data(), 0,
                             idx.data(), sq.data());
      EXPECT_EQ(idx, std::vector<int64_t>(n, -7)) << "simd rows=" << rows;
      EXPECT_EQ(sq, std::vector<double>(n, -7.0)) << "simd rows=" << rows;
    }
    NearestCentroids(cols.data(), rows, d, centers.data(), 0, idx.data(),
                     sq.data());
    EXPECT_EQ(idx, std::vector<int64_t>(n, -7)) << "dispatch rows=" << rows;
    EXPECT_EQ(sq, std::vector<double>(n, -7.0)) << "dispatch rows=" << rows;
  }
}

// --- non-finite propagation -------------------------------------------------
// A NaN anywhere in a row poisons that row's outputs in every tier; a +inf
// against strictly positive multiplicands saturates the row to +inf in
// every tier. Reassociation never changes either classification, so the
// tiers must agree on exactly which outputs are NaN, +inf, or finite.

TEST(KernelsNonFinite, NaNAndInfPropagateIdenticallyAcrossTiers) {
  const bool simd_ok = SimdEnabled();
  // Strictly positive data and weights, so +inf saturates instead of
  // meeting 0 or -inf. The NaN lands in the simd tier's 8-row vector body,
  // the +inf in its scalar row tail; the sizes put dispatch above the
  // small-work threshold.
  const int64_t rows = 1001;
  const int64_t d = 9;
  std::vector<double> values(static_cast<size_t>(rows * d));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.5 + 0.25 * static_cast<double>(i % 7);
  }
  const int64_t nan_col = 2;
  const int64_t nan_row = 5;
  const int64_t inf_col = 6;
  const int64_t inf_row = 1000;
  values[static_cast<size_t>(nan_col * rows + nan_row)] =
      std::numeric_limits<double>::quiet_NaN();
  values[static_cast<size_t>(inf_col * rows + inf_row)] =
      std::numeric_limits<double>::infinity();
  const auto cols = Columns(values, rows, d);
  const std::vector<double> w(static_cast<size_t>(d), 0.75);
  std::vector<std::string> labels = {"ref", "dispatch"};
  std::vector<std::vector<double>> gemv(2);
  std::vector<std::vector<double>> gram(2);
  if (simd_ok) {
    labels.emplace_back("simd");
    gemv.emplace_back();
    gram.emplace_back();
  }
  for (size_t t = 0; t < labels.size(); ++t) {
    gemv[t].assign(static_cast<size_t>(rows), -1.0);
    gram[t].assign(static_cast<size_t>(d * d), -1.0);
    if (labels[t] == "ref") {
      ref::GemvColumns(cols.data(), rows, d, nullptr, w.data(), 0.5,
                       gemv[t].data());
      ref::GramColumns(cols.data(), rows, d, nullptr, nullptr,
                       gram[t].data());
    } else if (labels[t] == "simd") {
      simd::GemvColumns(cols.data(), rows, d, nullptr, w.data(), 0.5,
                        gemv[t].data());
      simd::GramColumns(cols.data(), rows, d, nullptr, nullptr,
                        gram[t].data());
    } else {
      GemvColumns(cols.data(), rows, d, nullptr, w.data(), 0.5,
                  gemv[t].data());
      GramColumns(cols.data(), rows, d, nullptr, nullptr, gram[t].data());
    }
    // A NaN poisons its row's prediction; a +inf saturates its row.
    for (int64_t r = 0; r < rows; ++r) {
      const double v = gemv[t][static_cast<size_t>(r)];
      if (r == nan_row) {
        EXPECT_TRUE(std::isnan(v)) << labels[t] << " row " << r;
      } else if (r == inf_row) {
        EXPECT_EQ(v, std::numeric_limits<double>::infinity())
            << labels[t] << " row " << r;
      } else {
        EXPECT_TRUE(std::isfinite(v)) << labels[t] << " row " << r;
      }
    }
    // A NaN column poisons its Gram row and column; a +inf column
    // saturates the rest of its row and column.
    for (int64_t i = 0; i < d; ++i) {
      for (int64_t j = 0; j < d; ++j) {
        const double v = gram[t][static_cast<size_t>(i * d + j)];
        if (i == nan_col || j == nan_col) {
          EXPECT_TRUE(std::isnan(v)) << labels[t] << " gram " << i << "," << j;
        } else if (i == inf_col || j == inf_col) {
          EXPECT_EQ(v, std::numeric_limits<double>::infinity())
              << labels[t] << " gram " << i << "," << j;
        } else {
          EXPECT_TRUE(std::isfinite(v))
              << labels[t] << " gram " << i << "," << j;
        }
      }
    }
  }
  // Fused reductions propagate NaN identically.
  std::vector<double> x(64, 1.0);
  x[17] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> y(64, 2.0);
  EXPECT_TRUE(std::isnan(Dot(x.data(), y.data(), 64)));
  EXPECT_TRUE(std::isnan(Sum(x.data(), 64)));
  if (simd_ok) {
    EXPECT_TRUE(std::isnan(simd::Dot(x.data(), y.data(), 64)));
    EXPECT_TRUE(std::isnan(simd::Sum(x.data(), 64)));
  }
}

}  // namespace
}  // namespace hyppo::ml::kernels
