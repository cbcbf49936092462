#include <gtest/gtest.h>

#include <cmath>

#include "ml/config.h"
#include "ml/dataset.h"
#include "ml/linalg.h"
#include "ml/metrics.h"

namespace hyppo::ml {
namespace {

TEST(DatasetTest, ShapeAndAccess) {
  Dataset data(4, 3);
  EXPECT_EQ(data.rows(), 4);
  EXPECT_EQ(data.cols(), 3);
  data.at(2, 1) = 7.5;
  EXPECT_DOUBLE_EQ(data.at(2, 1), 7.5);
  EXPECT_DOUBLE_EQ(data.col_data(1)[2], 7.5);
  EXPECT_EQ(data.column_names().size(), 3u);
}

TEST(DatasetTest, CopyRowGathersAcrossColumns) {
  Dataset data(2, 3);
  for (int64_t c = 0; c < 3; ++c) {
    data.at(1, c) = static_cast<double>(10 + c);
  }
  double row[3];
  data.CopyRow(1, row);
  EXPECT_DOUBLE_EQ(row[0], 10.0);
  EXPECT_DOUBLE_EQ(row[2], 12.0);
}

TEST(DatasetTest, TargetHandling) {
  Dataset data(3, 1);
  EXPECT_FALSE(data.has_target());
  data.set_target({1.0, 0.0, 1.0});
  EXPECT_TRUE(data.has_target());
  EXPECT_EQ(data.target().size(), 3u);
}

TEST(DatasetTest, SizeBytesCountsMatrixAndTarget) {
  Dataset data(10, 4);
  EXPECT_EQ(data.SizeBytes(), 10 * 4 * 8);
  data.set_target(std::vector<double>(10, 0.0));
  EXPECT_EQ(data.SizeBytes(), 10 * 4 * 8 + 10 * 8);
}

TEST(DatasetTest, SelectRowsPreservesTargetAndNames) {
  Dataset data = Dataset::WithColumns(4, {"a", "b"});
  for (int64_t r = 0; r < 4; ++r) {
    data.at(r, 0) = static_cast<double>(r);
    data.at(r, 1) = static_cast<double>(10 * r);
  }
  data.set_target({0.0, 1.0, 2.0, 3.0});
  Dataset sub = data.SelectRows({3, 1});
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_DOUBLE_EQ(sub.at(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(sub.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(sub.target()[0], 3.0);
  EXPECT_EQ(sub.column_names()[1], "b");
}

TEST(DatasetTest, SelectColsValidatesRange) {
  Dataset data(2, 2);
  EXPECT_TRUE(data.SelectCols({0, 5}).status().IsOutOfRange());
  auto sub = data.SelectCols({1});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->cols(), 1);
}

TEST(DatasetTest, AddColumnValidatesLength) {
  Dataset data(3, 1);
  EXPECT_TRUE(data.AddColumn("x", {1.0}).IsInvalidArgument());
  ASSERT_TRUE(data.AddColumn("x", {1.0, 2.0, 3.0}).ok());
  EXPECT_EQ(data.cols(), 2);
  EXPECT_DOUBLE_EQ(data.at(2, 1), 3.0);
}

// Matrices of 2 MiB and up live in mapped memory: they must zero-fill,
// copy, grow through AddColumn and slice like small ones.
TEST(DatasetTest, LargeMatrixBehavesLikeSmallOne) {
  const int64_t rows = 200000;  // 2 columns of doubles: 3.2 MB
  Dataset data(rows, 2);
  EXPECT_DOUBLE_EQ(data.at(rows - 1, 1), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    data.at(r, 0) = static_cast<double>(r);
  }
  Dataset copy = data;
  std::vector<double> extra(static_cast<size_t>(rows), -1.0);
  ASSERT_TRUE(copy.AddColumn("extra", extra).ok());
  EXPECT_EQ(copy.cols(), 3);
  EXPECT_DOUBLE_EQ(copy.at(rows - 1, 0), static_cast<double>(rows - 1));
  EXPECT_DOUBLE_EQ(copy.at(7, 2), -1.0);
  EXPECT_EQ(data.cols(), 2);
  const Dataset slice = copy.SelectRows({5, rows - 1});
  EXPECT_DOUBLE_EQ(slice.at(1, 0), static_cast<double>(rows - 1));
  EXPECT_DOUBLE_EQ(slice.at(0, 2), -1.0);
}

TEST(ConfigTest, TypedGetters) {
  Config config;
  config.Set("name", "ridge");
  config.SetDouble("alpha", 0.5);
  config.SetInt("iters", 100);
  EXPECT_EQ(config.GetString("name", ""), "ridge");
  EXPECT_DOUBLE_EQ(config.GetDouble("alpha", 0.0), 0.5);
  EXPECT_EQ(config.GetInt("iters", 0), 100);
  EXPECT_EQ(config.GetInt("missing", 7), 7);
  EXPECT_TRUE(config.GetBool("missing", true));
}

TEST(ConfigTest, BoolParsing) {
  Config config{{"a", "true"}, {"b", "0"}, {"c", "garbage"}};
  EXPECT_TRUE(config.GetBool("a", false));
  EXPECT_FALSE(config.GetBool("b", true));
  EXPECT_TRUE(config.GetBool("c", true));
}

TEST(ConfigTest, CanonicalStringIsSorted) {
  Config config;
  config.Set("z", "1");
  config.Set("a", "2");
  EXPECT_EQ(config.ToString(), "a=2,z=1");
}

TEST(LinalgTest, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  std::vector<double> a = {4, 2, 2, 3};
  auto x = CholeskySolve(a, 2, {10, 9});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(LinalgTest, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_TRUE(CholeskySolve(a, 2, {1, 1}).status().IsInvalidArgument());
}

TEST(LinalgTest, JacobiEigenOnKnownMatrix) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  std::vector<double> a = {2, 1, 1, 2};
  auto eig = JacobiEigenSymmetric(a, 2);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig->eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(eig->eigenvalues[1], 1.0, 1e-10);
  // First eigenvector proportional to (1,1)/sqrt(2).
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::fabs(eig->eigenvectors[0]), inv_sqrt2, 1e-10);
  EXPECT_NEAR(std::fabs(eig->eigenvectors[1]), inv_sqrt2, 1e-10);
}

TEST(MetricsTest, Accuracy) {
  auto acc = Accuracy({0.9, 0.2, 0.7, 0.1}, {1, 0, 0, 0});
  ASSERT_TRUE(acc.ok());
  EXPECT_DOUBLE_EQ(*acc, 0.75);
}

TEST(MetricsTest, F1PerfectAndDegenerate) {
  EXPECT_DOUBLE_EQ(*F1Score({1, 1, 0}, {1, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(*F1Score({0, 0}, {0, 0}), 0.0);
}

TEST(MetricsTest, LogLossBounds) {
  auto good = LogLoss({0.99, 0.01}, {1, 0});
  auto bad = LogLoss({0.01, 0.99}, {1, 0});
  EXPECT_LT(*good, *bad);
  EXPECT_GT(*good, 0.0);
}

TEST(MetricsTest, RmseAndMae) {
  EXPECT_DOUBLE_EQ(*Rmse({1, 2, 3}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(*Rmse({0, 0}, {3, 4}), std::sqrt(12.5));
  EXPECT_DOUBLE_EQ(*Mae({0, 0}, {3, 4}), 3.5);
}

TEST(MetricsTest, RmsleClampsNegatives) {
  auto result = Rmsle({-5, 0}, {0, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, 0.0);
}

TEST(MetricsTest, R2PerfectIsOne) {
  EXPECT_DOUBLE_EQ(*R2({1, 2, 3}, {1, 2, 3}), 1.0);
  // Predicting the mean gives R2 = 0.
  EXPECT_NEAR(*R2({2, 2, 2}, {1, 2, 3}), 0.0, 1e-12);
}

TEST(MetricsTest, AmsIncreasesWithRecoveredSignal) {
  std::vector<double> truth = {1, 1, 1, 0, 0, 0};
  auto all_found = Ams({1, 1, 1, 0, 0, 0}, truth);
  auto some_found = Ams({1, 0, 0, 0, 0, 0}, truth);
  EXPECT_GT(*all_found, *some_found);
}

TEST(MetricsTest, SizeMismatchRejected) {
  EXPECT_TRUE(Accuracy({1.0}, {1.0, 0.0}).status().IsInvalidArgument());
  EXPECT_TRUE(Rmse({}, {}).status().IsInvalidArgument());
}

TEST(MetricsTest, DispatchKnowsAllMetrics) {
  for (const std::string& metric : KnownMetrics()) {
    EXPECT_TRUE(EvaluateMetric(metric, {1, 0}, {1, 0}).ok()) << metric;
  }
  EXPECT_TRUE(
      EvaluateMetric("nope", {1}, {1}).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hyppo::ml
