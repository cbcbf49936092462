#ifndef HYPPO_ML_DATASET_H_
#define HYPPO_ML_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mapped_allocator.h"
#include "common/result.h"

namespace hyppo::ml {

/// \brief A dense, column-major numeric table with an optional target
/// column — the `data` artifact kind of the paper (analogous to a
/// DataFrame / NumPy array).
///
/// Values are stored column-major (`values[c * rows + r]`) because the
/// preprocessing operators are column-wise; model code uses row gathers.
class Dataset {
 public:
  Dataset() = default;

  /// Creates a zero-initialized dataset of the given shape.
  Dataset(int64_t rows, int64_t cols);

  /// Creates a dataset with the given column names, zero-initialized.
  static Dataset WithColumns(int64_t rows, std::vector<std::string> names);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }

  double at(int64_t row, int64_t col) const {
    return values_[static_cast<size_t>(col * rows_ + row)];
  }
  double& at(int64_t row, int64_t col) {
    return values_[static_cast<size_t>(col * rows_ + row)];
  }

  /// Pointer to the contiguous storage of one column.
  const double* col_data(int64_t col) const {
    return values_.data() + col * rows_;
  }
  double* col_data(int64_t col) { return values_.data() + col * rows_; }

  /// Copies one row into `out` (size cols()).
  void CopyRow(int64_t row, double* out) const;

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  void set_column_names(std::vector<std::string> names);

  bool has_target() const { return has_target_; }
  const std::vector<double>& target() const { return target_; }
  std::vector<double>& mutable_target() { return target_; }
  void set_target(std::vector<double> target);

  /// In-memory footprint in bytes (matrix + target), used for artifact
  /// sizing by the materializer and the storage model.
  int64_t SizeBytes() const;

  /// Returns a dataset containing the given rows (indices into this one),
  /// preserving column names and slicing the target if present.
  Dataset SelectRows(const std::vector<int64_t>& rows) const;

  /// Returns a dataset containing the given columns; the target is kept.
  Result<Dataset> SelectCols(const std::vector<int64_t>& cols) const;

  /// Appends a column; `data` must have rows() entries.
  Status AddColumn(const std::string& name, const std::vector<double>& data);

  /// Short human-readable description ("Dataset(1000x30, target)").
  std::string DebugString() const;

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  MappedVector<double> values_;  // column-major, rows x cols
  std::vector<std::string> column_names_;
  std::vector<double> target_;
  bool has_target_ = false;
};

using DatasetPtr = std::shared_ptr<const Dataset>;

}  // namespace hyppo::ml

#endif  // HYPPO_ML_DATASET_H_
