// Row-major dense matrix of doubles.  The single numeric container used by
// the NN library, feature matrices, and baseline models.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace prodigy::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix from_rows(const std::vector<std::vector<double>>& rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }

  std::vector<double>& storage() noexcept { return data_; }
  const std::vector<double>& storage() const noexcept { return data_; }

  /// Reshapes to rows x cols without preserving contents.  Capacity is
  /// reused (never shrunk), so out-parameter kernels that write every
  /// element become allocation-free once a workspace matrix has warmed up.
  void resize_for_overwrite(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Appends `other`'s rows below this matrix's, growing the row-major
  /// storage in place with the vector's geometric capacity, so a run of
  /// appends costs amortized O(rows appended).  Throws
  /// std::invalid_argument on a column mismatch, leaving this unchanged.
  void append_rows(const Matrix& other);

  /// Returns a copy of column `c`.
  std::vector<double> column(std::size_t c) const;
  void set_column(std::size_t c, std::span<const double> values);
  void set_row(std::size_t r, std::span<const double> values);

  /// Returns the sub-matrix containing rows [first, first+count).
  Matrix slice_rows(std::size_t first, std::size_t count) const;

  /// Returns a matrix with only the listed rows, in the given order.
  Matrix select_rows(std::span<const std::size_t> indices) const;

  /// Same, gathered into `out` (reshaped with capacity reuse, so a loop that
  /// gathers one batch per step stops allocating).  `out` must not be this
  /// matrix (throws std::invalid_argument).
  void select_rows_into(std::span<const std::size_t> indices, Matrix& out) const;

  /// Returns a matrix with only the listed columns, in the given order.
  Matrix select_columns(std::span<const std::size_t> indices) const;

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string shape_string() const;

 private:
  void check_shape(const Matrix& other, const char* op) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace prodigy::tensor
