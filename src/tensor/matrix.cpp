#include "tensor/matrix.hpp"

#include <algorithm>

namespace prodigy::tensor {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  Matrix result;
  result.rows_ = rows.size();
  result.cols_ = rows.empty() ? 0 : rows.front().size();
  result.data_.reserve(result.rows_ * result.cols_);
  for (const auto& row : rows) {
    if (row.size() != result.cols_) {
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    }
    result.data_.insert(result.data_.end(), row.begin(), row.end());
  }
  return result;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(r) + "," +
                            std::to_string(c) + ") out of " + shape_string());
  }
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  return const_cast<Matrix*>(this)->at(r, c);
}

void Matrix::append_rows(const Matrix& other) {
  if (other.cols_ != cols_) {
    throw std::invalid_argument("Matrix append_rows: shape " + shape_string() +
                                " vs " + other.shape_string());
  }
  // resize + copy_n rather than insert: the source is read after the resize,
  // so appending a matrix to itself copies its original rows correctly.
  const std::size_t held = data_.size();
  const std::size_t added = other.data_.size();
  data_.resize(held + added);
  std::copy_n(other.data_.data(), added, data_.data() + held);
  rows_ += other.rows_;
}

std::vector<double> Matrix::column(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::column out of range");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::set_column(std::size_t c, std::span<const double> values) {
  if (c >= cols_ || values.size() != rows_) {
    throw std::out_of_range("Matrix::set_column shape mismatch");
  }
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

void Matrix::set_row(std::size_t r, std::span<const double> values) {
  if (r >= rows_ || values.size() != cols_) {
    throw std::out_of_range("Matrix::set_row shape mismatch");
  }
  std::copy(values.begin(), values.end(), data_.begin() + r * cols_);
}

Matrix Matrix::slice_rows(std::size_t first, std::size_t count) const {
  if (first + count > rows_) {
    throw std::out_of_range("Matrix::slice_rows out of range");
  }
  Matrix out(count, cols_);
  std::copy(data_.begin() + first * cols_, data_.begin() + (first + count) * cols_,
            out.data_.begin());
  return out;
}

Matrix Matrix::select_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_) throw std::out_of_range("select_rows: bad index");
    out.set_row(i, row(indices[i]));
  }
  return out;
}

Matrix Matrix::select_columns(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t j = 0; j < indices.size(); ++j) {
    if (indices[j] >= cols_) throw std::out_of_range("select_columns: bad index");
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < indices.size(); ++j) {
      out(r, j) = (*this)(r, indices[j]);
    }
  }
  return out;
}

void Matrix::check_shape(const Matrix& other, const char* op) const {
  if (!same_shape(other)) {
    throw std::invalid_argument(std::string("Matrix ") + op + ": shape " +
                                shape_string() + " vs " + other.shape_string());
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  check_shape(other, "+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  check_shape(other, "-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (auto& value : data_) value *= scalar;
  return *this;
}

std::string Matrix::shape_string() const {
  // Built by appending: gcc 12's -Wrestrict misfires on "(" + std::string.
  std::string shape = "(";
  shape += std::to_string(rows_);
  shape += 'x';
  shape += std::to_string(cols_);
  shape += ')';
  return shape;
}

}  // namespace prodigy::tensor
