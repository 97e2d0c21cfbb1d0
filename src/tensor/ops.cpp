#include "tensor/ops.hpp"

#include "tensor/kernels.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prodigy::tensor {

namespace {

constexpr std::size_t kBlock = 64;                // cache-block edge (transpose)
constexpr std::size_t kParallelFlops = 1u << 20;  // threshold for threading

}  // namespace

// All three matmul layouts lower onto the shared register-tiled micro-kernel
// in tensor/kernels.cpp.  Accumulation there is the same ascending-k order as
// the historical scalar loops, so results are bit-identical to the previous
// implementation (and to the naive oracle) for every shape and pool size.

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  kernels::gemm(kernels::Layout::NN, a, b, c);
}

Matrix matmul_transposed_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_transposed_b_into(a, b, c);
  return c;
}

void matmul_transposed_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  kernels::gemm(kernels::Layout::NT, a, b, c);
}

Matrix matmul_transposed_a(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_transposed_a_into(a, b, c);
  return c;
}

void matmul_transposed_a_into(const Matrix& a, const Matrix& b, Matrix& c) {
  kernels::gemm(kernels::Layout::TN, a, b, c);
}

void matmul_transposed_a_accumulate(const Matrix& a, const Matrix& b,
                                    Matrix& c) {
  kernels::Epilogue ep;
  ep.accumulate = true;
  kernels::gemm(kernels::Layout::TN, a, b, c, ep);
}

Matrix transpose(const Matrix& a) {
  Matrix out;
  transpose_into(a, out);
  return out;
}

void transpose_into(const Matrix& a, Matrix& out) {
  out.resize_for_overwrite(a.cols(), a.rows());
  const std::size_t rows = a.rows();
  const std::size_t cols = a.cols();
  // Blocked so both the kBlock x kBlock read tile and write tile stay cache
  // resident; row-tile bands go wide when the matrix is large enough.
  auto band = [&](std::size_t rb) {
    const std::size_t r0 = rb * kBlock;
    const std::size_t r1 = std::min(rows, r0 + kBlock);
    for (std::size_t c0 = 0; c0 < cols; c0 += kBlock) {
      const std::size_t c1 = std::min(cols, c0 + kBlock);
      for (std::size_t r = r0; r < r1; ++r) {
        const double* src = a.data() + r * cols;
        for (std::size_t c = c0; c < c1; ++c) out.data()[c * rows + r] = src[c];
      }
    }
  };
  const std::size_t row_tiles = (rows + kBlock - 1) / kBlock;
  if (rows * cols < kParallelFlops || row_tiles < 2) {
    for (std::size_t rb = 0; rb < row_tiles; ++rb) band(rb);
  } else {
    util::parallel_for(0, row_tiles, band, 1);
  }
}

void add_row_vector(Matrix& m, std::span<const double> bias) {
  if (bias.size() != m.cols()) {
    throw std::invalid_argument("add_row_vector: bias length mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

Matrix map(const Matrix& a, const std::function<double(double)>& fn) {
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) out.data()[i] = fn(a.data()[i]);
  return out;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("hadamard_inplace: shape mismatch");
  }
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] *= b.data()[i];
}

std::vector<double> column_sums(const Matrix& a) {
  std::vector<double> sums(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) sums[c] += row[c];
  }
  return sums;
}

std::vector<double> rowwise_mean_abs_error(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("rowwise_mean_abs_error: shape mismatch");
  }
  std::vector<double> errors(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const double* ra = a.data() + r * a.cols();
    const double* rb = b.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) acc += std::abs(ra[c] - rb[c]);
    errors[r] = a.cols() == 0 ? 0.0 : acc / static_cast<double>(a.cols());
  }
  return errors;
}

std::vector<double> rowwise_mean_squared_error(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument("rowwise_mean_squared_error: shape mismatch");
  }
  std::vector<double> errors(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    const double* ra = a.data() + r * a.cols();
    const double* rb = b.data() + r * a.cols();
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double d = ra[c] - rb[c];
      acc += d * d;
    }
    errors[r] = a.cols() == 0 ? 0.0 : acc / static_cast<double>(a.cols());
  }
  return errors;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("squared_distance: length mismatch");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(squared_distance(a, b));
}

Matrix vstack(const Matrix& top, const Matrix& bottom) {
  if (top.empty()) return bottom;
  if (bottom.empty()) return top;
  Matrix out = top;
  out.append_rows(bottom);
  return out;
}

}  // namespace prodigy::tensor
