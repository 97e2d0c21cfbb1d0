#include "tensor/matrix.hpp"

#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>

namespace prodigy::tensor {
namespace {

using prodigy::testing::bitwise_equal;

/// A rows x cols matrix of random finite values salted with NaNs (two
/// payloads), infinities, signed zeros and a subnormal.
Matrix random_telemetry(std::size_t rows, std::size_t cols, std::mt19937_64& rng) {
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff8dead0000beefULL}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      std::numeric_limits<double>::denorm_min()};
  std::uniform_real_distribution<double> value(-1e6, 1e6);
  std::uniform_int_distribution<int> pick(0, 9);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    const int p = pick(rng);
    m.data()[i] = p < 6 ? specials[p] : value(rng);
  }
  return m;
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixTest, FillConstructor) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 1.5);
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(MatrixTest, FromRows) {
  const Matrix m = Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  EXPECT_THROW(Matrix::from_rows({{1}, {2, 3}}), std::invalid_argument);
}

TEST(MatrixTest, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_NO_THROW(m.at(1, 1));
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(MatrixTest, RowSpanWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 9.0);
}

TEST(MatrixTest, ColumnExtractAndSet) {
  Matrix m{{1, 2}, {3, 4}};
  const auto col = m.column(1);
  EXPECT_EQ(col, (std::vector<double>{2, 4}));
  const std::vector<double> fresh{7, 8};
  m.set_column(0, fresh);
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 8.0);
  EXPECT_THROW(m.column(5), std::out_of_range);
}

TEST(MatrixTest, SetRowValidatesLength) {
  Matrix m(2, 3);
  const std::vector<double> bad{1, 2};
  EXPECT_THROW(m.set_row(0, bad), std::out_of_range);
}

TEST(MatrixTest, SliceRows) {
  Matrix m{{1, 1}, {2, 2}, {3, 3}, {4, 4}};
  const Matrix mid = m.slice_rows(1, 2);
  EXPECT_EQ(mid.rows(), 2u);
  EXPECT_DOUBLE_EQ(mid(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(mid(1, 0), 3.0);
  EXPECT_THROW(m.slice_rows(3, 2), std::out_of_range);
}

TEST(MatrixTest, SelectRowsReorders) {
  Matrix m{{1, 0}, {2, 0}, {3, 0}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix sel = m.select_rows(idx);
  EXPECT_EQ(sel.rows(), 2u);
  EXPECT_DOUBLE_EQ(sel(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sel(1, 0), 1.0);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(m.select_rows(bad), std::out_of_range);
}

TEST(MatrixTest, SelectColumnsReorders) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix sel = m.select_columns(idx);
  EXPECT_EQ(sel.cols(), 2u);
  EXPECT_DOUBLE_EQ(sel(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sel(1, 1), 4.0);
  const std::vector<std::size_t> bad{3};
  EXPECT_THROW(m.select_columns(bad), std::out_of_range);
}

TEST(MatrixTest, ElementwiseAddSubScale) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{10, 20}, {30, 40}};
  a += b;
  EXPECT_DOUBLE_EQ(a(1, 1), 44.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
}

TEST(MatrixTest, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
}

TEST(MatrixTest, AppendRowsRandomChunkingsEqualOneShot) {
  std::mt19937_64 rng(20231113);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t rows = std::uniform_int_distribution<std::size_t>(0, 300)(rng);
    const std::size_t cols = std::uniform_int_distribution<std::size_t>(1, 49)(rng);
    const Matrix whole = random_telemetry(rows, cols, rng);

    // Chunks of 0..8 rows, so 0-row deltas and one-row appends both occur.
    Matrix grown(0, cols);
    std::size_t first = 0;
    while (first < rows) {
      const std::size_t count = std::min<std::size_t>(
          rows - first, std::uniform_int_distribution<std::size_t>(0, 8)(rng));
      grown.append_rows(whole.slice_rows(first, count));
      first += count;
      ASSERT_EQ(grown.rows(), first);
    }
    grown.append_rows(Matrix(0, cols));
    EXPECT_TRUE(bitwise_equal(grown, whole)) << "trial " << trial;
  }
}

TEST(MatrixTest, AppendRowsColumnMismatchThrowsAndLeavesMatrix) {
  std::mt19937_64 rng(7);
  Matrix m = random_telemetry(3, 4, rng);
  const Matrix before = m;
  EXPECT_THROW(m.append_rows(Matrix(1, 5)), std::invalid_argument);
  EXPECT_THROW(m.append_rows(Matrix(0, 3)), std::invalid_argument);
  EXPECT_THROW(m.append_rows(Matrix()), std::invalid_argument);
  EXPECT_TRUE(bitwise_equal(m, before));
}

TEST(MatrixTest, AppendRowsToItselfDoublesRows) {
  std::mt19937_64 rng(11);
  const Matrix half = random_telemetry(5, 3, rng);
  Matrix m = half;
  m.append_rows(m);
  Matrix expected = half;
  expected.append_rows(half);
  ASSERT_EQ(m.rows(), 10u);
  EXPECT_TRUE(bitwise_equal(m, expected));
  EXPECT_TRUE(bitwise_equal(m.slice_rows(5, 5), half));
}

TEST(MatrixTest, AppendRowsReusesCapacity) {
  // One-row appends must grow geometrically, not reallocate per append: the
  // amortized O(rows appended) contract DsosStore::append_node relies on.
  Matrix m(0, 49);
  const Matrix row(1, 49, 1.0);
  std::size_t reallocations = 0;
  const double* storage = m.data();
  for (int i = 0; i < 2000; ++i) {
    m.append_rows(row);
    if (m.data() != storage) ++reallocations;
    storage = m.data();
  }
  EXPECT_EQ(m.rows(), 2000u);
  EXPECT_LE(reallocations, 40u);
}

TEST(MatrixTest, ShapeString) {
  EXPECT_EQ(Matrix(3, 4).shape_string(), "(3x4)");
}

}  // namespace
}  // namespace prodigy::tensor
