// Property tests for the register-tiled GEMM kernel library: every layout,
// epilogue, and shape class is checked bit-for-bit against the naive
// ascending-k oracle, NaN/Inf propagation is pinned for each variant, and
// results are required to be identical across thread-pool sizes and batch
// heights (the guarantee the streaming-vs-batch equality tests build on).
#include "tensor/kernels.hpp"

#include "nn/dense.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace {

using prodigy::tensor::Matrix;
namespace kernels = prodigy::tensor::kernels;
using kernels::Epilogue;
using kernels::FusedAct;
using kernels::Layout;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Matrix random_matrix(std::size_t rows, std::size_t cols, prodigy::util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.gaussian();
  return m;
}

// Physical operand shapes for logical C(m x n) = op(A) * op(B).
void physical_shapes(Layout layout, std::size_t m, std::size_t n, std::size_t k,
                     std::size_t& ar, std::size_t& ac, std::size_t& br,
                     std::size_t& bc) {
  switch (layout) {
    case Layout::NN:
      ar = m, ac = k, br = k, bc = n;
      break;
    case Layout::TN:
      ar = k, ac = m, br = k, bc = n;
      break;
    case Layout::NT:
      ar = m, ac = k, br = n, bc = k;
      break;
  }
}

Matrix run_naive(Layout layout, const Matrix& a, const Matrix& b, std::size_t m,
                 std::size_t n, std::size_t k, const Epilogue& ep = {},
                 const Matrix* c0 = nullptr) {
  Matrix c = c0 != nullptr ? *c0 : Matrix(m, n);
  kernels::gemm_naive(layout, m, n, k, a.data(), a.cols(), b.data(), b.cols(),
                      c.data(), c.cols(), ep);
  return c;
}

struct Shape {
  std::size_t m, n, k;
};

// Full tiles, ragged tails in every dimension, single row/column, empty
// inner dimension, empty output, and shapes large enough to trigger packing
// and (with a pool) banding.
const std::vector<Shape> kShapes = {
    {0, 5, 3},  {5, 0, 3},   {1, 1, 0},    {1, 1, 1},  {1, 7, 3},
    {3, 1, 5},  {4, 8, 16},  {5, 9, 17},   {2, 3, 1},  {1, 64, 256},
    {7, 13, 5}, {32, 24, 8}, {33, 25, 65}, {12, 8, 4}, {48, 70, 31},
};

const std::vector<Layout> kLayouts = {Layout::NN, Layout::TN, Layout::NT};

TEST(KernelParityTest, AllLayoutsMatchNaiveOracleBitExact) {
  prodigy::util::Rng rng(42);
  for (const Layout layout : kLayouts) {
    for (const auto& s : kShapes) {
      std::size_t ar = 0, ac = 0, br = 0, bc = 0;
      physical_shapes(layout, s.m, s.n, s.k, ar, ac, br, bc);
      const Matrix a = random_matrix(ar, ac, rng);
      const Matrix b = random_matrix(br, bc, rng);

      Matrix c;
      kernels::gemm(layout, a, b, c);
      const Matrix expected = run_naive(layout, a, b, s.m, s.n, s.k);

      ASSERT_EQ(c.rows(), s.m);
      ASSERT_EQ(c.cols(), s.n);
      for (std::size_t i = 0; i < c.size(); ++i) {
        // Bit-exact: the kernel promises the same ascending-k sum as the
        // oracle, not merely a small relative error.
        EXPECT_EQ(c.data()[i], expected.data()[i])
            << "layout=" << static_cast<int>(layout) << " m=" << s.m
            << " n=" << s.n << " k=" << s.k << " elem=" << i;
      }
    }
  }
}

TEST(KernelParityTest, AccumulateEpilogueMatchesOracle) {
  prodigy::util::Rng rng(7);
  for (const Layout layout : kLayouts) {
    for (const auto& s : kShapes) {
      std::size_t ar = 0, ac = 0, br = 0, bc = 0;
      physical_shapes(layout, s.m, s.n, s.k, ar, ac, br, bc);
      const Matrix a = random_matrix(ar, ac, rng);
      const Matrix b = random_matrix(br, bc, rng);
      const Matrix c0 = random_matrix(s.m, s.n, rng);

      Epilogue ep;
      ep.accumulate = true;
      Matrix c = c0;
      kernels::gemm(layout, a, b, c, ep);
      const Matrix expected = run_naive(layout, a, b, s.m, s.n, s.k, ep, &c0);

      for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c.data()[i], expected.data()[i]);
      }
    }
  }
}

TEST(KernelParityTest, FusedBiasActivationMatchesOracle) {
  prodigy::util::Rng rng(11);
  const std::vector<FusedAct> acts = {FusedAct::None, FusedAct::ReLU,
                                      FusedAct::Tanh, FusedAct::Sigmoid};
  for (const FusedAct act : acts) {
    for (const auto& s : kShapes) {
      const Matrix x = random_matrix(s.m, s.k, rng);
      const Matrix w = random_matrix(s.k, s.n, rng);
      std::vector<double> bias(s.n);
      for (auto& v : bias) v = rng.gaussian();

      Matrix out;
      kernels::dense_forward(x, w, bias, act, out);

      Epilogue ep;
      ep.bias = bias.data();
      ep.act = act;
      const Matrix expected = run_naive(Layout::NN, x, w, s.m, s.n, s.k, ep);

      ASSERT_EQ(out.rows(), s.m);
      ASSERT_EQ(out.cols(), s.n);
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out.data()[i], expected.data()[i]);
      }
    }
  }
}

TEST(KernelParityTest, OpsEntryPointsMatchNaive) {
  prodigy::util::Rng rng(3);
  const Matrix a = random_matrix(9, 33, rng);
  const Matrix b = random_matrix(33, 21, rng);
  const Matrix c = prodigy::tensor::matmul(a, b);
  const Matrix expected = run_naive(Layout::NN, a, b, 9, 21, 33);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], expected.data()[i]);
  }

  const Matrix at = random_matrix(33, 9, rng);
  const Matrix cta = prodigy::tensor::matmul_transposed_a(at, b);
  const Matrix expected_ta = run_naive(Layout::TN, at, b, 9, 21, 33);
  for (std::size_t i = 0; i < cta.size(); ++i) {
    EXPECT_EQ(cta.data()[i], expected_ta.data()[i]);
  }

  const Matrix bt = random_matrix(21, 33, rng);
  const Matrix ctb = prodigy::tensor::matmul_transposed_b(a, bt);
  const Matrix expected_tb = run_naive(Layout::NT, a, bt, 9, 21, 33);
  for (std::size_t i = 0; i < ctb.size(); ++i) {
    EXPECT_EQ(ctb.data()[i], expected_tb.data()[i]);
  }
}

TEST(KernelParityTest, AccumulateInPlaceMatchesTemporaryPlusAdd) {
  prodigy::util::Rng rng(19);
  const Matrix a = random_matrix(14, 6, rng);   // A^T*B: 6 x 10 result
  const Matrix b = random_matrix(14, 10, rng);
  Matrix grad = random_matrix(6, 10, rng);

  // The historical Dense::backward pattern: temporary + operator+=.
  Matrix expected = grad;
  expected += prodigy::tensor::matmul_transposed_a(a, b);

  prodigy::tensor::matmul_transposed_a_accumulate(a, b, grad);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_EQ(grad.data()[i], expected.data()[i]);
  }
}

TEST(KernelParityTest, TransposeBlockedMatchesNaive) {
  prodigy::util::Rng rng(23);
  for (const auto& dims : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {1, 1}, {1, 9}, {9, 1}, {64, 64}, {65, 63}, {130, 70}}) {
    const Matrix a = random_matrix(dims.first, dims.second, rng);
    const Matrix t = prodigy::tensor::transpose(a);
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t c = 0; c < a.cols(); ++c) {
        EXPECT_EQ(t(c, r), a(r, c));
      }
    }
  }
}

// --- NaN/Inf propagation: no kernel variant may zero-skip. -----------------

TEST(KernelNaNTest, ZeroTimesNaNPropagatesInEveryLayout) {
  for (const Layout layout : kLayouts) {
    const std::size_t m = 5, n = 9, k = 7;
    std::size_t ar = 0, ac = 0, br = 0, bc = 0;
    physical_shapes(layout, m, n, k, ar, ac, br, bc);
    Matrix a(ar, ac, 0.0);  // all-zero A: a zero-skip would erase the NaN
    Matrix b(br, bc, 1.0);
    // Poison one inner-dimension entry of B for every output column.
    switch (layout) {
      case Layout::NN:
      case Layout::TN:
        for (std::size_t j = 0; j < n; ++j) b(k / 2, j) = kNan;
        break;
      case Layout::NT:
        for (std::size_t j = 0; j < n; ++j) b(j, k / 2) = kNan;
        break;
    }
    Matrix c;
    kernels::gemm(layout, a, b, c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_TRUE(std::isnan(c.data()[i]))
          << "layout=" << static_cast<int>(layout) << " elem=" << i;
    }
  }
}

TEST(KernelNaNTest, InfMinusInfYieldsNaNNotSilentZero) {
  // +Inf * 1 + (-Inf) * 1 must follow IEEE (NaN), proving no term is dropped.
  Matrix a(1, 2);
  a(0, 0) = kInf;
  a(0, 1) = kInf;
  Matrix b(2, 1);
  b(0, 0) = 1.0;
  b(1, 0) = -1.0;
  Matrix c;
  kernels::gemm(Layout::NN, a, b, c);
  EXPECT_TRUE(std::isnan(c(0, 0)));
}

TEST(KernelNaNTest, FusedActivationsPassNaNThrough) {
  // A NaN pre-activation must survive every fused activation exactly like
  // nn::apply_activation (ReLU's `v < 0` comparison is false for NaN).
  for (const FusedAct act : {FusedAct::None, FusedAct::ReLU, FusedAct::Tanh,
                             FusedAct::Sigmoid}) {
    Matrix x(2, 3, 0.0);
    x(0, 1) = kNan;
    Matrix w(3, 4, 1.0);
    const std::vector<double> bias(4, 0.5);
    Matrix out;
    kernels::dense_forward(x, w, bias, act, out);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_TRUE(std::isnan(out(0, j))) << "act=" << static_cast<int>(act);
      EXPECT_FALSE(std::isnan(out(1, j)));
    }
  }
}

TEST(KernelNaNTest, NaNBiasAndAccumulatePropagate) {
  Matrix x(1, 2, 1.0);
  Matrix w(2, 3, 1.0);
  std::vector<double> bias = {0.0, kNan, 0.0};
  Matrix out;
  kernels::dense_forward(x, w, bias, FusedAct::ReLU, out);
  EXPECT_FALSE(std::isnan(out(0, 0)));
  EXPECT_TRUE(std::isnan(out(0, 1)));
  EXPECT_FALSE(std::isnan(out(0, 2)));

  Epilogue ep;
  ep.accumulate = true;
  Matrix acc(1, 3, 0.0);
  acc(0, 2) = kNan;
  kernels::gemm(Layout::NN, x, w, acc, ep);
  EXPECT_FALSE(std::isnan(acc(0, 0)));
  EXPECT_TRUE(std::isnan(acc(0, 2)));
}

// --- Determinism across thread-pool sizes and batch heights. ---------------

TEST(KernelDeterminismTest, PoolSizeDoesNotChangeBits) {
  prodigy::util::Rng rng(99);
  // Large enough that m*n*k clears the banding threshold (2^21 > 2^20).
  const std::size_t m = 128, n = 128, k = 128;
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);

  const Matrix reference = run_naive(Layout::NN, a, b, m, n, k);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    prodigy::util::ThreadPool pool(workers);
    Matrix c;
    kernels::gemm(Layout::NN, a, b, c, {}, &pool);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_EQ(c.data()[i], reference.data()[i]) << "workers=" << workers;
    }
  }
}

TEST(KernelDeterminismTest, TrainingShapesMatchNaiveOnEveryPool) {
  // The shipped VAE's training GEMMs (2000 features, 64-wide first/last
  // layers, batch steps of 64 and 26 rows), in every layout: wide and short
  // (m x 2000 with k = 64), tall (2000 x 64 with k = batch) and long-k
  // (64 x 64 with k = 2000).  Each clears the flop threshold, so the 2-D
  // block grid splits it differently on every pool size; with the plain,
  // accumulate and bias+ReLU epilogues each must equal the oracle exactly.
  const std::vector<Shape> shapes = {
      {26, 2000, 64}, {64, 2000, 64}, {2000, 64, 26}, {2000, 64, 64}, {64, 64, 2000}};
  prodigy::util::ThreadPool pool1(1), pool2(2), pool7(7);
  prodigy::util::ThreadPool* const pools[] = {&pool1, &pool2, &pool7};
  prodigy::util::Rng rng(2024);
  for (const Layout layout : kLayouts) {
    for (const auto& s : shapes) {
      std::size_t ar = 0, ac = 0, br = 0, bc = 0;
      physical_shapes(layout, s.m, s.n, s.k, ar, ac, br, bc);
      const Matrix a = random_matrix(ar, ac, rng);
      const Matrix b = random_matrix(br, bc, rng);
      const Matrix c0 = random_matrix(s.m, s.n, rng);
      std::vector<double> bias(s.n);
      for (auto& v : bias) v = rng.gaussian();

      Epilogue plain;
      Epilogue accumulate;
      accumulate.accumulate = true;
      Epilogue bias_relu;
      bias_relu.bias = bias.data();
      bias_relu.act = FusedAct::ReLU;
      for (const Epilogue* ep : {&plain, &accumulate, &bias_relu}) {
        const Matrix expected = run_naive(layout, a, b, s.m, s.n, s.k, *ep, &c0);
        for (prodigy::util::ThreadPool* pool : pools) {
          Matrix c = c0;
          kernels::gemm(layout, s.m, s.n, s.k, a.data(), a.cols(), b.data(),
                        b.cols(), c.data(), c.cols(), *ep, pool);
          for (std::size_t i = 0; i < c.size(); ++i) {
            ASSERT_EQ(c.data()[i], expected.data()[i])
                << "layout=" << static_cast<int>(layout) << " m=" << s.m
                << " n=" << s.n << " k=" << s.k << " workers=" << pool->size()
                << " accumulate=" << ep->accumulate
                << " bias=" << (ep->bias != nullptr) << " elem=" << i;
          }
        }
      }
    }
  }
}

TEST(KernelDeterminismTest, RowScoredAloneMatchesRowInBatch) {
  // The streaming guarantee: a 1 x k GEMM of one row is bit-identical to the
  // same row inside an m x k batch, for every layout-relevant path (packed
  // vs direct B included, since m = 1 skips packing and m = 32 packs).
  prodigy::util::Rng rng(5);
  const std::size_t m = 32, n = 24, k = 67;
  const Matrix batch = random_matrix(m, k, rng);
  const Matrix w = random_matrix(k, n, rng);
  std::vector<double> bias(n);
  for (auto& v : bias) v = rng.gaussian();

  Matrix full;
  kernels::dense_forward(batch, w, bias, FusedAct::Tanh, full);
  for (std::size_t r = 0; r < m; ++r) {
    const Matrix row = batch.slice_rows(r, 1);
    Matrix single;
    kernels::dense_forward(row, w, bias, FusedAct::Tanh, single);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(single(0, j), full(r, j)) << "row=" << r;
    }
  }
}

TEST(KernelDeterminismTest, DenseLayerInferencePathsAgreeBitExact) {
  prodigy::util::Rng rng(1234);
  prodigy::nn::Dense layer(31, 17, prodigy::nn::Activation::Sigmoid, rng);
  const Matrix x = random_matrix(6, 31, rng);

  prodigy::nn::Dense trained = layer;  // copies share weights by value
  const Matrix train_out = trained.forward(x);
  const Matrix infer_out = layer.forward_inference(x);
  Matrix into_out;
  layer.forward_inference_into(x, into_out);

  ASSERT_TRUE(train_out.same_shape(infer_out));
  for (std::size_t i = 0; i < train_out.size(); ++i) {
    EXPECT_EQ(train_out.data()[i], infer_out.data()[i]);
    EXPECT_EQ(train_out.data()[i], into_out.data()[i]);
  }
}

TEST(KernelDeterminismTest, WorkspaceReuseAcrossShapesStaysCorrect) {
  // Shrinking then growing the packed panels must never leave stale data
  // visible: run a large GEMM, then a small one, then the large one again.
  prodigy::util::Rng rng(77);
  const Matrix a = random_matrix(40, 50, rng);
  const Matrix b = random_matrix(50, 60, rng);
  const Matrix expected = run_naive(Layout::NN, a, b, 40, 60, 50);

  Matrix c;
  kernels::gemm(Layout::NN, a, b, c);
  const Matrix a2 = random_matrix(1, 3, rng);
  const Matrix b2 = random_matrix(3, 2, rng);
  Matrix c2;
  kernels::gemm(Layout::NN, a2, b2, c2);
  kernels::gemm(Layout::NN, a, b, c);

  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], expected.data()[i]);
  }
}

}  // namespace
