// SIMD-blocked GEMM kernel library: the single compute core behind every
// matmul layout (`NN` = A*B, `TN` = A^T*B, `NT` = A*B^T) and the fused
// dense-layer forward (GEMM + bias + activation in one pass).
//
// Design (see docs/performance.md for the full write-up):
//  - one register-tiled micro-kernel (MR x NR accumulator block, k innermost)
//    shared by every layout; layouts differ only in how A is addressed and
//    whether a B panel is packed first,
//  - cache blocking over column panels (NC) so a B panel stays resident
//    while a block's row tiles stream over it, with B-panel packing on the
//    layout where the panel would otherwise be strided (NT),
//  - one 2-D thread-pool rule above a flop threshold: C's tiles split into
//    (row band x column group) blocks, at least two per worker, by halving
//    the longer block side; each task packs what its block reads.
//
// Determinism contract: element C(i, j) is always the pure ascending-k sum
// of its products, accumulated in registers and committed once.  The block
// grid, cache panels, packing, and tile tails never change that order, so results are
// bit-identical for any thread-pool size and any batch height m — a window
// scored alone (m = 1) matches the same row scored inside a training batch.
// The kernels translation unit is compiled with -ffp-contract=off so full
// tiles and tail tiles round identically whether or not the target ISA has
// FMA.  NaN/Inf propagation follows IEEE 754: there is no zero-skip, so a
// zero weight times a NaN/Inf activation stays NaN instead of vanishing.
//
// Building with -DPRODIGY_NO_SIMD=ON compiles the same loops without the
// vectorization pragmas (the portable scalar path); numeric results are
// identical by the argument above.
#pragma once

#include "tensor/matrix.hpp"

#include <cstddef>
#include <span>

namespace prodigy::util {
class ThreadPool;
}

namespace prodigy::tensor::kernels {

/// GEMM operand layout: C = A*B, C = A^T*B, or C = A*B^T.
enum class Layout { NN, TN, NT };

/// Activation fused into the GEMM epilogue (mirror of nn::Activation; kept
/// here so the tensor layer stays below nn in the dependency order).
enum class FusedAct { None, ReLU, Tanh, Sigmoid };

/// Epilogue applied to each output tile while it is still register-hot:
///   v = sum_k(a_ik * b_kj) [+ C(i,j) if accumulate] [+ bias[j]] ; act(v).
struct Epilogue {
  const double* bias = nullptr;  ///< length n; nullptr = no bias
  FusedAct act = FusedAct::None;
  bool accumulate = false;  ///< C += result instead of C = result
};

/// Per-thread packing arena: panel buffers grow once and are reused by every
/// subsequent kernel call on that thread (zero-alloc after warmup).
class Workspace {
 public:
  /// Returns a buffer of at least `doubles` doubles (contents undefined).
  double* pack_a(std::size_t doubles);
  double* pack_b(std::size_t doubles);

  static Workspace& tls();

 private:
  std::vector<double> a_;
  std::vector<double> b_;
};

/// C(m x n) = op(A) * op(B) with the epilogue fused in.  `lda`/`ldb`/`ldc`
/// are row strides of the *physical* (row-major) operands:
///   NN: A is m x k, B is k x n;  TN: A is k x m;  NT: B is n x k.
/// Blocks run on `pool` (nullptr = the global pool) above a flop threshold;
/// results are identical for any pool size, including none.
void gemm(Layout layout, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, const Epilogue& epilogue = {},
          util::ThreadPool* pool = nullptr);

/// Convenience overload on Matrix with shape checking; `c` is resized.
void gemm(Layout layout, const Matrix& a, const Matrix& b, Matrix& c,
          const Epilogue& epilogue = {}, util::ThreadPool* pool = nullptr);

/// Fused dense-layer forward: out = act(x * w + bias), one pass, `out`
/// resized (capacity-reusing, so repeated calls are allocation-free).
/// `x` is (batch x in), `w` is (in x out_features), bias length out_features.
void dense_forward(const Matrix& x, const Matrix& w,
                   std::span<const double> bias, FusedAct act, Matrix& out);

/// Column-wise sums of `a` accumulated into `acc` (length = a.cols()).
/// Row-major ascending accumulation into a full-column temporary is NOT
/// used: each acc[j] receives the complete rows-ascending sum in one add,
/// matching the historical `column_sums` + `+=` order exactly.
void column_sums_accumulate(const Matrix& a, std::span<double> acc);

/// Naive triple-loop reference with identical NaN/zero-skip semantics and
/// ascending-k order; the oracle for the parity property tests and the
/// pre-PR scalar baseline in bench/micro_substrate.
void gemm_naive(Layout layout, std::size_t m, std::size_t n, std::size_t k,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc,
                const Epilogue& epilogue = {});

}  // namespace prodigy::tensor::kernels
