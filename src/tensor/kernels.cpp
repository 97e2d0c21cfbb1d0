// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): with contraction allowed, a compiler targeting an
// FMA ISA could fuse `acc += a * b` in one loop body and not in another,
// and the bit-identity between full tiles, tail tiles, and the naive
// oracle — which the streaming-vs-batch equality tests rely on — would
// silently depend on codegen.  Disabling contraction here pins every path
// to mul-then-add rounding.
#include "tensor/kernels.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(PRODIGY_NO_SIMD)
#define PRODIGY_SIMD
#else
#define PRODIGY_SIMD _Pragma("omp simd")
#endif

namespace prodigy::tensor::kernels {

namespace {

// Register-tile shape: MR x NR accumulators live in registers across the
// whole k loop.  NR = 16 doubles spans four AVX2 (two AVX-512) vectors, so
// each loaded B row amortizes its loads over MR = 4 rows of A while the
// 4 x 16 accumulator block still fits the vector register file (8 zmm, or
// 16 of the 32 ymm that AVX-512VL provides; narrower ISAs spill some of the
// block to the stack, which the no-SIMD CI leg keeps honest).
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 16;
// Column-panel width for cache blocking: a k x kNc B panel stays L2
// resident while a block's row tiles stream across it.
constexpr std::size_t kNc = 512;
// k-values an NT pack gathers per pass over a tile's columns: the pass
// writes kPackRun x kNr doubles (4 KB), which stay L1 resident.
constexpr std::size_t kPackRun = 32;
// Flop threshold (m*n*k) above which the 2-D block fan-out is worth the
// thread-pool dispatch.  Matches the historical ops.cpp threshold.
constexpr std::size_t kParallelFlops = std::size_t{1} << 20;

inline double activate(FusedAct act, double v) {
  switch (act) {
    case FusedAct::None:
      return v;
    case FusedAct::ReLU:
      // `v < 0 ? 0 : v` so NaN compares false and propagates, matching
      // nn::apply_activation.
      return v < 0.0 ? 0.0 : v;
    case FusedAct::Tanh:
      return std::tanh(v);
    case FusedAct::Sigmoid:
      return 1.0 / (1.0 + std::exp(-v));
  }
  return v;
}

// Computes acc[ii][jj] = sum over k (ascending) of a(ii, kk) * b(kk, jj)
// for ii < mr, jj < nr, where a(ii, kk) = a[ii*sa_row + kk*sa_col] and
// b(kk, jj) = b[kk*sb + jj] (B rows contiguous in jj, packed or direct).
// No zero-skip: 0 * NaN must stay NaN so corrupted activations propagate.
inline void micro_kernel(std::size_t mr, std::size_t nr, std::size_t k,
                         const double* a, std::size_t sa_row,
                         std::size_t sa_col, const double* b, std::size_t sb,
                         double acc[kMr][kNr]) {
  for (std::size_t ii = 0; ii < kMr; ++ii) {
    PRODIGY_SIMD
    for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] = 0.0;
  }
  if (mr == kMr && nr == kNr) {
    // Full tile: fixed trip counts so the jj loops vectorize and the
    // accumulator block stays in registers.
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* brow = b + kk * sb;
      for (std::size_t ii = 0; ii < kMr; ++ii) {
        const double av = a[ii * sa_row + kk * sa_col];
        PRODIGY_SIMD
        for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
      }
    }
  } else {
    // Tail tile: same loop body (and, with -ffp-contract=off, the same
    // rounding) with runtime bounds.
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double* brow = b + kk * sb;
      for (std::size_t ii = 0; ii < mr; ++ii) {
        const double av = a[ii * sa_row + kk * sa_col];
        PRODIGY_SIMD
        for (std::size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
      }
    }
  }
}

// Commits an accumulator tile to C with the epilogue fused in while the
// tile is register/L1 hot: v = acc (+ C) (+ bias[j]); C = act(v).
template <FusedAct Act>
inline void commit_tile_impl(std::size_t mr, std::size_t nr,
                             const double acc[kMr][kNr], double* c,
                             std::size_t ldc, std::size_t j0,
                             const double* bias, bool accumulate) {
  for (std::size_t ii = 0; ii < mr; ++ii) {
    double* crow = c + ii * ldc + j0;
    if (accumulate) {
      PRODIGY_SIMD
      for (std::size_t jj = 0; jj < nr; ++jj) {
        double v = acc[ii][jj] + crow[jj];
        if (bias != nullptr) v += bias[j0 + jj];
        crow[jj] = activate(Act, v);
      }
    } else {
      PRODIGY_SIMD
      for (std::size_t jj = 0; jj < nr; ++jj) {
        double v = acc[ii][jj];
        if (bias != nullptr) v += bias[j0 + jj];
        crow[jj] = activate(Act, v);
      }
    }
  }
}

inline void commit_tile(std::size_t mr, std::size_t nr,
                        const double acc[kMr][kNr], double* c, std::size_t ldc,
                        std::size_t j0, const Epilogue& ep) {
  switch (ep.act) {
    case FusedAct::None:
      return commit_tile_impl<FusedAct::None>(mr, nr, acc, c, ldc, j0, ep.bias,
                                              ep.accumulate);
    case FusedAct::ReLU:
      return commit_tile_impl<FusedAct::ReLU>(mr, nr, acc, c, ldc, j0, ep.bias,
                                              ep.accumulate);
    case FusedAct::Tanh:
      return commit_tile_impl<FusedAct::Tanh>(mr, nr, acc, c, ldc, j0, ep.bias,
                                              ep.accumulate);
    case FusedAct::Sigmoid:
      return commit_tile_impl<FusedAct::Sigmoid>(mr, nr, acc, c, ldc, j0,
                                                 ep.bias, ep.accumulate);
  }
}

// Single-row fast path (m == 1): the streaming scorer's shape.  The tiled
// kernel's register blocking pays off only when several C rows reuse each
// loaded B row; with one output row a contiguous sweep over B wins.  Per-element
// numerics are unchanged: each C(j) is still the pure ascending-k sum,
// built from zero in a stack chunk (axpy) or a register (dot) and committed
// once through the epilogue, so bits match the tiled path and the oracle —
// including accumulate mode, which must add the finished sum onto C rather
// than accumulate in place.
void gemm_single_row(Layout layout, std::size_t n, std::size_t k,
                     const double* a, std::size_t lda, const double* b,
                     std::size_t ldb, double* c, const Epilogue& ep,
                     util::ThreadPool& tp) {
  constexpr std::size_t kChunk = 256;
  auto run_chunk = [&](std::size_t chunk) {
    const std::size_t j0 = chunk * kChunk;
    const std::size_t j1 = std::min(n, j0 + kChunk);
    const std::size_t w = j1 - j0;
    double buf[kChunk];
    if (layout == Layout::NT) {
      // Row of A against rows of B: contiguous dot products.
      for (std::size_t j = j0; j < j1; ++j) {
        const double* brow = b + j * ldb;
        double acc = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk) acc += a[kk] * brow[kk];
        buf[j - j0] = acc;
      }
    } else {
      const std::size_t sa = layout == Layout::TN ? lda : 1;
      PRODIGY_SIMD
      for (std::size_t jj = 0; jj < w; ++jj) buf[jj] = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double av = a[kk * sa];
        const double* brow = b + kk * ldb + j0;
        PRODIGY_SIMD
        for (std::size_t jj = 0; jj < w; ++jj) buf[jj] += av * brow[jj];
      }
    }
    for (std::size_t jj = 0; jj < w; ++jj) {
      double v = buf[jj];
      if (ep.accumulate) v += c[j0 + jj];
      if (ep.bias != nullptr) v += ep.bias[j0 + jj];
      c[j0 + jj] = activate(ep.act, v);
    }
  };
  const std::size_t chunks = (n + kChunk - 1) / kChunk;
  if (n * k < kParallelFlops || chunks < 2 || tp.size() <= 1) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
  } else {
    util::parallel_for(tp, 0, chunks, run_chunk, 1);
  }
}

}  // namespace

double* Workspace::pack_a(std::size_t doubles) {
  if (a_.size() < doubles) a_.resize(doubles);
  return a_.data();
}

double* Workspace::pack_b(std::size_t doubles) {
  if (b_.size() < doubles) b_.resize(doubles);
  return b_.data();
}

Workspace& Workspace::tls() {
  thread_local Workspace ws;
  return ws;
}

void gemm(Layout layout, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, const Epilogue& epilogue,
          util::ThreadPool* pool) {
  if (m == 0 || n == 0) return;

  util::ThreadPool& pool_ref =
      pool != nullptr ? *pool : util::ThreadPool::global();
  if (m == 1) {
    gemm_single_row(layout, n, k, a, lda, b, ldb, c, epilogue, pool_ref);
    return;
  }

  const std::size_t i_tiles = (m + kMr - 1) / kMr;
  const std::size_t j_tiles = (n + kNr - 1) / kNr;
  const std::size_t panel_tiles = kNc / kNr;

  // NT reads B column-wise, so its panels are always packed (the gather
  // makes every micro-kernel B row contiguous).  NN and TN read B in place:
  // their rows are already contiguous in jj, and for every layer shape this
  // model family uses the whole B operand fits in L2, so a pack pass only
  // adds traffic (measured: ~10-25% slower on the dense-forward shapes).
  // TN instead packs the strided A columns per row tile below.
  const bool pack_b = k > 0 && layout == Layout::NT;

  // One i-tile of C against the j-tiles [t0, t1) of a packed panel (or of B
  // in place when `panel` is null).
  auto run_i_tile = [&](std::size_t it, std::size_t t0, std::size_t t1,
                        const double* panel) {
    const std::size_t i0 = it * kMr;
    const std::size_t mr = std::min(kMr, m - i0);
    const double* aptr;
    std::size_t sa_row, sa_col;
    if (layout == Layout::TN) {
      // A is physically k x m; pack the mr columns [i0, i0+mr) into an
      // interleaved k x kMr panel so the k loop walks contiguously.
      double* pa = Workspace::tls().pack_a(std::max<std::size_t>(1, k) * kMr);
      for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t ii = 0; ii < mr; ++ii) {
          pa[kk * kMr + ii] = a[kk * lda + i0 + ii];
        }
      }
      aptr = pa;
      sa_row = 1;
      sa_col = kMr;
    } else {
      aptr = a + i0 * lda;
      sa_row = lda;
      sa_col = 1;
    }
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t j0 = t * kNr;
      const std::size_t nr = std::min(kNr, n - j0);
      const double* bptr;
      std::size_t sb;
      if (panel != nullptr) {
        bptr = panel + (t - t0) * k * kNr;
        sb = kNr;
      } else {
        bptr = b + j0;
        sb = ldb;
      }
      double acc[kMr][kNr];
      micro_kernel(mr, nr, k, aptr, sa_row, sa_col, bptr, sb, acc);
      commit_tile(mr, nr, acc, c + i0 * ldc, ldc, j0, epilogue);
    }
  };

  // Block grid: C's tiles split into `bands` row bands x `groups` column
  // groups, one pool task per block.  Above the flop threshold the grid
  // grows to at least two blocks per worker (so one late-waking worker does
  // not hold up the whole call), each time halving whichever block side is
  // longer: a block stays as square as the tiles allow and each task
  // streams the least of A and B.  A wide, short C (the decoder's 64 x 2000
  // layers) splits into column groups, a tall one into row bands.
  std::size_t bands = 1, groups = 1;
  if (m * n * k >= kParallelFlops && pool_ref.size() > 1) {
    while (bands * groups < 2 * pool_ref.size()) {
      const std::size_t rows = (i_tiles + bands - 1) / bands * kMr;
      const std::size_t cols = (j_tiles + groups - 1) / groups * kNr;
      if (groups < j_tiles && (cols >= rows || bands == i_tiles)) {
        groups = std::min(j_tiles, groups * 2);
      } else if (bands < i_tiles) {
        bands = std::min(i_tiles, bands * 2);
      } else {
        break;
      }
    }
  }

  // A block walks its column group in cache panels of at most kNc columns;
  // an NT task packs each panel into its own thread's workspace, so packing
  // fans out with the compute.  Every C element is still the one
  // ascending-k sum, computed by exactly one task: any grid and any pool
  // size give identical bits.
  auto run_block = [&](std::size_t block) {
    const std::size_t band = block / groups;
    const std::size_t group = block % groups;
    const std::size_t it0 = band * i_tiles / bands;
    const std::size_t it1 = (band + 1) * i_tiles / bands;
    const std::size_t jt1 = (group + 1) * j_tiles / groups;
    for (std::size_t t0 = group * j_tiles / groups; t0 < jt1; t0 += panel_tiles) {
      const std::size_t t1 = std::min(jt1, t0 + panel_tiles);
      const double* panel = nullptr;
      if (pack_b) {
        double* pb = Workspace::tls().pack_b((t1 - t0) * k * kNr);
        for (std::size_t t = t0; t < t1; ++t) {
          const std::size_t j0 = t * kNr;
          const std::size_t nr = std::min(kNr, n - j0);
          double* dst = pb + (t - t0) * k * kNr;
          // Gather: packed(kk, jj) = B[(j0+jj)][kk], in runs of kPackRun
          // k-values, so one run's strided writes stay in L1 across all nr
          // columns instead of sweeping the whole k x kNr panel per column.
          for (std::size_t k0 = 0; k0 < k; k0 += kPackRun) {
            const std::size_t k1 = std::min(k, k0 + kPackRun);
            for (std::size_t jj = 0; jj < nr; ++jj) {
              const double* bcol = b + (j0 + jj) * ldb;
              for (std::size_t kk = k0; kk < k1; ++kk) dst[kk * kNr + jj] = bcol[kk];
            }
          }
        }
        panel = pb;
      }
      for (std::size_t it = it0; it < it1; ++it) run_i_tile(it, t0, t1, panel);
    }
  };

  const std::size_t blocks = bands * groups;
  if (blocks == 1) {
    run_block(0);
  } else {
    util::parallel_for(pool_ref, 0, blocks, run_block, 1);
  }
}

namespace {

void shapes(Layout layout, const Matrix& a, const Matrix& b, std::size_t& m,
            std::size_t& n, std::size_t& k, const char* op) {
  std::size_t inner_b = b.rows();
  switch (layout) {
    case Layout::NN:
      m = a.rows();
      k = a.cols();
      n = b.cols();
      break;
    case Layout::TN:
      m = a.cols();
      k = a.rows();
      n = b.cols();
      break;
    case Layout::NT:
      m = a.rows();
      k = a.cols();
      n = b.rows();
      inner_b = b.cols();
      break;
  }
  if (k != inner_b) {
    throw std::invalid_argument(std::string(op) + ": inner dimensions differ (" +
                                std::to_string(k) + " vs " +
                                std::to_string(inner_b) + ")");
  }
}

}  // namespace

void gemm(Layout layout, const Matrix& a, const Matrix& b, Matrix& c,
          const Epilogue& epilogue, util::ThreadPool* pool) {
  std::size_t m = 0, n = 0, k = 0;
  shapes(layout, a, b, m, n, k, "kernels::gemm");
  if (epilogue.accumulate) {
    if (c.rows() != m || c.cols() != n) {
      throw std::invalid_argument("kernels::gemm: accumulate shape mismatch");
    }
  } else {
    c.resize_for_overwrite(m, n);
  }
  gemm(layout, m, n, k, a.data(), a.cols(), b.data(), b.cols(), c.data(),
       c.cols(), epilogue, pool);
}

void dense_forward(const Matrix& x, const Matrix& w,
                   std::span<const double> bias, FusedAct act, Matrix& out) {
  if (!bias.empty() && bias.size() != w.cols()) {
    throw std::invalid_argument("kernels::dense_forward: bias length mismatch");
  }
  Epilogue ep;
  ep.bias = bias.empty() ? nullptr : bias.data();
  ep.act = act;
  gemm(Layout::NN, x, w, out, ep);
}

void column_sums_accumulate(const Matrix& a, std::span<double> acc) {
  if (acc.size() != a.cols()) {
    throw std::invalid_argument("column_sums_accumulate: length mismatch");
  }
  // Sums are built rows-ascending in a scratch vector and committed with one
  // add per column, preserving the historical column_sums-then-+= rounding.
  thread_local std::vector<double> sums;
  sums.assign(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.data() + r * a.cols();
    PRODIGY_SIMD
    for (std::size_t c = 0; c < a.cols(); ++c) sums[c] += row[c];
  }
  for (std::size_t c = 0; c < a.cols(); ++c) acc[c] += sums[c];
}

void gemm_naive(Layout layout, std::size_t m, std::size_t n, std::size_t k,
                const double* a, std::size_t lda, const double* b,
                std::size_t ldb, double* c, std::size_t ldc,
                const Epilogue& epilogue) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        double av, bv;
        switch (layout) {
          case Layout::NN:
            av = a[i * lda + kk];
            bv = b[kk * ldb + j];
            break;
          case Layout::TN:
            av = a[kk * lda + i];
            bv = b[kk * ldb + j];
            break;
          case Layout::NT:
            av = a[i * lda + kk];
            bv = b[j * ldb + kk];
            break;
          default:
            av = bv = 0.0;
            break;
        }
        acc += av * bv;
      }
      double v = acc;
      if (epilogue.accumulate) v += c[i * ldc + j];
      if (epilogue.bias != nullptr) v += epilogue.bias[j];
      c[i * ldc + j] = activate(epilogue.act, v);
    }
  }
}

}  // namespace prodigy::tensor::kernels
