// Tape-free inference kernels for the policy network's serving path.
//
// Every kernel computes the same sums in the same order as the forward of
// the corresponding autograd op, so at every row the caller reads an
// inference forward is bit-identical to an eval-mode autograd forward; the
// equivalence tests in tests/nn_inference_test.cc assert exact equality.
// One serving-only shortcut keeps the math smaller than training-grade code
// (see nn/inference.h): optional output-row restriction, used to evaluate
// the network's last layers only on the action space. No kernel allocates:
// all outputs and intermediates are caller-owned InferenceWorkspace
// buffers, and the matmul's compaction scratch lives on the stack.
//
// The matmul carries the serving cost. A per-coefficient zero test would
// be a data-dependent branch that mispredicts on post-ReLU zeros (about
// half of every activation row), so MatMulInto runs two branch-free stages
// per output row instead:
//
//  1. Compaction. The row's nonzero lhs coefficients, each with a pointer
//     to the rhs row it scales, are written to a stack list in ascending k
//     by unconditional stores and a `count += (a != 0.0)` bump (on AVX2,
//     four at a time through a LUT permute). The test is the autograd
//     MatMul's `a == 0.0` skip negated, so ±0 are dropped and NaN is kept.
//  2. Accumulation over the list. On AVX2 CPUs the output columns are cut
//     into register tiles: 32 columns (eight 4-double accumulators), then
//     16-, 8- and 4-column tiles and one lane-masked tile for the last 1-3
//     columns. A tile's partial sums stay in registers for the whole list
//     and are stored once. The portable path adds each product into the
//     output row in memory, as the autograd MatMul does.
//
// Either way each output element is the autograd sum: +0.0 (the zeroed
// output), then every listed coefficient's product added in ascending k.
// Never FMA: a fused multiply-add rounds once where the autograd MatMul
// rounds the product and then the sum, so it would change last bits and
// break the exact equality with the training oracle. The AVX2 variant is
// compiled for "avx2" only (FMA is a separate target feature), and
// src/CMakeLists.txt builds this file and nn/matrix.cc with
// -ffp-contract=off, so no build flag (e.g. -march=native) lets the
// compiler fuse either side's multiply and add. The variant is chosen once
// per process by __builtin_cpu_supports("avx2"), as in
// matching/intersect_simd.cc; -DRLQVO_SIMD=OFF builds and targets other
// than x86-64 compile only the portable path.
#include "nn/inference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/simd.h"
#include "nn/autograd.h"
#include "nn/layers.h"

#if RLQVO_SIMD_X86
#include <immintrin.h>
#endif

namespace rlqvo {
namespace nn {

namespace {

inline bool RowActive(const std::vector<bool>* rows, size_t i) {
  return rows == nullptr || (*rows)[i];
}

/// lhs coefficients compacted per pass: the stack scratch of one output
/// row, left uninitialized because every slot is written before it is read
/// (zeroing it would cost more than the row's arithmetic). The policy's
/// inner dimensions (|V(q)|, feature and hidden widths) fit one pass; a
/// wider row is compacted and accumulated block by block, reloading the
/// stored partial sums, which keeps the same ascending-k sum.
constexpr size_t kCompactBlock = 256;

/// Branch-free compaction of a_row[k, k1)'s nonzero coefficients, appended
/// at position n of (coefs, b_rows) together with the rhs row each one
/// scales; returns the new count.
inline size_t CompactNonzeros(const double* a_row, size_t k, size_t k1,
                              const double* b, size_t cols, size_t n,
                              double* coefs, const double** b_rows) {
  for (; k < k1; ++k) {
    const double v = a_row[k];
    coefs[n] = v;
    b_rows[n] = b + k * cols;
    n += v != 0.0;
  }
  return n;
}

/// out_row[0, cols) = Σ_k a_row[k] * b[k, 0..cols) over the nonzero
/// a_row[k], in ascending k, added into out_row.
using MatMulRowFn = void (*)(const double* a_row, size_t inner,
                             const double* b, size_t cols, double* out_row);

void MatMulRowScalar(const double* a_row, size_t inner, const double* b,
                     size_t cols, double* out_row) {
  double coefs[kCompactBlock];
  const double* b_rows[kCompactBlock];
  for (size_t k0 = 0; k0 < inner; k0 += kCompactBlock) {
    const size_t k1 = std::min(inner, k0 + kCompactBlock);
    const size_t nnz =
        CompactNonzeros(a_row, k0, k1, b, cols, 0, coefs, b_rows);
    for (size_t t = 0; t < nnz; ++t) {
      const double coef = coefs[t];
      // restrict: b and out are always distinct matrices, which lets the
      // compiler vectorize the column loop without alias checks.
      const double* __restrict b_row = b_rows[t];
      double* __restrict out = out_row;
      for (size_t j = 0; j < cols; ++j) out[j] += coef * b_row[j];
    }
  }
}

// The AVX2 compaction packs rhs-row pointers in 64-bit lanes, so the AVX2
// variant is built for x86-64 only; 32-bit x86 uses the portable path.
#if RLQVO_SIMD_X86 && defined(__x86_64__)

/// vpermd lane indexes moving the doubles (dword pairs) selected by a
/// 4-bit lane mask to the front of an AVX2 register, plus the mask's
/// popcount.
struct Avx2CompactLut {
  alignas(32) uint32_t lanes[16][8];
  uint8_t count[16];
};
constexpr Avx2CompactLut MakeAvx2CompactLut() {
  Avx2CompactLut lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if ((mask >> lane) & 1) {
        lut.lanes[mask][2 * k] = static_cast<uint32_t>(2 * lane);
        lut.lanes[mask][2 * k + 1] = static_cast<uint32_t>(2 * lane + 1);
        ++k;
      }
    }
    lut.count[mask] = static_cast<uint8_t>(k);
  }
  return lut;
}
constexpr Avx2CompactLut kAvx2CompactLut = MakeAvx2CompactLut();

/// CompactNonzeros of a_row[k0, k1), four coefficients at a time: a NEQ_UQ
/// compare against zero (true for NaN, false for ±0) selects the lanes,
/// one LUT permute packs the values and another their rhs-row pointers,
/// and the count advances by the mask's popcount. Every store writes four
/// slots at the current count; those past the new count are overwritten
/// later or never read. The last k1 - k0 mod 4 coefficients go through
/// the scalar loop.
__attribute__((target("avx2"), always_inline)) inline size_t Avx2Compact(
    const double* a_row, size_t k0, size_t k1, const double* b, size_t cols,
    double* coefs, const double** b_rows) {
  const int64_t row_bytes = static_cast<int64_t>(cols * sizeof(double));
  __m256i ptrs = _mm256_add_epi64(
      _mm256_set1_epi64x(reinterpret_cast<int64_t>(b + k0 * cols)),
      _mm256_setr_epi64x(0, row_bytes, 2 * row_bytes, 3 * row_bytes));
  const __m256i step = _mm256_set1_epi64x(4 * row_bytes);
  size_t n = 0;
  size_t k = k0;
  for (; k + 4 <= k1; k += 4) {
    const __m256d v = _mm256_loadu_pd(a_row + k);
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ));
    const __m256i perm = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(kAvx2CompactLut.lanes[mask]));
    const __m256i packed_coefs =
        _mm256_permutevar8x32_epi32(_mm256_castpd_si256(v), perm);
    const __m256i packed_rows = _mm256_permutevar8x32_epi32(ptrs, perm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(coefs + n), packed_coefs);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b_rows + n), packed_rows);
    n += kAvx2CompactLut.count[mask];
    ptrs = _mm256_add_epi64(ptrs, step);
  }
  return CompactNonzeros(a_row, k, k1, b, cols, n, coefs, b_rows);
}

/// One register tile of kVecs x 4 columns at offset j: the partial sums
/// stay in kVecs accumulators for the whole compacted list.
template <int kVecs>
__attribute__((target("avx2"), always_inline)) inline void Avx2Tile(
    const double* coefs, const double* const* b_rows, size_t nnz, size_t j,
    double* out) {
  __m256d acc[kVecs];
  for (int v = 0; v < kVecs; ++v) acc[v] = _mm256_loadu_pd(out + 4 * v);
  for (size_t t = 0; t < nnz; ++t) {
    const __m256d coef = _mm256_broadcast_sd(coefs + t);
    const double* b_row = b_rows[t] + j;
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(coef, _mm256_loadu_pd(b_row + 4 * v)));
    }
  }
  for (int v = 0; v < kVecs; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
}

/// The last 1-3 columns: one tile whose loads and store are lane-masked,
/// so nothing past the row end is read or written.
__attribute__((target("avx2"), always_inline)) inline void Avx2MaskedTile(
    const double* coefs, const double* const* b_rows, size_t nnz, size_t j,
    size_t width, double* out) {
  const __m256i mask =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(width)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc = _mm256_maskload_pd(out, mask);
  for (size_t t = 0; t < nnz; ++t) {
    const __m256d coef = _mm256_broadcast_sd(coefs + t);
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(coef, _mm256_maskload_pd(b_rows[t] + j, mask)));
  }
  _mm256_maskstore_pd(out, mask, acc);
}

__attribute__((target("avx2"))) void MatMulRowAvx2(
    const double* a_row, size_t inner, const double* b, size_t cols,
    double* out_row) {
  double coefs[kCompactBlock];
  const double* b_rows[kCompactBlock];
  for (size_t k0 = 0; k0 < inner; k0 += kCompactBlock) {
    const size_t k1 = std::min(inner, k0 + kCompactBlock);
    const size_t nnz = Avx2Compact(a_row, k0, k1, b, cols, coefs, b_rows);
    size_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      Avx2Tile<8>(coefs, b_rows, nnz, j, out_row + j);
    }
    if (j + 16 <= cols) {
      Avx2Tile<4>(coefs, b_rows, nnz, j, out_row + j);
      j += 16;
    }
    if (j + 8 <= cols) {
      Avx2Tile<2>(coefs, b_rows, nnz, j, out_row + j);
      j += 8;
    }
    if (j + 4 <= cols) {
      Avx2Tile<1>(coefs, b_rows, nnz, j, out_row + j);
      j += 4;
    }
    if (j < cols) {
      Avx2MaskedTile(coefs, b_rows, nnz, j, cols - j, out_row + j);
    }
  }
}

MatMulRowFn PickMatMulRow() {
  return __builtin_cpu_supports("avx2") ? &MatMulRowAvx2 : &MatMulRowScalar;
}

#else  // portable build

MatMulRowFn PickMatMulRow() { return &MatMulRowScalar; }

#endif  // RLQVO_SIMD_X86 && defined(__x86_64__)

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const std::vector<bool>* out_rows) {
  RLQVO_CHECK_EQ(a.cols(), b.rows());
  RLQVO_DCHECK_EQ(out->rows(), a.rows());
  RLQVO_DCHECK_EQ(out->cols(), b.cols());
  static const MatMulRowFn matmul_row = PickMatMulRow();
  const size_t inner = a.cols();
  const size_t cols = b.cols();
  for (size_t i = 0; i < a.rows(); ++i) {
    if (!RowActive(out_rows, i)) continue;
    matmul_row(a.data() + i * inner, inner, b.data(), cols,
               out->data() + i * cols);
  }
}

void AddRowBroadcastInPlace(Matrix* x, const Matrix& bias,
                            const std::vector<bool>* rows) {
  RLQVO_CHECK_EQ(bias.rows(), 1u);
  RLQVO_CHECK_EQ(bias.cols(), x->cols());
  const size_t cols = x->cols();
  const double* __restrict b = bias.data();
  for (size_t r = 0; r < x->rows(); ++r) {
    if (!RowActive(rows, r)) continue;
    double* __restrict row = x->data() + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] += b[c];
  }
}

void ReluInPlace(Matrix* x, const std::vector<bool>* rows) {
  const size_t cols = x->cols();
  for (size_t r = 0; r < x->rows(); ++r) {
    if (!RowActive(rows, r)) continue;
    double* row = x->data() + r * cols;
    for (size_t c = 0; c < cols; ++c) row[c] = ReluValue(row[c]);
  }
}

void MaskedLogSoftmaxInto(const Matrix& scores, const std::vector<bool>& mask,
                          Matrix* out) {
  RLQVO_CHECK_EQ(scores.cols(), 1u);
  RLQVO_CHECK_EQ(scores.rows(), mask.size());
  RLQVO_DCHECK_EQ(out->rows(), scores.rows());
  double max_val = -1e300;
  bool any = false;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      max_val = std::max(max_val, scores.At(i, 0));
      any = true;
    }
  }
  RLQVO_CHECK(any) << "MaskedLogSoftmaxInto with empty mask";
  double denom = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) denom += std::exp(scores.At(i, 0) - max_val);
  }
  const double log_denom = std::log(denom) + max_val;
  for (size_t i = 0; i < mask.size(); ++i) {
    out->At(i, 0) = mask[i] ? scores.At(i, 0) - log_denom : kMaskedLogProb;
  }
}

void MaskedRowSoftmaxInto(const Matrix& scores, const Matrix& mask,
                          Matrix* out, const std::vector<bool>* out_rows) {
  RLQVO_CHECK(scores.SameShape(mask));
  RLQVO_DCHECK(out->SameShape(scores));
  for (size_t r = 0; r < scores.rows(); ++r) {
    if (!RowActive(out_rows, r)) continue;
    double max_val = -1e300;
    bool any = false;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        max_val = std::max(max_val, scores.At(r, c));
        any = true;
      }
    }
    if (!any) continue;  // row with no unmasked entries stays all-zero
    double denom = 0.0;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) denom += std::exp(scores.At(r, c) - max_val);
    }
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        out->At(r, c) = std::exp(scores.At(r, c) - max_val) / denom;
      }
    }
  }
}

// --- Layer forwards -------------------------------------------------------
//
// Scratch-slot usage is local to each call: slots are reshaped on entry and
// dead once the function returns, so layers can be chained freely. Every
// row restriction propagates backwards only where sound: an intermediate
// that later rows mix across (e.g. the pre-propagation activations) is
// always computed in full.

void Linear::ForwardInference(const Matrix& x, Matrix* out,
                              const std::vector<bool>* out_rows) const {
  MatMulInto(x, weight_.value(), out, out_rows);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GcnConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               InferenceWorkspace* ws, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  // H' = (D̃^-1/2 Ã D̃^-1/2 H) W + b. Output row i mixes only aggregate row
  // i, so the row restriction applies to the propagation too.
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.norm_adjacency.value(), h, agg, out_rows);
  linear_.ForwardInference(*agg, out, out_rows);
}

void MlpConv::ForwardInference(const GraphTensors&, const Matrix& h,
                               InferenceWorkspace*, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  linear_.ForwardInference(h, out, out_rows);
}

void SageConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                InferenceWorkspace* ws, Matrix* out,
                                const std::vector<bool>* out_rows) const {
  // H' = H W_self + (D^-1 A H) W_neigh + b.
  MatMulInto(h, w_self_.value(), out, out_rows);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.mean_adjacency.value(), h, agg, out_rows);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), neigh, out_rows);
  out->AddInPlace(*neigh);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GatConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               InferenceWorkspace* ws, Matrix* out,
                               const std::vector<bool>* out_rows) const {
  const size_t n = h.rows();
  const size_t d = weight_.cols();
  // Attention output row i mixes every row of s = h W, so s and alpha_dst
  // must be computed in full; only the per-row e/attention/mix work is
  // restricted.
  Matrix* s = ws->Scratch(0, n, d);
  MatMulInto(h, weight_.value(), s);
  Matrix* alpha_src = ws->Scratch(1, n, 1);
  Matrix* alpha_dst = ws->Scratch(2, n, 1);
  MatMulInto(*s, att_src_.value(), alpha_src, out_rows);
  MatMulInto(*s, att_dst_.value(), alpha_dst);
  // E(i, j) = alpha_src_i + alpha_dst_j, LeakyReLU'd then row-softmaxed
  // over A + I. The autograd path builds E with ones-vector outer products
  // whose entries are exactly alpha_src_i and alpha_dst_j, so summing them
  // directly is bit-identical.
  Matrix* e = ws->Scratch(3, n, n);
  for (size_t i = 0; i < n; ++i) {
    if (!RowActive(out_rows, i)) continue;
    for (size_t j = 0; j < n; ++j) {
      const double v = alpha_src->At(i, 0) + alpha_dst->At(j, 0);
      e->At(i, j) = v < 0.0 ? v * 0.2 : v;  // LeakyReLU(0.2)
    }
  }
  // Reuse slot 1 (alpha_src is dead) for the attention matrix; inactive
  // rows are skipped end to end and stay all-zero.
  Matrix* attention = ws->Scratch(1, n, n);
  MaskedRowSoftmaxInto(*e, g.attention_mask, attention, out_rows);
  MatMulInto(*attention, *s, out, out_rows);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void GraphNNConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                   InferenceWorkspace* ws, Matrix* out,
                                   const std::vector<bool>* out_rows) const {
  // H' = H W1 + A H W2 + b.
  MatMulInto(h, w_root_.value(), out, out_rows);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.adjacency.value(), h, agg, out_rows);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), neigh, out_rows);
  out->AddInPlace(*neigh);
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

void LEConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                              InferenceWorkspace* ws, Matrix* out,
                              const std::vector<bool>* out_rows) const {
  // H' = H W1 + diag(d) H W2 - A H W3 + b.
  MatMulInto(h, w1_.value(), out, out_rows);
  Matrix* hw = ws->Scratch(0, h.rows(), w2_.cols());
  MatMulInto(h, w2_.value(), hw, out_rows);  // diag: row i needs only row i
  Matrix* part = ws->Scratch(1, h.rows(), w2_.cols());
  MatMulInto(g.degree_diag.value(), *hw, part, out_rows);
  out->AddInPlace(*part);
  Matrix* hw3 = ws->Scratch(2, h.rows(), w3_.cols());
  MatMulInto(h, w3_.value(), hw3);  // adjacency mixes rows: compute in full
  Matrix* part3 = ws->Scratch(3, h.rows(), w3_.cols());
  MatMulInto(g.adjacency.value(), *hw3, part3, out_rows);
  for (size_t i = 0; i < out->values().size(); ++i) {
    out->values()[i] -= part3->values()[i];
  }
  AddRowBroadcastInPlace(out, bias_.value(), out_rows);
}

}  // namespace nn
}  // namespace rlqvo
