// Tape-free inference kernels for the policy network's serving path.
//
// Every kernel computes the same sums in the same order as the forward of
// the corresponding autograd op, so every entry an inference forward
// computes is bit-identical to the eval-mode autograd forward; the
// equivalence tests in tests/nn_inference_test.cc assert exact equality.
// One serving-only cut keeps the math smaller than training-grade code
// (see nn/inference.h): each kernel computes only the rows of its row
// list, which the policy forward derives from what later layers read. No
// kernel allocates: all outputs and intermediates are caller-owned
// InferenceWorkspace buffers, and the matmul's compaction scratch lives on
// the stack. Workspace buffers are never zero-filled, so a kernel writes
// every entry of every row it computes.
//
// The matmul carries the serving cost, and training's: the autograd MatMul
// runs the same row kernel over every row, in its forward and both backward
// products. A per-coefficient zero test would be a data-dependent branch
// that mispredicts on post-ReLU zeros (about half of every activation row),
// so each output row runs two branch-free stages instead:
//
//  1. Compaction. The row's nonzero lhs coefficients, each with a pointer
//     to the rhs row it scales, are written to a stack list in ascending k
//     by unconditional stores and a `count += (a != 0.0)` bump (on AVX2,
//     four at a time through a LUT permute): ±0 drop out, NaN stays.
//  2. Accumulation over the list. On AVX2 CPUs the output columns are cut
//     into register tiles: 32 columns (eight 4-double accumulators), then
//     16-, 8- and 4-column tiles and one lane-masked tile for the last 1-3
//     columns. A tile starts at +0.0, keeps its partial sums in registers
//     for the whole list, adds the bias and applies the ReLU there, and is
//     stored once. The portable path writes +0.0 into the output row, adds
//     each product into it in memory, then adds the bias and applies the
//     ReLU in a last pass over the row.
//
// Either way each output element is +0.0, then every listed coefficient's
// product added in ascending k, then the bias, then the ReLU. Never FMA: a
// fused multiply-add rounds once where this sum rounds the product and
// then the sum, so it would change last bits, and trained weights would
// depend on the CPU. The AVX2 variant is compiled for "avx2" only (FMA is
// a separate target feature), and src/CMakeLists.txt builds this file with
// -ffp-contract=off, so no build flag (e.g. -march=native) lets the
// compiler fuse a multiply and add. The variant is chosen once per process
// by __builtin_cpu_supports("avx2"), as in matching/intersect_simd.cc;
// -DRLQVO_SIMD=OFF builds and targets other than x86-64 compile only the
// portable path.
#include "nn/inference.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ranges>

#include "common/simd.h"
#include "nn/autograd.h"
#include "nn/layers.h"

#if RLQVO_SIMD_X86
#include <immintrin.h>
#endif

namespace rlqvo {
namespace nn {

namespace {

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

/// What happens to each finished sum before it is stored: + bias[j] when
/// `bias` is non-null, then ReluValue when `relu`.
struct Epilogue {
  const double* bias = nullptr;
  bool relu = false;
};

/// The epilogue as passes over a stored row of `cols` entries.
inline void ApplyEpilogue(Epilogue ep, size_t cols, double* row) {
  if (ep.bias != nullptr) {
    const double* __restrict bias = ep.bias;
    double* __restrict out = row;
    for (size_t j = 0; j < cols; ++j) out[j] += bias[j];
  }
  if (ep.relu) {
    for (size_t j = 0; j < cols; ++j) row[j] = ReluValue(row[j]);
  }
}

/// out_row[0, cols) = epilogue(Σ_k a_row[k] * b[k, 0..cols)) over the
/// nonzero a_row[k], in ascending k, overwriting out_row.
using MatMulRowFn = void (*)(const double* a_row, size_t inner,
                             const double* b, size_t cols, Epilogue ep,
                             double* out_row);

void MatMulRowScalar(const double* a_row, size_t inner, const double* b,
                     size_t cols, Epilogue ep, double* out_row) {
  double coefs[kCompactBlock];
  const double* b_rows[kCompactBlock];
  std::fill_n(out_row, cols, 0.0);
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
  ApplyEpilogue(ep, cols, out_row);
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

/// ReluValue on four lanes: x < 0.0 is false for NaN and -0.0 (ordered
/// compare), so ANDNOT keeps them and maps every negative to +0.0.
__attribute__((target("avx2"), always_inline)) inline __m256d Avx2Relu(
    __m256d x) {
  return _mm256_andnot_pd(_mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ),
                          x);
}

/// One register tile of kVecs x 4 columns at offset j: the partial sums
/// start at +0.0 (`first` block) or at the stored ones, stay in kVecs
/// accumulators for the whole compacted list, take the epilogue in
/// registers and are stored once.
template <int kVecs>
__attribute__((target("avx2"), always_inline)) inline void Avx2Tile(
    const double* coefs, const double* const* b_rows, size_t nnz, size_t j,
    bool first, Epilogue ep, double* out) {
  __m256d acc[kVecs];
  for (int v = 0; v < kVecs; ++v) {
    acc[v] = first ? _mm256_setzero_pd() : _mm256_loadu_pd(out + 4 * v);
  }
  for (size_t t = 0; t < nnz; ++t) {
    const __m256d coef = _mm256_broadcast_sd(coefs + t);
    const double* b_row = b_rows[t] + j;
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_pd(
          acc[v], _mm256_mul_pd(coef, _mm256_loadu_pd(b_row + 4 * v)));
    }
  }
  if (ep.bias != nullptr) {
    for (int v = 0; v < kVecs; ++v) {
      acc[v] = _mm256_add_pd(acc[v], _mm256_loadu_pd(ep.bias + j + 4 * v));
    }
  }
  if (ep.relu) {
    for (int v = 0; v < kVecs; ++v) acc[v] = Avx2Relu(acc[v]);
  }
  for (int v = 0; v < kVecs; ++v) _mm256_storeu_pd(out + 4 * v, acc[v]);
}

/// The last 1-3 columns: one tile whose loads and store are lane-masked,
/// so nothing past the row end is read or written.
__attribute__((target("avx2"), always_inline)) inline void Avx2MaskedTile(
    const double* coefs, const double* const* b_rows, size_t nnz, size_t j,
    size_t width, bool first, Epilogue ep, double* out) {
  const __m256i mask =
      _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<int64_t>(width)),
                         _mm256_setr_epi64x(0, 1, 2, 3));
  __m256d acc = first ? _mm256_setzero_pd() : _mm256_maskload_pd(out, mask);
  for (size_t t = 0; t < nnz; ++t) {
    const __m256d coef = _mm256_broadcast_sd(coefs + t);
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(coef, _mm256_maskload_pd(b_rows[t] + j, mask)));
  }
  if (ep.bias != nullptr) {
    acc = _mm256_add_pd(acc, _mm256_maskload_pd(ep.bias + j, mask));
  }
  if (ep.relu) acc = Avx2Relu(acc);
  _mm256_maskstore_pd(out, mask, acc);
}

__attribute__((target("avx2"))) void MatMulRowAvx2(
    const double* a_row, size_t inner, const double* b, size_t cols,
    Epilogue ep, double* out_row) {
  double coefs[kCompactBlock];
  const double* b_rows[kCompactBlock];
  // At least one block, so an empty inner dimension still stores +0.0
  // (plus the epilogue); only the last block applies the epilogue.
  size_t k0 = 0;
  do {
    const size_t k1 = std::min(inner, k0 + kCompactBlock);
    const size_t nnz = Avx2Compact(a_row, k0, k1, b, cols, coefs, b_rows);
    const bool first = k0 == 0;
    const Epilogue block_ep = k1 == inner ? ep : Epilogue{};
    size_t j = 0;
    for (; j + 32 <= cols; j += 32) {
      Avx2Tile<8>(coefs, b_rows, nnz, j, first, block_ep, out_row + j);
    }
    if (j + 16 <= cols) {
      Avx2Tile<4>(coefs, b_rows, nnz, j, first, block_ep, out_row + j);
      j += 16;
    }
    if (j + 8 <= cols) {
      Avx2Tile<2>(coefs, b_rows, nnz, j, first, block_ep, out_row + j);
      j += 8;
    }
    if (j + 4 <= cols) {
      Avx2Tile<1>(coefs, b_rows, nnz, j, first, block_ep, out_row + j);
      j += 4;
    }
    if (j < cols) {
      Avx2MaskedTile(coefs, b_rows, nnz, j, cols - j, first, block_ep,
                     out_row + j);
    }
    k0 = k1;
  } while (k0 < inner);
}

MatMulRowFn MatMulRow() {
  static const MatMulRowFn row =
      __builtin_cpu_supports("avx2") ? &MatMulRowAvx2 : &MatMulRowScalar;
  return row;
}

#else  // portable build

MatMulRowFn MatMulRow() { return &MatMulRowScalar; }

#endif  // RLQVO_SIMD_X86 && defined(__x86_64__)

/// out(i, ·) = epilogue(a(i, ·) @ b) for every i in `rows` by the kernel
/// MatMulRow picks once: the row loop MatMul and MatMulInto share.
template <typename Rows>
void MatMulRows(const Matrix& a, const Matrix& b, const Rows& rows,
                Epilogue ep, Matrix* out) {
  const MatMulRowFn matmul_row = MatMulRow();
  const size_t inner = a.cols();
  const size_t cols = b.cols();
  for (const size_t i : rows) {
    RLQVO_DCHECK_LT(i, a.rows());
    matmul_row(a.data() + i * inner, inner, b.data(), cols, ep,
               out->data() + i * cols);
  }
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  RLQVO_CHECK_EQ(a.cols(), b.rows());
  Matrix out(a.rows(), b.cols());
  MatMulRows(a, b, std::views::iota(size_t{0}, a.rows()), Epilogue{}, &out);
  return out;
}

void MatMulInto(const Matrix& a, const Matrix& b, RowList rows, Matrix* out,
                const Matrix* bias, bool relu) {
  RLQVO_CHECK_EQ(a.cols(), b.rows());
  RLQVO_DCHECK_EQ(out->rows(), a.rows());
  RLQVO_DCHECK_EQ(out->cols(), b.cols());
  Epilogue ep;
  if (bias != nullptr) {
    RLQVO_CHECK_EQ(bias->rows(), 1u);
    RLQVO_CHECK_EQ(bias->cols(), b.cols());
    ep.bias = bias->data();
  }
  ep.relu = relu;
  MatMulRows(a, b, rows, ep, out);
}

void ReluInPlace(Matrix* x, RowList rows) {
  const size_t cols = x->cols();
  for (const uint32_t r : rows) {
    ApplyEpilogue({nullptr, /*relu=*/true}, cols, x->data() + r * cols);
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
                          RowList rows, Matrix* out) {
  RLQVO_CHECK(scores.SameShape(mask));
  RLQVO_DCHECK(out->SameShape(scores));
  for (const uint32_t r : rows) {
    double max_val = -1e300;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) max_val = std::max(max_val, scores.At(r, c));
    }
    double denom = 0.0;
    for (size_t c = 0; c < scores.cols(); ++c) {
      if (mask.At(r, c) != 0.0) denom += std::exp(scores.At(r, c) - max_val);
    }
    // Masked-out entries (a whole row, when the mask row is empty) are
    // +0.0, as in the autograd op's zero-initialised output.
    for (size_t c = 0; c < scores.cols(); ++c) {
      out->At(r, c) = mask.At(r, c) != 0.0
                          ? std::exp(scores.At(r, c) - max_val) / denom
                          : 0.0;
    }
  }
}

// --- Layer forwards -------------------------------------------------------
//
// Scratch-slot usage is local to each call: slots are reshaped on entry and
// dead once the function returns, so layers can be chained freely. A layer
// computes its output at `out_rows` and reads `h` only at `h_rows`, which
// the caller guarantees hold the closed neighbourhood of `out_rows` (see
// GraphLayer::ForwardInference); an intermediate that output rows mix
// across (GAT's h W, LEConv's h W3) is computed at `h_rows`, everything
// else at `out_rows`.

namespace {

/// x(r, ·) += y(r, ·), or -= when `subtract`, for every r in `rows` — the
/// elementwise Add/Sub of the autograd layer forwards.
void CombineRowsInPlace(Matrix* x, const Matrix& y, RowList rows,
                        bool subtract) {
  RLQVO_DCHECK(x->SameShape(y));
  const size_t cols = x->cols();
  for (const uint32_t r : rows) {
    double* __restrict out = x->data() + r * cols;
    const double* __restrict in = y.data() + r * cols;
    if (subtract) {
      for (size_t c = 0; c < cols; ++c) out[c] -= in[c];
    } else {
      for (size_t c = 0; c < cols; ++c) out[c] += in[c];
    }
  }
}

/// The bias and optional ReLU of a layer that sums several products, as
/// passes over its output rows.
void BiasReluInPlace(Matrix* out, const Matrix& bias, bool relu,
                     RowList rows) {
  RLQVO_CHECK_EQ(bias.rows(), 1u);
  RLQVO_CHECK_EQ(bias.cols(), out->cols());
  const size_t cols = out->cols();
  for (const uint32_t r : rows) {
    ApplyEpilogue({bias.data(), relu}, cols, out->data() + r * cols);
  }
}

}  // namespace

void Linear::ForwardInference(const Matrix& x, RowList rows, bool relu,
                              Matrix* out) const {
  MatMulInto(x, weight_.value(), rows, out, &bias_.value(), relu);
}

void GcnConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               RowList, RowList out_rows, bool relu,
                               InferenceWorkspace* ws, Matrix* out) const {
  // H' = (D̃^-1/2 Ã D̃^-1/2 H) W + b. Output row i reads only aggregate row
  // i, which reads the h rows of i's closed neighbourhood.
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.norm_adjacency.value(), h, out_rows, agg);
  linear_.ForwardInference(*agg, out_rows, relu, out);
}

void MlpConv::ForwardInference(const GraphTensors&, const Matrix& h, RowList,
                               RowList out_rows, bool relu,
                               InferenceWorkspace*, Matrix* out) const {
  linear_.ForwardInference(h, out_rows, relu, out);
}

void SageConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                RowList, RowList out_rows, bool relu,
                                InferenceWorkspace* ws, Matrix* out) const {
  // H' = H W_self + (D^-1 A H) W_neigh + b.
  MatMulInto(h, w_self_.value(), out_rows, out);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.mean_adjacency.value(), h, out_rows, agg);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), out_rows, neigh);
  CombineRowsInPlace(out, *neigh, out_rows, /*subtract=*/false);
  BiasReluInPlace(out, bias_.value(), relu, out_rows);
}

void GatConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                               RowList h_rows, RowList out_rows, bool relu,
                               InferenceWorkspace* ws, Matrix* out) const {
  const size_t n = h.rows();
  const size_t d = weight_.cols();
  // Attention output row i mixes the rows of s = h W over i's closed
  // neighbourhood, so s and alpha_dst are computed at h_rows; alpha_src,
  // the logits, the softmax and the mix only at out_rows.
  Matrix* s = ws->Scratch(0, n, d);
  MatMulInto(h, weight_.value(), h_rows, s);
  Matrix* alpha_src = ws->Scratch(1, n, 1);
  Matrix* alpha_dst = ws->Scratch(2, n, 1);
  MatMulInto(*s, att_src_.value(), out_rows, alpha_src);
  MatMulInto(*s, att_dst_.value(), h_rows, alpha_dst);
  // E(i, j) = alpha_src_i + alpha_dst_j, LeakyReLU'd then row-softmaxed
  // over A + I. The autograd path builds E with ones-vector outer products
  // whose entries are exactly alpha_src_i and alpha_dst_j, so summing them
  // directly is bit-identical. The softmax reads E only inside the mask,
  // so only those entries are computed.
  Matrix* e = ws->Scratch(3, n, n);
  for (const uint32_t i : out_rows) {
    for (size_t j = 0; j < n; ++j) {
      if (g.attention_mask.At(i, j) == 0.0) continue;
      const double v = alpha_src->At(i, 0) + alpha_dst->At(j, 0);
      e->At(i, j) = v < 0.0 ? v * 0.2 : v;  // LeakyReLU(0.2)
    }
  }
  // Reuse slot 1 (alpha_src is dead) for the attention matrix.
  Matrix* attention = ws->Scratch(1, n, n);
  MaskedRowSoftmaxInto(*e, g.attention_mask, out_rows, attention);
  // One product plus the bias: the fused epilogue applies.
  MatMulInto(*attention, *s, out_rows, out, &bias_.value(), relu);
}

void GraphNNConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                                   RowList, RowList out_rows, bool relu,
                                   InferenceWorkspace* ws, Matrix* out) const {
  // H' = H W1 + A H W2 + b.
  MatMulInto(h, w_root_.value(), out_rows, out);
  Matrix* agg = ws->Scratch(0, h.rows(), h.cols());
  MatMulInto(g.adjacency.value(), h, out_rows, agg);
  Matrix* neigh = ws->Scratch(1, h.rows(), w_neigh_.cols());
  MatMulInto(*agg, w_neigh_.value(), out_rows, neigh);
  CombineRowsInPlace(out, *neigh, out_rows, /*subtract=*/false);
  BiasReluInPlace(out, bias_.value(), relu, out_rows);
}

void LEConv::ForwardInference(const GraphTensors& g, const Matrix& h,
                              RowList h_rows, RowList out_rows, bool relu,
                              InferenceWorkspace* ws, Matrix* out) const {
  // H' = H W1 + diag(d) H W2 - A H W3 + b.
  MatMulInto(h, w1_.value(), out_rows, out);
  Matrix* hw = ws->Scratch(0, h.rows(), w2_.cols());
  MatMulInto(h, w2_.value(), out_rows, hw);  // diag: row i needs only row i
  Matrix* part = ws->Scratch(1, h.rows(), w2_.cols());
  MatMulInto(g.degree_diag.value(), *hw, out_rows, part);
  CombineRowsInPlace(out, *part, out_rows, /*subtract=*/false);
  Matrix* hw3 = ws->Scratch(2, h.rows(), w3_.cols());
  MatMulInto(h, w3_.value(), h_rows, hw3);  // A mixes neighbourhood rows
  Matrix* part3 = ws->Scratch(3, h.rows(), w3_.cols());
  MatMulInto(g.adjacency.value(), *hw3, out_rows, part3);
  CombineRowsInPlace(out, *part3, out_rows, /*subtract=*/true);
  BiasReluInPlace(out, bias_.value(), relu, out_rows);
}

}  // namespace nn
}  // namespace rlqvo
