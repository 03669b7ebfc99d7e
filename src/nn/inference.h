#pragma once

#include <array>
#include <vector>

#include "nn/matrix.h"

namespace rlqvo {
namespace nn {

struct GraphTensors;

/// \brief Grown-once scratch buffers for tape-free policy inference.
///
/// The autograd forward builds a Var node (shared_ptr + value + closure) per
/// op and allocates every intermediate matrix fresh; at serving time none of
/// that is needed — no gradient ever flows. An InferenceWorkspace owns every
/// intermediate the inference kernels (layer ForwardInference methods and
/// PolicyNetwork::ForwardInference) write into, and the row plan that says
/// which rows each one computes. Buffers grow to the workload's high-water
/// mark and are then reused: reshaping never shrinks capacity, so
/// steady-state inference performs zero heap allocations. `buffer_grows()`
/// counts capacity growths, letting benches and tests assert the steady
/// state (the same contract EnumeratorWorkspace::stats().stamp_grows
/// provides for enumeration).
///
/// Buffers are never filled: a reshaped matrix holds whatever an earlier
/// forward left there (std::vector zeroes only a tail that a buffer's size
/// grows back into), so each kernel writes every entry it, or a later
/// kernel, reads.
///
/// A workspace is NOT thread-safe; use one per thread (RLQVOOrdering owns
/// one, and QueryEngine builds one ordering — hence one workspace — per
/// worker).
class InferenceWorkspace {
 public:
  /// Number of generic scratch slots available to layer kernels. Each layer
  /// forward may use slots [0, kScratchSlots); slots are reused across
  /// layers and steps.
  static constexpr size_t kScratchSlots = 4;

  /// Returns scratch slot `slot` shaped (rows, cols); entries unspecified.
  Matrix* Scratch(size_t slot, size_t rows, size_t cols) {
    RLQVO_CHECK_LT(slot, kScratchSlots);
    return Shape(&scratch_[slot], rows, cols);
  }

  /// \name Dedicated buffers of the policy forward pass.
  /// Ping/pong hold successive GNN activations; hidden/scores/log_probs the
  /// MLP head. Shaped like Scratch (entries unspecified until written).
  /// Exposed so callers can read results without copying.
  /// @{
  Matrix* ping(size_t rows, size_t cols) { return Shape(&ping_, rows, cols); }
  Matrix* pong(size_t rows, size_t cols) { return Shape(&pong_, rows, cols); }
  Matrix* hidden(size_t rows, size_t cols) {
    return Shape(&hidden_, rows, cols);
  }
  Matrix* scores(size_t rows) { return Shape(&scores_, rows, 1); }
  Matrix* log_probs(size_t rows) { return Shape(&log_probs_, rows, 1); }
  const Matrix& scores() const { return scores_; }
  const Matrix& log_probs() const { return log_probs_; }
  /// @}

  /// The row plan of PolicyNetwork::ForwardInference: `levels` row lists,
  /// each emptied and with capacity for `max_rows` indexes, so filling them
  /// never allocates. Returns the first list; the rest follow it.
  std::vector<uint32_t>* row_plan(size_t levels, size_t max_rows) {
    if (row_plan_.size() < levels) {
      ++buffer_grows_;
      row_plan_.resize(levels);
    }
    for (size_t l = 0; l < levels; ++l) {
      if (row_plan_[l].capacity() < max_rows) {
        ++buffer_grows_;
        row_plan_[l].reserve(max_rows);
      }
      row_plan_[l].clear();
    }
    return row_plan_.data();
  }

  /// Cumulative number of buffer capacity growths. Constant across calls
  /// once every buffer reached its high-water mark — i.e. steady state is
  /// allocation-free.
  uint64_t buffer_grows() const { return buffer_grows_; }

 private:
  Matrix* Shape(Matrix* m, size_t rows, size_t cols) {
    if (rows * cols > m->values().capacity()) ++buffer_grows_;
    m->ResizeForOverwrite(rows, cols);
    return m;
  }

  std::array<Matrix, kScratchSlots> scratch_;
  Matrix ping_;
  Matrix pong_;
  Matrix hidden_;
  Matrix scores_;
  Matrix log_probs_;
  std::vector<std::vector<uint32_t>> row_plan_;
  uint64_t buffer_grows_ = 0;
};

/// \name Tape-free kernels.
/// Each computes the same sum in the same order as the corresponding
/// autograd op's forward, so every entry a kernel computes equals the
/// eval-mode autograd forward bit for bit; tests/nn_inference_test.cc
/// asserts exact equality, no tolerance. All write into caller-owned
/// (workspace) matrices and allocate nothing.
///
/// One serving-only cut the autograd path cannot take keeps the math
/// smaller than training-grade code: a kernel computes only the rows in
/// its RowList (ascending, each below the matrix's row count) and leaves
/// every other row as it found it; the policy forward's row plan (see
/// PolicyNetwork::ForwardInference) lists exactly the rows a later step
/// reads. A computed row is overwritten entry by entry, never accumulated
/// into, so no output needs zeroing first.
/// @{

/// out(i, ·) = a(i, ·) @ b for every i in `rows`, then, per element and in
/// this order, + bias(0, j) when `bias` is non-null and ReluValue when
/// `relu` — i.e. Relu(AddRowBroadcast(MatMul(a, b), bias)) of the autograd
/// ops, bit for bit: the autograd MatMul runs this kernel. The sum is +0.0
/// plus a(i,k) * b(k,j) for every k with a(i,k) != 0.0 in ascending k, each
/// product rounded before its add (never FMA). Zero coefficients — non-edges
/// of propagation matrices, post-ReLU zeros — are skipped, so inf/NaN (or
/// never-written entries) in their rhs rows never reach the output; NaN
/// coefficients are not zero and propagate. No data-dependent branch sits
/// in the hot loops: each row's nonzero coefficients are compacted once (on
/// the stack), then every output tile accumulates in registers over that
/// list and is stored once, bias and ReLU applied in registers (32-column
/// AVX2 tiles when the CPU has AVX2, chosen once per process; a portable
/// loop doing the same steps otherwise). See nn/inference.cc. `out` must be
/// shaped (a.rows, b.cols), `bias` (1, b.cols).
void MatMulInto(const Matrix& a, const Matrix& b, RowList rows, Matrix* out,
                const Matrix* bias = nullptr, bool relu = false);

/// x(r, ·) = ReluValue(x(r, ·)) for every r in `rows` (nn/autograd.h: NaN
/// propagates), as a branch-free select.
void ReluInPlace(Matrix* x, RowList rows);

/// Masked log-softmax over a column vector; same numerics as the autograd
/// MaskedLogSoftmax forward (masked-out entries get kMaskedLogProb). Reads
/// `scores` at masked-in rows only and writes every row of `out`, which
/// must be shaped (scores.rows, 1). CHECK-fails on an empty mask.
void MaskedLogSoftmaxInto(const Matrix& scores, const std::vector<bool>& mask,
                          Matrix* out);

/// Row-wise masked softmax (GAT attention) of the rows in `rows`; same
/// numerics as the autograd MaskedRowSoftmax forward. Reads `scores` only
/// where mask != 0 and writes every entry of each listed row of `out`
/// (shaped like `scores`): +0.0 where the mask is 0, and on a row with no
/// unmasked entry.
void MaskedRowSoftmaxInto(const Matrix& scores, const Matrix& mask,
                          RowList rows, Matrix* out);

/// @}

}  // namespace nn
}  // namespace rlqvo
