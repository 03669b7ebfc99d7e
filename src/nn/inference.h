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
/// PolicyNetwork::ForwardInference) write into. Buffers grow to the
/// workload's high-water mark and are then reused: Matrix::Resize never
/// shrinks capacity, so steady-state inference performs zero heap
/// allocations. `buffer_grows()` counts capacity growths, letting benches
/// and tests assert the steady state (the same contract
/// EnumeratorWorkspace::stats().stamp_grows provides for enumeration).
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

  /// Returns scratch slot `slot` shaped (rows, cols) and zero-filled.
  Matrix* Scratch(size_t slot, size_t rows, size_t cols) {
    RLQVO_CHECK_LT(slot, kScratchSlots);
    return Shape(&scratch_[slot], rows, cols);
  }

  /// \name Dedicated buffers of the policy forward pass.
  /// Ping/pong hold successive GNN activations; hidden/scores/log_probs the
  /// MLP head. Exposed so callers can read results without copying.
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

  /// Cumulative number of buffer capacity growths. Constant across calls
  /// once every buffer reached its high-water mark — i.e. steady state is
  /// allocation-free.
  uint64_t buffer_grows() const { return buffer_grows_; }

 private:
  Matrix* Shape(Matrix* m, size_t rows, size_t cols) {
    if (rows * cols > m->values().capacity()) ++buffer_grows_;
    m->Resize(rows, cols);
    return m;
  }

  std::array<Matrix, kScratchSlots> scratch_;
  Matrix ping_;
  Matrix pong_;
  Matrix hidden_;
  Matrix scores_;
  Matrix log_probs_;
  uint64_t buffer_grows_ = 0;
};

/// \name Tape-free kernels.
/// Each computes the same sum in the same order as the corresponding
/// autograd op's forward, so results at every row a caller reads equal the
/// eval-mode autograd forward bit for bit; tests/nn_inference_test.cc
/// asserts exact equality, no tolerance. All write into caller-owned
/// (workspace) matrices and allocate nothing.
///
/// One serving-only shortcut the autograd path cannot take keeps the math
/// smaller than training-grade code: `out_rows` (`rows` for the in-place
/// epilogues). When non-null, only rows with out_rows[i] == true are
/// computed; every kernel leaves the other rows untouched, and callers
/// treat their values as unspecified. The policy forward uses this to
/// evaluate the last GNN layer and the MLP head — matmul, bias and ReLU
/// alike — only on the action space: masked-out scores are never read, and
/// on most ordering steps the action space is a small fraction of V(q).
/// @{

/// out = a @ b, bit-identical to the autograd MatMul (nn/matrix.h): each
/// element is +0.0 plus a(i,k) * b(k,j) for every k with a(i,k) != 0.0 in
/// ascending k, each product rounded before its add (never FMA). Zero
/// coefficients — non-edges of propagation matrices, post-ReLU zeros — are
/// skipped, so inf/NaN in their rhs rows never reach the output; NaN
/// coefficients are not zero and propagate. No data-dependent branch sits
/// in the hot loops: each active row's nonzero coefficients are compacted
/// once (on the stack), then every output tile accumulates in registers
/// over that list (32-column AVX2 tiles when the CPU has AVX2, chosen once
/// per process; a portable loop otherwise). See nn/inference.cc. `out`
/// must already be shaped (a.rows, b.cols) and zeroed (Scratch/Shape do
/// both).
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                const std::vector<bool>* out_rows = nullptr);

/// x += bias broadcast over rows; bias is (1, x.cols). Rows outside `rows`
/// (when non-null) are left untouched.
void AddRowBroadcastInPlace(Matrix* x, const Matrix& bias,
                            const std::vector<bool>* rows = nullptr);

/// x = ReluValue(x) elementwise (nn/autograd.h: NaN propagates), as a
/// branch-free select. Rows outside `rows` (when non-null) are left
/// untouched.
void ReluInPlace(Matrix* x, const std::vector<bool>* rows = nullptr);

/// Masked log-softmax over a column vector; same numerics as the autograd
/// MaskedLogSoftmax forward (masked-out entries get kMaskedLogProb). `out`
/// must be shaped (scores.rows, 1). CHECK-fails on an empty mask.
void MaskedLogSoftmaxInto(const Matrix& scores, const std::vector<bool>& mask,
                          Matrix* out);

/// Row-wise masked softmax (GAT attention); same numerics as the autograd
/// MaskedRowSoftmax forward. `out` must be shaped like `scores` and zeroed.
/// Rows outside `out_rows` (when non-null) are skipped and stay all-zero.
void MaskedRowSoftmaxInto(const Matrix& scores, const Matrix& mask,
                          Matrix* out,
                          const std::vector<bool>* out_rows = nullptr);

/// @}

}  // namespace nn
}  // namespace rlqvo
