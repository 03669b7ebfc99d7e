#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace rlqvo {
namespace nn {

/// Ascending row indexes of a Matrix: the rows a serving kernel computes
/// (nn/inference.h).
using RowList = std::span<const uint32_t>;

/// \brief Dense row-major matrix of doubles — the numeric value type of the
/// autograd engine.
///
/// Query graphs have at most a few dozen vertices, so all policy-network
/// math fits comfortably in small dense matrices; doubles keep the
/// finite-difference gradient checks in the test suite tight.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }
  static Matrix Ones(size_t rows, size_t cols) {
    return Matrix(rows, cols, 1.0);
  }
  static Matrix Identity(size_t n);
  /// Column vector from values.
  static Matrix ColumnVector(const std::vector<double>& values);
  /// Gaussian entries scaled by `stddev`.
  static Matrix Randn(size_t rows, size_t cols, double stddev, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  double& At(size_t r, size_t c) {
    RLQVO_DCHECK_LT(r, rows_);
    RLQVO_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    RLQVO_DCHECK_LT(r, rows_);
    RLQVO_DCHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::vector<double>& values() { return data_; }
  const std::vector<double>& values() const { return data_; }

  /// Reshapes in place to (rows, cols) without filling: entries within the
  /// old size keep their values, so every entry a caller reads must be
  /// written first (std::vector zeroes only a tail the size grows into).
  /// The backing vector's capacity is never shrunk, so re-shaping to a
  /// size at or below the high-water mark performs no allocation — the
  /// reuse contract the inference workspace (nn/inference.h) is built on.
  void ResizeForOverwrite(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// this += other (shapes must match).
  void AddInPlace(const Matrix& other);
  /// this *= s.
  void ScaleInPlace(double s);
  /// Sets every entry to `v`.
  void Fill(double v);

  /// Sum of all entries.
  double Sum() const;
  /// Largest absolute entry (0 for empty).
  double MaxAbs() const;

  std::string ToString(int precision = 4) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// \name Pure matrix ops (no autograd), the arithmetic of the autograd ops'
/// forwards and backwards. MatMul runs MatMulInto's kernel (nn/inference.cc).
/// @{
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix Transpose(const Matrix& a);
Matrix Add(const Matrix& a, const Matrix& b);
Matrix Sub(const Matrix& a, const Matrix& b);
Matrix Hadamard(const Matrix& a, const Matrix& b);
Matrix Scale(const Matrix& a, double s);
/// out(i, j) = a(rows[i], cols[j]): the rows `rows` and columns `cols` of
/// `a`, copied exactly, in list order.
Matrix Slice(const Matrix& a, RowList rows, RowList cols);
/// out(i, ·) = a(rows[i], ·), copied exactly.
Matrix GatherRows(const Matrix& a, RowList rows);
/// @}

}  // namespace nn
}  // namespace rlqvo
