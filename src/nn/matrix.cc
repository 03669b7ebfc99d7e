#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace rlqvo {
namespace nn {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix m(values.size(), 1);
  m.data_ = values;
  return m;
}

Matrix Matrix::Randn(size_t rows, size_t cols, double stddev, Rng* rng) {
  RLQVO_CHECK(rng != nullptr);
  Matrix m(rows, cols);
  for (double& v : m.data_) v = rng->NextGaussian() * stddev;
  return m;
}

void Matrix::AddInPlace(const Matrix& other) {
  RLQVO_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::ScaleInPlace(double s) {
  for (double& v : data_) v *= s;
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Matrix::Sum() const {
  double total = 0.0;
  for (double v : data_) total += v;
  return total;
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream out;
  out << "[";
  for (size_t r = 0; r < rows_; ++r) {
    if (r > 0) out << "; ";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out << " ";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.*f", precision, At(r, c));
      out << buf;
    }
  }
  out << "]";
  return out.str();
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      out.At(j, i) = a.At(i, j);
    }
  }
  return out;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  RLQVO_CHECK(a.SameShape(b));
  Matrix out = a;
  out.AddInPlace(b);
  return out;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  RLQVO_CHECK(a.SameShape(b));
  Matrix out = a;
  for (size_t i = 0; i < out.values().size(); ++i) {
    out.values()[i] -= b.values()[i];
  }
  return out;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  RLQVO_CHECK(a.SameShape(b));
  Matrix out = a;
  for (size_t i = 0; i < out.values().size(); ++i) {
    out.values()[i] *= b.values()[i];
  }
  return out;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix out = a;
  out.ScaleInPlace(s);
  return out;
}

Matrix Slice(const Matrix& a, RowList rows, RowList cols) {
  Matrix out(rows.size(), cols.size());
  double* dst = out.data();
  for (const uint32_t r : rows) {
    RLQVO_CHECK_LT(r, a.rows());
    const double* src = a.data() + r * a.cols();
    for (const uint32_t c : cols) {
      RLQVO_DCHECK_LT(c, a.cols());
      *dst++ = src[c];
    }
  }
  return out;
}

Matrix GatherRows(const Matrix& a, RowList rows) {
  Matrix out(rows.size(), a.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    RLQVO_CHECK_LT(rows[i], a.rows());
    std::copy_n(a.data() + rows[i] * a.cols(), a.cols(),
                out.data() + i * a.cols());
  }
  return out;
}

}  // namespace nn
}  // namespace rlqvo
