#include "matching/intersect.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "matching/intersect_simd.h"

namespace rlqvo {

void IntersectLinear(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out, uint64_t* comparisons) {
  out->clear();
  size_t i = 0, j = 0;
  uint64_t cmp = 0;
  while (i < a.size() && j < b.size()) {
    ++cmp;
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
  *comparisons += cmp;
}

namespace {

/// First index in large[lo..) whose value is >= key: double the step from lo
/// until overshooting, then binary-search the bracketed window. O(log of the
/// distance advanced), so a full pass over `small` costs O(s·log(L/s)).
size_t Gallop(std::span<const VertexId> large, size_t lo, VertexId key,
              uint64_t* comparisons) {
  size_t step = 1;
  size_t hi = lo;
  uint64_t cmp = 0;
  while (hi < large.size() && large[hi] < key) {
    ++cmp;
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  if (hi < large.size()) ++cmp;  // the terminating probe
  hi = std::min(hi, large.size());
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++cmp;
    if (large[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *comparisons += cmp;
  return lo;
}

}  // namespace

void IntersectGalloping(std::span<const VertexId> small,
                        std::span<const VertexId> large,
                        std::vector<VertexId>* out, uint64_t* comparisons) {
  out->clear();
  size_t pos = 0;
  for (VertexId key : small) {
    pos = Gallop(large, pos, key, comparisons);
    if (pos == large.size()) break;
    ++*comparisons;
    if (large[pos] == key) {
      out->push_back(key);
      ++pos;
    }
  }
}

namespace {

/// The process-global kernel selection, starting at the kernel this build
/// and CPU serve (the function-local static gives it a once-only,
/// data-race-free init).
///
/// Lock-free protocol: the enum value is the entire state — no other data
/// hangs off a kernel change, every kernel computes byte-identical output,
/// and dispatch re-reads the atomic per intersection. Relaxed loads/stores
/// therefore suffice (SetIntersectKernel racing a running enumeration can
/// at worst serve some intersections with the old kernel, which is
/// indistinguishable from calling Set a moment later).
std::atomic<IntersectKernel>& GlobalKernel() {
  static std::atomic<IntersectKernel> kernel{
      simd::CpuHasAvx2() ? IntersectKernel::kAvx2 : IntersectKernel::kScalar};
  return kernel;
}

/// IntersectAdaptive with the executed path reported (merge vs gallop), so
/// dispatch can attribute it.
IntersectPath ScalarAdaptivePath(std::span<const VertexId> a,
                                 std::span<const VertexId> b,
                                 std::vector<VertexId>* out,
                                 uint64_t* comparisons) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) {
    out->clear();
    return IntersectPath::kScalarMerge;
  }
  if (b.size() / a.size() >= kGallopRatio) {
    IntersectGalloping(a, b, out, comparisons);
    return IntersectPath::kScalarGallop;
  }
  IntersectLinear(a, b, out, comparisons);
  return IntersectPath::kScalarMerge;
}

/// The AVX2 kernels with the scalar adaptive shape heuristic: gallop past
/// kGallopRatio skew, shuffle merge otherwise.
IntersectPath Avx2AdaptivePath(std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               std::vector<VertexId>* out,
                               uint64_t* comparisons) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) {
    out->clear();
    return IntersectPath::kSimdMerge;
  }
  if (b.size() / a.size() >= kGallopRatio) {
    simd::IntersectAvx2Gallop(a, b, out, comparisons);
    return IntersectPath::kSimdGallop;
  }
  simd::IntersectAvx2Merge(a, b, out, comparisons);
  return IntersectPath::kSimdMerge;
}

}  // namespace

void IntersectAdaptive(std::span<const VertexId> a, std::span<const VertexId> b,
                       std::vector<VertexId>* out, uint64_t* comparisons) {
  ScalarAdaptivePath(a, b, out, comparisons);
}

std::vector<IntersectKernel> SupportedIntersectKernels() {
  if (simd::CpuHasAvx2()) {
    return {IntersectKernel::kScalar, IntersectKernel::kAvx2};
  }
  return {IntersectKernel::kScalar};
}

Status SetIntersectKernel(IntersectKernel kernel) {
  const bool supported =
      kernel == IntersectKernel::kScalar ||
      (kernel == IntersectKernel::kAvx2 && simd::CpuHasAvx2());
  if (!supported) {
    return Status::InvalidArgument(
        std::string("intersect kernel not supported on this build/CPU: ") +
        IntersectKernelName(kernel));
  }
  GlobalKernel().store(kernel, std::memory_order_relaxed);
  return Status::OK();
}

IntersectKernel GetIntersectKernel() {
  return GlobalKernel().load(std::memory_order_relaxed);
}

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar: return "scalar";
    case IntersectKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

IntersectPath IntersectDispatch(std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                std::vector<VertexId>* out,
                                uint64_t* comparisons) {
  if (GetIntersectKernel() == IntersectKernel::kAvx2) {
    return Avx2AdaptivePath(a, b, out, comparisons);
  }
  return ScalarAdaptivePath(a, b, out, comparisons);
}

}  // namespace rlqvo
