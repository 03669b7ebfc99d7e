#include "matching/intersect.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

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

/// The process-global kernel selection. Initialised (once, thread-safe via
/// the function-local static) from RLQVO_INTERSECT_KERNEL; unknown or
/// unsupported values warn on stderr and fall back to kAuto.
///
/// Lock-free protocol: the enum value is the entire state — no other data
/// hangs off a kernel change, every kernel computes byte-identical output,
/// and dispatch re-reads the atomic per intersection. Relaxed loads/stores
/// therefore suffice (SetIntersectKernel racing a running enumeration can
/// at worst serve some intersections with the old kernel, which is
/// indistinguishable from calling Set a moment later). The function-local
/// static gives the env-var read its once-only, data-race-free init
/// (C++11 magic static).
std::atomic<IntersectKernel>& GlobalKernel() {
  static std::atomic<IntersectKernel> kernel{[] {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once during magic-static
    // init, and nothing in the process ever calls setenv/putenv.
    const char* env = std::getenv("RLQVO_INTERSECT_KERNEL");
    if (env == nullptr || *env == '\0') return IntersectKernel::kAuto;
    const Result<IntersectKernel> parsed = IntersectKernelFromName(env);
    if (!parsed.ok()) {
      std::fprintf(stderr,
                   "rlqvo: unknown RLQVO_INTERSECT_KERNEL=%s, using auto\n",
                   env);
      return IntersectKernel::kAuto;
    }
    if (!IntersectKernelSupported(*parsed)) {
      std::fprintf(
          stderr,
          "rlqvo: RLQVO_INTERSECT_KERNEL=%s unsupported here, using auto\n",
          env);
      return IntersectKernel::kAuto;
    }
    return *parsed;
  }()};
  return kernel;
}

/// Every kernel, kAuto first: the order SupportedIntersectKernels reports.
constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kAuto,        IntersectKernel::kScalar,
    IntersectKernel::kScalarMerge, IntersectKernel::kScalarGallop,
    IntersectKernel::kSse,         IntersectKernel::kAvx2};

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

/// SIMD family with the scalar adaptive shape heuristic: gallop past
/// kGallopRatio skew, shuffle merge otherwise.
IntersectPath SimdAdaptivePath(IntersectKernel family,
                               std::span<const VertexId> a,
                               std::span<const VertexId> b,
                               std::vector<VertexId>* out,
                               uint64_t* comparisons) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) {
    out->clear();
    return IntersectPath::kSimdMerge;
  }
  if (b.size() / a.size() >= kGallopRatio) {
    if (family == IntersectKernel::kAvx2) {
      simd::IntersectAvx2Gallop(a, b, out, comparisons);
    } else {
      simd::IntersectSseGallop(a, b, out, comparisons);
    }
    return IntersectPath::kSimdGallop;
  }
  if (family == IntersectKernel::kAvx2) {
    simd::IntersectAvx2Merge(a, b, out, comparisons);
  } else {
    simd::IntersectSseMerge(a, b, out, comparisons);
  }
  return IntersectPath::kSimdMerge;
}

}  // namespace

void IntersectAdaptive(std::span<const VertexId> a, std::span<const VertexId> b,
                       std::vector<VertexId>* out, uint64_t* comparisons) {
  ScalarAdaptivePath(a, b, out, comparisons);
}

bool IntersectKernelSupported(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kAuto:
    case IntersectKernel::kScalar:
    case IntersectKernel::kScalarMerge:
    case IntersectKernel::kScalarGallop:
      return true;
    case IntersectKernel::kSse:
      return simd::CpuHasSse();
    case IntersectKernel::kAvx2:
      return simd::CpuHasAvx2();
  }
  return false;
}

std::vector<IntersectKernel> SupportedIntersectKernels() {
  std::vector<IntersectKernel> kernels;
  for (IntersectKernel k : kAllKernels) {
    if (IntersectKernelSupported(k)) kernels.push_back(k);
  }
  return kernels;
}

Status SetIntersectKernel(IntersectKernel kernel) {
  if (!IntersectKernelSupported(kernel)) {
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

IntersectKernel AutoSimdKernel() {
  if (simd::CpuHasAvx2()) return IntersectKernel::kAvx2;
  if (simd::CpuHasSse()) return IntersectKernel::kSse;
  return IntersectKernel::kScalar;
}

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kAuto: return "auto";
    case IntersectKernel::kScalar: return "scalar";
    case IntersectKernel::kScalarMerge: return "scalar_merge";
    case IntersectKernel::kScalarGallop: return "scalar_gallop";
    case IntersectKernel::kSse: return "sse";
    case IntersectKernel::kAvx2: return "avx2";
  }
  return "unknown";
}

Result<IntersectKernel> IntersectKernelFromName(const std::string& name) {
  for (IntersectKernel k : kAllKernels) {
    if (name == IntersectKernelName(k)) return k;
  }
  return Status::InvalidArgument("unknown intersect kernel name: " + name);
}

IntersectPath IntersectDispatch(std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                std::vector<VertexId>* out,
                                uint64_t* comparisons) {
  IntersectKernel kernel = GetIntersectKernel();
  if (kernel == IntersectKernel::kAuto) kernel = AutoSimdKernel();
  switch (kernel) {
    case IntersectKernel::kAuto:  // resolved above
    case IntersectKernel::kScalar:
      return ScalarAdaptivePath(a, b, out, comparisons);
    case IntersectKernel::kScalarMerge:
      IntersectLinear(a, b, out, comparisons);
      return IntersectPath::kScalarMerge;
    case IntersectKernel::kScalarGallop: {
      const bool a_small = a.size() <= b.size();
      IntersectGalloping(a_small ? a : b, a_small ? b : a, out, comparisons);
      return IntersectPath::kScalarGallop;
    }
    case IntersectKernel::kSse:
    case IntersectKernel::kAvx2:
      return SimdAdaptivePath(kernel, a, b, out, comparisons);
  }
  return ScalarAdaptivePath(a, b, out, comparisons);
}

}  // namespace rlqvo
