#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/graph.h"

namespace rlqvo {

/// \brief Sorted-set intersection primitives for the enumeration core.
///
/// The enumerator computes local candidates by intersecting the
/// label-restricted adjacency slices Graph::NeighborsWithLabel of all mapped
/// backward neighbors. Slice sizes vary wildly (label skew, hub vertices),
/// so one algorithm does not fit all shapes:
///
/// - **Linear merge** walks both inputs once — optimal when the sizes are
///   comparable (the classic two-pointer merge).
/// - **Galloping** advances through the larger input by doubling probes
///   followed by a bounded binary search — O(s·log(L/s)) for sizes s << L,
///   which beats the merge's O(s + L) when the ratio is large.
/// - **Adaptive** picks between them by the size ratio. The crossover
///   kGallopRatio was measured with bench_intersection on this container
///   (see docs/BENCHMARKS.md): gallop wins from roughly 8–16× onward;
///   16 is the conservative middle of that band.
///
/// On top of the scalar primitives sits a runtime-dispatched kernel layer
/// (IntersectDispatch below): SSE/AVX2 shuffle-based merge and SIMD-probe
/// galloping (intersect_simd.h). Every kernel produces the identical
/// ascending output, so enumeration results are bit-identical whatever
/// kernel serves them; only the comparisons *charged* (the work metric) are
/// kernel-specific — each kernel reports the work it actually performed,
/// deterministically for a given input.
///
/// All functions require strictly ascending inputs (CSR slices and
/// candidate lists are), write the ascending intersection to *out
/// (overwritten, not appended), and add the number of element comparisons
/// performed to *comparisons — the work metric surfaced through
/// EnumerateResult and the BENCH_*.json files.
inline constexpr size_t kGallopRatio = 16;

void IntersectLinear(std::span<const VertexId> a, std::span<const VertexId> b,
                     std::vector<VertexId>* out, uint64_t* comparisons);

/// `small` should be the smaller input; each of its elements is located in
/// `large` by galloping from the previous match position. (Results are
/// correct for any argument order; only the cost bound assumes small is
/// smaller.)
void IntersectGalloping(std::span<const VertexId> small,
                        std::span<const VertexId> large,
                        std::vector<VertexId>* out, uint64_t* comparisons);

/// Merge vs gallop by the kGallopRatio size test (argument order free).
void IntersectAdaptive(std::span<const VertexId> a, std::span<const VertexId> b,
                       std::vector<VertexId>* out, uint64_t* comparisons);

/// \name Runtime kernel dispatch.
///
/// One process-global kernel selection serves every enumeration. The
/// default (kAuto) is AutoSimdKernel(): the widest SIMD family this CPU
/// supports (AVX2 > SSE), else the scalar adaptive code — the only family
/// in -DRLQVO_SIMD=OFF builds and on non-x86. Overridable for tests/benches
/// via SetIntersectKernel or the RLQVO_INTERSECT_KERNEL environment
/// variable (read once, at first dispatch): auto | scalar | scalar_merge |
/// scalar_gallop | sse | avx2. Selection is NOT synchronized against
/// concurrently running enumerations: set it before starting work (tests
/// and benches do).
/// @{

enum class IntersectKernel : uint8_t {
  kAuto = 0,      ///< AutoSimdKernel(): best SIMD family, else scalar
  kScalar,        ///< scalar adaptive merge/gallop (the pre-SIMD behavior)
  kScalarMerge,   ///< always the two-pointer merge
  kScalarGallop,  ///< always galloping (smaller side drives)
  kSse,           ///< 4-lane shuffle merge + SIMD-probe gallop (SSSE3)
  kAvx2,          ///< 8-lane shuffle merge + SIMD-probe gallop (AVX2)
};

/// The code path one dispatched intersection actually took (the SIMD hit
/// counter in EnumerateResult is derived from this).
enum class IntersectPath : uint8_t {
  kScalarMerge,
  kScalarGallop,
  kSimdMerge,
  kSimdGallop,
};

/// True iff this build + CPU can execute `kernel`. kAuto/kScalar* are
/// always supported; kSse/kAvx2 require an RLQVO_SIMD build on x86 with
/// the matching CPU feature.
bool IntersectKernelSupported(IntersectKernel kernel);

/// Every supported kernel, kAuto first — what forced-dispatch test suites
/// iterate.
std::vector<IntersectKernel> SupportedIntersectKernels();

/// Selects the process-global kernel; InvalidArgument for kernels this
/// build/CPU cannot execute (the selection is left unchanged).
Status SetIntersectKernel(IntersectKernel kernel);

/// The currently configured kernel (kAuto unless overridden by
/// SetIntersectKernel or RLQVO_INTERSECT_KERNEL).
IntersectKernel GetIntersectKernel();

/// What kAuto resolves to on this machine: kAvx2, kSse or kScalar.
IntersectKernel AutoSimdKernel();

/// Lower-case display name ("avx2", "scalar_merge", ...).
const char* IntersectKernelName(IntersectKernel kernel);

/// Parses a kernel name (the RLQVO_INTERSECT_KERNEL values); Invalid-
/// Argument on unknown names.
Result<IntersectKernel> IntersectKernelFromName(const std::string& name);

/// \brief The enumerator's intersection entry point: routes (a ∩ b) to the
/// globally selected kernel. Output is the ascending intersection
/// regardless of path; the returned IntersectPath tells the caller which
/// family executed (for the per-run SIMD hit counter). Charges kernel-
/// specific, input-deterministic comparison counts to *comparisons.
IntersectPath IntersectDispatch(std::span<const VertexId> a,
                                std::span<const VertexId> b,
                                std::vector<VertexId>* out,
                                uint64_t* comparisons);
/// @}

}  // namespace rlqvo
