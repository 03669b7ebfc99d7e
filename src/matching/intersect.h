#pragma once

#include <cstdint>
#include <span>
#include <vector>

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
/// On top of the scalar primitives sits the kernel layer
/// (IntersectDispatch below): AVX2 shuffle-based merge and SIMD-probe
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

/// \name Kernel dispatch.
///
/// The kernel is a property of the build and the CPU: AVX2 when the build
/// carries SIMD kernels and simd::CpuHasAvx2(), else the scalar adaptive
/// merge/gallop — the only kernel in -DRLQVO_SIMD=OFF builds and on
/// non-x86. One process-global selection starts at that kernel and serves
/// every enumeration; SetIntersectKernel exists so tests and benches can
/// pin the scalar kernel on an AVX2 host. Selection is NOT synchronized
/// against concurrently running enumerations: set it before starting work
/// (tests and benches do).
/// @{

enum class IntersectKernel : uint8_t {
  kScalar,  ///< scalar adaptive merge/gallop (IntersectAdaptive)
  kAvx2,    ///< 8-lane shuffle merge + SIMD-probe gallop (AVX2)
};

/// The code path one dispatched intersection actually took (the SIMD hit
/// counter in EnumerateResult is derived from this).
enum class IntersectPath : uint8_t {
  kScalarMerge,
  kScalarGallop,
  kSimdMerge,
  kSimdGallop,
};

/// Every kernel this build + CPU can execute, kScalar first: {kScalar,
/// kAvx2} when simd::CpuHasAvx2(), else {kScalar}. What the kernel-
/// invariance tests iterate.
std::vector<IntersectKernel> SupportedIntersectKernels();

/// Selects the process-global kernel; InvalidArgument for kernels this
/// build/CPU cannot execute (the selection is left unchanged).
Status SetIntersectKernel(IntersectKernel kernel);

/// The currently selected kernel: the CPU's kernel unless a
/// SetIntersectKernel call changed it.
IntersectKernel GetIntersectKernel();

/// Lower-case display name ("scalar", "avx2").
const char* IntersectKernelName(IntersectKernel kernel);

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
