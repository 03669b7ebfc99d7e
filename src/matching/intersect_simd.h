#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "graph/graph.h"

/// \file AVX2 sorted-set intersection kernels, dispatched by intersect.h.
/// Compiled with per-function target attributes (no global -mavx2), so one
/// binary runs on every x86 CPU and takes these kernels only where CPUID
/// reports AVX2. A -DRLQVO_SIMD=OFF build (or a non-x86 target) compiles
/// only the scalar fallbacks: CpuHasAvx2() returns false and the dispatch
/// layer never routes here.
///
/// The kernels implement the same two shapes as the scalar code:
///
/// - **Shuffle merge** (comparable sizes): advance both inputs in 8-lane
///   blocks; compare one block against every cyclic rotation of the other
///   to find all cross matches at once; compact the matched lanes through a
///   permute LUT straight into the output. (Schlegel et al.'s shuffling
///   network — also what katana's block intersections do.)
/// - **SIMD-probe galloping** (skewed sizes): the scalar doubling probe,
///   but the terminating binary search stops at an 8-lane window that one
///   broadcast compare resolves — lower bound *and* membership in two
///   movemasks. Unsigned-safe (sign-bit flip before signed compares), so
///   ids up to UINT32_MAX are handled.
///
/// Both write the identical ascending intersection the scalar code produces
/// (differential-fuzzed in tests/intersect_fuzz_test.cc) and charge a
/// deterministic comparison count: one per lane-block step for the merge,
/// one per probe/search step for the gallop.

namespace rlqvo {
namespace simd {

/// True iff this build carries the AVX2 kernels and the CPU has AVX2.
bool CpuHasAvx2();

/// 8-lane shuffle merge. Falls back to IntersectLinear when !CpuHasAvx2().
void IntersectAvx2Merge(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId>* out, uint64_t* comparisons);

/// 8-lane SIMD-probe gallop; `small` drives. Falls back to
/// IntersectGalloping when !CpuHasAvx2().
void IntersectAvx2Gallop(std::span<const VertexId> small,
                         std::span<const VertexId> large,
                         std::vector<VertexId>* out, uint64_t* comparisons);

}  // namespace simd
}  // namespace rlqvo
