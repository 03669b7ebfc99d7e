#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "graph/graph.h"

/// \file SSE/AVX2 sorted-set intersection kernels, runtime-dispatched by
/// intersect.h. Compiled with per-function target attributes (no global
/// -mavx2), so one binary carries every kernel and picks at runtime via
/// CPUID. A -DRLQVO_SIMD=OFF build (or a non-x86 target) compiles only the
/// scalar fallbacks: the CpuHas* probes return false and the dispatch layer
/// never routes here.
///
/// Both families implement the same two shapes as the scalar code:
///
/// - **Shuffle merge** (comparable sizes): advance both inputs in register-
///   width blocks; compare one block against every cyclic rotation of the
///   other to find all cross matches at once; compact the matched lanes
///   through a shuffle LUT straight into the output. (Schlegel et al.'s
///   shuffling network — also what katana's block intersections do.)
/// - **SIMD-probe galloping** (skewed sizes): the scalar doubling probe,
///   but the terminating binary search stops at a register-width window
///   that one broadcast compare resolves — lower bound *and* membership in
///   two movemasks. Unsigned-safe (sign-bit flip before signed compares),
///   so ids up to UINT32_MAX are handled.
///
/// Every kernel writes the identical ascending intersection the scalar code
/// produces (differential-fuzzed in tests/intersect_fuzz_test.cc) and
/// charges a deterministic comparison count: one per lane-block step for
/// the merges, one per probe/search step for the gallops.

namespace rlqvo {
namespace simd {

/// True iff this build carries the SSE kernels and the CPU has SSSE3+SSE4.1.
bool CpuHasSse();

/// True iff this build carries the AVX2 kernels and the CPU has AVX2.
bool CpuHasAvx2();

/// 4-lane shuffle merge. Falls back to IntersectLinear when !CpuHasSse().
void IntersectSseMerge(std::span<const VertexId> a, std::span<const VertexId> b,
                       std::vector<VertexId>* out, uint64_t* comparisons);

/// 4-lane SIMD-probe gallop; `small` drives. Falls back to
/// IntersectGalloping when !CpuHasSse().
void IntersectSseGallop(std::span<const VertexId> small,
                        std::span<const VertexId> large,
                        std::vector<VertexId>* out, uint64_t* comparisons);

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
