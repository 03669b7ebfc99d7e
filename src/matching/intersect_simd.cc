#include "matching/intersect_simd.h"

#include <algorithm>

#include "matching/intersect.h"

#if RLQVO_SIMD_X86
#include <immintrin.h>
#endif

namespace rlqvo {
namespace simd {

#if RLQVO_SIMD_X86

namespace {

/// Two-pointer merge of the remainders, *appending* to out (the SIMD block
/// loops stop within a register width of either end; this finishes the
/// job with scalar-merge counting semantics).
void MergeTailAppend(std::span<const VertexId> a, size_t i,
                     std::span<const VertexId> b, size_t j,
                     std::vector<VertexId>* out, uint64_t* comparisons) {
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

bool DetectAvx2() { return __builtin_cpu_supports("avx2"); }

/// vpermd lane indexes compacting the dwords selected by an 8-bit lane mask
/// to the front of an AVX2 register.
struct Avx2CompactLut {
  alignas(32) uint32_t lanes[256][8];
};
constexpr Avx2CompactLut MakeAvx2CompactLut() {
  Avx2CompactLut lut{};
  for (int mask = 0; mask < 256; ++mask) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((mask >> lane) & 1) lut.lanes[mask][k++] = static_cast<uint32_t>(lane);
    }
    for (; k < 8; ++k) lut.lanes[mask][k] = 0;
  }
  return lut;
}
constexpr Avx2CompactLut kAvx2CompactLut = MakeAvx2CompactLut();

__attribute__((target("avx2"))) void Avx2MergeImpl(
    std::span<const VertexId> a, std::span<const VertexId> b,
    std::vector<VertexId>* out, uint64_t* comparisons) {
  const size_t na = a.size(), nb = b.size();
  out->clear();
  size_t i = 0, j = 0;
  if (na >= 8 && nb >= 8) {
    // Room for full-width compaction stores: at most min(na, nb) matches,
    // plus one register of slack past the write cursor.
    out->resize(std::min(na, nb) + 8);
    VertexId* dst = out->data();
    size_t k = 0;
    uint64_t steps = 0;
    const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    while (i + 8 <= na && j + 8 <= nb) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
      // va against all eight cyclic rotations of vb: every cross pair of
      // the two blocks is compared once; equality is sign-agnostic.
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      __m256i rot = vb;
      for (int r = 1; r < 8; ++r) {
        rot = _mm256_permutevar8x32_epi32(rot, rot1);
        eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rot));
      }
      const unsigned mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      const __m256i perm = _mm256_load_si256(
          reinterpret_cast<const __m256i*>(kAvx2CompactLut.lanes[mask]));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + k),
                          _mm256_permutevar8x32_epi32(va, perm));
      k += static_cast<unsigned>(__builtin_popcount(mask));
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      if (amax <= bmax) i += 8;
      if (bmax <= amax) j += 8;
      ++steps;
    }
    out->resize(k);
    *comparisons += steps * 8;  // ~elements consumed per block step
  }
  MergeTailAppend(a, i, b, j, out, comparisons);
}

__attribute__((target("avx2"))) void Avx2GallopImpl(
    std::span<const VertexId> small, std::span<const VertexId> large,
    std::vector<VertexId>* out, uint64_t* comparisons) {
  out->clear();
  const size_t nl = large.size();
  const __m256i flip = _mm256_set1_epi32(INT32_MIN);
  uint64_t charged = 0;
  size_t pos = 0;
  for (VertexId key : small) {
    if (pos >= nl) break;
    // Scalar doubling probe, exactly as Gallop() in intersect.cc ...
    size_t lo = pos, hi = pos, step = 1;
    while (hi < nl && large[hi] < key) {
      ++charged;
      lo = hi + 1;
      hi += step;
      step *= 2;
    }
    if (hi < nl) ++charged;  // the terminating probe
    hi = std::min(hi, nl);
    // ... but the binary search stops at a register-width window.
    while (hi - lo > 7) {
      const size_t mid = lo + (hi - lo) / 2;
      ++charged;
      if (large[mid] < key) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // One broadcast compare resolves the window: everything below lo is
    // < key and everything at/after hi is >= key, so an 8-lane chunk
    // covering [lo, hi] yields the lower bound (prefix popcount of the
    // unsigned less-than mask) and membership (equality mask) at once.
    // IntersectAvx2Gallop guarantees nl >= 8.
    const size_t base = std::min(lo, nl - 8);
    ++charged;
    const __m256i chunk = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(large.data() + base));
    const __m256i keyv = _mm256_set1_epi32(static_cast<int32_t>(key));
    const __m256i lt = _mm256_cmpgt_epi32(_mm256_xor_si256(keyv, flip),
                                          _mm256_xor_si256(chunk, flip));
    const unsigned lt_mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(lt)));
    const size_t lower = base + __builtin_popcount(lt_mask);
    const unsigned eq_mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(chunk, keyv))));
    if (eq_mask != 0) {
      out->push_back(key);
      pos = lower + 1;
    } else {
      pos = lower;
    }
  }
  *comparisons += charged;
}

}  // namespace

bool CpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

void IntersectAvx2Merge(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId>* out, uint64_t* comparisons) {
  if (!CpuHasAvx2()) {
    IntersectLinear(a, b, out, comparisons);
    return;
  }
  Avx2MergeImpl(a, b, out, comparisons);
}

void IntersectAvx2Gallop(std::span<const VertexId> small,
                         std::span<const VertexId> large,
                         std::vector<VertexId>* out, uint64_t* comparisons) {
  if (!CpuHasAvx2() || large.size() < 8) {
    IntersectGalloping(small, large, out, comparisons);
    return;
  }
  Avx2GallopImpl(small, large, out, comparisons);
}

#else  // !RLQVO_SIMD_X86 — portable build: scalar fallbacks only.

bool CpuHasAvx2() { return false; }

void IntersectAvx2Merge(std::span<const VertexId> a,
                        std::span<const VertexId> b,
                        std::vector<VertexId>* out, uint64_t* comparisons) {
  IntersectLinear(a, b, out, comparisons);
}

void IntersectAvx2Gallop(std::span<const VertexId> small,
                         std::span<const VertexId> large,
                         std::vector<VertexId>* out, uint64_t* comparisons) {
  IntersectGalloping(small, large, out, comparisons);
}

#endif  // RLQVO_SIMD_X86

}  // namespace simd
}  // namespace rlqvo
