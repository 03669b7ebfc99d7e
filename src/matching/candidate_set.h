#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/memory_budget.h"
#include "graph/graph.h"

namespace rlqvo {

/// \brief Complete candidate vertex sets C(u) for all query vertices
/// (Definition II.2): for every data vertex v that participates in any match
/// at query vertex u, v must be in C(u). Lists are kept sorted ascending.
class CandidateSet {
 public:
  CandidateSet() = default;
  explicit CandidateSet(uint32_t num_query_vertices)
      : sets_(num_query_vertices) {}

  uint32_t num_query_vertices() const {
    return static_cast<uint32_t>(sets_.size());
  }

  /// Candidate list for query vertex u, sorted ascending.
  const std::vector<VertexId>& candidates(VertexId u) const {
    RLQVO_DCHECK_LT(u, sets_.size());
    return sets_[u];
  }

  /// Replaces C(u). A strictly ascending list, which every filter emits, is
  /// stored as is after one O(n) check; any other list is sorted and
  /// deduplicated first.
  void Set(VertexId u, std::vector<VertexId> candidates);

  /// O(log |C(u)|) membership test.
  bool Contains(VertexId u, VertexId v) const;

  /// Sum of candidate-list sizes.
  size_t TotalSize() const;

  /// Heap bytes the set holds: every list's capacity, which exceeds its
  /// size for lists grown by push_back, plus the per-vertex list headers.
  /// The engine's candidate cache charges this to the memory budget.
  size_t AllocatedBytes() const;

  /// True iff some query vertex has an empty candidate list (no match can
  /// exist; the enumeration can be skipped entirely).
  bool AnyEmpty() const;

  /// "C(0)=12 C(1)=7 ..." for diagnostics.
  std::string ToString() const;

 private:
  std::vector<std::vector<VertexId>> sets_;
};

/// \brief `v ∈ C(u)` for a bound CandidateSet, by one-byte stamps over an
/// nq × |V(G)| array or by CandidateSet::Contains.
///
/// The refinement filters (GQL, DAG-DP) and EnumeratorWorkspace ask this in
/// their inner loops. An instance is reused across sets of any shape:
/// Stamp() bumps a uint8 epoch, which makes every earlier stamp stale
/// without touching the array (the array is zero-filled once when the epoch
/// wraps, every 255 stamps), and writes only the Σ|C(u)| live cells.
/// Clear() writes 0, which no epoch equals.
///
/// Growing the array is the one allocation that scales with nq·|V(G)|. It
/// charges the whole new footprint to MemoryBudget::Global(), replacing the
/// old footprint's charge. When the footprint exceeds kMaxStampBytes, or
/// the budget or the `workspace.grow` failpoint denies the growth, Stamp()
/// binds without stamping and Test() answers by binary search, with the
/// same answers. Bind() chooses binary search outright.
///
/// Stamps hold the set as Stamp() saw it minus every Clear(); binary search
/// reads the set as it is. A caller that edits the bound set keeps the two
/// equal by Clear()ing each vertex it removes before testing it again.
/// Test() is valid until the bound set is destroyed or the next Stamp() or
/// Bind(). Not thread-safe: one instance per thread.
class CandidateMembership {
 public:
  /// Hard cap on the stamp array; Stamp() never allocates more.
  static constexpr size_t kMaxStampBytes = size_t{1} << 28;  // 256 MiB

  struct Stats {
    uint64_t epoch_resets = 0;  ///< full zero-fills from the epoch wrap
    uint64_t stamp_grows = 0;   ///< stamp-array reallocations
    /// Stamp() calls that bound for binary search because the budget or
    /// the `workspace.grow` failpoint denied the growth.
    uint64_t denied_grows = 0;
  };

  /// Binds `cs` and stamps its current contents, or binds for binary
  /// search (see the class comment). Returns stamped().
  bool Stamp(const CandidateSet& cs, uint32_t data_vertices);

  /// Binds `cs` for binary search; writes and allocates nothing.
  void Bind(const CandidateSet& cs) {
    cs_ = &cs;
    stamped_ = false;
  }

  bool stamped() const { return stamped_; }

  bool Test(VertexId u, VertexId v) const {
    return stamped_ ? stamp_[static_cast<size_t>(u) * nv_ + v] == epoch_
                    : cs_->Contains(u, v);
  }

  void Clear(VertexId u, VertexId v) {
    if (stamped_) stamp_[static_cast<size_t>(u) * nv_ + v] = 0;
  }

  /// Current stamp-array allocation.
  size_t stamp_bytes() const { return stamp_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  const CandidateSet* cs_ = nullptr;
  std::vector<uint8_t> stamp_;  // row-major nq × |V(G)| while stamped
  MemoryCharge charge_;         // the budget's share of stamp_
  size_t nv_ = 0;               // row stride of the current stamping
  uint8_t epoch_ = 0;           // 1..255 once stamped; 0 is never current
  bool stamped_ = false;
  Stats stats_;
};

}  // namespace rlqvo
