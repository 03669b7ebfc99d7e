#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
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

}  // namespace rlqvo
