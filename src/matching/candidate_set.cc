#include "matching/candidate_set.h"

#include <algorithm>
#include <functional>
#include <sstream>

namespace rlqvo {

void CandidateSet::Set(VertexId u, std::vector<VertexId> candidates) {
  RLQVO_DCHECK_LT(u, sets_.size());
  const bool strictly_ascending =
      std::adjacent_find(candidates.begin(), candidates.end(),
                         std::greater_equal<VertexId>()) == candidates.end();
  if (!strictly_ascending) {
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
  }
  sets_[u] = std::move(candidates);
}

bool CandidateSet::Contains(VertexId u, VertexId v) const {
  RLQVO_DCHECK_LT(u, sets_.size());
  const auto& c = sets_[u];
  return std::binary_search(c.begin(), c.end(), v);
}

size_t CandidateSet::TotalSize() const {
  size_t total = 0;
  for (const auto& c : sets_) total += c.size();
  return total;
}

size_t CandidateSet::AllocatedBytes() const {
  size_t bytes = sets_.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& c : sets_) bytes += c.capacity() * sizeof(VertexId);
  return bytes;
}

bool CandidateSet::AnyEmpty() const {
  for (const auto& c : sets_) {
    if (c.empty()) return true;
  }
  return false;
}

std::string CandidateSet::ToString() const {
  std::ostringstream out;
  for (size_t u = 0; u < sets_.size(); ++u) {
    if (u > 0) out << " ";
    out << "C(" << u << ")=" << sets_[u].size();
  }
  return out.str();
}

}  // namespace rlqvo
