#include "matching/candidate_set.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "common/failpoint.h"

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

bool CandidateMembership::Stamp(const CandidateSet& cs,
                                uint32_t data_vertices) {
  Bind(cs);
  const uint32_t nq = cs.num_query_vertices();
  const size_t bytes = static_cast<size_t>(nq) * data_vertices;
  if (bytes > kMaxStampBytes) return false;
  if (stamp_.size() < bytes) {
    MemoryCharge charge = MemoryBudget::Global().TryCharge(bytes);
    if (charge.empty() || RLQVO_FAILPOINT_FIRED("workspace.grow")) {
      ++stats_.denied_grows;
      return false;
    }
    charge_ = std::move(charge);  // releases the old footprint's charge
    stamp_.resize(bytes, 0);
    ++stats_.stamp_grows;
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), uint8_t{0});
    epoch_ = 1;
    ++stats_.epoch_resets;
  }
  nv_ = data_vertices;
  stamped_ = true;
  for (VertexId u = 0; u < nq; ++u) {
    uint8_t* row = stamp_.data() + static_cast<size_t>(u) * nv_;
    for (VertexId v : cs.candidates(u)) row[v] = epoch_;
  }
  return true;
}

}  // namespace rlqvo
