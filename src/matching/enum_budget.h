#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "common/check.h"
#include "common/timer.h"

namespace rlqvo {

/// \brief Global per-query enumeration budget, shared by every subtask of
/// one enumeration run.
///
/// A parallel enumeration (Enumerator::RunParallel) splits the search tree
/// into frontier segments that worker loops execute, steal and split
/// concurrently, but `match_limit` and `time_limit_seconds` are *per-query*
/// semantics: the paper caps each query at 1e5 matches and 500 s total
/// (Sec IV-A), not each segment. An EnumBudget is the single object those
/// limits live in:
///
/// - **Match budget.** Every emission first claims its slots via
///   TryClaimMatches(): one slot for a stored embedding, a whole batch for
///   a counted last order position. The claim is a capped atomic add, so
///   the total number of emitted matches across all segments is *exactly*
///   min(available, match_limit) — never match_limit-per-segment, never
///   limit+1 from a race. The serial path uses the same claim, which makes
///   its limit enforcement exact by construction too (and free when
///   match_limit == 0: the unlimited case never touches the atomic).
/// - **Deadline.** One shared Deadline (wall clock) read by every worker
///   loop.
///   Deadline is immutable after construction, so concurrent Expired() calls
///   are safe.
/// - **Stop broadcast.** The first worker loop to exhaust the budget or
///   observe deadline expiry raises `stop`, which the other loops poll at
///   their work-quantum checkpoints so they unwind promptly instead of
///   burning their own quantum rediscovering the deadline.
///
/// `match_limit == 0` means unlimited (the paper's "ALL" setting, Fig 11):
/// TryClaimMatches grants every slot asked for and LimitReached is always
/// false.
///
/// **Memory-order protocol.** Every atomic here uses
/// std::memory_order_relaxed, deliberately: the budget only *counts* and
/// *signals* — it never publishes data. A successful claim entitles the
/// worker loop to append to the embeddings of the segment it is running;
/// the segment's results reach the coordinator through the Completion
/// mutex (see Enumerator::RunParallel), which provides all the
/// happens-before edges the emitted embeddings need.
/// `stop_` is a pure hint — a worker loop that misses a freshly-raised
/// stop merely burns the rest of its current work quantum before
/// re-polling, which affects latency, never correctness (claims, not the
/// stop flag, bound the emission count). Strengthening these to
/// acq_rel would cost fence traffic on the hot emission path and buy
/// nothing; this reasoning is a contract, so any new field that *does*
/// publish data through the budget must either use release/acquire or go
/// through a mutex.
class EnumBudget {
 public:
  /// \param match_limit global emission cap across all subtasks; 0 =
  ///        unlimited.
  /// \param deadline shared wall-clock budget; must outlive the budget.
  EnumBudget(uint64_t match_limit, const Deadline* deadline)
      : limit_(match_limit), deadline_(deadline) {
    RLQVO_DCHECK(deadline != nullptr);
  }

  EnumBudget(const EnumBudget&) = delete;
  EnumBudget& operator=(const EnumBudget&) = delete;

  /// Claims up to `k` >= 1 emission slots and returns how many it granted:
  /// min(k, slots left), or `k` when unlimited. A grant below `k` leaves
  /// the budget exhausted; a claim on an exhausted budget grants 0 and
  /// raises the stop flag. A caller must emit exactly the granted number
  /// of matches.
  uint64_t TryClaimMatches(uint64_t k) {
    RLQVO_DCHECK_GE(k, uint64_t{1});
    if (limit_ == 0) return k;
    // Relaxed CAS loop: the counter is the entire shared state. The CAS's
    // atomicity alone guarantees that the grants sum to at most `limit_`;
    // no other memory is ordered by a claim (emissions go to segment-local
    // blocks, published later via the coordinator's mutex).
    uint64_t current = claimed_.load(std::memory_order_relaxed);
    while (current < limit_) {
      const uint64_t granted = std::min(k, limit_ - current);
      if (claimed_.compare_exchange_weak(current, current + granted,
                                         std::memory_order_relaxed)) {
        return granted;
      }
    }
    RequestStop();
    return 0;
  }

  /// True once the claimed count has reached the (finite) limit.
  bool LimitReached() const {
    return limit_ != 0 &&
           claimed_.load(std::memory_order_relaxed) >= limit_;
  }

  const Deadline& deadline() const { return *deadline_; }

  /// Raised by the first subtask that hits the match limit or observes
  /// deadline expiry; polled by the others at work-quantum checkpoints.
  /// Relaxed on both sides: the flag carries no payload, and a stale read
  /// only delays a loop's unwind by one work quantum (see the class
  /// comment's memory-order protocol).
  void RequestStop() { stop_.store(true, std::memory_order_relaxed); }
  bool StopRequested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// \name Hungry-worker signal (used by the work-stealing scheduler).
  /// Count of this run's workers currently hunting for a segment to steal
  /// (deque drained, none acquired yet). Busy workers poll it at their
  /// split-quantum checkpoints: a nonzero count means a lazily-split
  /// segment would find a taker. Relaxed on both sides, consistent with
  /// the class protocol above — the counter only *counts*; it gates a
  /// heuristic split decision, and a stale read costs at most one missed
  /// or one useless split (the segment itself is handed over through the
  /// scheduler's mutex, which provides the publication edge).
  /// @{
  void AddHungryWorker() { hungry_.fetch_add(1, std::memory_order_relaxed); }
  void RemoveHungryWorker() {
    hungry_.fetch_sub(1, std::memory_order_relaxed);
  }
  bool HasHungryWorkers() const {
    return hungry_.load(std::memory_order_relaxed) > 0;
  }
  /// @}

 private:
  const uint64_t limit_;
  const Deadline* deadline_;
  std::atomic<uint64_t> claimed_{0};
  std::atomic<bool> stop_{false};
  std::atomic<uint32_t> hungry_{0};
};

}  // namespace rlqvo
