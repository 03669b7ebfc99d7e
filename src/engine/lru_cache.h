#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace rlqvo {

/// \brief Thread-safe LRU cache with single-flight computation: concurrent
/// misses on the same key run the compute function once — the first caller
/// (leader) computes while the rest (followers) wait for its result. The
/// engine instantiates it twice: CandidateCache (filtered candidate sets)
/// and OrderCache (matching orders of deterministic orderings).
///
/// `Value` must be a cheap-to-copy handle such as std::shared_ptr<const T>:
/// values are copied out under the lock, and a cached entry can then be
/// evicted while readers still hold (and use) it.
///
/// One mutex guards the LRU list, the index, the counters and the in-flight
/// table, so a single critical section decides each lookup — a hit, joining
/// the running flight, or leading a new one — and counts it. That count is
/// final: hits + misses == lookups, and hits counts exactly the lookups
/// served from the cache. A leader's miss takes the lock twice (look up and
/// register, then insert and publish); `compute()`, the `cache.put`
/// failpoint and the memory-budget charge all run with no lock held.
template <typename Key, typename Value>
class SingleFlightCache {
 public:
  /// \name Hit/miss/eviction counters and current size.
  /// @{
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Lookups that consulted the cache (bypassed calls are not counted).
    /// Invariant: hits + misses == lookups. Chaos tests assert this balance
    /// under every injected fault.
    uint64_t lookups = 0;
    uint64_t evictions = 0;
    /// Inserts skipped because the memory budget denied the entry's cost
    /// or the `cache.put` failpoint fired. The value is still served to
    /// the caller — only the caching is lost.
    uint64_t put_rejects = 0;
    size_t entries = 0;
  };
  /// @}

  /// A cache holding at most `capacity` values; 0 disables caching entirely
  /// (every GetOrCompute computes). With a `budget`, every insert first
  /// charges `cost_fn(value)` bytes and is skipped (counting a put_reject)
  /// when the budget denies the charge; the charge is released when the
  /// entry is evicted or cleared.
  explicit SingleFlightCache(size_t capacity, MemoryBudget* budget = nullptr,
                             std::function<size_t(const Value&)> cost_fn = {})
      : capacity_(capacity), budget_(budget), cost_fn_(std::move(cost_fn)) {}

  /// Returns the value for `key`, computing it via `compute` on a cold
  /// miss. With `bypass` set (or capacity 0) the cache is not consulted and
  /// `compute` runs unconditionally, with no counter effects and no
  /// single-flight coordination.
  ///
  /// \param computed_by_caller optionally receives whether this call paid
  ///        for the computation itself (false = served from cache or from a
  ///        concurrent leader's flight).
  template <typename ComputeFn>
  Result<Value> GetOrCompute(const Key& key, bool bypass, ComputeFn&& compute,
                             bool* computed_by_caller = nullptr)
      EXCLUDES(mu_) {
    if (computed_by_caller != nullptr) *computed_by_caller = false;
    if (bypass || capacity_ == 0) {
      if (computed_by_caller != nullptr) *computed_by_caller = true;
      return compute();
    }

    // Leader-failure contract: a leader's error is propagated to its
    // followers but never cached, and it returns that error immediately (its
    // caller owns the retry decision). A *follower* that inherited a
    // leader's error retries here — capped exponential backoff, bounded
    // attempts — instead of re-stampeding: each retry is a fresh counted
    // lookup that hits, joins a newer flight, or leads one. A deterministic
    // failure therefore still surfaces after kFollowerAttempts rounds.
    for (int attempt = 0;; ++attempt) {
      std::shared_ptr<Flight> led;
      Status inherited;
      {
        MutexLock lock(&mu_);
        ++counters_.lookups;
        auto hit = index_.find(key);
        if (hit != index_.end()) {
          ++counters_.hits;
          lru_.splice(lru_.begin(), lru_, hit->second);  // now MRU
          return hit->second->value;
        }
        ++counters_.misses;
        auto [it, leader] = inflight_.try_emplace(key);
        if (leader) {
          it->second = std::make_shared<Flight>();
          led = it->second;
        } else {
          const std::shared_ptr<Flight> joined = it->second;
          while (!joined->ready) flight_done_.Wait(&mu_);
          if (joined->status.ok()) return joined->value;
          inherited = joined->status;
        }
      }
      if (led != nullptr) {
        return Lead(key, std::move(led), compute, computed_by_caller);
      }
      if (attempt + 1 >= kFollowerAttempts) return inherited;
      BackoffSleep(attempt);
    }
  }

  Counters counters() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    Counters c = counters_;
    c.entries = lru_.size();
    return c;
  }

  /// Drops all entries. Counters and running flights are preserved.
  void Clear() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    lru_.clear();
    index_.clear();
  }

 private:
  struct Entry {
    Key key;
    Value value;
    MemoryCharge charge;  // released to the budget when the entry dies
  };
  using LruList = std::list<Entry>;

  /// One in-progress computation. Every field is written and read only
  /// under mu_ (annotating that is beyond Clang's analysis for a nested
  /// struct referencing the enclosing object's mutex, so the contract is
  /// documented here instead).
  struct Flight {
    bool ready = false;
    Status status;
    Value value;
  };

  /// Total attempts a follower makes before surfacing an inherited leader
  /// error: the initial join plus two retries.
  static constexpr int kFollowerAttempts = 3;

  /// ~1ms, 2ms, 4ms... capped at 8ms — long enough for a transient fault
  /// (a fired prob failpoint, a momentary budget denial) to clear, short
  /// enough not to blow a per-query deadline.
  static void BackoffSleep(int attempt) {
    const int shift = attempt < 3 ? attempt : 3;
    std::this_thread::sleep_for(std::chrono::milliseconds(1LL << shift));
  }

  /// The leader's half of a miss: computes with no lock held, decides
  /// admission (failpoint, budget charge) still unlocked, then inserts and
  /// publishes the outcome to the followers in one critical section.
  template <typename ComputeFn>
  Result<Value> Lead(const Key& key, std::shared_ptr<Flight> flight,
                     ComputeFn& compute, bool* computed_by_caller)
      EXCLUDES(mu_) {
    Result<Value> fresh = compute();
    if (computed_by_caller != nullptr) *computed_by_caller = true;
    MemoryCharge charge;
    bool admitted = false;
    if (fresh.ok() && !RLQVO_FAILPOINT_FIRED("cache.put")) {
      const size_t cost =
          budget_ != nullptr && cost_fn_ ? cost_fn_(*fresh) : 0;
      if (cost > 0) charge = budget_->TryCharge(cost);
      admitted = cost == 0 || !charge.empty();
    }
    {
      MutexLock lock(&mu_);
      if (fresh.ok()) {
        flight->value = *fresh;
        if (admitted) {
          Insert(key, *fresh, std::move(charge));
        } else {
          ++counters_.put_rejects;
        }
      } else {
        flight->status = fresh.status();
      }
      flight->ready = true;
      inflight_.erase(key);
    }
    flight_done_.NotifyAll();
    return fresh;
  }

  /// Adds `key` as the MRU entry, evicting the LRU one when at capacity.
  /// Only a flight's leader inserts, and a key has no entry while its
  /// flight runs, so `key` is never already present.
  void Insert(const Key& key, Value value, MemoryCharge charge)
      REQUIRES(mu_) {
    RLQVO_DCHECK(index_.find(key) == index_.end());
    if (lru_.size() >= capacity_) {
      index_.erase(lru_.back().key);
      lru_.pop_back();  // releases the evicted entry's charge
      ++counters_.evictions;
    }
    lru_.emplace_front(Entry{key, std::move(value), std::move(charge)});
    index_[key] = lru_.begin();
  }

  const size_t capacity_;
  MemoryBudget* const budget_;
  const std::function<size_t(const Value&)> cost_fn_;

  mutable Mutex mu_;
  CondVar flight_done_;  // signalled whenever a flight publishes
  LruList lru_ GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<Key, typename LruList::iterator> index_ GUARDED_BY(mu_);
  std::unordered_map<Key, std::shared_ptr<Flight>> inflight_ GUARDED_BY(mu_);
  Counters counters_ GUARDED_BY(mu_);
};

}  // namespace rlqvo
