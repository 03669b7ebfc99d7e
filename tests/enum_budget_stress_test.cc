#include "matching/enum_budget.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"

namespace rlqvo {
namespace {

// Dedicated contention coverage for the lock-free per-query budget that
// every parallel enumeration chunk shares (see EnumBudget's memory-order
// protocol). These tests are deliberately oversubscribed relative to the
// container's core count: the claim/stop protocol must be exact under any
// interleaving, and the TSan CI job runs this binary to check the
// no-data-race half of that claim.

constexpr int kThreads = 8;

/// Launches `n` threads running `fn(thread_index)` and joins them all.
void RunThreads(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

// The core exactness property: with T threads hammering a limit of L,
// exactly L claims succeed — never L+1 from a CAS race, never fewer from a
// lost update — regardless of how the attempts interleave.
TEST(EnumBudgetStressTest, ContendedClaimsMatchLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 7u, 100u, 1000u}) {
    EnumBudget budget(limit, &deadline);
    std::atomic<uint64_t> granted{0};
    RunThreads(kThreads, [&](int) {
      // Each thread attempts far more claims than the whole limit, so
      // exhaustion is certain and contention spans the full run.
      for (uint64_t i = 0; i < 2 * limit + 64; ++i) {
        if (budget.TryClaimMatches(1) == 1) granted.fetch_add(1);
      }
    });
    EXPECT_EQ(granted.load(), limit) << "limit=" << limit;
    EXPECT_TRUE(budget.LimitReached());
    // Exhaustion must have raised the stop broadcast for sibling chunks.
    EXPECT_TRUE(budget.StopRequested());
    // The budget stays exhausted: later claims keep failing.
    EXPECT_EQ(budget.TryClaimMatches(1), 0u);
  }
}

// Batch claims, as a counted last order position makes them: T threads
// ask for random batch sizes, and the grants must still sum to exactly the
// limit, each grant at most what its caller asked for.
TEST(EnumBudgetStressTest, ContendedBatchClaimsSumToLimitExactly) {
  const Deadline deadline = Deadline::Unlimited();
  for (const uint64_t limit : {1u, 7u, 100u, 1000u}) {
    EnumBudget budget(limit, &deadline);
    std::atomic<uint64_t> granted{0};
    std::atomic<bool> over_granted{false};
    RunThreads(kThreads, [&](int t) {
      Rng rng(limit * kThreads + static_cast<uint64_t>(t));
      for (uint64_t i = 0; i < 2 * limit + 64; ++i) {
        const uint64_t k = 1 + rng.NextBounded(16);
        const uint64_t got = budget.TryClaimMatches(k);
        if (got > k) over_granted = true;
        granted.fetch_add(got);
      }
    });
    EXPECT_FALSE(over_granted.load()) << "limit=" << limit;
    EXPECT_EQ(granted.load(), limit) << "limit=" << limit;
    EXPECT_TRUE(budget.LimitReached());
    EXPECT_TRUE(budget.StopRequested());
  }
}

// A grant that reaches the limit leaves the stop flag down, as the
// per-match claim that reaches it does; the next claim is granted nothing
// and raises it.
TEST(EnumBudgetStressTest, ZeroGrantRaisesStop) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(10, &deadline);
  EXPECT_EQ(budget.TryClaimMatches(4), 4u);
  EXPECT_EQ(budget.TryClaimMatches(10), 6u);
  EXPECT_TRUE(budget.LimitReached());
  EXPECT_FALSE(budget.StopRequested());
  EXPECT_EQ(budget.TryClaimMatches(3), 0u);
  EXPECT_TRUE(budget.StopRequested());
}

// match_limit == 0 is the paper's "ALL" setting: claims of any batch size
// are granted in full and never touch the atomic, so no amount of claiming
// may trip the limit or the stop flag.
TEST(EnumBudgetStressTest, UnlimitedBudgetNeverExhaustsUnderContention) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(0, &deadline);
  std::atomic<uint64_t> asked{0};
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    for (int i = 0; i < 50000; ++i) {
      const uint64_t k = i % 2 == 0 ? 1 : 1 + rng.NextBounded(1000);
      asked.fetch_add(k);
      granted.fetch_add(budget.TryClaimMatches(k));
    }
  });
  EXPECT_EQ(granted.load(), asked.load());
  const uint64_t huge = uint64_t{1} << 62;
  EXPECT_EQ(budget.TryClaimMatches(huge), huge);
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_FALSE(budget.StopRequested());
}

// Stop-broadcast latency: pollers parked on StopRequested() must all
// observe a RequestStop raised by another thread. The flag is relaxed, so
// this is exactly the "a stale read only delays the unwind" contract — but
// it must become visible promptly, not hang a chunk forever.
TEST(EnumBudgetStressTest, StopBroadcastReachesEveryPoller) {
  const Deadline deadline = Deadline::Unlimited();
  EnumBudget budget(1000000, &deadline);
  std::atomic<int> observed{0};
  std::atomic<int> started{0};
  std::vector<std::thread> pollers;
  for (int i = 0; i < kThreads; ++i) {
    pollers.emplace_back([&] {
      started.fetch_add(1);
      // Emulate a chunk's checkpoint loop: do a sliver of claimed "work",
      // then poll. A poller that never sees the stop would spin forever and
      // time the test out — visibility IS the assertion.
      while (!budget.StopRequested()) {
        budget.TryClaimMatches(1);
        std::this_thread::yield();
      }
      observed.fetch_add(1);
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  budget.RequestStop();
  for (std::thread& t : pollers) t.join();
  EXPECT_EQ(observed.load(), kThreads);
  // The stop broadcast is advisory only: it must not have consumed claims'
  // exactness (claims above were all granted, limit never reached).
  EXPECT_FALSE(budget.LimitReached());
}

// Deadline expiry racing active claims: every chunk polls Expired() on the
// one shared (immutable) Deadline while others are mid-claim. The test
// pins down that (a) concurrent Expired() reads are safe, (b) the first
// observer's RequestStop halts the rest, and (c) claims granted before the
// stop stay within the limit.
TEST(EnumBudgetStressTest, DeadlineExpiryRaceStopsAllChunks) {
  const Deadline deadline(0.02);  // 20 ms — expires mid-run
  EnumBudget budget(1u << 30, &deadline);
  std::atomic<uint64_t> granted{0};
  RunThreads(kThreads, [&](int) {
    for (;;) {
      if (budget.StopRequested()) return;  // a sibling saw expiry first
      if (budget.deadline().Expired()) {
        budget.RequestStop();
        return;
      }
      // A checkpoint quantum's worth of claims between deadline polls.
      for (int i = 0; i < 64; ++i) {
        if (budget.TryClaimMatches(1) == 1) granted.fetch_add(1);
      }
    }
  });
  EXPECT_TRUE(budget.StopRequested());
  EXPECT_FALSE(budget.LimitReached());
  EXPECT_GT(granted.load(), 0u);
}

// An already-expired deadline (the "budget spent in earlier phases" case
// RunParallel short-circuits on) must read as expired from every thread,
// immediately and forever.
TEST(EnumBudgetStressTest, ExpiredDeadlineIsExpiredFromEveryThread) {
  const Deadline deadline(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EnumBudget budget(100, &deadline);
  std::atomic<int> saw_expired{0};
  RunThreads(kThreads, [&](int) {
    if (budget.deadline().Expired()) saw_expired.fetch_add(1);
  });
  EXPECT_EQ(saw_expired.load(), kThreads);
}

// Reuse churn: budgets are created per enumeration run, so a fresh budget
// must never inherit state (claims or stop) from a previous run's traffic.
TEST(EnumBudgetStressTest, FreshBudgetsStartCleanAcrossRounds) {
  const Deadline deadline = Deadline::Unlimited();
  for (int round = 0; round < 200; ++round) {
    const uint64_t limit = 1 + static_cast<uint64_t>(round) % 17;
    EnumBudget budget(limit, &deadline);
    EXPECT_FALSE(budget.StopRequested());
    EXPECT_FALSE(budget.LimitReached());
    std::atomic<uint64_t> granted{0};
    RunThreads(4, [&](int) {
      for (uint64_t i = 0; i < limit; ++i) {
        if (budget.TryClaimMatches(1) == 1) granted.fetch_add(1);
      }
    });
    EXPECT_EQ(granted.load(), limit);
  }
}

}  // namespace
}  // namespace rlqvo
