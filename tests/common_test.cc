#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace rlqvo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad input");

  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::IOError("a"));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int code = 0; code <= 9; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(StatusTest, ResourceExhaustedFactoryAndPredicate) {
  Status s = Status::ResourceExhausted("shed");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.ToString(), "Resource exhausted: shed");
}

TEST(StatusTest, IsRetryableCoversTransientCodesOnly) {
  EXPECT_TRUE(IsRetryable(Status::ResourceExhausted("x")));
  EXPECT_TRUE(IsRetryable(Status::TimedOut("x")));
  EXPECT_FALSE(IsRetryable(Status::OK()));
  EXPECT_FALSE(IsRetryable(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsRetryable(Status::Internal("x")));
  EXPECT_FALSE(IsRetryable(Status::IOError("x")));
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> DoublePositive(int x) {
  RLQVO_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  EXPECT_FALSE(DoublePositive(-3).ok());
  EXPECT_EQ(DoublePositive(21).ValueOrDie(), 42);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += a.NextUint64() == b.NextUint64();
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DiscardSkipsExactlyThatManyDraws) {
  for (uint64_t count : {0u, 1u, 5u, 4096u}) {
    Rng skipped(77), drawn(77);
    skipped.Discard(count);
    for (uint64_t i = 0; i < count; ++i) drawn.NextUint64();
    EXPECT_EQ(skipped.NextUint64(), drawn.NextUint64()) << count;
  }
}

TEST(RngTest, FillBernoulliTakesTheDrawsOfNextBool) {
  Rng bulk(4);
  Rng single(4);
  std::vector<double> out(37);
  bulk.FillBernoulli(0.3, 2.5, out);
  for (double v : out) EXPECT_EQ(v, single.NextBool(0.3) ? 2.5 : 0.0);
  EXPECT_EQ(bulk.NextUint64(), single.NextUint64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(23);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleDiscreteRespectsWeights) {
  Rng rng(31);
  std::vector<double> weights = {0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 4000; ++i) {
    ++counts[rng.SampleDiscrete(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 2);
}

TEST(RngTest, SampleDiscreteZeroTotalReturnsSize) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.SampleDiscrete(weights), weights.size());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(77);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a  bb\tc \n"),
            (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(StringUtilTest, SplitCharKeepsEmptyTokens) {
  EXPECT_EQ(SplitChar("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitChar("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(StringUtilTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512.0 B");
  EXPECT_EQ(FormatBytes(186 * 1024 + 205), "186.2 kB");
  EXPECT_EQ(FormatBytes(437ull * 1024 * 1024 + 629145), "437.6 MB");
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(watch.ElapsedNanos(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

TEST(TimerTest, DeadlineUnlimitedNeverExpires) {
  Deadline d = Deadline::Unlimited();
  EXPECT_FALSE(d.HasLimit());
  EXPECT_FALSE(d.Expired());
}

TEST(TimerTest, DeadlineExpires) {
  Deadline d(1e-9);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_TRUE(d.Expired());
}

// Failpoint registry state is process-global; each test cleans up after
// itself so the suite order doesn't matter.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DeactivateAll(); }
};

Status GuardedOperation() {
  RLQVO_FAILPOINT("graph_io.load");
  return Status::OK();
}

TEST_F(FailpointTest, InactiveSitesAreTransparent) {
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_FALSE(RLQVO_FAILPOINT_FIRED("cache.put"));
}

TEST_F(FailpointTest, ErrorModeInjectsCataloguedStatus) {
  ASSERT_TRUE(failpoint::Activate("graph_io.load", "error").ok());
  EXPECT_TRUE(failpoint::AnyActive());
  const uint64_t before = failpoint::FireCount("graph_io.load");
  Status s = GuardedOperation();
  EXPECT_TRUE(s.IsIOError());
  EXPECT_NE(s.message().find("graph_io.load"), std::string::npos);
  EXPECT_EQ(failpoint::FireCount("graph_io.load"), before + 1);
  failpoint::Deactivate("graph_io.load");
  EXPECT_FALSE(failpoint::AnyActive());
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FailpointTest, DelayModeSleepsButSucceeds) {
  ASSERT_TRUE(failpoint::Activate("graph_io.load", "delay:5").ok());
  Stopwatch watch;
  EXPECT_TRUE(GuardedOperation().ok());
  EXPECT_GE(watch.ElapsedSeconds(), 0.004);
}

TEST_F(FailpointTest, ProbModeEndpointsAreDeterministic) {
  ASSERT_TRUE(failpoint::Activate("graph_io.load", "prob:0").ok());
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(GuardedOperation().ok());
  ASSERT_TRUE(failpoint::Activate("graph_io.load", "prob:1").ok());
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(GuardedOperation().ok());
}

TEST_F(FailpointTest, SpecGrammarAndValidation) {
  EXPECT_TRUE(
      failpoint::ActivateFromSpec("graph_io.load=error,cache.put=prob:0.5")
          .ok());
  EXPECT_TRUE(failpoint::AnyActive());
  EXPECT_FALSE(failpoint::Activate("not.registered", "error").ok());
  EXPECT_FALSE(failpoint::Activate("graph_io.load", "explode").ok());
  EXPECT_FALSE(failpoint::Activate("graph_io.load", "prob:2").ok());
  EXPECT_FALSE(failpoint::Activate("graph_io.load", "delay:-1").ok());
  EXPECT_FALSE(failpoint::ActivateFromSpec("missing-equals").ok());
}

TEST_F(FailpointTest, CatalogIsNonEmptySortedAndWellNamed) {
  const std::vector<std::string_view> sites = failpoint::AllSites();
  ASSERT_FALSE(sites.empty());
  for (size_t i = 0; i + 1 < sites.size(); ++i) {
    EXPECT_LT(sites[i], sites[i + 1]) << "catalog must be sorted, no dups";
  }
  for (std::string_view site : sites) {
    EXPECT_EQ(std::count(site.begin(), site.end(), '.'), 1)
        << "site '" << site << "' must be <layer>.<event>";
  }
}

TEST(MemoryChargeTest, ReleasesOnDestructionAndMove) {
  MemoryBudget budget;
  {
    MemoryCharge a = budget.TryCharge(100);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(budget.used_bytes(), 100u);
    MemoryCharge b = std::move(a);
    EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(budget.used_bytes(), 100u);  // moved, not double-counted
    b = MemoryCharge();
    EXPECT_EQ(budget.used_bytes(), 0u);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudgetTest, DeniesBeyondLimitAndRecoversOnRelease) {
  MemoryBudget budget;
  budget.set_limit_bytes(1000);
  MemoryCharge a = budget.TryCharge(800);
  ASSERT_FALSE(a.empty());
  MemoryCharge denied = budget.TryCharge(300);
  EXPECT_TRUE(denied.empty());
  EXPECT_EQ(budget.denials(), 1u);
  EXPECT_EQ(budget.used_bytes(), 800u);  // failed charge fully rolled back
  a.Reset();
  MemoryCharge retry = budget.TryCharge(300);
  EXPECT_FALSE(retry.empty());
  EXPECT_EQ(budget.peak_bytes(), 800u);
}

TEST(MemoryBudgetTest, ZeroLimitIsUnlimitedButTracked) {
  MemoryBudget budget;
  MemoryCharge a = budget.TryCharge(size_t{1} << 40);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(budget.used_bytes(), size_t{1} << 40);
  EXPECT_EQ(budget.denials(), 0u);
}

TEST(MemoryBudgetTest, ChargeFailpointForcesDenial) {
  MemoryBudget budget;
  ASSERT_TRUE(failpoint::Activate("budget.charge", "error").ok());
  MemoryCharge denied = budget.TryCharge(64);
  EXPECT_TRUE(denied.empty());
  EXPECT_EQ(budget.denials(), 1u);
  EXPECT_EQ(budget.used_bytes(), 0u);
  failpoint::DeactivateAll();
  EXPECT_FALSE(budget.TryCharge(64).empty());
}

}  // namespace
}  // namespace rlqvo
