#include "matching/enumerator.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "common/failpoint.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "graph/graph_algorithms.h"
#include "matching/enum_budget.h"
#include "matching/intersect.h"

namespace rlqvo {

namespace {

/// Work units charged between two deadline re-checks. Work is charged
/// per recursive call, per intersection comparison and per local-candidate
/// scanned, so expiry detection is proportional to actual effort: a run
/// overshoots its deadline by at most ~one quantum of work plus one
/// in-flight slice intersection, regardless of how wide the slices are.
/// (The seed polled once per 4096 recursive calls, which let overshoot
/// scale with slice width after the intersection core made each call do
/// large gallop/merge intersections.) A steady_clock read costs ~25 ns;
/// at >= 1 work unit per ns-scale operation this keeps the polling
/// overhead well under 1%.
constexpr uint64_t kDeadlineCheckWorkQuantum = uint64_t{1} << 14;

/// Work units between two split-opportunity polls in the work-stealing
/// path. Finer than the deadline quantum so a heavy subtree sheds work to
/// a freshly-idle worker within ~2k units, but each poll is just two
/// relaxed loads (hungry-worker count, own-deque size) on the no-split
/// path, so the serial-equivalent overhead stays far below 1%. The serial
/// recursion does not poll for splits at all — EnumContext<false> compiles
/// this away, keeping the one-compare fast path of PR 4.
constexpr uint64_t kSplitCheckWorkQuantum = uint64_t{1} << 11;

/// Minimum remaining-sibling-range width an owner will split off. Below
/// this the stolen half cannot amortize the segment overhead (prefix copy,
/// deque round-trip, per-segment result buffers), so tiny ranges always
/// stay with their owner.
constexpr size_t kMinSplitWidth = 4;

/// A maximal run of consecutively-emitted embeddings, tagged with the
/// *index path* of its first emission: for each order position, the
/// candidate's index in the original (unsplit) frame of the loop instance
/// it came from. Serial enumeration visits emissions in strictly
/// increasing lexicographic index-path order, so sorting blocks by `path`
/// reproduces the serial emission sequence exactly — the deterministic
/// stitching of RunParallel. Two paths are only compared component-wise
/// until they first differ, and equal components at every shallower level
/// imply the *same* loop instance at the next level, so indices from
/// different branches of the search tree are never compared against each
/// other's frames.
struct EmissionBlock {
  std::vector<size_t> path;
  std::vector<std::vector<VertexId>> embeddings;
};

/// One stealable unit of enumeration work: resume the candidate loop at
/// order position `depth` over the remaining sub-range `cands`, with
/// positions 0..depth-1 already mapped as recorded in `prefix`.
///
/// **Emission blocks.** A segment's output is a list of EmissionBlocks
/// rather than one stream: whenever the segment pops a loop level that a
/// split carved a tail from, its subsequent emissions come *after* the
/// carved interval in serial order, so the current block is closed there
/// and the next emission opens a new one (see EnumContext::EmitMatch and
/// RunLevel). Block paths then interleave parent and child output
/// correctly under the global sort no matter how deep the split was.
struct FrontierSegment {
  /// Order position of the resumed loop; prefix.size() == depth.
  size_t depth = 0;
  /// prefix[p] = data image of order[p] for p < depth.
  std::vector<VertexId> prefix;
  /// path_prefix[p] = original-frame candidate index behind prefix[p] —
  /// the first `depth` components of every index path this segment emits.
  std::vector<size_t> path_prefix;
  /// Original-frame index of cands[0] within the loop instance this
  /// segment resumes (splits hand the tail to the child, so the child's
  /// storage starts mid-frame).
  size_t base = 0;
  /// Backing storage for `cands` when the parent's range lived in a
  /// worker-local intersection buffer (mutated after the parent's frame
  /// exits); empty when `cands` points into stable storage (candidate
  /// lists, graph adjacency, or an ancestor segment's owned_cands — all
  /// immutable for the run, segments are kept alive until stitching).
  std::vector<VertexId> owned_cands;
  std::span<const VertexId> cands;
  /// Segment-local counters (embeddings live in `blocks`), published to
  /// the coordinator through the completion rendezvous.
  EnumerateResult result;
  std::vector<EmissionBlock> blocks;
};

/// Per-run work-stealing scheduler: one deque of queued segments per
/// worker slot. Owners push splits to and pop work from their own deque
/// LIFO (bottom), so an owner keeps depth-first locality; a drained worker
/// steals FIFO (top) from the victim whose oldest queued segment is
/// shallowest — shallow segments bound the largest remaining subtrees.
///
/// **Locking.** One mutex guards every deque and the lifecycle counters;
/// all segment handoffs (push, own-pop, steal) happen under it, which is
/// the release/acquire edge that publishes a segment's prefix/cands to the
/// thief. Segment *results* are not published here — workers write them
/// while executing and the coordinator reads them only after the
/// completion rendezvous in RunParallel. The lock-free members are
/// advisory scheduling hints only (see ShouldSplit).
class SegmentScheduler {
 public:
  SegmentScheduler(size_t num_slots, EnumBudget* budget,
                   const ThreadPool* pool)
      : budget_(budget),
        pool_(pool),
        deques_(num_slots),
        worker_work_(num_slots, 0),
        worker_participated_(num_slots, false),
        own_queued_(new std::atomic<uint32_t>[num_slots]),
        unclaimed_slots_(static_cast<uint32_t>(num_slots)) {
    for (size_t s = 0; s < num_slots; ++s) {
      own_queued_[s].store(0, std::memory_order_relaxed);
    }
  }

  /// Assigns the calling worker loop its slot. Each of the run's
  /// num_slots loop tasks claims exactly one.
  int ClaimSlot() {
    const uint32_t slot = next_slot_.fetch_add(1, std::memory_order_relaxed);
    unclaimed_slots_.fetch_sub(1, std::memory_order_relaxed);
    return static_cast<int>(slot);
  }

  /// Enqueues one static root seed before the loop tasks start. Not
  /// counted as a split.
  void Seed(int slot, std::unique_ptr<FrontierSegment> seg) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    EnqueueLocked(slot, std::move(seg));
  }

  /// Publishes a freshly split child on the owner's deque and wakes
  /// hungry workers.
  void Push(int slot, std::unique_ptr<FrontierSegment> seg) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    EnqueueLocked(slot, std::move(seg));
    ++splits_;
    ++version_;
    cv_.NotifyAll();
  }

  /// Blocks until a segment is available (own deque LIFO first, then a
  /// cross-deque FIFO steal) or the run is drained (returns nullptr).
  /// The returned segment is owned by the scheduler's master list; the
  /// caller must pair every non-null return with FinishSegment().
  FrontierSegment* Acquire(int slot) EXCLUDES(mu_) {
    bool hungry = false;
    auto resolve = [&](FrontierSegment* seg) {
      if (hungry) budget_->RemoveHungryWorker();
      return seg;
    };
    for (;;) {
      uint64_t version_seen = 0;
      {
        MutexLock lock(&mu_);
        for (;;) {
          if (!deques_[slot].empty()) {
            FrontierSegment* seg = deques_[slot].back();
            deques_[slot].pop_back();
            own_queued_[slot].store(
                static_cast<uint32_t>(deques_[slot].size()),
                std::memory_order_relaxed);
            --queued_;
            ++executing_;
            return resolve(seg);
          }
          if (done_ || (queued_ == 0 && executing_ == 0)) {
            done_ = true;
            cv_.NotifyAll();
            return resolve(nullptr);
          }
          if (!hungry) {
            // Signal busy workers that a lazily-split segment would find
            // a taker (polled at their split-quantum checkpoints).
            budget_->AddHungryWorker();
            hungry = true;
          }
          if (queued_ > 0) {
            version_seen = version_;
            break;  // to the steal attempt below
          }
          cv_.Wait(&mu_);
        }
      }
      // Steal attempt. The failpoint fires outside the scheduler mutex so
      // its delay mode skews the schedule without stalling other workers;
      // a *failed* (error-injected) attempt waits for the scheduler state
      // to change instead of hot-spinning on the same queued segment.
      if (RLQVO_FAILPOINT_FIRED("enumerate.steal")) {
        MutexLock lock(&mu_);
        // Deadlock-freedom under injected steal failure: a non-empty
        // deque whose loop task has not started yet has no owner to
        // drain it, and on a saturated pool none may ever arrive (the
        // coordinator inlining this loop is the thread that would have
        // run it). Waiting for a state change would then wait on
        // progress only this worker could make. Adopt such orphaned
        // seeds owner-style instead — a back pop that is not counted as
        // a steal and not subject to the steal fault.
        for (size_t d = next_slot_.load(std::memory_order_relaxed);
             d < deques_.size(); ++d) {
          if (deques_[d].empty()) continue;
          FrontierSegment* seg = deques_[d].back();
          deques_[d].pop_back();
          own_queued_[d].store(static_cast<uint32_t>(deques_[d].size()),
                               std::memory_order_relaxed);
          --queued_;
          ++executing_;
          return resolve(seg);
        }
        while (version_ == version_seen && !done_ && deques_[slot].empty() &&
               !(queued_ == 0 && executing_ == 0)) {
          cv_.Wait(&mu_);
        }
        continue;
      }
      {
        MutexLock lock(&mu_);
        int victim = -1;
        size_t best_depth = std::numeric_limits<size_t>::max();
        for (size_t d = 0; d < deques_.size(); ++d) {
          if (deques_[d].empty()) continue;
          if (deques_[d].front()->depth < best_depth) {
            best_depth = deques_[d].front()->depth;
            victim = static_cast<int>(d);
          }
        }
        if (victim < 0) continue;  // raced with another thief; re-wait
        FrontierSegment* seg = deques_[victim].front();
        deques_[victim].pop_front();
        own_queued_[victim].store(
            static_cast<uint32_t>(deques_[victim].size()),
            std::memory_order_relaxed);
        --queued_;
        ++executing_;
        ++steals_;
        return resolve(seg);
      }
    }
  }

  /// Marks the segment returned by the last Acquire as finished; the last
  /// finish with an empty queue completes the run and wakes everyone.
  void FinishSegment() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    --executing_;
    ++version_;
    if (executing_ == 0 && queued_ == 0) done_ = true;
    cv_.NotifyAll();
  }

  /// The owner-side split trigger, polled every kSplitCheckWorkQuantum
  /// work units. Pure hints (relaxed loads): a stale answer costs one
  /// missed or one useless split, never correctness. A worker with queued
  /// segments of its own never splits — thieves can take those directly.
  bool ShouldSplit(int slot) const {
    if (own_queued_[slot].load(std::memory_order_relaxed) != 0) return false;
    if (budget_->HasHungryWorkers()) return true;
    // Startup window: loop tasks still queued on the pool have claimed no
    // slot yet, but an idle pool worker will start one as soon as work
    // exists for it to find.
    return unclaimed_slots_.load(std::memory_order_relaxed) > 0 &&
           pool_ != nullptr && pool_->ApproxIdleWorkers() > 0;
  }

  /// Records a worker loop's cumulative charged work on exit.
  void RecordWorker(int slot, uint64_t work, bool participated)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    worker_work_[slot] = work;
    worker_participated_[slot] = participated;
  }

  /// \name Post-run accessors (coordinator only, after the completion
  /// rendezvous guarantees every loop task has exited).
  /// @{
  uint64_t steals() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return steals_;
  }
  uint64_t splits() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return splits_;
  }
  std::vector<std::unique_ptr<FrontierSegment>> TakeSegments() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return std::move(all_);
  }
  std::pair<uint64_t, uint64_t> WorkerWorkMinMax() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    uint64_t mn = 0, mx = 0;
    bool any = false;
    for (size_t s = 0; s < worker_work_.size(); ++s) {
      if (!worker_participated_[s]) continue;
      if (!any) {
        mn = mx = worker_work_[s];
        any = true;
      } else {
        mn = std::min(mn, worker_work_[s]);
        mx = std::max(mx, worker_work_[s]);
      }
    }
    return {mn, mx};
  }
  /// @}

 private:
  void EnqueueLocked(int slot, std::unique_ptr<FrontierSegment> seg)
      REQUIRES(mu_) {
    FrontierSegment* raw = seg.get();
    all_.push_back(std::move(seg));
    deques_[slot].push_back(raw);
    own_queued_[slot].store(static_cast<uint32_t>(deques_[slot].size()),
                            std::memory_order_relaxed);
    ++queued_;
  }

  EnumBudget* const budget_;
  const ThreadPool* const pool_;

  Mutex mu_;
  CondVar cv_;  // signaled on push, finish, and run completion
  std::vector<std::deque<FrontierSegment*>> deques_ GUARDED_BY(mu_);
  /// Master list: owns every segment for the whole run, so a child's
  /// `cands` span into an ancestor's owned_cands stays valid until the
  /// coordinator stitches.
  std::vector<std::unique_ptr<FrontierSegment>> all_ GUARDED_BY(mu_);
  size_t queued_ GUARDED_BY(mu_) = 0;
  size_t executing_ GUARDED_BY(mu_) = 0;
  bool done_ GUARDED_BY(mu_) = false;
  /// Bumped on every push/finish; lets an error-injected steal attempt
  /// wait for *change* instead of hot-spinning.
  uint64_t version_ GUARDED_BY(mu_) = 0;
  uint64_t steals_ GUARDED_BY(mu_) = 0;
  uint64_t splits_ GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> worker_work_ GUARDED_BY(mu_);
  std::vector<bool> worker_participated_ GUARDED_BY(mu_);

  // Advisory hints, read lock-free by ShouldSplit (see class comment).
  std::unique_ptr<std::atomic<uint32_t>[]> own_queued_;
  std::atomic<uint32_t> next_slot_{0};
  std::atomic<uint32_t> unclaimed_slots_;
};

/// Recursion state for one enumeration worker (the whole query in the
/// serial path, a sequence of frontier segments in the work-stealing
/// path). All per-query buffers live in the EnumeratorWorkspace; this
/// carries the loop bookkeeping plus the work-metered stop checks against
/// the shared budget. `kStealable == false` compiles to exactly PR 4's
/// serial recursion — no spine bookkeeping, no split polling, the same
/// single compare on the hot path.
template <bool kStealable>
struct EnumContext {
  EnumContext(const Graph& q, const Graph& g, const CandidateSet& c,
              const std::vector<VertexId>& o, const EnumerateOptions& opts,
              EnumeratorWorkspace* workspace, EnumBudget* shared_budget)
      : query(&q),
        data(&g),
        candidates(&c),
        order(&o),
        options(&opts),
        ws(workspace),
        budget(shared_budget) {
    if constexpr (kStealable) {
      spine_.resize(order->size());
      next_check = std::min(next_deadline_check, next_split_check);
    }
  }

  const Graph* query;
  const Graph* data;
  const CandidateSet* candidates;
  const std::vector<VertexId>* order;
  const EnumerateOptions* options;
  EnumeratorWorkspace* ws;
  EnumBudget* budget;

  EnumerateResult result;
  uint64_t work = 0;  // charged work units (calls, comparisons, scans)
  uint64_t next_deadline_check = kDeadlineCheckWorkQuantum;
  uint64_t next_split_check = kSplitCheckWorkQuantum;  // stealable only
  uint64_t next_check = kDeadlineCheckWorkQuantum;     // min of the above
  bool stopped = false;

  // Work-stealing state (set by RunParallel's worker loop; unused and
  // empty in the serial instantiation).
  SegmentScheduler* scheduler = nullptr;
  int slot = -1;
  FrontierSegment* seg = nullptr;

  /// One live candidate loop of the current segment. The spine is the
  /// single source of truth for the loop ranges: TrySplit shrinks
  /// `end` (same thread — a split happens inside a CheckStop poll of a
  /// deeper frame) and the loop in RunLevel re-reads it every iteration.
  struct SpineLevel {
    const VertexId* cands = nullptr;
    size_t next = 0;
    size_t end = 0;
    /// Original-frame index of cands[0]: storage position i corresponds
    /// to index base + i of the loop instance as it existed before any
    /// split shrank or re-based it. Index paths are built from these so
    /// split-off children and their parents stay comparable.
    size_t base = 0;
    /// Whether `cands` outlives this frame unmutated (candidate list,
    /// graph adjacency slice, or this segment's own cands span). A split
    /// of an unstable level must copy its half out (see TrySplit).
    bool stable = false;
    bool active = false;
    /// Set by TrySplit when a tail of this level was carved off: the
    /// loop's exit is then a serial-order discontinuity, so it closes the
    /// segment's current emission block (see RunLevel).
    bool carved = false;
  };

  /// The per-iteration stop test: one compare on the fast path. Once the
  /// charged work crosses the next quantum boundary it re-checks the
  /// shared deadline / stop broadcast and (stealable only, on a finer
  /// quantum) the split trigger.
  bool CheckStop() {
    if (stopped) return true;
    if (work >= next_check) Poll();
    return stopped;
  }

  void Poll() {
    if (work >= next_deadline_check) {
      next_deadline_check = work + kDeadlineCheckWorkQuantum;
      if (budget->deadline().Expired()) {
        result.timed_out = true;
        budget->RequestStop();
        stopped = true;
      } else if (budget->StopRequested()) {
        stopped = true;
      }
    }
    if constexpr (kStealable) {
      if (!stopped && work >= next_split_check) {
        next_split_check = work + kSplitCheckWorkQuantum;
        if (scheduler->ShouldSplit(slot)) TrySplit();
      }
      next_check = std::min(next_deadline_check, next_split_check);
    } else {
      next_check = next_deadline_check;
    }
  }

  /// Original-frame candidate index currently selected at order position
  /// `p` — the component every index path records for that level. `next`
  /// was already advanced past the current candidate, hence the -1.
  size_t PathComponent(size_t p) const {
    static_assert(kStealable);
    if (p < seg->depth) return seg->path_prefix[p];
    return spine_[p].base + spine_[p].next - 1;
  }

  /// Splits the shallowest active level with enough remaining iterations:
  /// the *tail half* of its untouched sub-range becomes a stealable child
  /// segment. The child records the original-frame index path down to its
  /// level, so the stitching sort puts its emissions exactly where the
  /// carved interval sat in serial order; the owner marks the level
  /// carved so its own stream breaks a block there (see RunLevel).
  /// One split per poll; the prefix copy is the only O(depth) cost.
  void TrySplit() {
    static_assert(kStealable);
    for (size_t d = seg->depth; d < order->size(); ++d) {
      SpineLevel& lvl = spine_[d];
      if (!lvl.active) return;  // active frames are a contiguous prefix
      const size_t remaining = lvl.end - lvl.next;
      if (remaining < kMinSplitWidth) continue;
      // Injected skip: the owner keeps the whole range on its own stack
      // (a thief then simply waits for other work); delay mode stalls the
      // split long enough to skew the schedule.
      if (RLQVO_FAILPOINT_FIRED("enumerate.split")) return;
      const size_t give = remaining / 2;
      const size_t mid = lvl.end - give;
      auto child = std::make_unique<FrontierSegment>();
      child->depth = d;
      child->prefix.resize(d);
      child->path_prefix.resize(d);
      for (size_t p = 0; p < d; ++p) {
        child->prefix[p] = ws->mapping()[(*order)[p]];
        child->path_prefix[p] = PathComponent(p);
      }
      child->base = lvl.base + mid;
      if (lvl.stable) {
        child->cands = std::span<const VertexId>(lvl.cands + mid, give);
      } else {
        // The range lives in this worker's per-depth intersection buffer,
        // which is overwritten the next time this depth intersects: copy
        // the stolen half out. The child's own copy *is* stable, so its
        // sub-splits take spans again.
        child->owned_cands.assign(lvl.cands + mid, lvl.cands + lvl.end);
        child->cands = std::span<const VertexId>(child->owned_cands);
      }
      lvl.end = mid;
      lvl.carved = true;
      scheduler->Push(slot, std::move(child));
      return;
    }
  }

  void EmitMatch() {
    if (!budget->TryClaimMatch()) {
      // Global match budget exhausted. Serially this cannot happen (the
      // claim that reaches the limit stops the run below); in parallel,
      // another segment claimed the final slot first. Either way this
      // match is not emitted, so the total stays exactly at the limit.
      stopped = true;
      return;
    }
    ++result.num_matches;
    ++work;
    if (options->store_embeddings) {
      if constexpr (kStealable) {
        // Consecutive emissions extend the current block; the first one —
        // and the first after crossing a carved-off interval — opens a new
        // block stamped with this emission's index path.
        if (seg->blocks.empty() || pending_block_break_) {
          seg->blocks.emplace_back();
          EmissionBlock& block = seg->blocks.back();
          block.path.resize(order->size());
          for (size_t p = 0; p < order->size(); ++p) {
            block.path[p] = PathComponent(p);
          }
          pending_block_break_ = false;
        }
        seg->blocks.back().embeddings.push_back(ws->mapping());
      } else {
        result.embeddings.push_back(ws->mapping());
      }
    }
    if (budget->LimitReached()) {
      result.hit_match_limit = true;
      stopped = true;
    }
  }

  /// Counts one dispatched intersection, attributing SIMD paths to their
  /// counter.
  void TallyPath(IntersectPath path) {
    ++result.num_intersections;
    if (path == IntersectPath::kSimdMerge ||
        path == IntersectPath::kSimdGallop) {
      ++result.num_simd_intersections;
    }
  }

  /// The candidate loop at order position `depth` over cands[begin, end),
  /// whose storage index 0 sits at original-frame index `base` (nonzero
  /// only for resumed segments — fresh loops own their whole frame).
  /// `membership` is false only for full-candidate-list levels (the root
  /// and component breaks), whose vertices are members by construction.
  /// In the stealable instantiation the loop bounds live in the spine so
  /// TrySplit can shed the tail; `stable` records whether the storage
  /// outlives the frame (see SpineLevel).
  void RunLevel(size_t depth, const VertexId* cands, size_t begin, size_t end,
                size_t base, bool stable, bool membership) {
    const VertexId u = (*order)[depth];
    if constexpr (kStealable) {
      SpineLevel& lvl = spine_[depth];
      lvl.cands = cands;
      lvl.next = begin;
      lvl.end = end;
      lvl.base = base;
      lvl.stable = stable;
      lvl.active = true;
      lvl.carved = false;
      while (lvl.next < lvl.end) {
        const VertexId v = lvl.cands[lvl.next++];
        if (ws->Visited(v)) continue;
        if (membership && !ws->InCandidates(*candidates, u, v)) continue;
        Descend(depth, u, v);
        if (CheckStop()) break;
      }
      lvl.active = false;
      if (lvl.carved) {
        // A split took this level's tail: everything this segment emits
        // from here on comes *after* the carved interval in serial order,
        // so the current emission block ends at this boundary.
        lvl.carved = false;
        pending_block_break_ = true;
      }
    } else {
      (void)base;
      (void)stable;
      for (size_t i = begin; i < end; ++i) {
        const VertexId v = cands[i];
        if (ws->Visited(v)) continue;
        if (membership && !ws->InCandidates(*candidates, u, v)) continue;
        Descend(depth, u, v);
        if (CheckStop()) return;
      }
    }
  }

  /// The serial entry point: the root level of Algorithm 2 over the whole
  /// of C(order[0]) — the first order vertex never has mapped backward
  /// neighbors, so the root is always the full-candidate-list branch.
  void RunWholeQuery() {
    ++result.num_enumerations;
    ++work;
    if (CheckStop()) return;
    RLQVO_DCHECK(ws->backward()[0].empty());
    const std::vector<VertexId>& roots = candidates->candidates((*order)[0]);
    RunLevel(0, roots.data(), 0, roots.size(), /*base=*/0, /*stable=*/true,
             /*membership=*/false);
  }

  /// The work-stealing entry point: resumes one frontier segment on this
  /// worker's workspace. The segment does NOT re-charge the recursive
  /// call that opened its level — that call was charged exactly once, by
  /// whichever Extend (or the merge's root `+1`) created the loop this
  /// segment is a piece of; that is what makes the counter sums
  /// schedule-independent.
  void RunSegment(FrontierSegment* segment) {
    static_assert(kStealable);
    seg = segment;
    result = EnumerateResult();
    stopped = false;
    pending_block_break_ = false;
    // Re-arm the polling quanta on handoff: a stolen segment must not
    // inherit the victim's partially-burned quantum (stale-quantum
    // deadline overshoot), and the immediate check below catches a
    // deadline that expired while the segment sat queued.
    next_deadline_check = work + kDeadlineCheckWorkQuantum;
    next_split_check = work + kSplitCheckWorkQuantum;
    next_check = std::min(next_deadline_check, next_split_check);
    if (budget->deadline().Expired()) {
      result.timed_out = true;
      budget->RequestStop();
      stopped = true;
    } else if (budget->StopRequested()) {
      stopped = true;
    }
    if (!stopped) {
      const std::span<const VertexId> prefix(segment->prefix);
      ws->InstallSegmentPrefix(*order, prefix);
      // Same membership rule the level's original loop used: full
      // candidate lists (root, component breaks) skip the test.
      const bool membership = !ws->backward()[segment->depth].empty();
      RunLevel(segment->depth, segment->cands.data(), 0,
               segment->cands.size(), segment->base, /*stable=*/true,
               membership);
      ws->RemoveSegmentPrefix(*order, prefix);
    }
    segment->result = std::move(result);
    seg = nullptr;
  }

  // Algorithm 2: extend the partial mapping at position `depth` (>= 1) of
  // the order.
  void Extend(size_t depth) {
    ++result.num_enumerations;
    ++work;
    if (CheckStop()) return;
    const VertexId u = (*order)[depth];
    const std::vector<EnumeratorWorkspace::BackwardConstraint>& backward =
        ws->backward()[depth];

    if (backward.empty()) {
      // No mapped backward neighbor (a component break in a disconnected
      // query/order): iterate C(u).
      const std::vector<VertexId>& c = candidates->candidates(u);
      RunLevel(depth, c.data(), 0, c.size(), /*base=*/0, /*stable=*/true,
               /*membership=*/false);
      return;
    }

    // Local candidates = intersection of the backward neighbors' adjacency
    // slices restricted to label(u) — and, for directed/edge-labeled
    // queries, to each backward edge's direction and edge label (the
    // constraints were precomputed per order position by Prepare). Every
    // slice is sorted by id, so the intersection is an ordered merge/gallop
    // (intersect.h) instead of the seed's per-candidate HasEdge probe per
    // additional backward neighbor. In the degenerate case every constraint
    // is (kOut, 0) and NeighborsWith forwards to the skeleton label slice —
    // same spans, bit-identical kernels and counters.
    const std::vector<VertexId>& mapping = ws->mapping();
    const Label ul = query->label(u);
    ++result.local_candidate_sets;

    if (backward.size() == 1) {
      // One backward constraint: its slice IS the local candidate set;
      // iterate it in place without materializing.
      const std::span<const VertexId> slice = data->NeighborsWith(
          mapping[backward[0].u], backward[0].dir, backward[0].elabel, ul);
      result.local_candidates_total += slice.size();
      work += slice.size();
      RunLevel(depth, slice.data(), 0, slice.size(), /*base=*/0,
               /*stable=*/true, /*membership=*/true);
      return;
    }

    // k >= 2 slices: intersect smallest-first so the running result is as
    // small as possible when it meets each remaining slice. The slice
    // gather buffer is shared across depths (consumed before recursing);
    // the result/scratch pair is per depth, because the result is iterated
    // while deeper calls run.
    std::vector<std::span<const VertexId>>& slices = ws->slice_scratch();
    slices.clear();
    for (const EnumeratorWorkspace::BackwardConstraint& b : backward) {
      slices.push_back(data->NeighborsWith(mapping[b.u], b.dir, b.elabel, ul));
    }
    std::sort(slices.begin(), slices.end(), [](const auto& a, const auto& b) {
      return a.size() < b.size();
    });
    if (slices[0].empty()) return;

    EnumeratorWorkspace::LocalBuffers& bufs = ws->local(depth);
    const uint64_t comparisons_before = result.num_probe_comparisons;
    TallyPath(IntersectDispatch(slices[0], slices[1], &bufs.result,
                                &result.num_probe_comparisons));
    for (size_t i = 2; i < slices.size() && !bufs.result.empty(); ++i) {
      TallyPath(IntersectDispatch(bufs.result, slices[i], &bufs.scratch,
                                  &result.num_probe_comparisons));
      std::swap(bufs.result, bufs.scratch);
    }
    result.local_candidates_total += bufs.result.size();
    // Charge the comparisons the intersections performed plus the scan of
    // their output — the work this Extend actually did — so deadline
    // polling stays proportional to effort whatever the slice widths are.
    work += result.num_probe_comparisons - comparisons_before;
    work += bufs.result.size();
    // The intersection output is this worker's per-depth buffer: NOT
    // stable across frames, so a split of this level copies its half.
    RunLevel(depth, bufs.result.data(), 0, bufs.result.size(), /*base=*/0,
             /*stable=*/false, /*membership=*/true);
  }

  void Descend(size_t depth, VertexId u, VertexId v) {
    ws->mapping()[u] = v;
    ws->MarkVisited(v);
    if (depth + 1 == order->size()) {
      ++result.num_enumerations;  // the terminating recursive call (line 3-4)
      ++work;
      EmitMatch();
    } else {
      Extend(depth + 1);
    }
    ws->UnmarkVisited(v);
    ws->mapping()[u] = kInvalidVertex;
  }

 private:
  std::vector<SpineLevel> spine_;  // sized |order| in the stealable path
  /// Stealable only: the next emission must open a fresh EmissionBlock
  /// because a carved-off interval lies between it and the previous one.
  bool pending_block_break_ = false;
};

/// True iff `order` is a permutation of [0, n). Connectivity is not
/// required — Extend handles backward-free positions.
bool IsPermutationOrder(uint32_t n, const std::vector<VertexId>& order) {
  if (order.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (VertexId u : order) {
    if (u >= n || seen[u]) return false;
    seen[u] = true;
  }
  return true;
}

Status ValidateEnumerationInputs(const Graph& query,
                                 const CandidateSet& candidates,
                                 const std::vector<VertexId>& order) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("query graph is empty");
  }
  if (candidates.num_query_vertices() != query.num_vertices()) {
    return Status::InvalidArgument("candidate set size mismatch");
  }
  if (!IsPermutationOrder(query.num_vertices(), order)) {
    return Status::InvalidArgument(
        "order is not a permutation of the query vertices");
  }
  return Status::OK();
}

/// Process-unique token per RunParallel invocation, for the once-per-run
/// per-worker Prepare dedupe (see EnumeratorWorkspace::parallel_run_token).
/// fetch_add with relaxed order: uniqueness is all that matters (the
/// token's *value* is compared, never used to order other memory — the
/// workspace it stamps is only touched by one thread at a time via the
/// pool's per-worker handoff).
std::atomic<uint64_t> g_parallel_run_counter{0};

/// The reusable workspace a worker loop may use on the thread it happens
/// to execute on, or nullptr when only a throwaway will do. Pool workers of
/// *this run's* pool get their per-worker slot; the coordinating caller
/// (which help-runs loops while waiting) gets the caller workspace. A
/// worker of some other pool that wandered in as a coordinator must not
/// index this pool's slots — its index belongs to a different worker set
/// whose slot may be in concurrent use.
EnumeratorWorkspace* PickWorkerWorkspace(const ParallelEnumResources& res) {
  const int worker = ThreadPool::CurrentWorkerIndex();
  if (worker >= 0 && ThreadPool::CurrentPool() == res.pool) {
    if (res.worker_workspaces != nullptr &&
        static_cast<size_t>(worker) < res.worker_workspaces->size()) {
      return &(*res.worker_workspaces)[worker];
    }
    // No per-worker slot: a throwaway, NOT the caller workspace — several
    // pool workers (plus the help-waiting coordinator) can run loops
    // concurrently, and the caller workspace belongs to the coordinator.
    return nullptr;
  }
  return res.caller_workspace;
}

}  // namespace

void EnumWorkCounters::Merge(const EnumWorkCounters& other) {
  ForEachField([&](const char*, uint64_t EnumWorkCounters::*field, Rule rule) {
    uint64_t& mine = this->*field;
    const uint64_t theirs = other.*field;
    switch (rule) {
      case Rule::kSum:
        mine += theirs;
        break;
      case Rule::kMax:
        mine = std::max(mine, theirs);
        break;
      case Rule::kMinNonZero:
        if (theirs != 0 && (mine == 0 || theirs < mine)) mine = theirs;
        break;
    }
  });
}

Result<EnumerateResult> Enumerator::Run(const Graph& query, const Graph& data,
                                        const CandidateSet& candidates,
                                        const std::vector<VertexId>& order,
                                        const EnumerateOptions& options) const {
  EnumeratorWorkspace local;
  return Run(query, data, candidates, order, options, &local);
}

Result<EnumerateResult> Enumerator::Run(const Graph& query, const Graph& data,
                                        const CandidateSet& candidates,
                                        const std::vector<VertexId>& order,
                                        const EnumerateOptions& options,
                                        EnumeratorWorkspace* workspace,
                                        const Deadline* deadline) const {
  RLQVO_CHECK(workspace != nullptr);
  RLQVO_RETURN_NOT_OK(ValidateEnumerationInputs(query, candidates, order));

  // The deadline starts before workspace setup so setup time counts against
  // the per-query budget (callers with a whole-pipeline budget pass their
  // already-running deadline instead).
  Stopwatch watch;
  const Deadline local_deadline(options.time_limit_seconds);
  if (deadline == nullptr) deadline = &local_deadline;

  RLQVO_RETURN_NOT_OK(workspace->Prepare(query, data, candidates, order));

  // The serial path runs on the same budget machinery as the parallel one:
  // emission claims are what make match_limit exact (see EnumBudget), and
  // with match_limit == 0 the claim path never touches the atomic.
  EnumBudget budget(options.match_limit, deadline);
  EnumContext<false> ctx(query, data, candidates, order, options, workspace,
                         &budget);
  if (deadline->Expired()) {
    ctx.result.timed_out = true;
  } else if (!candidates.AnyEmpty()) {
    ctx.RunWholeQuery();
  }
  // Serial scheduler diagnostics: no steals/splits/segments, and the one
  // "worker" did all the work.
  ctx.result.min_worker_work = ctx.work;
  ctx.result.max_worker_work = ctx.work;
  ctx.result.enum_time_seconds = watch.ElapsedSeconds();
  return std::move(ctx.result);
}

Result<EnumerateResult> Enumerator::RunParallel(
    const Graph& query, const Graph& data, const CandidateSet& candidates,
    const std::vector<VertexId>& order, const EnumerateOptions& options,
    const ParallelEnumResources& resources, const Deadline* deadline) const {
  if (resources.pool == nullptr || options.parallel_threads == 0) {
    EnumeratorWorkspace throwaway;
    EnumeratorWorkspace* ws = resources.caller_workspace != nullptr
                                  ? resources.caller_workspace
                                  : &throwaway;
    return Run(query, data, candidates, order, options, ws, deadline);
  }
  RLQVO_RETURN_NOT_OK(ValidateEnumerationInputs(query, candidates, order));

  Stopwatch watch;
  const Deadline local_deadline(options.time_limit_seconds);
  if (deadline == nullptr) deadline = &local_deadline;

  EnumerateResult merged;
  if (deadline->Expired()) {
    // Serial parity: an already-spent budget times out before the root call.
    merged.timed_out = true;
    merged.enum_time_seconds = watch.ElapsedSeconds();
    return merged;
  }
  if (candidates.AnyEmpty()) {
    merged.enum_time_seconds = watch.ElapsedSeconds();
    return merged;
  }

  const std::vector<VertexId>& roots = candidates.candidates(order[0]);
  const uint32_t num_workers = options.parallel_threads;

  EnumBudget budget(options.match_limit, deadline);
  const uint64_t run_token =
      g_parallel_run_counter.fetch_add(1, std::memory_order_relaxed) + 1;

  // Seed the scheduler with up to num_workers contiguous root pieces, one
  // per worker deque, so every loop starts with local work. Each piece
  // records its absolute offset into the root candidate list (`base`), so
  // the index paths its emissions carry line up with every other piece's
  // under the stitching sort below.
  SegmentScheduler scheduler(num_workers, &budget, resources.pool);
  const size_t num_seeds =
      std::min(roots.size(), static_cast<size_t>(num_workers));
  for (size_t k = 0; k < num_seeds; ++k) {
    const size_t begin = k * roots.size() / num_seeds;
    const size_t end = (k + 1) * roots.size() / num_seeds;
    auto seed = std::make_unique<FrontierSegment>();
    seed->depth = 0;
    seed->base = begin;
    seed->cands = std::span<const VertexId>(roots.data() + begin, end - begin);
    scheduler.Seed(static_cast<int>(k), std::move(seed));
  }

  std::vector<Status> worker_status(num_workers);
  // Completion rendezvous between the worker-loop subtasks and the
  // coordinator. A named struct (rather than loose locals) so the
  // GUARDED_BY contract is visible to Clang's thread-safety analysis:
  // `done` may only be touched under `mu`. Each worker_status slot and
  // segment result is written by its loop before the ++done, and read by
  // the coordinator only after done == num_workers under mu — that
  // release/acquire pair publishes them. Waiting for *all* loops (not
  // just for the work to drain) also keeps this frame's scheduler/budget
  // alive until the last late-starting loop task has exited.
  struct Completion {
    Mutex mu;
    CondVar cv;
    size_t done GUARDED_BY(mu) = 0;
  } completion;

  auto worker_loop = [&] {
    const int slot = scheduler.ClaimSlot();
    EnumeratorWorkspace throwaway;
    EnumeratorWorkspace* ws = PickWorkerWorkspace(resources);
    if (ws == nullptr) ws = &throwaway;
    // Prepare once per (run, workspace): consecutive loop tasks of this
    // run on the same worker reuse the prepared state; any interleaved
    // use for another query resets the token and forces a fresh Prepare.
    bool usable = true;
    if (ws->parallel_run_token() != run_token) {
      Status prepared = ws->Prepare(query, data, candidates, order);
      if (!prepared.ok()) {
        worker_status[slot] = std::move(prepared);
        // The run is doomed; stop sibling workers at their next
        // checkpoint and drain the queue without executing.
        budget.RequestStop();
        usable = false;
      } else {
        ws->set_parallel_run_token(run_token);
      }
    }
    EnumContext<true> ctx(query, data, candidates, order, options, ws,
                          &budget);
    ctx.scheduler = &scheduler;
    ctx.slot = slot;
    bool participated = false;
    while (FrontierSegment* seg = scheduler.Acquire(slot)) {
      if (usable) {
        ctx.RunSegment(seg);
        participated = true;
      }
      scheduler.FinishSegment();
    }
    scheduler.RecordWorker(slot, ctx.work, participated);
  };

  // Loop tasks are tagged with this run's budget address so the
  // coordinator can help-run exactly its own subtasks below. (Idle pool
  // *workers* pop anything from the shared queue, so donation across
  // queries still happens — an idle batch worker that pops one of these
  // loops keeps stealing this query's segments until the run drains.)
  const void* run_group = &budget;
  for (uint32_t t = 0; t < num_workers; ++t) {
    resources.pool->Submit(
        [&] {
          worker_loop();
          MutexLock lock(&completion.mu);
          if (++completion.done == num_workers) completion.cv.NotifyAll();
        },
        run_group);
  }

  // Help-while-waiting: run this query's queued worker loops inline
  // instead of blocking a thread they may need. Restricting the help to
  // the run's own group keeps unrelated queued work (e.g. other
  // whole-query tasks on the engine's shared pool) off this stack.
  // Deadlock-freedom: a started loop blocks only in Acquire, and only
  // while another *live* loop is executing a segment (Acquire waits
  // require executing_ > 0) — never on a queued-but-unstarted task; the
  // executing loop finishes or splits, either of which signals the
  // waiter. On a fully-busy pool the coordinator inlines every loop task
  // itself and the run completes serially.
  for (;;) {
    {
      MutexLock lock(&completion.mu);
      if (completion.done == num_workers) break;
    }
    if (!resources.pool->TryRunOneTask(run_group)) {
      MutexLock lock(&completion.mu);
      while (completion.done < num_workers) completion.cv.Wait(&completion.mu);
      break;
    }
  }

  for (uint32_t t = 0; t < num_workers; ++t) {
    if (!worker_status[t].ok()) return worker_status[t];
  }

  // Stitch. Work counters merge (sum) in any order: every loop iteration
  // (and the Extend call that opened each level) ran exactly once, in
  // exactly one segment; a segment's scheduler diagnostics are all zero,
  // and the scheduler fills in the run's own below. Embeddings are
  // ordered by their blocks' index paths — serial enumeration emits in
  // strictly increasing lexicographic index-path order, each block is a
  // maximal consecutive run with no other segment's emission inside its
  // interval (segments break blocks exactly where splits carved their
  // stream, see EmissionBlock), so the sorted concatenation *is* the
  // serial emission sequence — for any thread count, steal schedule and
  // split timing.
  std::vector<std::unique_ptr<FrontierSegment>> segments =
      scheduler.TakeSegments();
  merged.num_enumerations = 1;  // the root recursive call, charged once
  std::vector<EmissionBlock*> blocks;
  for (std::unique_ptr<FrontierSegment>& sp : segments) {
    merged.Merge(sp->result);
    merged.timed_out |= sp->result.timed_out;
    merged.max_segment_depth =
        std::max<uint64_t>(merged.max_segment_depth, sp->depth);
    for (EmissionBlock& block : sp->blocks) blocks.push_back(&block);
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const EmissionBlock* a, const EmissionBlock* b) {
              return a->path < b->path;
            });
  for (EmissionBlock* block : blocks) {
    for (std::vector<VertexId>& embedding : block->embeddings) {
      merged.embeddings.push_back(std::move(embedding));
    }
  }
  merged.num_steals = scheduler.steals();
  merged.num_splits = scheduler.splits();
  const std::pair<uint64_t, uint64_t> spread = scheduler.WorkerWorkMinMax();
  merged.min_worker_work = spread.first;
  merged.max_worker_work = spread.second;
  merged.hit_match_limit = budget.LimitReached();
  merged.enum_time_seconds = watch.ElapsedSeconds();
  return merged;
}

namespace {

void BruteForceExtend(const Graph& q, const Graph& g, uint64_t match_limit,
                      std::vector<VertexId>* mapping,
                      std::vector<bool>* visited, size_t depth,
                      std::vector<std::vector<VertexId>>* out) {
  if (match_limit > 0 && out->size() >= match_limit) return;
  if (depth == q.num_vertices()) {
    out->push_back(*mapping);
    return;
  }
  const VertexId u = static_cast<VertexId>(depth);
  std::vector<std::pair<EdgeDir, EdgeLabel>> constraints;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if ((*visited)[v] || g.label(v) != q.label(u)) continue;
    bool consistent = true;
    // neighbors-ok: endpoints only; labeled edges re-checked via HasEdge.
    for (VertexId w : q.neighbors(u)) {
      if (w >= u) continue;
      // Every labeled query edge between w and u must have a matching data
      // edge between M(w) and v, same direction (from w's side) and same
      // edge label. The degenerate case reduces to one symmetric HasEdge.
      constraints.clear();
      q.EdgesBetween(w, u, &constraints);
      for (const auto& [dir, elabel] : constraints) {
        if (!g.HasEdge((*mapping)[w], v, dir, elabel)) {
          consistent = false;
          break;
        }
      }
      if (!consistent) break;
    }
    if (!consistent) continue;
    (*mapping)[u] = v;
    (*visited)[v] = true;
    BruteForceExtend(q, g, match_limit, mapping, visited, depth + 1, out);
    (*visited)[v] = false;
  }
}

}  // namespace

std::vector<std::vector<VertexId>> BruteForceMatch(const Graph& query,
                                                   const Graph& data,
                                                   uint64_t match_limit) {
  std::vector<std::vector<VertexId>> out;
  if (query.num_vertices() == 0) return out;
  std::vector<VertexId> mapping(query.num_vertices(), kInvalidVertex);
  std::vector<bool> visited(data.num_vertices(), false);
  BruteForceExtend(query, data, match_limit, &mapping, &visited, 0, &out);
  return out;
}

}  // namespace rlqvo
