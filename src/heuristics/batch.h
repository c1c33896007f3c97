#pragma once
// Batch-mode mapping heuristics for heterogeneous systems (§III-C):
// MM (MinCompletion-MinCompletion), MSD (MinCompletion-SoonestDeadline),
// MMU (MinCompletion-MaxUrgency).
//
// All three share the paper's two-phase virtual-queue process:
//   Phase 1 — for every unmapped task, find the machine offering the
//             minimum expected completion time (among machines with free
//             virtual queue slots).
//   Phase 2 — for each machine with a free slot, choose among its phase-1
//             candidates by a per-heuristic criterion, assign virtually,
//             and repeat until the virtual queues are full or the unmapped
//             queue is empty.
//
// Two executions of that process live here, selected by the context's
// lifetime and bit-identical in their assignments:
//
//  - Reference (throwaway contexts): every round re-scans phase 1 per live
//    task type and re-scores phase 2 over every unmapped task, exactly as
//    the paper reads.
//  - Incremental (persistent contexts with an attached batch queue — the
//    incremental mapping engine): the per-type phase-1 results live in a
//    table that survives rounds and map() calls, invalidated only for
//    types whose min- or second-ECT machine was touched by a commit (the
//    virtual queue state of every other machine is unchanged, so their
//    scan would be byte-identical); phase 2 walks one candidate per type —
//    tasks of a type live in per-type buckets sorted by a static
//    within-type key, so the type's head is its best phase-2 candidate —
//    instead of the whole batch.  The buckets (TypeBuckets) are not
//    rebuilt per call: they replay the batch queue's mutation journal, so
//    a mapping event costs O(what changed), not O(queue).  Between map()
//    calls the phase-1 table's validity is decided by comparing each
//    machine's (ready, eligibility) against the end of the previous call:
//    if nothing improved, only the worsened machines' dependent types
//    rescan.
//
// The engine is statically bound to each heuristic's phase-2 score (a
// template, not a virtual call): the score runs on the hot path of every
// round.  Scratch buffers live on the heuristic object — one warm-up
// allocation per trial instead of five per round.

#include <cstdint>
#include <limits>

#include "heuristics/heuristic.h"
#include "heuristics/type_buckets.h"

namespace hcs::heuristics {

/// Shared two-phase engine; subclasses supply the phase-2 selection score
/// (lower wins) through the statically bound mapImpl().
class TwoPhaseBatchHeuristic : public BatchHeuristic {
 public:
  /// The incremental path reads candidates straight off ctx.batchQueue().
  bool consumesBatchQueue() const override { return true; }

 protected:
  /// Lexicographic comparison: primary first, expected completion breaks
  /// ties (as MSD specifies; harmless for the others).
  struct Score {
    double primary = 0.0;
    double completion = 0.0;

    bool operator<(const Score& other) const {
      if (primary != other.primary) return primary < other.primary;
      return completion < other.completion;
    }
  };

  /// What phase 1 learned about a task type this round.
  struct Phase1Result {
    sim::MachineId machine = sim::kInvalidMachine;  ///< min-ECT machine
    double ect = 0.0;                               ///< its completion time
    /// Completion time on the runner-up machine (= ect when only one
    /// machine has slots); secondEct - ect is the classic sufferage value.
    double secondEct = 0.0;
    /// The runner-up machine itself (= machine when there is no second):
    /// with `machine`, the full support of the memoized result — a commit
    /// that touches neither leaves a rescan byte-identical.
    sim::MachineId secondMachine = sim::kInvalidMachine;
  };

  /// One machine's best phase-2 candidate this round.
  struct Candidate {
    sim::TaskId task = sim::kInvalidTask;
    Score score;
    /// Reference path: index into unmapped_.  Incremental path: the
    /// task's stable arrival sequence number (the tie-break).
    std::size_t unmappedIndex = 0;
    /// Incremental path only: where the winner lives, to stamp it
    /// assigned at commit.
    int bucketType = -1;
    std::uint32_t bucketIndex = 0;
  };

  /// The two-phase loop with `score(ctx, task, phase1)` inlined at the
  /// call site; every concrete heuristic's map() delegates here.
  ///
  /// Path selection: the incremental path runs iff the context is
  /// persistent with an attached batch queue AND `batch` is empty — an
  /// empty span is the scheduler's "read the candidates off the queue"
  /// signal.  A persistent caller that passes an explicit candidate span
  /// gets the reference evaluation against the persistent memos instead:
  /// that is how the adaptive engine bypasses the delta bookkeeping below
  /// its queue-depth threshold while keeping the trial-lifetime
  /// ready/exec caches.  Both paths assign identically.
  ///
  /// `withinTypeKey(ctx, task)` must order the tasks of one type exactly
  /// as the score does for ANY phase-1 result: score must be monotone
  /// non-decreasing in the key, and equal keys must give equal scores.
  /// (All five built-ins satisfy this with either a constant or the
  /// deadline.)  The incremental path sorts each type's tasks by
  /// (key, batch position) once and then scores only the head.
  ///
  /// `saturates(key, phase1)` must return true exactly when the score
  /// collapses to its minimal plateau at that key (MMU's -inf urgency for
  /// hopeless slack) — distinct keys inside the plateau share one score,
  /// so the winner is the earliest *batch position*, not the smallest key,
  /// and the incremental path must scan the saturated prefix instead of
  /// trusting the head.  Saturation must be downward-closed in the key.
  template <class ScoreFn, class KeyFn, class SaturatesFn>
  std::vector<Assignment> mapImpl(const MappingContext& ctx,
                                  std::span<const sim::TaskId> batch,
                                  const ScoreFn& score,
                                  const KeyFn& withinTypeKey,
                                  const SaturatesFn& saturates);

 private:
  template <class ScoreFn>
  std::vector<Assignment> mapReference(const MappingContext& ctx,
                                       std::span<const sim::TaskId> batch,
                                       const ScoreFn& score);
  /// Queue-direct delta evaluation; candidates come from ctx.batchQueue().
  template <class ScoreFn, class KeyFn, class SaturatesFn>
  std::vector<Assignment> mapIncremental(const MappingContext& ctx,
                                         const ScoreFn& score,
                                         const KeyFn& withinTypeKey,
                                         const SaturatesFn& saturates);

  /// Minimum-ECT scan over the machines with free virtual slots; reads
  /// slots_ / virtualReady_.  The single source of the phase-1 arithmetic
  /// for both paths.  On the incremental path (soaActive_) the ECTs for
  /// all machines come from one prob::kernels::ectRow pass over the
  /// contiguous ready / exec / slot-mask rows; the reference path keeps
  /// the scalar per-machine loop.  Identical results either way (the
  /// kernel's lane arithmetic is the scalar sum, see kernels.h).
  Phase1Result scanPhase1(const MappingContext& ctx, sim::TaskType type);

  /// Marks stale every memoized phase-1 result whose winner or runner-up
  /// machine is in touched_.
  void markStaleForTouched();

  /// Folds an improved machine (cheaper ready time, or newly eligible)
  /// into a memoized phase-1 result in O(1): the memo is exactly the
  /// top-2 of (ect, machine) pairs under the scan's lexicographic order,
  /// and an improvement can only enter from outside — no third-best
  /// knowledge needed (unlike a worsening of the winner/runner-up, which
  /// forces a rescan).
  static void mergeImprovedMachine(Phase1Result& p1, double ect,
                                   sim::MachineId j);

  /// Applies mergeImprovedMachine for every still-eligible machine in
  /// improvedScratch_ to one type's memo — called lazily, the first time a
  /// call actually reads that type (most types are never read in a given
  /// call, so eager merging across the whole table wastes the savings).
  void applyImprovements(const MappingContext& ctx, std::size_t typeIdx);

  /// Per-round working sets, reused across mapping events (the heuristic
  /// object lives for the whole trial).
  std::vector<double> virtualReady_;
  std::vector<std::size_t> slots_;
  std::vector<sim::TaskId> unmapped_;
  std::vector<Candidate> best_;
  std::vector<Candidate> winners_;
  /// SoA companions of slots_ on the incremental path: mask[j] is 0.0
  /// while machine j has free virtual slots and +inf once it does not, so
  /// one ectRow pass prices every machine with ineligible lanes poisoned
  /// to +inf; ectScratch_ receives the row.  eligibleCount_ mirrors the
  /// number of zero-mask lanes — the O(1) "any virtual slot left" guard
  /// that ends the round loop without another phase-1 sweep.
  std::vector<double> slotMask_;
  std::vector<double> ectScratch_;
  std::size_t eligibleCount_ = 0;
  /// Index of the only zero-mask lane while eligibleCount_ == 1 — the
  /// oversubscribed steady state (one slot frees per completion), where
  /// every phase-1 "scan" collapses to a single add.
  std::size_t soleEligible_ = 0;
  bool soaActive_ = false;  ///< scanPhase1 may read slotMask_/ectScratch_
  /// Phase-1 results memoized per task type (phase 1 reads only the
  /// virtual queue state and the task's type).  The reference path resets
  /// the stale flags wholesale every round; the incremental path clears
  /// exactly the types a commit invalidated and carries the table across
  /// rounds and calls.
  std::vector<Phase1Result> phase1ByType_;
  std::vector<char> phase1Stale_;

  // --- Incremental-path state (persistent contexts only) ---------------------

  /// Per type: its queued tasks sorted by (key, seq); head = best phase-2
  /// candidate of the type.  A live entry's mark is the callGen_ of the
  /// call that assigned it.
  TypeBuckets buckets_;
  std::vector<std::uint32_t> cursor_;  ///< per type: first candidate entry
  std::vector<int> liveTypes_;         ///< types with candidate tasks
  std::vector<char> touched_;          ///< per machine, one commit's wake
  std::vector<sim::MachineId> improvedScratch_;  ///< cross-call gains
  /// Per type: callGen_ of the last call whose improvements were folded
  /// into (or whose rescan refreshed) the memo.
  std::vector<std::uint32_t> typeMergeGen_;
  std::uint32_t callGen_ = 0;          ///< map() call counter (stamps)
  /// Virtual queue state at the end of the previous map() call — the
  /// baseline the next call diffs against to decide which memo entries
  /// survived the world's mutations.
  std::vector<double> lastReady_;
  std::vector<char> lastEligible_;
  /// `now` of the previous call: a changed now re-anchors every ready
  /// time, so the diff short-circuits to the wholesale-stale branch.
  /// NaN compares unequal to everything — the first call always stales.
  sim::Time lastNow_ = std::numeric_limits<double>::quiet_NaN();
  const void* lastModel_ = nullptr;
  const void* lastMachines_ = nullptr;
  int lastNumMachines_ = -1;
};

/// MM: phase 2 also minimizes expected completion time (classic MinMin).
class MinCompletionMinCompletion final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MM"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MSD: phase 2 picks the soonest deadline, ties broken by completion time.
class MinCompletionSoonestDeadline final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MSD"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MMU: phase 2 maximizes urgency U = 1 / (deadline - E[C]) (Eq. 3).
/// A non-positive slack means the task is about to miss its deadline; it is
/// treated as maximally urgent — precisely the behaviour that makes MMU
/// benefit most from pruning (§V-E).
class MinCompletionMaxUrgency final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MMU"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MaxMin (extension; Braun et al.'s classic counterpart to MinMin): phase 2
/// picks the *largest* minimum completion time, so long tasks claim their
/// machines before short ones fill the slots.
class MaxMin final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MaxMin"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// Sufferage (extension; Maheswaran et al. 1999): phase 2 prioritizes the
/// task that would suffer most from losing its best machine — the gap
/// between its second-best and best completion times.
class SufferageHeuristic final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "Sufferage"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

}  // namespace hcs::heuristics
