#pragma once
// Incremental memoization of PCT queries (Eq. 1) across mapping events.
//
// Every mapping event the pruner and the deferring check ask the same two
// questions about machine queues:
//
//   1. "What is the PCT of appending a task of type k to machine j now?"
//      (tailPct ⊛ PET — the deferring check of Fig. 5 step 10), and
//   2. "What is the PCT of each task already queued on machine j, freshly
//      conditioned on the head task's elapsed execution?"  (the proactive
//      dropping walk of Fig. 5 steps 4-6).
//
// Both are asked only to settle `chance <= bar` (prob::certifiedChance), so
// neither normally needs a convolution: question 1 is estimated from the
// machine's Eq. 1 tail against the PET's prefix-sum table, question 2 from
// the running task's conditioned availability against a queue-suffix chain
// PET(q_0) ⊛ … ⊛ PET(q_i) that no `now` or running task enters.  The
// exact append PMFs behind question 1 are memoized for the rare decisions
// the estimates cannot certify (and for appendPct callers).
//
// The memos change only when the machine's (running, queue) configuration
// changes — which sim::Machine announces through its queue-epoch counter —
// or, for the now-conditioned variants, when the head task's elapsed time
// crosses a grid bin.  PctCache keys them on exactly (machine, queue-epoch,
// head-task elapsed bin) and therefore returns bit-identical results to the
// uncached recomputation: convolution operates on bin *contents* while
// absolute anchoring only shifts bin *offsets*, so PMFs cached on a
// relative grid can be re-anchored to any `now` with a cheap shift.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "prob/kernels.h"
#include "prob/pmf.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::heuristics {

class PctCache {
 public:
  /// How many `chance <= bar` decisions each stage of
  /// prob::certifiedChance settled on one decision path.
  struct StageCounts {
    std::uint64_t bounds = 0;
    std::uint64_t estimate = 0;
    std::uint64_t exact = 0;

    void record(prob::ChanceStage stage) {
      switch (stage) {
        case prob::ChanceStage::Bounds: ++bounds; break;
        case prob::ChanceStage::Estimate: ++estimate; break;
        case prob::ChanceStage::Exact: ++exact; break;
      }
    }
    std::uint64_t total() const { return bounds + estimate + exact; }

    StageCounts& operator+=(const StageCounts& o) {
      bounds += o.bounds;
      estimate += o.estimate;
      exact += o.exact;
      return *this;
    }
  };

  struct Stats {
    std::uint64_t appendHits = 0;
    std::uint64_t appendMisses = 0;
    /// Queue-suffix chain levels reused / built (queuedChanceEstimate).
    std::uint64_t chainHits = 0;
    std::uint64_t chainMisses = 0;
    std::uint64_t meanHits = 0;
    std::uint64_t meanMisses = 0;
    /// Decision stages of the step-10 deferring check and of the proactive
    /// dropping walk (steps 4-6); not part of hits()/misses().
    StageCounts deferStages;
    StageCounts dropStages;

    std::uint64_t hits() const { return appendHits + chainHits + meanHits; }
    std::uint64_t misses() const {
      return appendMisses + chainMisses + meanMisses;
    }

    /// Sums another cache's counters into these (a federated trial's total
    /// over its clusters).
    Stats& operator+=(const Stats& o) {
      appendHits += o.appendHits;
      appendMisses += o.appendMisses;
      chainHits += o.chainHits;
      chainMisses += o.chainMisses;
      meanHits += o.meanHits;
      meanMisses += o.meanMisses;
      deferStages += o.deferStages;
      dropStages += o.dropStages;
      return *this;
    }
  };

  /// PCT of appending a task of `type` to machine `m` at `now`; equals
  /// m.tailPct(now, pool, model).convolve(model.pet(type, m.id())) exactly.
  prob::DiscretePmf appendPct(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              sim::TaskType type);

  /// Chance of success (Eq. 2) of that same append:
  /// appendPct(...).successProbability(deadline), but evaluated on the
  /// memoized PMF in place — the hot path pays no PMF copy.
  double appendChance(const sim::Machine& m, sim::Time now,
                      const sim::TaskPool& pool,
                      const sim::ExecutionModel& model, sim::TaskType type,
                      sim::Time deadline);

  /// Certified-estimate form of appendChance: prob::convolvedCdfEstimate
  /// with a = the machine's Eq. 1 tail and b = PET(type, m), whose prefix-
  /// sum table the PET carries — O(|tail|), no convolution, no memo entry
  /// (a dispatch after it goes through the machine's lazy pending append).
  /// NaN when the machine keeps no Eq. 1 tail.
  double appendChanceEstimate(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              sim::TaskType type, sim::Time deadline);

  /// Estimate of the Eq. 2 chance of machine `m`'s queued task `idx` with
  /// every earlier queued task kept — the proactive walk's question —
  /// from a = the running task's availability conditioned at `now` and
  /// b = the queue-suffix chain S_idx = PET(q_0) ⊛ … ⊛ PET(q_idx).  S does
  /// not depend on `now` or on the running task, so it survives elapsed-
  /// bin changes and appends (see MachineEntry::suffix).  NaN past
  /// prob::kMaxCertifiedChainDepth.
  double queuedChanceEstimate(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              std::size_t idx, sim::Time deadline);

  /// Counts one decision of the deferring check / of the proactive walk.
  void recordDeferStage(prob::ChanceStage stage) {
    stats_.deferStages.record(stage);
  }
  void recordDropStage(prob::ChanceStage stage) {
    stats_.dropStages.record(stage);
  }

  /// appendPct, but only if the memo is already hot for `m`'s current
  /// configuration — never computes a convolution.  Lets a dispatch reuse
  /// the PMF the deferring check just produced without *forcing* one when
  /// the check was decided from support bounds alone (the machine's lazy
  /// pending-append covers the cold case bit-identically, and only if the
  /// tail is ever read).
  std::optional<prob::DiscretePmf> peekAppendPct(const sim::Machine& m,
                                                 sim::Time now,
                                                 sim::TaskType type) const;

  /// Memoized pet(running task).conditionalRemainingMean(now − runStart):
  /// the expensive term of a busy machine's expected-ready estimate.  Keyed
  /// on (task type, machine, elapsed bin) — exact because the conditional
  /// remaining PMF only depends on the floored elapsed bin.
  double remainingMean(const sim::Machine& m, sim::Time now,
                       const sim::TaskPool& pool,
                       const sim::ExecutionModel& model);

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{}; }
  void clear();

 private:
  struct MachineEntry {
    bool valid = false;
    std::uint64_t epoch = 0;
    bool tracked = false;
    /// Head-task elapsed-execution bin (floored, as conditionalRemaining
    /// floors; -1 when the machine is not busy) at which the untracked
    /// append entries / the relative availability were computed.  The
    /// tracked Eq. 1 tail ignores it.  -2 = not yet computed.
    std::int64_t elapsedBin = -2;
    std::int64_t availElapsedBin = -2;

    /// Memoized tailPct ⊛ PET per task type, indexed directly by type (task
    /// types are a small dense range — a flat array beats hashing on the
    /// per-candidate path).  On an absolute grid when the machine's Eq. 1
    /// tail is tracked (the tail itself is absolute and independent of
    /// `now`); otherwise on a grid relative to `now`'s bin.
    std::vector<std::optional<prob::DiscretePmf>> appendByType;

    /// Memoized untracked tail (relative grid), feeding appendByType misses.
    std::optional<prob::DiscretePmf> relTail;

    /// Memoized running-task availability on the relative grid (busy
    /// machines only), feeding queuedChanceEstimate.
    std::optional<prob::DiscretePmf> relAvail;

    /// Queue-suffix chain S_1..S_L (S_i = PET(q_0) ⊛ … ⊛ PET(q_i); S_0 is
    /// the PET itself and is not copied), built lazily up to the deepest
    /// level a proactive check asked for, each with its prefix-sum table in
    /// a buffer whose capacity is reused across rebuilds.  The levels
    /// depend only on the queued types, so unlike the memos above they are
    /// not dropped on every epoch bump: a new epoch re-checks suffixTypes
    /// against the queue and keeps the levels up to the first mismatch —
    /// an append keeps them all.
    std::uint64_t suffixEpoch = 0;
    std::vector<sim::TaskType> suffixTypes;  ///< q_0..q_L the levels cover
    std::vector<prob::DiscretePmf> suffix;   ///< S_1..S_L
    std::vector<std::vector<double>> suffixCdf;
  };

  MachineEntry& entryFor(const sim::Machine& m, sim::Time now);
  static std::int64_t binAt(const sim::Machine& m, sim::Time t);
  static std::int64_t elapsedBinOf(const sim::Machine& m, sim::Time now);

  /// Locates (computing on miss) the memoized append PMF for `type`;
  /// `anchorOut` receives the shift to absolute time (0 when the entry is
  /// already absolute, i.e. the machine's Eq. 1 tail is tracked).
  const prob::DiscretePmf& appendEntry(const sim::Machine& m, sim::Time now,
                                       const sim::TaskPool& pool,
                                       const sim::ExecutionModel& model,
                                       sim::TaskType type,
                                       std::int64_t& anchorOut);

  /// Availability PCT on the relative grid (absolute = shifted by
  /// binAt(now)); mirrors Machine::availabilityPct exactly.
  static prob::DiscretePmf relativeAvailability(const sim::Machine& m,
                                                sim::Time now,
                                                const sim::TaskPool& pool,
                                                const sim::ExecutionModel& model);

  /// Per machine: (type, elapsed bin) → conditional remaining mean, with a
  /// one-entry front cache — expectedReady polls every machine at every
  /// mapping event, and consecutive events usually land in the same elapsed
  /// bin, so most lookups never touch the hash table.
  struct MeanMemo {
    bool hasLast = false;
    std::uint64_t lastKey = 0;
    double lastValue = 0.0;
    std::unordered_map<std::uint64_t, double> byKey;
  };

  std::vector<MachineEntry> entries_;
  std::vector<MeanMemo> remainingMeans_;
  Stats stats_;
};

}  // namespace hcs::heuristics
