#include "heuristics/batch.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "prob/kernels.h"


namespace hcs::heuristics {

TwoPhaseBatchHeuristic::Phase1Result TwoPhaseBatchHeuristic::scanPhase1(
    const MappingContext& ctx, sim::TaskType type) {
  constexpr double kNoSecond = std::numeric_limits<double>::infinity();
  const int m = ctx.numMachines();
  Phase1Result phase1;
  phase1.secondEct = kNoSecond;
  if (soaActive_) {
    if (eligibleCount_ == 1) {
      // One free lane (the oversubscribed steady state: each completion
      // frees one slot): the scan's result is that machine with no
      // runner-up — exactly what the loop below computes, minus the loop.
      const auto j = static_cast<sim::MachineId>(soleEligible_);
      const double ect = virtualReady_[soleEligible_] +
                         ctx.expectedExec(type, j);
      return Phase1Result{j, ect, ect, j};
    }
    // Machine-axis SoA: one kernel pass prices all machines off the
    // contiguous ready / exec / mask rows, then the top-2 selection walks
    // the dense result.  Masked lanes hold +inf and are skipped outright
    // (an all-masked row must yield "no machine", never an infinite-ECT
    // winner); the strict-less updates keep the earlier machine on ties —
    // the scalar loop's exact semantics.
    const auto mz = static_cast<std::size_t>(m);
    prob::kernels::ectRow(virtualReady_.data(), ctx.execRow(type),
                          slotMask_.data(), ectScratch_.data(), mz);
    for (std::size_t jz = 0; jz < mz; ++jz) {
      if (slotMask_[jz] != 0.0) continue;
      const auto j = static_cast<sim::MachineId>(jz);
      const double ect = ectScratch_[jz];
      if (phase1.machine == sim::kInvalidMachine) {
        phase1.machine = j;
        phase1.ect = ect;
      } else if (ect < phase1.ect) {
        phase1.secondEct = phase1.ect;
        phase1.secondMachine = phase1.machine;
        phase1.machine = j;
        phase1.ect = ect;
      } else if (ect < phase1.secondEct) {
        phase1.secondEct = ect;
        phase1.secondMachine = j;
      }
    }
  } else {
    for (sim::MachineId j = 0; j < m; ++j) {
      if (slots_[static_cast<std::size_t>(j)] == 0) continue;
      const double ect = virtualReady_[static_cast<std::size_t>(j)] +
                         ctx.expectedExec(type, j);
      if (phase1.machine == sim::kInvalidMachine) {
        phase1.machine = j;
        phase1.ect = ect;
      } else if (ect < phase1.ect) {
        phase1.secondEct = phase1.ect;
        phase1.secondMachine = phase1.machine;
        phase1.machine = j;
        phase1.ect = ect;
      } else if (ect < phase1.secondEct) {
        phase1.secondEct = ect;
        phase1.secondMachine = j;
      }
    }
  }
  if (phase1.machine != sim::kInvalidMachine &&
      phase1.secondEct == kNoSecond) {
    phase1.secondEct = phase1.ect;
    phase1.secondMachine = phase1.machine;
  }
  return phase1;
}

void TwoPhaseBatchHeuristic::markStaleForTouched() {
  // Covers every memoized type — including ones whose tasks are all
  // assigned or that found no eligible machine this call — so the table
  // stays truthful for the *next* call too.
  for (std::size_t t = 0; t < phase1ByType_.size(); ++t) {
    if (phase1Stale_[t]) continue;
    const Phase1Result& p1 = phase1ByType_[t];
    if (p1.machine == sim::kInvalidMachine) continue;  // no machine to touch
    if (touched_[static_cast<std::size_t>(p1.machine)] ||
        touched_[static_cast<std::size_t>(p1.secondMachine)]) {
      phase1Stale_[t] = 1;
    }
  }
}

void TwoPhaseBatchHeuristic::mergeImprovedMachine(Phase1Result& p1,
                                                  double ect,
                                                  sim::MachineId j) {
  // Lexicographic (ect, id) order — the exact tie semantics of the scan's
  // strict-less updates (equal ects keep the earlier machine).
  const auto before = [](double e1, sim::MachineId m1, double e2,
                         sim::MachineId m2) {
    return e1 != e2 ? e1 < e2 : m1 < m2;
  };
  if (p1.machine == sim::kInvalidMachine) {
    p1 = Phase1Result{j, ect, ect, j};
    return;
  }
  const bool hasSecond = p1.secondMachine != p1.machine;
  if (j == p1.machine) {
    // The winner got cheaper: still the winner; keep the no-second
    // fallback (secondEct mirrors ect) in step.
    p1.ect = ect;
    if (!hasSecond) p1.secondEct = ect;
    return;
  }
  if (hasSecond && j == p1.secondMachine) {
    if (before(ect, j, p1.ect, p1.machine)) {
      p1.secondEct = p1.ect;
      p1.secondMachine = p1.machine;
      p1.machine = j;
      p1.ect = ect;
    } else {
      p1.secondEct = ect;
    }
    return;
  }
  if (before(ect, j, p1.ect, p1.machine)) {
    p1.secondEct = p1.ect;
    p1.secondMachine = p1.machine;
    p1.machine = j;
    p1.ect = ect;
  } else if (!hasSecond ||
             before(ect, j, p1.secondEct, p1.secondMachine)) {
    p1.secondEct = ect;
    p1.secondMachine = j;
  }
}

void TwoPhaseBatchHeuristic::applyImprovements(const MappingContext& ctx,
                                               std::size_t typeIdx) {
  Phase1Result& p1 = phase1ByType_[typeIdx];
  for (const sim::MachineId j : improvedScratch_) {
    // A commit may have exhausted the machine's virtual slots since the
    // call-start diff; the scan would skip it, so the merge must too.  Its
    // ready time is read live for the same reason (net of any commits) —
    // an improved-then-committed machine merges at its current value,
    // which is exactly what a rescan would see.
    if (slots_[static_cast<std::size_t>(j)] == 0) continue;
    mergeImprovedMachine(
        p1,
        virtualReady_[static_cast<std::size_t>(j)] +
            ctx.expectedExec(static_cast<sim::TaskType>(typeIdx), j),
        j);
  }
}

template <class ScoreFn, class KeyFn, class SaturatesFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapImpl(
    const MappingContext& ctx, std::span<const sim::TaskId> batch,
    const ScoreFn& score, const KeyFn& withinTypeKey,
    const SaturatesFn& saturates) {
  // An empty span from a persistent, queue-attached caller means "read the
  // candidates off the queue" — the incremental path.  An explicit span
  // (every throwaway context, and the adaptive engine's narrow rounds)
  // runs the reference evaluation, which still benefits from whatever
  // memos the context carries.
  return ctx.persistent() && ctx.batchQueue() != nullptr && batch.empty()
             ? mapIncremental(ctx, score, withinTypeKey, saturates)
             : mapReference(ctx, batch, score);
}

template <class ScoreFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapReference(
    const MappingContext& ctx, std::span<const sim::TaskId> batch,
    const ScoreFn& score) {
  soaActive_ = false;
  if (ctx.persistent()) {
    // Adaptive narrow round: this evaluation virtually commits against its
    // own round state, which leaves the memoized phase-1 table (and its
    // lastReady_ baseline) inconsistent for the incremental path.  Poison
    // the signature so the next incremental call starts from a clean
    // table.  The bucket/journal sync state is untouched — the journal
    // keeps recording through narrow rounds, so it stays replayable.
    lastNumMachines_ = -1;
  }
  const int m = ctx.numMachines();
  virtualReady_.resize(static_cast<std::size_t>(m));
  slots_.resize(static_cast<std::size_t>(m));
  for (sim::MachineId j = 0; j < m; ++j) {
    virtualReady_[static_cast<std::size_t>(j)] = ctx.expectedReady(j);
    slots_[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
  }
  unmapped_.assign(batch.begin(), batch.end());
  std::vector<Assignment> result;

  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  phase1ByType_.resize(numTypes);
  phase1Stale_.assign(numTypes, char{1});

  while (!unmapped_.empty()) {
    const bool anySlot =
        std::any_of(slots_.begin(), slots_.end(),
                    [](std::size_t s) { return s > 0; });
    if (!anySlot) break;

    // One candidate per machine per round.
    best_.assign(static_cast<std::size_t>(m), Candidate{});
    bool anyCandidate = false;
    for (std::size_t i = 0; i < unmapped_.size(); ++i) {
      const sim::TaskId task = unmapped_[i];
      const sim::TaskType type = ctx.pool()[task].type;
      // Phase 1: machine with the minimum expected completion time among
      // those with a free virtual slot (the runner-up is kept for
      // sufferage-style scores).  The scan's inputs are the virtual queue
      // state and the task's TYPE — every unmapped task of a type shares
      // the identical result, so each round scans once per live type
      // instead of once per task.
      const auto typeIdx = static_cast<std::size_t>(type);
      if (phase1Stale_[typeIdx]) {
        phase1ByType_[typeIdx] = scanPhase1(ctx, type);
        phase1Stale_[typeIdx] = 0;
      }
      const Phase1Result& phase1 = phase1ByType_[typeIdx];
      if (phase1.machine == sim::kInvalidMachine) continue;
      // Phase 2 bookkeeping: keep the best-scoring candidate per machine.
      const Score s = score(ctx, task, phase1);
      Candidate& slot = best_[static_cast<std::size_t>(phase1.machine)];
      if (slot.task == sim::kInvalidTask || s < slot.score) {
        slot = Candidate{task, s, i};
      }
      anyCandidate = true;
    }
    if (!anyCandidate) break;

    // Commit this round's winners (highest unmapped index first so the
    // pending erases do not invalidate the stored indices).
    winners_.clear();
    for (sim::MachineId j = 0; j < m; ++j) {
      Candidate& c = best_[static_cast<std::size_t>(j)];
      if (c.task == sim::kInvalidTask) continue;
      result.push_back(Assignment{c.task, j});
      slots_[static_cast<std::size_t>(j)] -= 1;
      virtualReady_[static_cast<std::size_t>(j)] +=
          ctx.expectedExec(ctx.pool()[c.task].type, j);
      winners_.push_back(c);
    }
    std::sort(winners_.begin(), winners_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.unmappedIndex > b.unmappedIndex;
              });
    for (const Candidate& c : winners_) {
      unmapped_.erase(unmapped_.begin() +
                      static_cast<std::ptrdiff_t>(c.unmappedIndex));
    }
    // The winners changed the virtual queue state every phase-1 scan reads.
    std::fill(phase1Stale_.begin(), phase1Stale_.end(), char{1});
  }
  return result;
}

template <class ScoreFn, class KeyFn, class SaturatesFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapIncremental(
    const MappingContext& ctx, const ScoreFn& score,
    const KeyFn& withinTypeKey, const SaturatesFn& saturates) {
  const sim::BatchQueue& queue = *ctx.batchQueue();
  const int m = ctx.numMachines();
  const auto mz = static_cast<std::size_t>(m);
  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  virtualReady_.resize(mz);
  slots_.resize(mz);
  slotMask_.resize(mz);
  ectScratch_.resize(mz);
  eligibleCount_ = 0;
  for (sim::MachineId j = 0; j < m; ++j) {
    const auto jz = static_cast<std::size_t>(j);
    slots_[jz] = ctx.freeSlots(j);
    const bool eligible = slots_[jz] > 0;
    // Ready times are priced only for machines a scan can pick: a masked
    // lane's +inf poisons it before its ready value could matter, commits
    // and improvement merges only touch eligible machines, and the next
    // call's diff reads a lane's baseline only if the lane was eligible at
    // this call's END — which implies eligible (so priced) here at entry.
    // In the oversubscribed steady state this is the difference between
    // repricing the whole cluster per event and repricing the one machine
    // whose completion freed a slot.
    virtualReady_[jz] = eligible ? ctx.expectedReady(j) : 0.0;
    slotMask_[jz] =
        eligible ? 0.0 : std::numeric_limits<double>::infinity();
    eligibleCount_ += eligible ? 1u : 0u;
    if (eligible) soleEligible_ = jz;
  }
  soaActive_ = true;
  ++callGen_;

  // Decide which memoized phase-1 results survived the world's mutations
  // since the previous call: diff each machine's (ready, eligibility)
  // against the end of that call.  A *worsening* of a type's winner or
  // runner-up forces that type to rescan (the third-best is unknown);
  // every other worsening is invisible to the memo (a worsened non-winner
  // cannot overtake a minimum).  An *improvement* — a machine regained
  // slots or got cheaper — merges into each memo's top-2 in O(1): it can
  // only enter from outside the pair.
  const bool signatureChanged =
      lastModel_ != static_cast<const void*>(&ctx.model()) ||
      lastMachines_ != static_cast<const void*>(&ctx.machine(0)) ||
      lastNumMachines_ != m || phase1ByType_.size() != numTypes;
  if (signatureChanged) {
    phase1ByType_.assign(numTypes, Phase1Result{});
    phase1Stale_.assign(numTypes, char{1});
    typeMergeGen_.assign(numTypes, 0);
    improvedScratch_.clear();
    lastModel_ = &ctx.model();
    lastMachines_ = &ctx.machine(0);
    lastNumMachines_ = m;
  } else if (ctx.now() != lastNow_) {
    // A new mapping event re-anchors every ready time at the new `now`
    // (conditional remaining means shift non-linearly), so the per-machine
    // diff below lands in its "most machines moved" wholesale branch
    // anyway — take it directly and skip the compare loop.  Wholesale
    // staling is always identity-safe: a stale memo is rescanned, and a
    // rescan is the ground truth.
    std::fill(phase1Stale_.begin(), phase1Stale_.end(), char{1});
    improvedScratch_.clear();
  } else {
    touched_.assign(mz, 0);
    improvedScratch_.clear();
    bool anyWorsened = false;
    std::size_t changed = 0;
    for (std::size_t j = 0; j < mz; ++j) {
      const bool eligible = slots_[j] > 0;
      const bool wasEligible = static_cast<bool>(lastEligible_[j]);
      if (eligible &&
          (!wasEligible || virtualReady_[j] < lastReady_[j])) {
        improvedScratch_.push_back(static_cast<sim::MachineId>(j));
        ++changed;
      } else if (eligible != wasEligible ||
                 (eligible && virtualReady_[j] != lastReady_[j])) {
        touched_[j] = 1;
        anyWorsened = true;
        ++changed;
      }
    }
    if (changed * 2 > mz) {
      // Most machines moved (typical across events: `now` shifted every
      // ready time) — per-type bookkeeping costs more than letting the
      // live types lazily rescan.
      std::fill(phase1Stale_.begin(), phase1Stale_.end(), char{1});
      improvedScratch_.clear();
    } else if (anyWorsened) {
      markStaleForTouched();
    }
    // Improvements fold in lazily, per type, at first read (below).
  }

  // Keep the per-type buckets — each sorted by (key, arrival seq) so its
  // head is the type's best phase-2 candidate — in sync with the arrival
  // queue: O(what changed) per call, never a wholesale rebuild.
  buckets_.sync(ctx, withinTypeKey);

  cursor_ = buckets_.heads();
  liveTypes_.clear();
  for (std::size_t t = 0; t < numTypes; ++t) {
    if (cursor_[t] < buckets_.bucket(t).size()) {
      liveTypes_.push_back(static_cast<int>(t));
    }
  }

  std::vector<Assignment> result;
  while (!liveTypes_.empty()) {
    // O(1) saturation guard (the reference's any_of over slots_): once the
    // last virtual slot fills, every phase-1 scan would come back empty —
    // skip the whole candidate sweep.  The memo table needs no repair: the
    // commit that drained the last slot stale-marked its dependents, and
    // staleness only ever forces a rescan, never a wrong answer.
    if (eligibleCount_ == 0) break;
    best_.assign(mz, Candidate{});
    bool anyCandidate = false;
    for (std::size_t k = 0; k < liveTypes_.size();) {
      const auto typeIdx = static_cast<std::size_t>(liveTypes_[k]);
      const auto& bucket = buckets_.bucket(typeIdx);
      std::uint32_t& cur = cursor_[typeIdx];
      // Entries assigned this call or deferred this event are out of the
      // running; both states are sticky for the rest of the call, so the
      // cursor never has to back up.
      while (cur < bucket.size() &&
             (bucket[cur].mark == callGen_ ||
              bucket[cur].mark == TypeBuckets::kDead ||
              queue.deferredThisEvent(bucket[cur].task))) {
        ++cur;
      }
      if (cur == bucket.size()) {
        // Type exhausted for this call; its memo stays live (and keeps
        // being stale-marked) for the next one.
        liveTypes_[k] = liveTypes_.back();
        liveTypes_.pop_back();
        continue;
      }
      if (phase1Stale_[typeIdx]) {
        phase1ByType_[typeIdx] =
            scanPhase1(ctx, static_cast<sim::TaskType>(typeIdx));
        phase1Stale_[typeIdx] = 0;
        typeMergeGen_[typeIdx] = callGen_;
      } else if (typeMergeGen_[typeIdx] != callGen_) {
        if (!improvedScratch_.empty()) applyImprovements(ctx, typeIdx);
        typeMergeGen_[typeIdx] = callGen_;
      }
      const Phase1Result& phase1 = phase1ByType_[typeIdx];
      if (phase1.machine == sim::kInvalidMachine) {
        // No machine has slots for this type; virtual slots only shrink
        // within a call, so it is out for the rest of it.
        liveTypes_[k] = liveTypes_.back();
        liveTypes_.pop_back();
        continue;
      }
      // The type's best candidate.  Normally the head: the bucket is
      // sorted by (key, arrival seq) and the score is monotone in the
      // key, so the head carries the type's minimal (score, arrival)
      // pair.  But when the head's score SATURATES (MMU collapses every
      // hopeless slack to -inf urgency), all saturated tasks tie on score
      // and the reference breaks the tie by arrival order alone — so scan
      // the saturated prefix (contiguous: keys ascend, saturation is
      // downward-closed in the key) for the earliest arrival.
      std::uint32_t chosen = cur;
      if (saturates(bucket[cur].key, phase1)) {
        for (std::uint32_t i = cur + 1;
             i < bucket.size() && saturates(bucket[i].key, phase1); ++i) {
          if (bucket[i].mark != callGen_ &&
              bucket[i].mark != TypeBuckets::kDead &&
              bucket[i].seq < bucket[chosen].seq &&
              !queue.deferredThisEvent(bucket[i].task)) {
            chosen = i;
          }
        }
      }
      const sim::TaskId task = bucket[chosen].task;
      const Score s = score(ctx, task, phase1);
      // Exactly the reference's "first minimal wins": minimize
      // (score, arrival order) — per-machine minimum over the per-type
      // minima equals the reference's minimum over all candidates.
      Candidate& slot = best_[static_cast<std::size_t>(phase1.machine)];
      if (slot.task == sim::kInvalidTask || s < slot.score ||
          (!(slot.score < s) && bucket[chosen].seq < slot.unmappedIndex)) {
        slot = Candidate{task, s,
                         static_cast<std::size_t>(bucket[chosen].seq),
                         static_cast<int>(typeIdx), chosen};
      }
      anyCandidate = true;
      ++k;
    }
    if (!anyCandidate) break;

    // Commit this round's winners in machine order (the order the
    // reference emits) and invalidate exactly their dependents.
    touched_.assign(mz, 0);
    for (sim::MachineId j = 0; j < m; ++j) {
      const Candidate& c = best_[static_cast<std::size_t>(j)];
      if (c.task == sim::kInvalidTask) continue;
      result.push_back(Assignment{c.task, j});
      slots_[static_cast<std::size_t>(j)] -= 1;
      if (slots_[static_cast<std::size_t>(j)] == 0) {
        slotMask_[static_cast<std::size_t>(j)] =
            std::numeric_limits<double>::infinity();
        if (--eligibleCount_ == 1) {
          for (std::size_t jz = 0; jz < mz; ++jz) {
            if (slotMask_[jz] == 0.0) soleEligible_ = jz;
          }
        }
      }
      virtualReady_[static_cast<std::size_t>(j)] +=
          ctx.expectedExec(static_cast<sim::TaskType>(c.bucketType), j);
      buckets_.bucket(static_cast<std::size_t>(c.bucketType))[c.bucketIndex]
          .mark = callGen_;
      touched_[static_cast<std::size_t>(j)] = 1;
    }
    markStaleForTouched();
  }

  // Types that never folded this call's improvements lose them for good
  // (the improved list dies with the call) — their memos must rescan on
  // next read.
  if (!improvedScratch_.empty()) {
    for (std::size_t t = 0; t < phase1ByType_.size(); ++t) {
      if (!phase1Stale_[t] && typeMergeGen_[t] != callGen_) {
        phase1Stale_[t] = 1;
      }
    }
  }

  // The baseline the next call diffs against: this call's final virtual
  // queue state (a dispatch turns the virtual assignment real, so an
  // unchanged machine reads back the same ready time).
  lastReady_.assign(virtualReady_.begin(), virtualReady_.end());
  lastEligible_.resize(mz);
  for (std::size_t j = 0; j < mz; ++j) {
    lastEligible_[j] = slots_[j] > 0 ? 1 : 0;
  }
  lastNow_ = ctx.now();
  return result;
}

std::vector<Assignment> MinCompletionMinCompletion::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   return Score{phase1.ect, phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> MinCompletionSoonestDeadline::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext& c, sim::TaskId task,
                    const Phase1Result& phase1) {
                   return Score{c.pool()[task].deadline, phase1.ect};
                 },
                 [](const MappingContext& c, sim::TaskId task) {
                   return c.pool()[task].deadline;
                 },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> MinCompletionMaxUrgency::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext& c, sim::TaskId task,
                    const Phase1Result& phase1) {
                   const double slack = c.pool()[task].deadline - phase1.ect;
                   // Eq. 3: urgency = 1 / slack.  Maximal urgency (lowest
                   // score) when the deadline is already at or past the
                   // expected completion.
                   const double urgency =
                       slack <= 1e-12
                           ? std::numeric_limits<double>::infinity()
                           : 1.0 / slack;
                   return Score{-urgency, phase1.ect};
                 },
                 // -urgency is monotone non-decreasing in the deadline for
                 // any fixed ECT (and saturates to -inf for hopeless
                 // slack), so the deadline orders a type exactly as the
                 // score does.
                 [](const MappingContext& c, sim::TaskId task) {
                   return c.pool()[task].deadline;
                 },
                 // The plateau of Eq. 3: every deadline at or under
                 // ect + eps is "maximally urgent" and scores exactly
                 // -inf — the same arithmetic as the score lambda.
                 [](double key, const Phase1Result& phase1) {
                   return key - phase1.ect <= 1e-12;
                 });
}

std::vector<Assignment> MaxMin::map(const MappingContext& ctx,
                                    std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   return Score{-phase1.ect, phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> SufferageHeuristic::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   // Largest sufferage (second-best minus best completion)
                   // wins the slot.
                   return Score{-(phase1.secondEct - phase1.ect), phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

}  // namespace hcs::heuristics
