#include "heuristics/pct_cache.h"

#include <cmath>
#include <limits>
#include <utility>

#include "prob/arena.h"
#include "prob/kernels.h"

namespace hcs::heuristics {

namespace {

/// Returns every PMF owned by a memo container to the arena before the
/// container is cleared — the buffers feed the replacement chain's kernels.
void recycleValues(prob::PmfArena& arena,
                   std::vector<std::optional<prob::DiscretePmf>>& slots) {
  for (auto& slot : slots) {
    if (slot.has_value()) {
      arena.recycle(std::move(*slot));
      slot.reset();
    }
  }
}

/// The bins of an idle machine's availability: a point mass at `now`.
constexpr double kIdlePointMass[] = {1.0};

}  // namespace

std::int64_t PctCache::binAt(const sim::Machine& m, sim::Time t) {
  // Mirrors Machine::binAt.
  return static_cast<std::int64_t>(std::llround(t / m.binWidth()));
}

std::int64_t PctCache::elapsedBinOf(const sim::Machine& m, sim::Time now) {
  if (!m.busy()) return -1;
  // Mirrors the flooring inside DiscretePmf::conditionalRemaining: two
  // `now` values in the same floored bin produce the same remaining PMF.
  return static_cast<std::int64_t>(
      std::floor((now - m.runningSince()) / m.binWidth() + 1e-9));
}

prob::DiscretePmf PctCache::relativeAvailability(
    const sim::Machine& m, sim::Time now, const sim::TaskPool& pool,
    const sim::ExecutionModel& model) {
  prob::PmfArena& arena = prob::PmfArena::local();
  if (!m.busy()) {
    return prob::pointMassInto(arena, 0, m.binWidth());
  }
  const sim::Task& task = pool[m.runningTask()];
  return prob::conditionalRemainingInto(arena, model.pet(task.type, m.id()),
                                        now - m.runningSince());
}

PctCache::MachineEntry& PctCache::entryFor(const sim::Machine& m,
                                           sim::Time /*now*/) {
  const auto idx = static_cast<std::size_t>(m.id());
  if (entries_.size() <= idx) entries_.resize(idx + 1);
  MachineEntry& entry = entries_[idx];
  if (!entry.valid || entry.epoch != m.queueEpoch()) {
    // Invalidate in place: the dead memo PMFs feed the arena (their buffers
    // become the replacement chain's kernels' outputs) and the containers
    // keep their capacity.
    prob::PmfArena& arena = prob::PmfArena::local();
    recycleValues(arena, entry.appendByType);
    if (entry.relTail.has_value()) {
      arena.recycle(std::move(*entry.relTail));
      entry.relTail.reset();
    }
    if (entry.relAvail.has_value()) {
      arena.recycle(std::move(*entry.relAvail));
      entry.relAvail.reset();
    }
    entry.elapsedBin = -2;
    entry.availElapsedBin = -2;
    entry.valid = true;
    entry.epoch = m.queueEpoch();
    entry.tracked = m.tailTracked();
  }
  return entry;
}

const prob::DiscretePmf& PctCache::appendEntry(const sim::Machine& m,
                                               sim::Time now,
                                               const sim::TaskPool& pool,
                                               const sim::ExecutionModel& model,
                                               sim::TaskType type,
                                               std::int64_t& anchorOut) {
  MachineEntry& entry = entryFor(m, now);
  const prob::DiscretePmf& pet = model.pet(type, m.id());
  prob::PmfArena& arena = prob::PmfArena::local();
  const auto typeIdx = static_cast<std::size_t>(type);
  if (entry.appendByType.size() <= typeIdx) {
    entry.appendByType.resize(
        static_cast<std::size_t>(model.numTaskTypes()));
  }

  if (entry.tracked) {
    // The Eq. 1 tail is anchored at absolute times and independent of
    // `now`: memoized convolutions survive until the next queue mutation.
    anchorOut = 0;
    std::optional<prob::DiscretePmf>& slot = entry.appendByType[typeIdx];
    if (slot.has_value()) {
      ++stats_.appendHits;
      return *slot;
    }
    ++stats_.appendMisses;
    slot = prob::convolveInto(arena, m.tailPctRef(now, pool, model), pet);
    return *slot;
  }

  // Untracked tail: the chain is conditioned at `now`, so memoize on the
  // relative grid (valid while the head's elapsed bin holds) and re-anchor
  // with a shift.  Convolution never reads bin offsets, so the shifted
  // result is bit-identical to the uncached absolute-grid computation.
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  if (entry.elapsedBin != elapsedBin || !entry.relTail.has_value()) {
    entry.elapsedBin = elapsedBin;
    recycleValues(arena, entry.appendByType);
    prob::DiscretePmf acc = relativeAvailability(m, now, pool, model);
    for (const sim::TaskType qType : m.queueTypes()) {
      prob::convolveInPlace(arena, acc, model.pet(qType, m.id()));
    }
    if (entry.relTail.has_value()) arena.recycle(std::move(*entry.relTail));
    entry.relTail = std::move(acc);
  }
  anchorOut = binAt(m, now);
  std::optional<prob::DiscretePmf>& slot = entry.appendByType[typeIdx];
  if (slot.has_value()) {
    ++stats_.appendHits;
    return *slot;
  }
  ++stats_.appendMisses;
  slot = prob::convolveInto(arena, *entry.relTail, pet);
  return *slot;
}

prob::DiscretePmf PctCache::appendPct(const sim::Machine& m, sim::Time now,
                                      const sim::TaskPool& pool,
                                      const sim::ExecutionModel& model,
                                      sim::TaskType type) {
  std::int64_t anchor = 0;
  const prob::DiscretePmf& rel =
      appendEntry(m, now, pool, model, type, anchor);
  return anchor == 0 ? rel : rel.shifted(anchor);
}

double PctCache::appendChance(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              sim::TaskType type, sim::Time deadline) {
  std::int64_t anchor = 0;
  const prob::DiscretePmf& rel =
      appendEntry(m, now, pool, model, type, anchor);
  return rel.cdfShiftedBy(anchor, deadline);
}

std::optional<prob::DiscretePmf> PctCache::peekAppendPct(
    const sim::Machine& m, sim::Time now, sim::TaskType type) const {
  const auto idx = static_cast<std::size_t>(m.id());
  if (idx >= entries_.size()) return std::nullopt;
  const MachineEntry& entry = entries_[idx];
  if (!entry.valid || entry.epoch != m.queueEpoch()) return std::nullopt;
  const auto typeIdx = static_cast<std::size_t>(type);
  if (typeIdx >= entry.appendByType.size() ||
      !entry.appendByType[typeIdx].has_value()) {
    return std::nullopt;
  }
  if (entry.tracked) return *entry.appendByType[typeIdx];
  if (entry.elapsedBin != elapsedBinOf(m, now)) return std::nullopt;
  return entry.appendByType[typeIdx]->shifted(binAt(m, now));
}

double PctCache::appendChanceEstimate(const sim::Machine& m, sim::Time now,
                                      const sim::TaskPool& pool,
                                      const sim::ExecutionModel& model,
                                      sim::TaskType type, sim::Time deadline) {
  if (!m.tracksTail()) return std::numeric_limits<double>::quiet_NaN();
  const prob::DiscretePmf& pet = model.pet(type, m.id());
  if (!m.tailTracked()) {
    // Empty machine: the tail is the idle point mass at `now`.
    return prob::convolvedCdfEstimate(kIdlePointMass, binAt(m, now),
                                      pet.cdfTable(), pet.firstBin(),
                                      m.binWidth(), deadline);
  }
  const prob::DiscretePmf& tail = m.tailPctRef(now, pool, model);
  return prob::convolvedCdfEstimate(tail.probs(), tail.firstBin(),
                                    pet.cdfTable(), pet.firstBin(),
                                    tail.binWidth(), deadline);
}

double PctCache::queuedChanceEstimate(const sim::Machine& m, sim::Time now,
                                      const sim::TaskPool& pool,
                                      const sim::ExecutionModel& model,
                                      std::size_t idx, sim::Time deadline) {
  if (idx >= prob::kMaxCertifiedChainDepth) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  MachineEntry& entry = entryFor(m, now);
  prob::PmfArena& arena = prob::PmfArena::local();
  const std::vector<sim::TaskType>& types = m.queueTypes();
  if (entry.suffixEpoch != m.queueEpoch()) {
    // Keep the levels whose queued types still match the queue's front.
    std::size_t keep = 0;
    while (keep < entry.suffixTypes.size() && keep < types.size() &&
           entry.suffixTypes[keep] == types[keep]) {
      ++keep;
    }
    entry.suffixTypes.resize(keep);
    const std::size_t keepLevels = keep == 0 ? 0 : keep - 1;
    while (entry.suffix.size() > keepLevels) {
      arena.recycle(std::move(entry.suffix.back()));
      entry.suffix.pop_back();
    }
    entry.suffixEpoch = m.queueEpoch();
  }
  if (entry.suffixTypes.size() > idx) {
    ++stats_.chainHits;
  } else {
    ++stats_.chainMisses;
    while (entry.suffixTypes.size() <= idx) {
      const std::size_t level = entry.suffixTypes.size();
      const prob::DiscretePmf& pet = model.pet(types[level], m.id());
      entry.suffixTypes.push_back(types[level]);
      if (level == 0) continue;  // S_0 is the PET itself
      const prob::DiscretePmf& prev =
          level == 1 ? model.pet(types[0], m.id()) : entry.suffix.back();
      entry.suffix.push_back(prob::convolveInto(arena, prev, pet));
      if (entry.suffixCdf.size() < level) entry.suffixCdf.resize(level);
      const std::span<const double> probs = entry.suffix.back().probs();
      std::vector<double>& cdf = entry.suffixCdf[level - 1];
      cdf.resize(probs.size() + 1);
      cdf[0] = 0.0;
      for (std::size_t i = 0; i < probs.size(); ++i) {
        cdf[i + 1] = cdf[i] + probs[i];
      }
    }
  }
  const prob::DiscretePmf& s =
      idx == 0 ? model.pet(types[0], m.id()) : entry.suffix[idx - 1];
  const std::span<const double> sCdf =
      idx == 0 ? s.cdfTable()
               : std::span<const double>(entry.suffixCdf[idx - 1]);
  const std::int64_t anchor = binAt(m, now);
  if (!m.busy()) {
    // Idle machine (between a completion and the next promotion).
    return prob::convolvedCdfEstimate(kIdlePointMass, anchor, sCdf,
                                      s.firstBin(), m.binWidth(), deadline);
  }
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  if (!entry.relAvail.has_value() || entry.availElapsedBin != elapsedBin) {
    if (entry.relAvail.has_value()) arena.recycle(std::move(*entry.relAvail));
    entry.relAvail = relativeAvailability(m, now, pool, model);
    entry.availElapsedBin = elapsedBin;
  }
  const prob::DiscretePmf& avail = *entry.relAvail;
  return prob::convolvedCdfEstimate(avail.probs(), avail.firstBin() + anchor,
                                    sCdf, s.firstBin(), avail.binWidth(),
                                    deadline);
}

double PctCache::remainingMean(const sim::Machine& m, sim::Time now,
                               const sim::TaskPool& pool,
                               const sim::ExecutionModel& model) {
  // An idle machine has no running task and therefore no remaining work.
  if (!m.busy()) return 0.0;
  const sim::Task& task = pool[m.runningTask()];
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  // (type, elapsed bin) packed collision-free; the map is per machine.
  // Bins beyond 2^44 would alias, so such (absurdly long) runs bypass the
  // memo instead of risking a wrong value.
  if (elapsedBin < 0 || elapsedBin >= (std::int64_t{1} << 44) ||
      task.type < 0 || task.type >= (1 << 20)) {
    return model.pet(task.type, m.id())
        .conditionalRemainingMean(now - m.runningSince());
  }
  const auto idx = static_cast<std::size_t>(m.id());
  if (remainingMeans_.size() <= idx) remainingMeans_.resize(idx + 1);
  const std::uint64_t key = (static_cast<std::uint64_t>(task.type) << 44) |
                            static_cast<std::uint64_t>(elapsedBin);
  MeanMemo& memo = remainingMeans_[idx];
  if (memo.hasLast && memo.lastKey == key) {
    ++stats_.meanHits;
    return memo.lastValue;
  }
  double mean;
  if (auto it = memo.byKey.find(key); it != memo.byKey.end()) {
    ++stats_.meanHits;
    mean = it->second;
  } else {
    ++stats_.meanMisses;
    mean = model.pet(task.type, m.id())
               .conditionalRemainingMean(now - m.runningSince());
    memo.byKey.emplace(key, mean);
  }
  memo.hasLast = true;
  memo.lastKey = key;
  memo.lastValue = mean;
  return mean;
}

void PctCache::clear() {
  entries_.clear();
  remainingMeans_.clear();
}

}  // namespace hcs::heuristics
