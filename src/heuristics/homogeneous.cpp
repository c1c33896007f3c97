#include "heuristics/homogeneous.h"

#include <algorithm>
#include <vector>

namespace hcs::heuristics {

namespace {

/// Cheapest expected execution across machines; on a homogeneous cluster
/// this is simply the type's execution mean.
double minExpectedExec(const MappingContext& ctx, sim::TaskType type) {
  double best = ctx.expectedExec(type, 0);
  for (sim::MachineId j = 1; j < ctx.numMachines(); ++j) {
    best = std::min(best, ctx.expectedExec(type, j));
  }
  return best;
}

}  // namespace

std::vector<Assignment> FcfsRoundRobin::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  const int m = ctx.numMachines();
  slots_.resize(static_cast<std::size_t>(m));
  for (sim::MachineId j = 0; j < m; ++j) {
    slots_[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
  }
  std::vector<Assignment> result;
  // Places `task` on the next machine in cyclic order with a free slot;
  // false when no machine has space (a full probe cycle leaves next_ as it
  // was).
  const auto place = [&](sim::TaskId task) {
    int probes = 0;
    while (probes < m && slots_[static_cast<std::size_t>(next_)] == 0) {
      next_ = (next_ + 1) % m;
      ++probes;
    }
    if (probes == m) return false;
    result.push_back(Assignment{task, next_});
    slots_[static_cast<std::size_t>(next_)] -= 1;
    next_ = (next_ + 1) % m;
    return true;
  };
  if (batch.empty() && ctx.persistent() && ctx.batchQueue() != nullptr) {
    ctx.batchQueue()->forEachCandidate(place);
  } else {
    for (sim::TaskId task : batch) {
      if (!place(task)) break;
    }
  }
  return result;
}

std::size_t KeyOrderedHeuristic::openSlots(const MappingContext& ctx,
                                           std::size_t cap) {
  const auto m = static_cast<std::size_t>(ctx.numMachines());
  virtualReady_.resize(m);
  slots_.resize(m);
  std::size_t open = 0;
  for (std::size_t j = 0; j < m; ++j) {
    const auto id = static_cast<sim::MachineId>(j);
    slots_[j] = ctx.freeSlots(id);
    // Only machines with a slot are ever priced (placeHead skips the rest).
    virtualReady_[j] = slots_[j] > 0 ? ctx.expectedReady(id) : 0.0;
    // Capped as it sums: an unbounded context reports kUnbounded slots.
    open += std::min(slots_[j], cap - open);
  }
  return open;
}

std::vector<Assignment> KeyOrderedHeuristic::placeHead(
    const MappingContext& ctx) {
  const int m = ctx.numMachines();
  std::vector<Assignment> result;
  result.reserve(head_.size());
  for (const sim::TaskId task : head_) {
    const sim::TaskType type = ctx.pool()[task].type;
    sim::MachineId bestMachine = sim::kInvalidMachine;
    double bestEct = 0.0;
    for (sim::MachineId j = 0; j < m; ++j) {
      if (slots_[static_cast<std::size_t>(j)] == 0) continue;
      const double ect = virtualReady_[static_cast<std::size_t>(j)] +
                         ctx.expectedExec(type, j);
      if (bestMachine == sim::kInvalidMachine || ect < bestEct) {
        bestMachine = j;
        bestEct = ect;
      }
    }
    // The head holds at most as many tasks as there are free slots.
    result.push_back(Assignment{task, bestMachine});
    slots_[static_cast<std::size_t>(bestMachine)] -= 1;
    virtualReady_[static_cast<std::size_t>(bestMachine)] +=
        ctx.expectedExec(type, bestMachine);
  }
  return result;
}

template <class KeyFn>
std::vector<Assignment> KeyOrderedHeuristic::mapByKey(
    const MappingContext& ctx, std::span<const sim::TaskId> batch,
    const KeyFn& key) {
  head_.clear();
  if (ctx.persistent() && ctx.batchQueue() != nullptr && batch.empty()) {
    // Wide round: merge the per-type bucket heads, K times.
    const sim::BatchQueue& queue = *ctx.batchQueue();
    const std::size_t k = openSlots(ctx, queue.size());
    if (k == 0) return {};
    buckets_.sync(ctx, key);
    cursor_ = buckets_.heads();
    while (head_.size() < k) {
      const TypeBuckets::Entry* best = nullptr;
      std::size_t bestType = 0;
      for (std::size_t t = 0; t < cursor_.size(); ++t) {
        const std::vector<TypeBuckets::Entry>& bucket = buckets_.bucket(t);
        std::uint32_t& cur = cursor_[t];
        while (cur < bucket.size() &&
               (bucket[cur].mark == TypeBuckets::kDead ||
                queue.deferredThisEvent(bucket[cur].task))) {
          ++cur;
        }
        if (cur < bucket.size() &&
            (best == nullptr || TypeBuckets::less(bucket[cur], *best))) {
          best = &bucket[cur];
          bestType = t;
        }
      }
      if (best == nullptr) break;  // every queued task is deferred
      head_.push_back(best->task);
      ++cursor_[bestType];
    }
  } else {
    // Candidate span: one key per task, the head by (key, span position).
    const std::size_t k = openSlots(ctx, batch.size());
    if (k == 0) return {};
    keyed_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      keyed_.emplace_back(key(ctx, batch[i]), static_cast<std::uint32_t>(i));
    }
    const auto headEnd = keyed_.begin() + static_cast<std::ptrdiff_t>(k);
    std::partial_sort(keyed_.begin(), headEnd, keyed_.end());
    for (auto it = keyed_.begin(); it != headEnd; ++it) {
      head_.push_back(batch[it->second]);
    }
  }
  return placeHead(ctx);
}

std::vector<Assignment> EarliestDeadlineFirst::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapByKey(ctx, batch, [](const MappingContext& c, sim::TaskId task) {
    return c.pool()[task].deadline;
  });
}

std::vector<Assignment> ShortestJobFirst::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  // The keys are a fixed function of the execution model: computed once
  // per model, not once per call.
  if (keyModel_ != &ctx.model()) {
    keyModel_ = &ctx.model();
    typeKey_.resize(static_cast<std::size_t>(ctx.model().numTaskTypes()));
    for (std::size_t t = 0; t < typeKey_.size(); ++t) {
      typeKey_[t] = minExpectedExec(ctx, static_cast<sim::TaskType>(t));
    }
  }
  return mapByKey(ctx, batch,
                  [this](const MappingContext& c, sim::TaskId task) {
                    return typeKey_[static_cast<std::size_t>(
                        c.pool()[task].type)];
                  });
}

}  // namespace hcs::heuristics
