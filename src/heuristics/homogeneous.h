#pragma once
// Batch-mode mapping heuristics for homogeneous systems (§III-D):
// FCFS-RR, EDF, SJF.
//
// These run against the same MappingContext as the heterogeneous batch
// heuristics — homogeneity comes from the execution model (all machines
// bound to the same PET column), not from special-casing here.

#include <cstdint>
#include <utility>
#include <vector>

#include "heuristics/heuristic.h"
#include "heuristics/type_buckets.h"

namespace hcs::heuristics {

/// First Come First Served - Round Robin: tasks in arrival order, each to
/// the next machine (cyclically) with a free queue slot, until no machine
/// has one.
///
/// Only the oldest K = (free slots) candidates are ever read, so on an
/// empty span with a persistent, queue-attached context (wide rounds) it
/// walks the queue from its head cursor and stops there — O(K) per call,
/// with no derived index to keep in sync.
class FcfsRoundRobin final : public BatchHeuristic {
 public:
  std::string_view name() const override { return "FCFS-RR"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
  bool consumesBatchQueue() const override { return true; }

 private:
  int next_ = 0;
  std::vector<std::size_t> slots_;
};

/// The shared engine of EDF and SJF: tasks ordered by a static per-task
/// key, ties broken by arrival order; each in turn goes to the machine with
/// the minimum expected completion time (virtual ready times advance as
/// tasks are placed).
///
/// Every task in the order finds a machine while any slot is free, so a
/// call assigns exactly the first K = min(n, sum of free slots) tasks of
/// the order — the rest of it is never read.  Both paths therefore select
/// only that K-head:
///  - a candidate span (throwaway contexts, the adaptive engine's narrow
///    rounds) computes one key per candidate and partial-sorts the head by
///    (key, span position);
///  - an empty span on a persistent, queue-attached context (wide rounds)
///    merges the heads of per-type buckets kept in (key, arrival seq)
///    order by journal replay (TypeBuckets), skipping tasks deferred this
///    event — O(K x types + what changed) per call instead of a sort of
///    the whole queue.
/// Arrival order, not the task id, breaks ties: streamed ids are recycled
/// slot handles, so an id order would differ from the materialized run.
class KeyOrderedHeuristic : public BatchHeuristic {
 public:
  bool consumesBatchQueue() const override { return true; }

 protected:
  /// `key(ctx, task)` must be a fixed function of the task and the
  /// execution model (the buckets read it once per arrival).
  template <class KeyFn>
  std::vector<Assignment> mapByKey(const MappingContext& ctx,
                                   std::span<const sim::TaskId> batch,
                                   const KeyFn& key);

 private:
  /// Fills slots_ / virtualReady_ from ctx; returns min(cap, free slots).
  std::size_t openSlots(const MappingContext& ctx, std::size_t cap);
  std::vector<Assignment> placeHead(const MappingContext& ctx);

  TypeBuckets buckets_;
  std::vector<std::uint32_t> cursor_;
  std::vector<std::pair<double, std::uint32_t>> keyed_;  ///< span path
  std::vector<sim::TaskId> head_;  ///< the K-head, in placement order
  std::vector<double> virtualReady_;
  std::vector<std::size_t> slots_;
};

/// Earliest Deadline First: the arrival queue ordered by deadline; the
/// head task goes to the machine with the minimum expected completion
/// time.
class EarliestDeadlineFirst final : public KeyOrderedHeuristic {
 public:
  std::string_view name() const override { return "EDF"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// Shortest Job First: the arrival queue ordered by expected execution
/// time (the cheapest machine's); the head task goes to the machine with
/// the minimum expected completion time.
class ShortestJobFirst final : public KeyOrderedHeuristic {
 public:
  std::string_view name() const override { return "SJF"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;

 private:
  std::vector<double> typeKey_;  ///< per type: minimum expected execution
  const sim::ExecutionModel* keyModel_ = nullptr;  ///< typeKey_'s model
};

}  // namespace hcs::heuristics
