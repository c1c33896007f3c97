#pragma once
// Mapping-heuristic interfaces (Section III).
//
// Immediate-mode heuristics place each task the moment it arrives; batch-
// mode heuristics run at every mapping event over the batch (arrival) queue
// and fill free machine-queue slots using a two-phase virtual-queue process.
// The pruning mechanism (Section IV) plugs in *around* these interfaces
// without altering them — that separation is the paper's central design
// claim.

#include <span>
#include <string_view>
#include <vector>

#include "heuristics/context.h"
#include "sim/types.h"

namespace hcs::heuristics {

struct Assignment {
  sim::TaskId task = sim::kInvalidTask;
  sim::MachineId machine = sim::kInvalidMachine;

  bool operator==(const Assignment&) const = default;
};

/// Immediate-mode: decide a machine for one arriving task, now.
class ImmediateHeuristic {
 public:
  virtual ~ImmediateHeuristic() = default;

  virtual std::string_view name() const = 0;

  /// Returns the machine for `task`.  Immediate mode must always place the
  /// task (machine queues are unbounded in this mode).
  virtual sim::MachineId selectMachine(const MappingContext& ctx,
                                       sim::TaskId task) = 0;
};

/// Batch-mode: map any subset of the batch queue to free machine-queue
/// slots.  `batch` is ordered by arrival time.  Implementations must respect
/// ctx.freeSlots() per machine and must not assign one task twice.
class BatchHeuristic {
 public:
  virtual ~BatchHeuristic() = default;

  virtual std::string_view name() const = 0;

  virtual std::vector<Assignment> map(const MappingContext& ctx,
                                      std::span<const sim::TaskId> batch) = 0;

  /// True when this heuristic can read candidates straight from
  /// ctx.batchQueue() (live, non-deferred tasks in arrival order — the
  /// same set a span would carry).  The incremental engine then skips the
  /// per-round candidate-vector rebuild on wide rounds and passes an empty
  /// span.  How the heuristic reads the queue is its own business: walking
  /// it from the head, or keeping a derived index that replays the queue's
  /// mutation journal (the journal records only once some consumer asks
  /// for it).  Heuristics that ignore the queue keep receiving the span
  /// either way.
  virtual bool consumesBatchQueue() const { return false; }
};

}  // namespace hcs::heuristics
