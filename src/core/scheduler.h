#pragma once
// The resource-allocation system (Fig. 1c): a mapping heuristic with the
// pruning mechanism attached.  Implements the per-mapping-event procedure of
// Fig. 5 against the simulator substrate.
//
// Two mapping-event engines share this class (SimulationConfig.
// incrementalMappingEnabled):
//
//  - The incremental engine keeps one MappingContext alive for the whole
//    trial (ready/exec memos invalidated per machine by queue epochs), lets
//    the two-phase batch heuristics delta-evaluate across rounds, and runs
//    the arrival queue through BatchQueue's O(1) removal/deferral.  Per-
//    event work is proportional to what a dispatch actually touched.
//  - The reference engine rebuilds a throwaway context and re-evaluates the
//    full O(batch × machines) two-phase process every round, exactly as the
//    paper's Fig. 5 pseudo-code reads.
//
// Both produce bit-identical experiment reports; the reference engine is
// the oracle the incremental one is tested against.

#include <memory>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "heuristics/heuristic.h"
#include "heuristics/pct_cache.h"
#include "prob/rng.h"
#include "pruning/accounting.h"
#include "pruning/pruner.h"
#include "sim/batch_queue.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::core {

/// The mutable simulation state a scheduler operates on; owned by the
/// trial loop (fed::FederatedSimulation), borrowed per call (keeps the
/// scheduler unit-testable with a hand-built world).
struct World {
  sim::TaskPool& pool;
  std::vector<sim::Machine>& machines;
  sim::EventQueue& events;
  sim::Metrics& metrics;
  prob::Rng& execRng;
  const sim::ExecutionModel& model;
  /// The fault stream (retry-backoff jitter), owned by the fault injector;
  /// null in fault-free trials — the default keeps hand-built worlds and
  /// the zero-fault engine untouched.
  prob::Rng* faultRng = nullptr;
};

class Scheduler {
 public:
  Scheduler(const SimulationConfig& config, int numTaskTypes);

  AllocationMode mode() const { return mode_; }
  const pruning::Pruner& pruner() const { return pruner_; }
  const pruning::Accounting& accounting() const { return accounting_; }
  /// Null when the config disabled PCT memoization.
  const heuristics::PctCache* pctCache() const { return pctCache_.get(); }
  std::size_t mappingEvents() const { return mappingEvents_; }
  /// Machine queues the reactive pass rescanned — only those holding an
  /// overdue queued task (a deterministic work counter).
  std::size_t reactiveRescans() const { return reactiveRescans_; }
  std::size_t batchQueueLength() const { return batchQueue_.size(); }
  /// Accumulated batch-mapping wall clock (measureMappingEngine only).
  std::uint64_t mappingEngineNanos() const { return engineNanos_; }

  /// Per-trial setup against the world the scheduler will run in: sizes the
  /// completion-sequence table once (instead of re-checking on every
  /// completion) and, for the incremental engine, anchors the persistent
  /// mapping context.  Called by the trial loop; the event handlers also
  /// self-prepare on first use so a hand-built World needs no ceremony.
  void beginTrial(const World& world);

  /// A new task entered the system.  Immediate mode maps it on the spot;
  /// batch mode adds it to the arrival queue and runs a mapping event.
  void handleArrival(World& world, sim::TaskId task, sim::Time now);

  /// A machine finished its running task.  Records the outcome, promotes
  /// the next queued task, and (batch mode) runs a mapping event.
  void handleCompletion(World& world, sim::MachineId machine, sim::TaskId task,
                        sim::Time now);

  /// A machine failed: its completion event is cancelled, the running task
  /// aborted (wasted execution) and its queue orphaned — every lost task
  /// re-enters through the retry policy or is abandoned — then the machine
  /// goes offline and a mapping event re-prices the batch queue against
  /// the surviving cluster.
  void handleMachineFailure(World& world, sim::MachineId machine,
                            sim::Time now);

  /// A failed machine rejoined: it comes back online (empty, with a lazily
  /// rebuilt Eq. 1 chain) and a mapping event lets waiting work claim the
  /// recovered capacity.
  void handleMachineRecovery(World& world, sim::MachineId machine,
                             sim::Time now);

  /// The capacity controller changed the set of machines accepting work
  /// (a boot completed, or a drain was cancelled): run a mapping event so
  /// waiting tasks can claim the new capacity at once.  Drains and
  /// retirements deliberately do NOT call this — a machine that stops
  /// accepting work only shrinks the candidate set, and the next natural
  /// mapping event prices that in (no-op controller ticks must cost the
  /// fixed-capacity engine nothing).
  void handleCapacityChanged(World& world, sim::Time now);

  /// Oldest live task in the batch (arrival) queue, kInvalidTask when
  /// empty — the chance_slo controller policy's observation point.
  sim::TaskId batchQueueHead() const { return batchQueue_.front(); }

  /// Drains bookkeeping after the last event (e.g. tasks still waiting in
  /// the batch queue when the trial ends count as reactive drops if they
  /// are overdue and proactive drops otherwise: they can no longer meet any
  /// deadline in a finished trial).
  void finalize(World& world, sim::Time now);

 private:
  // Fig. 5 steps, in order.
  void reactiveDropPass(World& world, sim::Time now);       // step 1
  void proactiveDropPass(World& world, sim::Time now);      // steps 4-6
  void runBatchMapping(World& world, sim::Time now);        // steps 7-11
  void runBatchMappingReference(World& world, sim::Time now);

  /// Maps one round's assignments to dispatch/defer decisions (steps 10-11
  /// shared by both engines).  Returns true if anything was dispatched.
  bool applyAssignments(World& world,
                        const std::vector<heuristics::Assignment>& assignments,
                        const heuristics::MappingContext& ctx, sim::Time now);

  /// Chance of success for the step-10 deferring check, certified by
  /// prob::certifiedChance: it compares against the pruning bar exactly as
  /// the exact chance would, convolving (through the context) only when
  /// neither the support bounds nor the estimate settle the comparison.
  double deferChance(World& world, const heuristics::MappingContext& ctx,
                     const heuristics::Assignment& a, const sim::Task& t,
                     sim::Time now) const;
  void startIdleMachines(World& world, sim::Time now);      // step 11 tail
  void mappingEvent(World& world, sim::Time now);           // the whole figure

  /// Files a task that just entered one of this scheduler's queues in the
  /// reactive pass's deadline index (no-op with reactive dropping off).
  void trackDeadline(const World& world, sim::TaskId task);
  /// The task left this scheduler — terminal, or handed to the retry
  /// policy — so its index entry is void.
  void untrack(sim::TaskId task);

  void dropTask(World& world, sim::TaskId task, sim::Time now,
                sim::TaskStatus reason);
  /// Applies the retry policy to a task lost to a machine failure (or an
  /// arrival with no online machine to take it): hands a backed-off
  /// re-arrival to config_.retryHook (the gateway's retry heap), or
  /// abandons the task.
  void retryOrAbandon(World& world, sim::TaskId task, sim::Time now);
  void dispatch(World& world, sim::TaskId task, sim::MachineId machine,
                sim::Time now);
  void scheduleCompletion(World& world, sim::MachineId machine,
                          sim::TaskId task, sim::Time now);
  void abortOverdueRunning(World& world, sim::Time now);

  /// True when some machine still has a free queue slot — the O(machines)
  /// guard that lets the incremental engine skip a whole mapping round
  /// (candidate rebuild + heuristic call) once the cluster is saturated,
  /// the common case in a burst.
  bool anyFreeSlot(const World& world) const;

  heuristics::MappingContext makeContext(World& world, sim::Time now) const;
  void emit(sim::Time time, sim::TraceEventKind kind, sim::TaskId task,
            sim::MachineId machine = sim::kInvalidMachine) const;

  SimulationConfig config_;
  AllocationMode mode_;
  std::unique_ptr<heuristics::ImmediateHeuristic> immediate_;
  std::unique_ptr<heuristics::BatchHeuristic> batch_;
  std::unique_ptr<heuristics::PctCache> pctCache_;
  pruning::Accounting accounting_;
  pruning::Pruner pruner_;
  sim::BatchQueue batchQueue_;
  /// The incremental engine's trial-lifetime context (nullopt until
  /// beginTrial, and always nullopt for the reference engine).
  std::optional<heuristics::MappingContext> ctx_;
  bool trialPrepared_ = false;
  /// Pending completion-event sequence number per machine (for aborts);
  /// sized once per trial in beginTrial.
  std::vector<std::uint64_t> completionSeq_;
  /// The reactive pass's deadline index: a min-heap with one entry per
  /// task filed by trackDeadline.  An entry is live while its stamp is the
  /// one custody_ holds for the task's slot; untrack, a re-filing (a retry
  /// re-entering this scheduler) and slot recycling all leave it stale, and
  /// stale entries are discarded as they pop.  The pass pops only overdue
  /// entries, so it is O(1) when nothing is overdue.
  struct DeadlineEntry {
    sim::Time deadline = 0;
    std::uint64_t stamp = 0;
    sim::TaskId task = sim::kInvalidTask;
  };
  struct LaterDeadline {
    bool operator()(const DeadlineEntry& a, const DeadlineEntry& b) const {
      return a.deadline > b.deadline;
    }
  };
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      LaterDeadline>
      deadlines_;
  /// Per task slot: the stamp of its live index entry, 0 when none.
  std::vector<std::uint64_t> custody_;
  std::uint64_t nextStamp_ = 0;
  /// Reusable per-pass lists of the reactive pass: overdue batch-queue
  /// tasks, then machine ids to rescan.
  std::vector<sim::TaskId> overdueScratch_;
  std::vector<sim::MachineId> overdueMachines_;
  /// Machines a completion or an abort left idle in the current event —
  /// the only ones startIdleMachines has to visit.
  std::vector<sim::MachineId> leftIdle_;
  /// Queue contents of a failing machine (goOffline's FIFO hand-back).
  std::vector<sim::TaskId> orphanScratch_;
  /// Drop-candidate list for the proactive pass — its own buffer, not an
  /// alias of overdueScratch_, so the two passes can never trample each
  /// other through a shared name.
  std::vector<sim::TaskId> proactiveDropScratch_;
  /// Reusable list of kept PETs not yet folded into the proactive pass's
  /// exact-fallback chain.
  std::vector<const prob::DiscretePmf*> pendingScratch_;
  /// Reusable per-event working sets for the batch-mapping loop.
  std::vector<sim::TaskId> candidateScratch_;
  std::unordered_set<sim::TaskId> deferredScratch_;
  std::size_t mappingEvents_ = 0;
  std::size_t reactiveRescans_ = 0;
  std::uint64_t engineNanos_ = 0;
};

}  // namespace hcs::core
