#pragma once
// Per-trial outcome accounting.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/task.h"
#include "sim/types.h"

namespace hcs::sim {

/// Per-task-type terminal counters; the Fairness module reads these and the
/// experiment framework aggregates them across trials.
struct TypeOutcomes {
  std::size_t completedOnTime = 0;
  std::size_t completedLate = 0;
  std::size_t droppedReactive = 0;
  std::size_t droppedProactive = 0;
  std::size_t abandoned = 0;  ///< retry policy gave up after failures
  std::size_t rejected = 0;   ///< refused at the federation gateway

  std::size_t total() const {
    return completedOnTime + completedLate + droppedReactive +
           droppedProactive + abandoned + rejected;
  }
};

/// Trial-level metrics.  Robustness — the paper's headline number — is the
/// percentage of *counted* tasks that completed on time.  Following §V-B,
/// the first and last `warmupTasks` arrivals of a trial can be excluded so
/// the measurement covers only the oversubscribed steady state.
class Metrics {
 public:
  explicit Metrics(int numTaskTypes);

  /// Empty placeholder (no task types, all counters zero): lets result
  /// containers be sized before trials fill the slots.
  Metrics() = default;

  /// Records a terminal state transition for `task`.
  void recordTerminal(const Task& task);

  /// Records one deferral decision (a task pushed back to the batch queue).
  void recordDeferral() { ++deferrals_; }

  /// Records one machine failure event (the churn intensity of a trial).
  void recordMachineFailure() { ++machineFailures_; }

  /// Records one retry: a failed/orphaned task re-entering the arrival
  /// stream under the backoff policy.
  void recordRetry() { ++retries_; }

  /// Records one spillover: the gateway redirecting a task a degraded
  /// cluster refused to a sibling.
  void recordSpillover() { ++spillovers_; }

  /// Records machine time spent executing a task.  `useful` when the task
  /// completed on time; otherwise the time was wasted on a failing task —
  /// the quantity the paper's §VII energy argument is about.
  void recordExecution(MachineId machine, Time duration, bool useful);

  /// Records one capacity-controller scale action (for the scale-event
  /// report columns).
  void recordScaleUp() { ++scaleUps_; }
  void recordScaleDown() { ++scaleDowns_; }

  /// Folds one machine's end-of-trial cost clocks into the per-machine-type
  /// machine-seconds accounting: `online` is the total time the machine was
  /// part of the cluster (what capacity costs), `draining` the portion of
  /// that spent winding down, `busy` the portion spent executing.  Called
  /// once per machine when the trial ends — also for fixed-capacity trials,
  /// so utilization-vs-online reporting works everywhere.
  void recordMachineSeconds(int machineType, Time online, Time draining,
                            Time busy);

  /// Warm-up trimming (§V-B), decided online: a terminal task with
  /// ordinal `o` is counted iff `margin <= o < total - margin`, so a trial
  /// of at most 2 * margin tasks counts nothing.  `total` is unknown until
  /// the arrival stream ends, so terminals sit in a bounded FIFO until the
  /// creation clock proves the cool-down margin can't reach them
  /// (`*createdClock > o + margin`), and endStreamCounting() settles the
  /// rest.  Counted accounting is applied in recordTerminal-call order.
  /// `createdClock` (TaskPool::createdClock()) must outlive the Metrics.
  /// A Metrics never configured this way counts every terminal.
  void enableOnlineCounting(std::size_t margin,
                            const std::uint64_t* createdClock);

  /// Resolves terminals still pending when the stream is exhausted: the
  /// creation clock is now the trial's total.  Call after the event loop,
  /// before reading any counted metric.
  void endStreamCounting();

  /// Terminals awaiting a counted/uncounted verdict (bounded by the warm-up
  /// margin plus the in-flight window; a memory-bound test hook).
  std::size_t pendingTerminalCount() const { return pending_.size(); }

  /// Folds another trial-section's counters into this one — the federation
  /// tier aggregates per-cluster metrics into a trial total with it.  The
  /// per-machine execution splits are concatenated (machine ids are local to
  /// a cluster), everything else is summed.  The warm-up configuration is a
  /// recording concern and is left untouched.
  void merge(const Metrics& other);

  std::size_t completedOnTime() const { return totals_.completedOnTime; }
  std::size_t completedLate() const { return totals_.completedLate; }
  std::size_t droppedReactive() const { return totals_.droppedReactive; }
  std::size_t droppedProactive() const { return totals_.droppedProactive; }
  std::size_t abandoned() const { return totals_.abandoned; }
  std::size_t rejected() const { return totals_.rejected; }
  std::size_t deferrals() const { return deferrals_; }
  std::size_t machineFailures() const { return machineFailures_; }
  std::size_t retries() const { return retries_; }
  std::size_t spillovers() const { return spillovers_; }
  /// Counted tasks that absorbed at least one machine failure and still
  /// completed on time — the payoff of the retry policy.
  std::size_t failedThenMet() const { return failedThenMet_; }
  std::size_t countedTasks() const { return countedTotal_; }
  /// Every recordTerminal call, counted or not — the engine's trial-over
  /// check under churn (totals() excludes warm-up-trimmed tasks, which
  /// still have to terminate before the fault process may stop).
  std::size_t terminalCount() const { return terminalTotal_; }

  /// % of counted tasks that completed on time (the robustness metric).
  double robustnessPercent() const;

  /// Value-weighted robustness: sum of values of on-time counted tasks over
  /// the total counted value (equals robustnessPercent() when every task
  /// has value 1).
  double weightedRobustnessPercent() const;

  const TypeOutcomes& totals() const { return totals_; }
  const std::vector<TypeOutcomes>& perType() const { return perType_; }

  /// Machine time split into useful (on-time completions) vs wasted (late
  /// or aborted executions).
  struct ExecutionSplit {
    Time useful = 0;
    Time wasted = 0;

    Time total() const { return useful + wasted; }
  };

  const std::vector<ExecutionSplit>& perMachineExecution() const {
    return perMachine_;
  }
  Time usefulBusyTime() const;
  Time wastedBusyTime() const;

  /// Machine-seconds cost accounting, per machine type and in total.
  struct MachineSeconds {
    Time online = 0;    ///< time as cluster capacity (the cost metric)
    Time draining = 0;  ///< subset of online spent winding down
    Time busy = 0;      ///< subset of online spent executing
  };

  const std::vector<MachineSeconds>& perTypeMachineSeconds() const {
    return perTypeSeconds_;
  }
  Time onlineMachineSeconds() const;
  Time drainingMachineSeconds() const;
  Time busyMachineSeconds() const;
  /// % of online machine-seconds spent executing — utilization measured
  /// against time the capacity actually existed, so churn/drain intervals
  /// don't skew it.
  double utilizationPercent() const;

  std::size_t scaleUps() const { return scaleUps_; }
  std::size_t scaleDowns() const { return scaleDowns_; }

 private:
  /// One terminal outcome parked until its counted verdict is known.
  struct PendingTerminal {
    std::uint64_t ordinal;
    TaskType type;
    TaskStatus status;
    double value;
    bool hadFailures;
  };

  void applyCounted(const PendingTerminal& p);
  void flushPending(bool streamEnded);

  std::vector<TypeOutcomes> perType_;
  TypeOutcomes totals_;
  std::size_t countedTotal_ = 0;
  std::size_t terminalTotal_ = 0;
  std::size_t deferrals_ = 0;
  std::size_t machineFailures_ = 0;
  std::size_t retries_ = 0;
  std::size_t spillovers_ = 0;
  std::size_t failedThenMet_ = 0;
  std::vector<ExecutionSplit> perMachine_;
  std::vector<MachineSeconds> perTypeSeconds_;
  std::size_t scaleUps_ = 0;
  std::size_t scaleDowns_ = 0;
  double countedValue_ = 0.0;
  double onTimeValue_ = 0.0;
  std::deque<PendingTerminal> pending_;
  const std::uint64_t* createdClock_ = nullptr;
  std::size_t margin_ = 0;
  bool online_ = false;
};

}  // namespace hcs::sim
