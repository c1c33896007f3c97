#include "sim/metrics.h"

#include <stdexcept>

namespace hcs::sim {

Metrics::Metrics(int numTaskTypes)
    : perType_(static_cast<std::size_t>(numTaskTypes)) {
  if (numTaskTypes <= 0) {
    throw std::invalid_argument("Metrics: need at least one task type");
  }
}

void Metrics::applyCounted(const PendingTerminal& p) {
  ++countedTotal_;
  countedValue_ += p.value;
  if (p.status == TaskStatus::CompletedOnTime) onTimeValue_ += p.value;
  auto& type = perType_[static_cast<std::size_t>(p.type)];
  switch (p.status) {
    case TaskStatus::CompletedOnTime:
      ++type.completedOnTime;
      ++totals_.completedOnTime;
      if (p.hadFailures) ++failedThenMet_;
      break;
    case TaskStatus::CompletedLate:
      ++type.completedLate;
      ++totals_.completedLate;
      break;
    case TaskStatus::DroppedReactive:
      ++type.droppedReactive;
      ++totals_.droppedReactive;
      break;
    case TaskStatus::DroppedProactive:
      ++type.droppedProactive;
      ++totals_.droppedProactive;
      break;
    case TaskStatus::Abandoned:
      ++type.abandoned;
      ++totals_.abandoned;
      break;
    case TaskStatus::Rejected:
      ++type.rejected;
      ++totals_.rejected;
      break;
    default:
      break;
  }
}

void Metrics::recordTerminal(const Task& task) {
  if (!isTerminal(task.status)) {
    throw std::logic_error("Metrics::recordTerminal: task not terminal");
  }
  ++terminalTotal_;
  if (online_) {
    pending_.push_back({task.ordinal, task.type, task.status, task.value,
                        task.failures > 0});
    flushPending(false);
    return;
  }
  applyCounted({task.ordinal, task.type, task.status, task.value,
                task.failures > 0});
}

void Metrics::enableOnlineCounting(std::size_t margin,
                                   const std::uint64_t* createdClock) {
  if (createdClock == nullptr) {
    throw std::invalid_argument("enableOnlineCounting: null creation clock");
  }
  online_ = true;
  margin_ = margin;
  createdClock_ = createdClock;
}

void Metrics::flushPending(bool streamEnded) {
  // Verdicts are settled strictly from the FIFO head so counted accounting
  // runs in recordTerminal-call order, keeping the double sums independent
  // of how long a verdict had to wait.
  const std::uint64_t clock = *createdClock_;
  while (!pending_.empty()) {
    const PendingTerminal& p = pending_.front();
    if (p.ordinal < margin_) {  // warm-up: never counted
      pending_.pop_front();
      continue;
    }
    // Counted iff ordinal < total - margin.  Mid-stream, total >= clock, so
    // clock > ordinal + margin already proves it; at stream end the clock IS
    // the total.
    if (clock > p.ordinal + margin_) {
      applyCounted(p);
      pending_.pop_front();
      continue;
    }
    if (!streamEnded) return;  // verdict unknown; later entries must wait
    pending_.pop_front();      // cool-down: not counted
  }
}

void Metrics::endStreamCounting() {
  if (!online_) return;
  flushPending(true);
  online_ = false;
}

void Metrics::merge(const Metrics& other) {
  if (!pending_.empty() || !other.pending_.empty()) {
    throw std::logic_error(
        "Metrics::merge: endStreamCounting() must settle pending terminals "
        "before merging");
  }
  if (perType_.size() < other.perType_.size()) {
    perType_.resize(other.perType_.size());
  }
  for (std::size_t k = 0; k < other.perType_.size(); ++k) {
    perType_[k].completedOnTime += other.perType_[k].completedOnTime;
    perType_[k].completedLate += other.perType_[k].completedLate;
    perType_[k].droppedReactive += other.perType_[k].droppedReactive;
    perType_[k].droppedProactive += other.perType_[k].droppedProactive;
    perType_[k].abandoned += other.perType_[k].abandoned;
    perType_[k].rejected += other.perType_[k].rejected;
  }
  totals_.completedOnTime += other.totals_.completedOnTime;
  totals_.completedLate += other.totals_.completedLate;
  totals_.droppedReactive += other.totals_.droppedReactive;
  totals_.droppedProactive += other.totals_.droppedProactive;
  totals_.abandoned += other.totals_.abandoned;
  totals_.rejected += other.totals_.rejected;
  countedTotal_ += other.countedTotal_;
  terminalTotal_ += other.terminalTotal_;
  deferrals_ += other.deferrals_;
  machineFailures_ += other.machineFailures_;
  retries_ += other.retries_;
  spillovers_ += other.spillovers_;
  failedThenMet_ += other.failedThenMet_;
  countedValue_ += other.countedValue_;
  onTimeValue_ += other.onTimeValue_;
  perMachine_.insert(perMachine_.end(), other.perMachine_.begin(),
                     other.perMachine_.end());
  // Machine types are global (a PET-matrix column), so per-type
  // machine-seconds sum across clusters instead of concatenating.
  if (perTypeSeconds_.size() < other.perTypeSeconds_.size()) {
    perTypeSeconds_.resize(other.perTypeSeconds_.size());
  }
  for (std::size_t k = 0; k < other.perTypeSeconds_.size(); ++k) {
    perTypeSeconds_[k].online += other.perTypeSeconds_[k].online;
    perTypeSeconds_[k].draining += other.perTypeSeconds_[k].draining;
    perTypeSeconds_[k].busy += other.perTypeSeconds_[k].busy;
  }
  scaleUps_ += other.scaleUps_;
  scaleDowns_ += other.scaleDowns_;
}

double Metrics::robustnessPercent() const {
  if (countedTotal_ == 0) return 0.0;
  return 100.0 * static_cast<double>(totals_.completedOnTime) /
         static_cast<double>(countedTotal_);
}

double Metrics::weightedRobustnessPercent() const {
  if (countedValue_ <= 0.0) return 0.0;
  return 100.0 * onTimeValue_ / countedValue_;
}

void Metrics::recordExecution(MachineId machine, Time duration, bool useful) {
  if (machine < 0) {
    throw std::invalid_argument("recordExecution: invalid machine");
  }
  const auto idx = static_cast<std::size_t>(machine);
  if (perMachine_.size() <= idx) perMachine_.resize(idx + 1);
  if (useful) {
    perMachine_[idx].useful += duration;
  } else {
    perMachine_[idx].wasted += duration;
  }
}

Time Metrics::usefulBusyTime() const {
  Time total = 0;
  for (const ExecutionSplit& split : perMachine_) total += split.useful;
  return total;
}

Time Metrics::wastedBusyTime() const {
  Time total = 0;
  for (const ExecutionSplit& split : perMachine_) total += split.wasted;
  return total;
}

void Metrics::recordMachineSeconds(int machineType, Time online,
                                   Time draining, Time busy) {
  if (machineType < 0) {
    throw std::invalid_argument("recordMachineSeconds: invalid machine type");
  }
  const auto idx = static_cast<std::size_t>(machineType);
  if (perTypeSeconds_.size() <= idx) perTypeSeconds_.resize(idx + 1);
  perTypeSeconds_[idx].online += online;
  perTypeSeconds_[idx].draining += draining;
  perTypeSeconds_[idx].busy += busy;
}

Time Metrics::onlineMachineSeconds() const {
  Time total = 0;
  for (const MachineSeconds& s : perTypeSeconds_) total += s.online;
  return total;
}

Time Metrics::drainingMachineSeconds() const {
  Time total = 0;
  for (const MachineSeconds& s : perTypeSeconds_) total += s.draining;
  return total;
}

Time Metrics::busyMachineSeconds() const {
  Time total = 0;
  for (const MachineSeconds& s : perTypeSeconds_) total += s.busy;
  return total;
}

double Metrics::utilizationPercent() const {
  const Time online = onlineMachineSeconds();
  if (online <= 0) return 0.0;
  return 100.0 * busyMachineSeconds() / online;
}

}  // namespace hcs::sim
