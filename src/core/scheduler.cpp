#include "core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>

#include "prob/arena.h"
#include "prob/kernels.h"

namespace hcs::core {

AllocationMode allocationModeFor(const std::string& heuristicName) {
  if (heuristics::isImmediateHeuristic(heuristicName)) {
    return AllocationMode::Immediate;
  }
  if (heuristics::isBatchHeuristic(heuristicName)) {
    return AllocationMode::Batch;
  }
  throw std::invalid_argument("allocationModeFor: unknown heuristic " +
                              heuristicName);
}

AllocationMode allocationModeFor(const SimulationConfig& config) {
  if (config.customBatchHeuristic && config.customImmediateHeuristic) {
    throw std::invalid_argument(
        "allocationModeFor: both custom heuristic factories set");
  }
  if (config.customBatchHeuristic) return AllocationMode::Batch;
  if (config.customImmediateHeuristic) return AllocationMode::Immediate;
  return allocationModeFor(config.heuristic);
}

Scheduler::Scheduler(const SimulationConfig& config, int numTaskTypes)
    : config_(config),
      mode_(allocationModeFor(config)),
      accounting_(numTaskTypes),
      pruner_(config.pruning, numTaskTypes) {
  if (config.customBatchHeuristic) {
    batch_ = config.customBatchHeuristic();
  } else if (config.customImmediateHeuristic) {
    immediate_ = config.customImmediateHeuristic();
  } else if (mode_ == AllocationMode::Immediate) {
    immediate_ =
        heuristics::makeImmediate(config.heuristic, config.heuristicOptions);
  } else {
    batch_ = heuristics::makeBatch(config.heuristic, config.heuristicOptions);
  }
  if ((mode_ == AllocationMode::Batch && batch_ == nullptr) ||
      (mode_ == AllocationMode::Immediate && immediate_ == nullptr)) {
    throw std::invalid_argument("Scheduler: heuristic factory returned null");
  }
  if (config.pctCacheEnabled) {
    pctCache_ = std::make_unique<heuristics::PctCache>();
  }
}

heuristics::MappingContext Scheduler::makeContext(World& world,
                                                  sim::Time now) const {
  const std::size_t capacity = mode_ == AllocationMode::Immediate
                                   ? heuristics::MappingContext::kUnbounded
                                   : config_.machineQueueCapacity;
  return heuristics::MappingContext(now, world.pool, world.machines,
                                    world.model, capacity, pctCache_.get());
}

void Scheduler::beginTrial(const World& world) {
  trialPrepared_ = true;
  // Sized once here instead of being re-checked by every scheduleCompletion.
  if (completionSeq_.size() < world.machines.size()) {
    completionSeq_.assign(world.machines.size(), 0);
  }
  if (config_.incrementalMappingEnabled && !ctx_.has_value() &&
      !world.machines.empty()) {
    const std::size_t capacity = mode_ == AllocationMode::Immediate
                                     ? heuristics::MappingContext::kUnbounded
                                     : config_.machineQueueCapacity;
    ctx_.emplace(sim::Time{0}, world.pool, world.machines, world.model,
                 capacity, pctCache_.get());
    ctx_->enablePersistence();
    if (mode_ == AllocationMode::Batch) {
      ctx_->attachBatchQueue(&batchQueue_);
    }
  }
}

void Scheduler::handleArrival(World& world, sim::TaskId task, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  world.pool[task].status = sim::TaskStatus::Batched;
  emit(now, sim::TraceEventKind::Arrival, task);
  if (mode_ == AllocationMode::Batch) {
    batchQueue_.push(task);
    trackDeadline(world, task);
    mappingEvent(world, now);
    return;
  }
  // Immediate mode: the pruning passes still run at this mapping event,
  // then the mapper must place the arriving task right away.
  mappingEvent(world, now);
  sim::MachineId machine;
  if (ctx_.has_value()) {
    machine = immediate_->selectMachine(*ctx_, task);
  } else {
    const heuristics::MappingContext ctx = makeContext(world, now);
    machine = immediate_->selectMachine(ctx, task);
  }
  if (machine == sim::kInvalidMachine &&
      (config_.faults.enabled || config_.elasticity.active())) {
    // Churn (or an elastic scale-down racing the arrival) left no machine
    // accepting work: a placement failure, routed through the retry policy
    // like any other churn casualty.
    emit(now, sim::TraceEventKind::TaskFailed, task);
    retryOrAbandon(world, task, now);
    return;
  }
  if (machine < 0 ||
      machine >= static_cast<sim::MachineId>(world.machines.size())) {
    throw std::logic_error("Scheduler: heuristic chose an invalid machine");
  }
  dispatch(world, task, machine, now);
  // Filed only now: during its own event's reactive pass the task sat in
  // no queue.  A task that started at once has nothing left to drop.
  if (world.pool[task].status == sim::TaskStatus::Queued) {
    trackDeadline(world, task);
  }
}

void Scheduler::handleCompletion(World& world, sim::MachineId machine,
                                 sim::TaskId task, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  if (m.runningTask() != task) {
    throw std::logic_error("Scheduler: completion for a non-running task");
  }
  sim::Task& t = world.pool[task];
  const bool onTime = now <= t.deadline + 1e-9;
  t.status = onTime ? sim::TaskStatus::CompletedOnTime
                    : sim::TaskStatus::CompletedLate;
  t.finishTime = now;
  world.metrics.recordTerminal(t);
  world.metrics.recordExecution(machine, now - t.startTime, onTime);
  emit(now, sim::TraceEventKind::Completed, task, machine);
  if (onTime) {
    accounting_.recordOnTimeCompletion(t.type);
  } else {
    accounting_.recordDeadlineMiss(t.type);
  }
  // Do NOT promote the next queued task yet: the mapping event's pruning
  // passes must see (and may drop) the queue's head first; idle machines
  // start their surviving head task at the end of the event.
  m.finishRunning(now, world.pool, world.model);
  leftIdle_.push_back(machine);
  // Terminal and fully unlinked: under a recycling pool (streaming mode)
  // the slot is free for the next arrival.  No-op otherwise.
  untrack(task);
  world.pool.retire(task);
  mappingEvent(world, now);
}

void Scheduler::handleMachineFailure(World& world, sim::MachineId machine,
                                     sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  world.metrics.recordMachineFailure();
  emit(now, sim::TraceEventKind::MachineFailed, sim::kInvalidTask, machine);
  if (m.busy()) {
    // The running task dies with the machine: cancel its pending
    // completion, charge the burned time as wasted execution, and hand the
    // task to the retry policy.
    const sim::TaskId running = m.runningTask();
    world.events.cancel(completionSeq_[static_cast<std::size_t>(machine)]);
    const sim::Time started = world.pool[running].startTime;
    m.abortRunning(now, world.pool, world.model);
    world.metrics.recordExecution(machine, now - started, /*useful=*/false);
    emit(now, sim::TraceEventKind::TaskFailed, running, machine);
    retryOrAbandon(world, running, now);
  }
  orphanScratch_.clear();
  m.goOffline(now, world.pool, world.model, orphanScratch_);
  for (sim::TaskId id : orphanScratch_) {
    emit(now, sim::TraceEventKind::TaskFailed, id, machine);
    retryOrAbandon(world, id, now);
  }
  // The machine-set edit is a mapping event: the Eq. 1/Eq. 2 machinery
  // re-prices the batch queue against the surviving cluster, and the
  // pruning passes see the scarcer capacity immediately.
  mappingEvent(world, now);
}

void Scheduler::handleMachineRecovery(World& world, sim::MachineId machine,
                                      sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  world.machines[static_cast<std::size_t>(machine)].comeOnline(
      now, world.pool, world.model);
  emit(now, sim::TraceEventKind::MachineRecovered, sim::kInvalidTask, machine);
  // Recovered capacity is claimable this very event: batch mode remaps and
  // the idle machine can start the surviving head of whatever it is given.
  mappingEvent(world, now);
}

void Scheduler::handleCapacityChanged(World& world, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  mappingEvent(world, now);
}

void Scheduler::mappingEvent(World& world, sim::Time now) {
  ++mappingEvents_;
  if (ctx_.has_value()) ctx_->rebind(now);
  if (config_.abortRunningAtDeadline) {
    abortOverdueRunning(world, now);
  }
  // Step 1: reactive drops of expired pending tasks (part of the pruning
  // mechanism; the no-pruning baselines execute every mapped task).
  if (config_.pruning.reactiveDropEnabled) {
    reactiveDropPass(world, now);
  }
  // Steps 2-3: fairness update and Toggle evaluation over the interval.
  pruner_.beginMappingEvent(accounting_.harvest());
  // Steps 4-6: proactive drops from machine queues.
  if (pruner_.droppingEngaged()) {
    proactiveDropPass(world, now);
  }
  // Steps 7-11: map, defer, dispatch (batch mode only; immediate mode's
  // placement happens in handleArrival right after this returns).
  if (mode_ == AllocationMode::Batch) {
    if (config_.measureMappingEngine) {
      const auto start = std::chrono::steady_clock::now();
      runBatchMapping(world, now);
      engineNanos_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    } else {
      runBatchMapping(world, now);
    }
  }
  // Machines left idle by a completion/abort now start the surviving head
  // of their queue.
  startIdleMachines(world, now);
}

void Scheduler::startIdleMachines(World& world, sim::Time now) {
  // Only a completion or an abort in this event leaves an online machine
  // idle with work queued: a dispatch to an empty machine starts at once,
  // and every earlier event ended with its idle machines started.
  // Ascending id keeps the Started events — and the completion sequence
  // numbers and execution draws behind them — in machine order.
  std::sort(leftIdle_.begin(), leftIdle_.end());
  for (const sim::MachineId id : leftIdle_) {
    sim::Machine& m = world.machines[static_cast<std::size_t>(id)];
    if (!m.online()) continue;
    const sim::TaskId started =
        m.startNextIfIdle(now, world.pool, world.model);
    if (started != sim::kInvalidTask) {
      emit(now, sim::TraceEventKind::Started, started, id);
      scheduleCompletion(world, id, started, now);
    }
  }
  leftIdle_.clear();
}

void Scheduler::trackDeadline(const World& world, sim::TaskId task) {
  if (!config_.pruning.reactiveDropEnabled) return;
  const auto slot = static_cast<std::size_t>(task);
  if (custody_.size() <= slot) custody_.resize(slot + 1, 0);
  custody_[slot] = ++nextStamp_;
  deadlines_.push(DeadlineEntry{world.pool[task].deadline, nextStamp_, task});
}

void Scheduler::untrack(sim::TaskId task) {
  const auto slot = static_cast<std::size_t>(task);
  if (slot < custody_.size()) custody_[slot] = 0;
}

void Scheduler::dropTask(World& world, sim::TaskId task, sim::Time now,
                         sim::TaskStatus reason) {
  sim::Task& t = world.pool[task];
  t.status = reason;
  t.finishTime = now;
  world.metrics.recordTerminal(t);
  sim::TraceEventKind kind;
  switch (reason) {
    case sim::TaskStatus::DroppedReactive:
      kind = sim::TraceEventKind::DroppedReactive;
      break;
    case sim::TaskStatus::DroppedProactive:
      kind = sim::TraceEventKind::DroppedProactive;
      break;
    case sim::TaskStatus::Abandoned:
      kind = sim::TraceEventKind::Abandoned;
      break;
    default:
      throw std::logic_error("dropTask: not a drop status");
  }
  emit(now, kind, task, t.machine);
  untrack(task);
  if (reason == sim::TaskStatus::DroppedProactive) {
    accounting_.recordProactiveDrop(t.type);
    // Fig. 5 step 6: gamma_k <- gamma_k + c on a *proactive* drop.  (§IV-D's
    // prose could be read as counting reactive drops too; the ablation bench
    // shows that variant grants suffering types such lax bars that they
    // occupy machines with hopeless work — we follow the pseudo-code.)
    pruner_.recordDrop(t.type);
  } else {
    // Reactive drops and retry-policy abandonments both read to the
    // fairness ledger as deadline misses: the task's deadline was (or was
    // about to be) missed through no choice of the pruner's.
    accounting_.recordDeadlineMiss(t.type);
  }
  // Every dropTask caller unlinks the task from its queue first, so the
  // slot can be recycled (streaming mode; no-op otherwise).
  world.pool.retire(task);
}

void Scheduler::retryOrAbandon(World& world, sim::TaskId task, sim::Time now) {
  // Retried or abandoned, the task leaves this scheduler: a retry re-enters
  // through handleArrival, possibly of another federation cluster sharing
  // the pool.
  untrack(task);
  sim::Task& t = world.pool[task];
  t.machine = sim::kInvalidMachine;
  t.status = sim::TaskStatus::Created;
  ++t.failures;
  const sim::FaultConfig& f = config_.faults;
  if (t.failures >= f.maxAttempts) {
    dropTask(world, task, now, sim::TaskStatus::Abandoned);
    return;
  }
  // Exponential backoff on the attempt index, stretched by a jitter draw
  // from the fault stream (never the execution stream — the draw must not
  // perturb seed-paired execution sampling).
  double backoff = f.backoffBase *
                   std::pow(f.backoffFactor, static_cast<double>(t.failures - 1));
  if (f.backoffJitter > 0.0 && world.faultRng != nullptr) {
    backoff *= 1.0 + f.backoffJitter * world.faultRng->uniform01();
  }
  const sim::Time retryAt = now + backoff;
  if (retryAt > t.deadline) {
    // Deadline-aware give-up: the retry could never arrive in time.
    dropTask(world, task, now, sim::TaskStatus::Abandoned);
    return;
  }
  if (!config_.retryHook) {
    throw std::logic_error("Scheduler: a retry needs config.retryHook");
  }
  world.metrics.recordRetry();
  emit(now, sim::TraceEventKind::Retried, task);
  // The retry re-enters at the gateway — re-routed and re-admitted against
  // the whole federation, not pinned to the cluster that failed it.
  config_.retryHook(task, retryAt);
}

void Scheduler::reactiveDropPass(World& world, sim::Time now) {
  // Pop the overdue entries (missedDeadline: now > deadline).  A live one
  // names a task this scheduler holds: in the batch queue, in a machine
  // queue, or running — past saving only under the abort-at-deadline
  // policy, handled separately; a running task re-enters a queue only
  // through a retry, which files it afresh.
  overdueScratch_.clear();
  overdueMachines_.clear();
  while (!deadlines_.empty() && now > deadlines_.top().deadline) {
    const DeadlineEntry e = deadlines_.top();
    deadlines_.pop();
    if (custody_[static_cast<std::size_t>(e.task)] != e.stamp) continue;
    if (batchQueue_.contains(e.task)) {
      overdueScratch_.push_back(e.task);
    } else if (world.pool[e.task].status == sim::TaskStatus::Queued) {
      overdueMachines_.push_back(world.pool[e.task].machine);
    }
  }
  // Batch (arrival) queue drops in arrival order, then machine queues in
  // ascending id, each rescanned in queue order — the order of a full scan.
  std::sort(overdueScratch_.begin(), overdueScratch_.end(),
            [&](sim::TaskId a, sim::TaskId b) {
              return batchQueue_.arrivalSeq(a) < batchQueue_.arrivalSeq(b);
            });
  for (sim::TaskId id : overdueScratch_) {
    batchQueue_.remove(id);
    dropTask(world, id, now, sim::TaskStatus::DroppedReactive);
  }
  std::sort(overdueMachines_.begin(), overdueMachines_.end());
  overdueMachines_.erase(
      std::unique(overdueMachines_.begin(), overdueMachines_.end()),
      overdueMachines_.end());
  reactiveRescans_ += overdueMachines_.size();
  for (const sim::MachineId j : overdueMachines_) {
    sim::Machine& m = world.machines[static_cast<std::size_t>(j)];
    overdueScratch_.clear();
    for (sim::TaskId id : m.queue()) {
      if (world.pool[id].missedDeadline(now)) overdueScratch_.push_back(id);
    }
    for (sim::TaskId id : overdueScratch_) {
      m.removeQueued(id, now, world.pool, world.model);
      dropTask(world, id, now, sim::TaskStatus::DroppedReactive);
    }
  }
}

void Scheduler::proactiveDropPass(World& world, sim::Time now) {
  for (sim::Machine& m : world.machines) {
    if (m.queueLength() == 0) continue;
    // Walk the queue front to back, accumulating the PCT chain (Eq. 1).
    // A dropped task's PET is excluded from the accumulator, so tasks
    // behind it immediately see the improved (less uncertain) chain.
    //
    if (pctCache_ == nullptr) {
      // Reference path (pctCacheEnabled off): recompute the full chain per
      // candidate, exactly as the paper's Fig. 5 pseudo-code reads.  The
      // chain ping-pongs between two arena buffers — no allocation.
      prob::PmfArena& arena = prob::PmfArena::local();
      prob::DiscretePmf referenceAcc =
          m.availabilityPct(now, world.pool, world.model);
      std::vector<sim::TaskId>& referenceDrop = proactiveDropScratch_;
      referenceDrop.clear();
      for (sim::TaskId id : m.queue()) {
        const sim::Task& t = world.pool[id];
        prob::DiscretePmf pct = prob::convolveInto(
            arena, referenceAcc, world.model.pet(t.type, m.id()));
        const double chance = pct.successProbability(t.deadline);
        if (pruner_.shouldDrop(t.type, chance, t.value)) {
          referenceDrop.push_back(id);
          arena.recycle(std::move(pct));
        } else {
          arena.recycle(std::move(referenceAcc));
          referenceAcc = std::move(pct);
        }
      }
      arena.recycle(std::move(referenceAcc));
      for (sim::TaskId id : referenceDrop) {
        m.removeQueued(id, now, world.pool, world.model);
        dropTask(world, id, now, sim::TaskStatus::DroppedProactive);
      }
      continue;
    }
    // Incremental path: every drop decision only asks `chance <= bar`, and
    // prob::certifiedChance settles almost all of them without a
    // convolution — from the candidate's support bounds (exact integer
    // sums of the factors' first/last bins) or from a certified estimate.
    // While nothing has been dropped the estimate comes from the PCT
    // cache's queue-suffix chain; after a drop the unmodified queue's
    // prefixes no longer apply, and it comes from the kept chain `acc`
    // (availability ⊛ kept PETs) against the candidate's PET.  `acc` is
    // materialized only when needed, folding in `pending` — the kept PETs
    // not yet folded — so every convolution is the reference's, in the
    // reference's order, and exact chances are bit-identical.
    const double w = m.binWidth();
    auto [accMinB, accMaxB] = m.availabilityBounds(now, world.pool,
                                                   world.model);
    prob::PmfArena& arena = prob::PmfArena::local();
    std::optional<prob::DiscretePmf> acc;
    std::optional<prob::DiscretePmf> candidate;  // acc ⊛ pet, when computed
    std::vector<const prob::DiscretePmf*>& pending = pendingScratch_;
    pending.clear();
    const auto keptChain = [&]() -> const prob::DiscretePmf& {
      if (!acc.has_value()) {
        acc = m.availabilityPct(now, world.pool, world.model);
      }
      for (const prob::DiscretePmf* p : pending) {
        prob::convolveInPlace(arena, *acc, *p);
      }
      pending.clear();
      return *acc;
    };
    bool droppedAny = false;
    std::vector<sim::TaskId>& toDrop = proactiveDropScratch_;
    toDrop.clear();
    std::size_t idx = 0;
    for (sim::TaskId id : m.queue()) {
      const sim::Task& t = world.pool[id];
      const prob::DiscretePmf& pet = world.model.pet(t.type, m.id());
      const prob::CertifiedChance chance = prob::certifiedChance(
          accMinB + pet.firstBin(), accMaxB + pet.lastBin(), w, t.deadline,
          pruner_.pruningBar(t.type, t.value),
          [&] {
            if (!droppedAny) {
              return pctCache_->queuedChanceEstimate(
                  m, now, world.pool, world.model, idx, t.deadline);
            }
            const prob::DiscretePmf& kept = keptChain();
            return prob::convolvedCdfEstimate(kept.probs(), kept.firstBin(),
                                              pet.cdfTable(), pet.firstBin(),
                                              kept.binWidth(), t.deadline);
          },
          [&] {
            candidate = prob::convolveInto(arena, keptChain(), pet);
            return candidate->successProbability(t.deadline);
          });
      pctCache_->recordDropStage(chance.stage);
      if (pruner_.shouldDrop(t.type, chance.chance, t.value)) {
        toDrop.push_back(id);
        droppedAny = true;
        if (candidate.has_value()) arena.recycle(std::move(*candidate));
      } else {
        accMinB += pet.firstBin();
        accMaxB += pet.lastBin();
        if (candidate.has_value()) {
          arena.recycle(std::move(*acc));
          acc = std::move(*candidate);
        } else {
          pending.push_back(&pet);
        }
      }
      candidate.reset();
      ++idx;
    }
    if (acc.has_value()) arena.recycle(std::move(*acc));
    for (sim::TaskId id : toDrop) {
      m.removeQueued(id, now, world.pool, world.model);
      dropTask(world, id, now, sim::TaskStatus::DroppedProactive);
    }
  }
}

double Scheduler::deferChance(World& world,
                              const heuristics::MappingContext& ctx,
                              const heuristics::Assignment& a,
                              const sim::Task& t, sim::Time now) const {
  if (pctCache_ == nullptr) return ctx.successChance(a.task, a.machine);
  const sim::Machine& m = world.machines[static_cast<std::size_t>(a.machine)];
  const auto [tailLo, tailHi] = m.tailBounds(now, world.pool, world.model);
  const prob::DiscretePmf& pet = world.model.pet(t.type, m.id());
  const prob::CertifiedChance chance = prob::certifiedChance(
      tailLo + pet.firstBin(), tailHi + pet.lastBin(), m.binWidth(),
      t.deadline, pruner_.pruningBar(t.type, t.value),
      [&] {
        return pctCache_->appendChanceEstimate(m, now, world.pool,
                                               world.model, t.type,
                                               t.deadline);
      },
      [&] { return ctx.successChance(a.task, a.machine); });
  pctCache_->recordDeferStage(chance.stage);
  return chance.chance;
}

bool Scheduler::anyFreeSlot(const World& world) const {
  const std::size_t capacity = config_.machineQueueCapacity;
  for (const sim::Machine& m : world.machines) {
    if (!m.acceptsWork()) continue;
    if (m.queueLength() + (m.busy() ? 1u : 0u) < capacity) return true;
  }
  return false;
}

bool Scheduler::applyAssignments(
    World& world, const std::vector<heuristics::Assignment>& assignments,
    const heuristics::MappingContext& ctx, sim::Time now) {
  bool dispatchedAny = false;
  for (const heuristics::Assignment& a : assignments) {
    const sim::Task& t = world.pool[a.task];
    // Step 10: chance of success on the *live* machine state (earlier
    // dispatches in this event are already reflected in the tail PCT).
    // When the configuration can never defer, the chance is dead weight —
    // skip its convolution outright.  Otherwise settle the defer comparison
    // through prob::certifiedChance, as the proactive pass does: support
    // bounds, then a certified estimate, and the convolution only near the
    // bar.  Like the proactive pass, the staging belongs to the incremental
    // machinery — the --no-pct-cache reference path recomputes the full
    // chance per candidate, exactly as Fig. 5 reads.
    const double chance = pruner_.deferUsesChance()
                              ? deferChance(world, ctx, a, t, now)
                              : 1.0;
    if (pruner_.shouldDefer(t.type, chance, t.value)) {
      // Step 10 defers "to the next mapping event": the task is out of the
      // running for the rest of this one.
      if (ctx.persistent()) {
        batchQueue_.markDeferred(a.task);
      } else {
        deferredScratch_.insert(a.task);
      }
      ++world.pool[a.task].deferrals;
      world.metrics.recordDeferral();
      emit(now, sim::TraceEventKind::Deferred, a.task, a.machine);
      continue;
    }
    dispatch(world, a.task, a.machine, now);
    batchQueue_.remove(a.task);
    dispatchedAny = true;
  }
  return dispatchedAny;
}

void Scheduler::runBatchMapping(World& world, sim::Time now) {
  if (!ctx_.has_value()) {
    runBatchMappingReference(world, now);
    return;
  }
  // Incremental engine: deferral marks from the previous event expire in
  // O(1), the candidate list comes straight off the indexed queue, and the
  // free-slot guard skips the whole round — candidate rebuild, context
  // queries, heuristic call — once the cluster is saturated, which in a
  // burst is every mapping event after the first few.
  //
  // Adaptive per-round selection: the delta-evaluation machinery (journal
  // replay, per-type buckets, phase-1 diffing) has a fixed per-round cost
  // that only pays for itself on wide batches, so a round whose queue is
  // shallower than incrementalMapMinQueue hands the heuristic an explicit
  // candidate span — the reference evaluation, against the same persistent
  // context — instead of the empty "read the queue" signal.  The rule is a
  // pure function of the queue depth (never wall clock) and both
  // evaluations assign identically, so traces and reports are byte-
  // identical at any threshold.
  batchQueue_.beginEvent();
  const bool queueDirect = batch_->consumesBatchQueue();
  while (!batchQueue_.empty()) {
    if (!anyFreeSlot(world)) break;
    std::span<const sim::TaskId> candidates;
    const bool wide =
        queueDirect && batchQueue_.size() >= config_.incrementalMapMinQueue;
    if (!wide) {
      // Narrow rounds (and heuristics that ignore the indexed queue) get
      // the span of live, non-deferred tasks in arrival order.
      batchQueue_.liveCandidates(candidateScratch_);
      if (candidateScratch_.empty()) break;
      candidates = candidateScratch_;
    }
    const std::vector<heuristics::Assignment> assignments =
        batch_->map(*ctx_, candidates);
    if (assignments.empty()) break;  // nothing mappable (or all deferred)
    if (!applyAssignments(world, assignments, *ctx_, now)) {
      break;  // everything mappable was deferred
    }
  }
}

void Scheduler::runBatchMappingReference(World& world, sim::Time now) {
  // Reference engine: fresh context and full two-phase re-evaluation every
  // round, exactly as Fig. 5 reads.  Kept as the oracle the incremental
  // engine is benchmarked and equivalence-tested against.
  std::unordered_set<sim::TaskId>& deferredThisEvent = deferredScratch_;
  deferredThisEvent.clear();
  while (!batchQueue_.empty()) {
    // Tasks deferred in this event are out of the running until the next
    // mapping event (step 10 defers "to the next mapping event").
    std::vector<sim::TaskId>& candidates = candidateScratch_;
    candidates.clear();
    candidates.reserve(batchQueue_.size());
    batchQueue_.forEachLive([&](sim::TaskId id, std::uint64_t /*seq*/) {
      if (!deferredThisEvent.contains(id)) candidates.push_back(id);
    });
    if (candidates.empty()) break;

    const heuristics::MappingContext ctx = makeContext(world, now);
    const std::vector<heuristics::Assignment> assignments =
        batch_->map(ctx, candidates);
    if (assignments.empty()) break;  // queues full or nothing mappable
    if (!applyAssignments(world, assignments, ctx, now)) {
      break;  // everything mappable was deferred
    }
  }
}

void Scheduler::dispatch(World& world, sim::TaskId task, sim::MachineId machine,
                         sim::Time now) {
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  emit(now, sim::TraceEventKind::Dispatched, task, machine);
  // When the deferring check convolved tailPct ⊛ PET (the exact stage), the
  // machine's Eq. 1 update reuses it instead of convolving again.
  // Otherwise the machine queues the PET as a lazy pending append that
  // only materializes if some consumer actually reads the tail.
  std::optional<prob::DiscretePmf> newTail;
  if (pctCache_ != nullptr && m.tracksTail() && pruner_.deferUsesChance()) {
    newTail = pctCache_->peekAppendPct(m, now, world.pool[task].type);
  }
  const bool started =
      m.dispatch(task, now, world.pool, world.model,
                 newTail.has_value() ? &*newTail : nullptr);
  if (started) {
    emit(now, sim::TraceEventKind::Started, task, machine);
    scheduleCompletion(world, machine, task, now);
  }
}

void Scheduler::scheduleCompletion(World& world, sim::MachineId machine,
                                   sim::TaskId task, sim::Time now) {
  const sim::Task& t = world.pool[task];
  const double exec = world.model.pet(t.type, machine).sample(world.execRng);
  // completionSeq_ was sized by beginTrial — no per-completion size check.
  completionSeq_[static_cast<std::size_t>(machine)] = world.events.nextSeq();
  world.events.push(now + exec, sim::EventKind::TaskCompletion, task, machine);
}

void Scheduler::abortOverdueRunning(World& world, sim::Time now) {
  for (sim::Machine& m : world.machines) {
    if (!m.busy()) continue;
    sim::TaskId running = m.runningTask();
    if (!world.pool[running].missedDeadline(now)) continue;
    world.events.cancel(completionSeq_[static_cast<std::size_t>(m.id())]);
    const sim::Time started = world.pool[running].startTime;
    m.abortRunning(now, world.pool, world.model);
    leftIdle_.push_back(m.id());
    emit(now, sim::TraceEventKind::Aborted, running, m.id());
    dropTask(world, running, now, sim::TaskStatus::DroppedReactive);
    world.metrics.recordExecution(m.id(), now - started, /*useful=*/false);
    // The successor starts in startIdleMachines(), after the reactive and
    // proactive passes have had a chance to drop it.
  }
}

void Scheduler::finalize(World& world, sim::Time now) {
  // Tasks still in the batch queue when the trial drains can never run:
  // count overdue ones as reactive drops, the rest as proactive (they were
  // deferred until the system went idle).
  batchQueue_.forEachLive([&](sim::TaskId id, std::uint64_t /*seq*/) {
    const bool overdue = world.pool[id].missedDeadline(now);
    dropTask(world, id, now,
             overdue ? sim::TaskStatus::DroppedReactive
                     : sim::TaskStatus::DroppedProactive);
  });
  batchQueue_.clear();
}

void Scheduler::emit(sim::Time time, sim::TraceEventKind kind,
                     sim::TaskId task, sim::MachineId machine) const {
  if (config_.traceSink) {
    config_.traceSink(sim::TraceEvent{time, kind, task, machine});
  }
}

}  // namespace hcs::core
