#include "core/simulation.h"

#include <optional>
#include <stdexcept>

#include "heuristics/context.h"
#include "sim/elasticity.h"
#include "sim/faults.h"

namespace hcs::core {

namespace {

/// Trace every machine transition one controller tick produced.
void emitCapacityTraces(const sim::TraceSink& sink,
                        const sim::CapacityDelta& delta, sim::Time now) {
  if (!sink) return;
  const auto emit = [&](sim::TraceEventKind kind, sim::MachineId m) {
    sink(sim::TraceEvent{now, kind, sim::kInvalidTask, m});
  };
  for (sim::MachineId m : delta.drained) {
    emit(sim::TraceEventKind::MachineDraining, m);
  }
  for (sim::MachineId m : delta.reclaimed) {
    emit(sim::TraceEventKind::DrainCancelled, m);
  }
  for (sim::MachineId m : delta.booting) {
    emit(sim::TraceEventKind::MachineBooting, m);
  }
  for (sim::MachineId m : delta.bootsCancelled) {
    emit(sim::TraceEventKind::BootCancelled, m);
  }
  for (sim::MachineId m : delta.retired) {
    emit(sim::TraceEventKind::MachineRetired, m);
  }
}

}  // namespace

Simulation::Simulation(const sim::ExecutionModel& model,
                       const workload::Workload& workload,
                       SimulationConfig config)
    : model_(model), workload_(&workload), config_(std::move(config)) {
  if (workload.numTaskTypes() != model.numTaskTypes()) {
    throw std::invalid_argument(
        "Simulation: workload / model task-type count mismatch");
  }
}

Simulation::Simulation(const sim::ExecutionModel& model,
                       workload::TaskStream& stream, SimulationConfig config)
    : model_(model), stream_(&stream), config_(std::move(config)) {
  if (stream.numTaskTypes() != model.numTaskTypes()) {
    throw std::invalid_argument(
        "Simulation: stream / model task-type count mismatch");
  }
}

TrialResult Simulation::run() {
  const bool streaming = stream_ != nullptr;
  const double binWidth = model_.pet(0, 0).binWidth();
  const bool batchMode =
      allocationModeFor(config_) == AllocationMode::Batch;

  sim::TaskPool pool;
  if (streaming) pool.enableRecycling();
  std::vector<sim::Machine> machines;
  machines.reserve(static_cast<std::size_t>(model_.numMachines()));
  for (int j = 0; j < model_.numMachines(); ++j) {
    machines.emplace_back(j, binWidth, /*trackTail=*/batchMode,
                          /*lazyTailRebuild=*/config_.pctCacheEnabled);
  }
  sim::EventQueue events;
  sim::Metrics metrics(model_.numTaskTypes());
  if (streaming) {
    metrics.enableOnlineCounting(config_.warmupMargin, pool.createdClock());
  } else {
    metrics.setCounted(workload_->countedMask(config_.warmupMargin));
  }
  prob::Rng execRng(config_.executionSeed);

  if (!streaming) {
    for (const workload::TaskSpec& spec : workload_->tasks()) {
      pool.create(spec.type, spec.arrival, spec.deadline, spec.value);
    }
  }

  Scheduler scheduler(config_, model_.numTaskTypes());
  World world{pool, machines, events, metrics, execRng, model_};

  // The capacity controller arms first: its surplus slots park (go offline)
  // at t = 0 BEFORE the fault injector scans the fleet, so parked capacity
  // gets no failure process — exactly like initially-offline machines.  An
  // inactive config arms nothing and the trial is byte-identical to the
  // fixed-capacity engine.
  std::optional<sim::CapacityController> controller;
  if (config_.elasticity.active()) {
    controller.emplace(config_.elasticity, config_.elasticitySeed, model_,
                       machines.size(),
                       batchMode ? config_.machineQueueCapacity
                                 : heuristics::MappingContext::kUnbounded,
                       config_.pctCacheEnabled);
    controller->beginTrial(events, machines, pool);
  }

  // An inactive fault config schedules nothing and the trial is byte-
  // identical to the fault-free engine.
  std::optional<sim::FaultInjector> injector;
  if (config_.faults.active()) {
    injector.emplace(config_.faults, config_.faultSeed, machines.size());
    world.faultRng = &injector->rng();
    injector->beginTrial(events, machines, pool, model_);
  }
  scheduler.beginTrial(world);
  sim::FaultInjector* injectorPtr =
      injector.has_value() ? &*injector : nullptr;

  // After a completion or recovery, a draining machine may have emptied —
  // the drain is done and the machine retires.
  const auto maybeRetire = [&](sim::MachineId machine, sim::Time when) {
    if (!controller.has_value()) return;
    if (controller->maybeRetire(events, machines, pool, machine, when,
                                injectorPtr) &&
        config_.traceSink) {
      config_.traceSink(sim::TraceEvent{when, sim::TraceEventKind::MachineRetired,
                                        sim::kInvalidTask, machine});
    }
  };

  // With churn active, the stochastic fail/repair process re-arms on every
  // transition and would keep the queue populated forever; the trial is
  // over once every task reached a terminal state (no task events can be
  // pending then — only fault events, which no longer matter).  A streamed
  // trial learns its task count as the stream drains: it is over once the
  // stream is dry AND everything created went terminal.
  const std::size_t totalTasks = pool.size();
  // Every handled arrival, retry re-entries included.
  std::size_t arrivalsSeen = 0;
  // The next materialized arrival (create() numbered the tasks 0..N-1 in
  // arrival order); retries never move it.
  std::size_t arrivalCursor = 0;
  const auto peekArrival = [&]() -> const workload::TaskSpec* {
    if (streaming) return stream_->peek();
    return arrivalCursor < totalTasks ? &workload_->tasks()[arrivalCursor]
                                      : nullptr;
  };
  const auto allTerminal = [&]() {
    if (streaming) {
      return stream_->peek() == nullptr &&
             metrics.terminalCount() ==
                 static_cast<std::size_t>(pool.createdCount());
    }
    return metrics.terminalCount() == totalTasks;
  };
  // Ticks re-arm forever, so an elastic trial can not rely on queue
  // exhaustion.  A tick popping after the last arrival, with every machine
  // idle and empty and no boot in flight, can never change a task's fate
  // again (the only survivors are deferred batch-queue leftovers, which the
  // finalize pass sweeps exactly like the fixed engine): break BEFORE
  // processing it, so `now` — and with it makespan, machine-seconds, and
  // the finalize trace timestamps — stays at the last task event and the
  // min == max identity oracle holds.  Fault injectors opt out: their
  // recovery-driven mapping events can still resolve stuck tasks.
  const auto taskQuiescent = [&]() {
    const bool moreArrivals =
        streaming ? stream_->peek() != nullptr : arrivalsSeen < totalTasks;
    if (moreArrivals) return false;
    if (controller->hasPendingBoot()) return false;
    for (const sim::Machine& m : machines) {
      if (m.busy() || m.queueLength() > 0) return false;
    }
    return true;
  };
  sim::Time now = 0;
  for (;;) {
    // Arrivals bypass the event queue: they are served in order off the
    // workload (a cursor) or the stream, and win every time tie — the rule
    // the federated gateway loop follows too.  A streamed task is created
    // (and its slot allocated) only when its arrival time is due.
    // TaskArrival events *in the queue* are only retry re-entries.
    const workload::TaskSpec* next = peekArrival();
    if (next != nullptr &&
        (events.empty() || next->arrival <= events.top().time)) {
      now = next->arrival;
      sim::TaskId id;
      if (streaming) {
        const workload::TaskSpec spec = stream_->pop();
        id = pool.create(spec.type, spec.arrival, spec.deadline, spec.value);
      } else {
        id = static_cast<sim::TaskId>(arrivalCursor++);
      }
      ++arrivalsSeen;
      scheduler.handleArrival(world, id, now);
      if ((injector.has_value() || controller.has_value()) && allTerminal()) {
        break;
      }
      continue;
    }
    auto event = events.tryPop();
    if (!event.has_value()) break;
    if (event->kind == sim::EventKind::ControllerTick &&
        !injector.has_value() && taskQuiescent()) {
      break;
    }
    now = event->time;
    switch (event->kind) {
      case sim::EventKind::TaskArrival:
        ++arrivalsSeen;
        scheduler.handleArrival(world, event->task, now);
        break;
      case sim::EventKind::TaskCompletion:
        scheduler.handleCompletion(world, event->machine, event->task, now);
        maybeRetire(event->machine, now);
        break;
      case sim::EventKind::MachineFailure:
      case sim::EventKind::MachineRecovery: {
        const auto j = static_cast<std::size_t>(event->machine);
        const sim::FaultInjector::Action action =
            injector->onEvent(events, *event, machines[j].online());
        if (action == sim::FaultInjector::Action::Fail) {
          scheduler.handleMachineFailure(world, event->machine, now);
        } else if (action == sim::FaultInjector::Action::Recover) {
          scheduler.handleMachineRecovery(world, event->machine, now);
          // A machine that failed while draining recovers empty and still
          // draining: the drain completes on the spot.
          maybeRetire(event->machine, now);
        }
        break;
      }
      case sim::EventKind::ControllerTick: {
        sim::LoadSignal signal;
        signal.tasksInSystem = scheduler.batchQueueLength();
        for (const sim::Machine& m : machines) {
          signal.tasksInSystem += m.queueLength() + (m.busy() ? 1u : 0u);
        }
        if (controller->needsHeadTask()) {
          signal.headTask = scheduler.batchQueueHead();
        }
        const sim::CapacityDelta delta = controller->onTick(
            events, machines, pool, signal, metrics, now, injectorPtr);
        emitCapacityTraces(config_.traceSink, delta, now);
        // Only *added accepting capacity* warrants a mapping event — drains
        // and retirements shrink the candidate set and the next natural
        // event prices that in.  No-op ticks must not touch the scheduler
        // at all (the min == max identity oracle).
        if (delta.capacityAdded()) {
          scheduler.handleCapacityChanged(world, now);
        }
        break;
      }
      case sim::EventKind::CapacityOnline: {
        const bool accepting = controller->onCapacityOnline(
            events, *event, machines, pool, now, injectorPtr);
        if (accepting) {
          if (config_.traceSink) {
            config_.traceSink(sim::TraceEvent{now,
                                              sim::TraceEventKind::MachineBooted,
                                              sim::kInvalidTask,
                                              event->machine});
          }
          scheduler.handleCapacityChanged(world, now);
        }
        break;
      }
    }
    if ((injector.has_value() || controller.has_value()) && allTerminal()) {
      break;
    }
  }
  scheduler.finalize(world, now);
  // The stream is drained and the creation clock is final: settle the
  // terminals still awaiting their counted/uncounted verdict.
  metrics.endStreamCounting();

  // Machine-seconds cost accounting, recorded for every trial (elastic or
  // fixed) so the utilization/cost report columns always mean the same
  // thing: time integrated against *online* capacity, not wall clock.
  for (std::size_t j = 0; j < machines.size(); ++j) {
    const sim::Machine& m = machines[j];
    metrics.recordMachineSeconds(model_.machineTypeOf(static_cast<int>(j)),
                                 m.onlineSeconds(now), m.drainingSeconds(now),
                                 m.busyTime());
  }

  TrialResult result{.metrics = std::move(metrics),
                     .robustnessPercent = 0.0,
                     .machineUtilization = {},
                     .fairnessScores = {},
                     .mappingEvents = 0,
                     .makespan = 0,
                     .mappingEngineSeconds = 0.0,
                     .pctCache = {}};
  result.robustnessPercent = result.metrics.robustnessPercent();
  result.makespan = now;
  result.mappingEvents = scheduler.mappingEvents();
  result.mappingEngineSeconds =
      static_cast<double>(scheduler.mappingEngineNanos()) * 1e-9;
  result.fairnessScores = scheduler.pruner().fairness().scores();
  if (scheduler.pctCache() != nullptr) {
    result.pctCache = scheduler.pctCache()->stats();
  }
  result.machineUtilization.reserve(machines.size());
  for (const sim::Machine& m : machines) {
    result.machineUtilization.push_back(now > 0 ? m.busyTime() / now : 0.0);
  }
  return result;
}

}  // namespace hcs::core
