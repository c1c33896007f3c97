#include "fed/federation.h"

#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

#include "sim/elasticity.h"
#include "sim/faults.h"

namespace hcs::fed {

std::uint64_t clusterExecutionSeed(std::uint64_t base, std::size_t cluster) {
  if (cluster == 0) return base;  // the N=1 identity: cluster 0 IS the trial
  // One splitmix64 scramble per cluster index: well-separated streams from
  // one trial seed, so adding clusters never perturbs existing ones.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(cluster);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// One cluster's full resource-allocation stack.
struct Cluster {
  std::vector<sim::Machine> machines;
  sim::EventQueue events;
  sim::Metrics metrics;
  prob::Rng rng;
  core::SimulationConfig config;  ///< per-cluster copy (trace sink wrap)
  std::unique_ptr<core::Scheduler> scheduler;
  /// Routing-side Eq. 2 machinery (multi-cluster gateways only): a
  /// persistent context + PCT cache of this cluster, separate from the
  /// scheduler's own so gateway queries never perturb mapping decisions.
  std::unique_ptr<heuristics::PctCache> routingCache;
  std::optional<heuristics::MappingContext> routingCtx;
  /// Per-cluster churn driver (faults active only), on its own
  /// seed-paired stream split from the trial's fault seed.
  std::optional<sim::FaultInjector> injector;
  /// Per-cluster capacity controller (elasticity active only), again on a
  /// split seed-paired stream.
  std::optional<sim::CapacityController> controller;
  std::size_t inFlight = 0;
  std::size_t routed = 0;
  sim::Time lastEvent = 0;

  explicit Cluster(prob::Rng seeded) : rng(std::move(seeded)) {}

  sim::FaultInjector* injectorOrNull() {
    return injector.has_value() ? &*injector : nullptr;
  }
};

/// A failure retry waiting to re-enter the gateway: re-routed and
/// re-admitted against the whole federation, not pinned to the cluster
/// that failed it.  Ordered by (time, issue order).
struct PendingRetry {
  sim::Time at = 0;
  std::uint64_t seq = 0;
  sim::TaskId task = sim::kInvalidTask;
};

struct RetryLater {
  bool operator()(const PendingRetry& a, const PendingRetry& b) const {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  }
};

/// Trace every machine transition one controller tick produced (cluster
/// sinks already carry the cluster index through the wrapper).
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

FederatedSimulation::FederatedSimulation(
    std::vector<const sim::ExecutionModel*> models,
    const workload::Workload& workload, core::SimulationConfig config,
    FederationSpec spec)
    : models_(std::move(models)),
      workload_(&workload),
      config_(std::move(config)),
      spec_(std::move(spec)) {
  validate(workload.numTaskTypes());
}

FederatedSimulation::FederatedSimulation(
    std::vector<const sim::ExecutionModel*> models,
    workload::TaskStream& stream, core::SimulationConfig config,
    FederationSpec spec)
    : models_(std::move(models)),
      stream_(&stream),
      config_(std::move(config)),
      spec_(std::move(spec)) {
  validate(stream.numTaskTypes());
}

void FederatedSimulation::validate(int numTaskTypes) {
  if (spec_.clusters == 0) {
    throw std::invalid_argument("FederatedSimulation: need >= 1 cluster");
  }
  if (models_.size() != spec_.clusters) {
    throw std::invalid_argument(
        "FederatedSimulation: one execution model per cluster required");
  }
  for (const sim::ExecutionModel* model : models_) {
    if (model == nullptr) {
      throw std::invalid_argument("FederatedSimulation: null cluster model");
    }
    if (model->numTaskTypes() != numTaskTypes) {
      throw std::invalid_argument(
          "FederatedSimulation: workload / model task-type count mismatch");
    }
  }
  if (spec_.dispatchLatency < 0.0) {
    throw std::invalid_argument(
        "FederatedSimulation: dispatch latency must be >= 0");
  }
  if (!spec_.clusterElasticity.empty() &&
      spec_.clusterElasticity.size() != spec_.clusters) {
    throw std::invalid_argument(
        "FederatedSimulation: clusterElasticity must have one entry per "
        "cluster (or none)");
  }
  spec_.admission.validate();
}

FederatedTrialResult FederatedSimulation::run() {
  // Both arrival sources run through the one loop below.  A materialized
  // workload is served through a WorkloadStream over a pool that never
  // recycles, so task ids stay equal to arrival indices; a streamed trial
  // recycles terminal tasks' slots so memory stays bounded by the in-flight
  // window.
  std::optional<workload::WorkloadStream> materialized;
  workload::TaskStream& arrivals =
      stream_ != nullptr ? *stream_ : materialized.emplace(*workload_);
  const double binWidth = models_[0]->pet(0, 0).binWidth();
  const bool batchMode =
      core::allocationModeFor(config_) == core::AllocationMode::Batch;
  const std::size_t n = spec_.clusters;
  const int numTaskTypes = models_[0]->numTaskTypes();

  // One global task pool; tasks are created as the gateway reaches them.
  sim::TaskPool pool;
  if (stream_ != nullptr) pool.enableRecycling();

  // Gateway-level accounting (rejections, spillovers) and the retry heap
  // live above every cluster; the heap is declared before the clusters so
  // each scheduler's retryHook can capture it.  Every section shares the
  // pool's creation clock for warm-up trimming: a terminal's counted
  // verdict depends on the global arrival ordinal, not on which cluster
  // (or the gateway) recorded it.
  sim::Metrics gatewayMetrics(numTaskTypes);
  gatewayMetrics.enableOnlineCounting(config_.warmupMargin,
                                      pool.createdClock());
  std::priority_queue<PendingRetry, std::vector<PendingRetry>, RetryLater>
      retries;
  std::uint64_t retrySeq = 0;
  const bool faultsActive = config_.faults.active();
  bool controllersActive = false;
  const bool admissionActive =
      spec_.admission.policy != AdmissionPolicyKind::AcceptAll;

  std::vector<Cluster> clusters;
  clusters.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    clusters.emplace_back(
        prob::Rng(clusterExecutionSeed(config_.executionSeed, c)));
    Cluster& cl = clusters.back();
    const sim::ExecutionModel& model = *models_[c];
    cl.machines.reserve(static_cast<std::size_t>(model.numMachines()));
    for (int j = 0; j < model.numMachines(); ++j) {
      cl.machines.emplace_back(j, binWidth, /*trackTail=*/batchMode,
                               /*lazyTailRebuild=*/config_.pctCacheEnabled);
    }
    cl.metrics = sim::Metrics(numTaskTypes);
    cl.metrics.enableOnlineCounting(config_.warmupMargin, pool.createdClock());
    cl.config = config_;
    // Resolve this cluster's controller config up front: the scheduler's
    // config copy must see it (it gates the immediate-mode unmappable-task
    // fallback), and the controller below references the cluster-local
    // copy.
    if (!spec_.clusterElasticity.empty()) {
      cl.config.elasticity = spec_.clusterElasticity[c];
    }
    if (spec_.traceSink) {
      const auto fedSink = spec_.traceSink;
      const auto baseSink = config_.traceSink;
      cl.config.traceSink = [fedSink, baseSink, c](const sim::TraceEvent& e) {
        fedSink(c, e);
        if (baseSink) baseSink(e);
      };
    }
    // Retries re-enter at the gateway, re-routed and re-admitted.
    cl.config.retryHook = [&retries, &retrySeq](sim::TaskId id, sim::Time at) {
      retries.push(PendingRetry{at, retrySeq++, id});
    };
    cl.scheduler = std::make_unique<core::Scheduler>(cl.config, numTaskTypes);
    if (n > 1 ||
        spec_.admission.policy == AdmissionPolicyKind::ChanceThreshold) {
      // Gateway-side Eq. 2 / ECT queries (least_ect, max_chance routing and
      // the chance_threshold admission bar, which needs them even at n=1).
      if (config_.pctCacheEnabled) {
        cl.routingCache = std::make_unique<heuristics::PctCache>();
      }
      const std::size_t capacity =
          batchMode ? config_.machineQueueCapacity
                    : heuristics::MappingContext::kUnbounded;
      cl.routingCtx.emplace(sim::Time{0}, pool, cl.machines, model, capacity,
                            cl.routingCache.get());
      cl.routingCtx->enablePersistence();
    }
    // The controller arms first: its surplus slots park (go offline) at
    // t = 0 BEFORE the fault injector scans the fleet, so parked capacity
    // gets no failure process — exactly like initially-offline machines.
    // Seed split off the trial's elasticity seed with the same scheme the
    // execution streams use.  Inactive configs arm nothing.
    if (cl.config.elasticity.active()) {
      cl.controller.emplace(cl.config.elasticity,
                            clusterExecutionSeed(config_.elasticitySeed, c),
                            model, cl.machines.size(),
                            batchMode ? config_.machineQueueCapacity
                                      : heuristics::MappingContext::kUnbounded,
                            config_.pctCacheEnabled);
      cl.controller->beginTrial(cl.events, cl.machines, pool);
      controllersActive = true;
    }
    if (faultsActive) {
      // Split per-cluster fault stream off the trial's fault seed, the same
      // scheme the execution streams use (cluster 0 keeps the base).
      cl.injector.emplace(config_.faults,
                          clusterExecutionSeed(config_.faultSeed, c),
                          cl.machines.size());
      cl.injector->beginTrial(cl.events, cl.machines, pool, model);
    }
  }

  auto worldOf = [&](std::size_t c) -> core::World {
    Cluster& cl = clusters[c];
    core::World world{pool,       cl.machines, cl.events,
                      cl.metrics, cl.rng,      *models_[c]};
    if (cl.injector.has_value()) world.faultRng = &cl.injector->rng();
    return world;
  };
  // After a completion or recovery, a draining machine may have emptied —
  // the drain is done and the machine retires.
  auto maybeRetire = [&](std::size_t c, sim::MachineId machine,
                         sim::Time when) {
    Cluster& cl = clusters[c];
    if (!cl.controller.has_value()) return;
    if (cl.controller->maybeRetire(cl.events, cl.machines, pool, machine,
                                   when, cl.injectorOrNull()) &&
        cl.config.traceSink) {
      cl.config.traceSink(sim::TraceEvent{
          when, sim::TraceEventKind::MachineRetired, sim::kInvalidTask,
          machine});
    }
  };
  for (std::size_t c = 0; c < n; ++c) {
    const core::World world = worldOf(c);
    clusters[c].scheduler->beginTrial(world);
  }

  const std::unique_ptr<RoutingPolicy> policy =
      n > 1 ? makeRoutingPolicy(spec_.routing) : nullptr;
  if (policy != nullptr) policy->beginTrial();
  const std::unique_ptr<AdmissionPolicy> admission =
      admissionActive ? makeAdmissionPolicy(spec_.admission) : nullptr;
  std::vector<ClusterView> views(n);

  auto refreshViews = [&](sim::Time when) {
    for (std::size_t c = 0; c < n; ++c) {
      Cluster& cl = clusters[c];
      if (cl.routingCtx.has_value()) cl.routingCtx->rebind(when);
      views[c] =
          ClusterView{&cl.machines, cl.scheduler->batchQueueLength(),
                      cl.inFlight,
                      cl.routingCtx.has_value() ? &*cl.routingCtx : nullptr};
    }
  };

  // Route, admit (with spillover), and deliver one gateway entrant — a
  // stream arrival or a failure retry.  A federation-wide refusal is a
  // terminal rejection priced into the aggregate metrics.
  sim::Time now = 0;
  auto admitAndDispatch = [&](sim::TaskId id, sim::Time when) {
    if (n > 1 || admissionActive) refreshViews(when);
    std::size_t target = 0;
    if (n > 1) {
      target = policy->route(views, pool[id], when);
      if (target >= n) {
        throw std::logic_error(
            "FederatedSimulation: routing policy chose an invalid cluster");
      }
    }
    if (admissionActive && !admission->admit(views[target], pool[id], when)) {
      bool placed = false;
      if (spec_.admission.spillover) {
        for (std::size_t c = 0; c < n && !placed; ++c) {
          if (c == target) continue;
          if (admission->admit(views[c], pool[id], when)) {
            target = c;
            placed = true;
            gatewayMetrics.recordSpillover();
          }
        }
      }
      if (!placed) {
        sim::Task& t = pool[id];
        t.status = sim::TaskStatus::Rejected;
        t.finishTime = when;
        gatewayMetrics.recordTerminal(t);
        // Terminal at the gateway, never entered a cluster: recycle the
        // slot (streaming mode; no-op otherwise).
        pool.retire(id);
        return;
      }
    }
    Cluster& cl = clusters[target];
    ++cl.routed;
    if (spec_.dispatchLatency <= 0.0) {
      cl.lastEvent = when;
      core::World world = worldOf(target);
      cl.scheduler->handleArrival(world, id, when);
    } else {
      ++cl.inFlight;
      cl.events.push(when + spec_.dispatchLatency, sim::EventKind::TaskArrival,
                     id);
    }
  };

  // The gateway loop: merge the (time-sorted) arrival stream, the retry
  // heap, and every cluster's event queue.  Stream arrivals win every time
  // tie, retries beat cluster events at equal times (they are gateway
  // arrivals too), and cluster ties break toward the lowest index.
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  // With churn active, every cluster's fail/repair process re-arms on each
  // transition and its queue never drains — and controller ticks recur
  // forever the same way; the trial is over once the stream is dry AND
  // every task created reached a terminal state somewhere in the
  // federation.
  auto allTasksTerminal = [&] {
    if (arrivals.peek() != nullptr) return false;
    std::size_t terminal = gatewayMetrics.terminalCount();
    for (const Cluster& cl : clusters) terminal += cl.metrics.terminalCount();
    return terminal == static_cast<std::size_t>(pool.createdCount());
  };
  while (true) {
    if ((faultsActive || controllersActive) && allTasksTerminal()) break;
    std::size_t nextCluster = kNone;
    sim::Time nextEventTime = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (clusters[c].events.empty()) continue;
      const sim::Time t = clusters[c].events.top().time;
      if (nextCluster == kNone || t < nextEventTime) {
        nextCluster = c;
        nextEventTime = t;
      }
    }
    const workload::TaskSpec* nextArrival = arrivals.peek();
    const bool haveArrival = nextArrival != nullptr;
    const bool haveRetry = !retries.empty();
    if (!haveArrival && !haveRetry && nextCluster == kNone) break;

    if (haveArrival &&
        (!haveRetry || nextArrival->arrival <= retries.top().at) &&
        (nextCluster == kNone || nextArrival->arrival <= nextEventTime)) {
      now = nextArrival->arrival;
      const workload::TaskSpec spec = arrivals.pop();
      admitAndDispatch(
          pool.create(spec.type, spec.arrival, spec.deadline, spec.value),
          now);
      continue;
    }

    if (haveRetry &&
        (nextCluster == kNone || retries.top().at <= nextEventTime)) {
      const PendingRetry retry = retries.top();
      retries.pop();
      now = retry.at;
      admitAndDispatch(retry.task, now);
      continue;
    }

    // Ticks re-arm forever, so an elastic trial can not rely on queue
    // exhaustion.  A tick popping with the stream exhausted, no retries,
    // nothing in flight, an idle fleet everywhere, and no boot pending can
    // never change a task's fate again (the only survivors are deferred
    // batch-queue leftovers, which the finalize pass sweeps exactly like a
    // fixed-capacity trial): break BEFORE processing it, so every cluster's
    // clock — and with it makespan, machine-seconds, and the finalize
    // trace timestamps — stays at its last task event and the min == max
    // identity oracle holds.  Fault-active runs opt out: recovery-driven
    // mapping events can still resolve stuck tasks.
    if (!faultsActive &&
        clusters[nextCluster].events.top().kind ==
            sim::EventKind::ControllerTick &&
        !haveArrival && !haveRetry) {
      const auto quiescent = [&] {
        for (const Cluster& other : clusters) {
          if (other.inFlight > 0) return false;
          if (other.controller.has_value() &&
              other.controller->hasPendingBoot()) {
            return false;
          }
          for (const sim::Machine& m : other.machines) {
            if (m.busy() || m.queueLength() > 0) return false;
          }
        }
        return true;
      };
      if (quiescent()) break;
    }

    Cluster& cl = clusters[nextCluster];
    const sim::Event event = cl.events.pop();
    now = event.time;
    cl.lastEvent = event.time;
    core::World world = worldOf(nextCluster);
    switch (event.kind) {
      case sim::EventKind::TaskArrival:
        --cl.inFlight;
        cl.scheduler->handleArrival(world, event.task, now);
        break;
      case sim::EventKind::TaskCompletion:
        cl.scheduler->handleCompletion(world, event.machine, event.task, now);
        maybeRetire(nextCluster, event.machine, now);
        break;
      case sim::EventKind::MachineFailure:
      case sim::EventKind::MachineRecovery: {
        const auto j = static_cast<std::size_t>(event.machine);
        const sim::FaultInjector::Action action = cl.injector->onEvent(
            cl.events, event, cl.machines[j].online());
        if (action == sim::FaultInjector::Action::Fail) {
          cl.scheduler->handleMachineFailure(world, event.machine, now);
        } else if (action == sim::FaultInjector::Action::Recover) {
          cl.scheduler->handleMachineRecovery(world, event.machine, now);
          // A machine that failed while draining recovers empty and still
          // draining: the drain completes on the spot.
          maybeRetire(nextCluster, event.machine, now);
        }
        break;
      }
      case sim::EventKind::ControllerTick: {
        sim::LoadSignal signal;
        // In-flight (gateway-routed, latency-delayed) tasks are committed
        // load the controller should see before they land.
        signal.tasksInSystem = cl.scheduler->batchQueueLength() + cl.inFlight;
        for (const sim::Machine& m : cl.machines) {
          signal.tasksInSystem += m.queueLength() + (m.busy() ? 1u : 0u);
        }
        if (cl.controller->needsHeadTask()) {
          signal.headTask = cl.scheduler->batchQueueHead();
        }
        const sim::CapacityDelta delta =
            cl.controller->onTick(cl.events, cl.machines, pool, signal,
                                  cl.metrics, now, cl.injectorOrNull());
        emitCapacityTraces(cl.config.traceSink, delta, now);
        // Only added accepting capacity warrants a mapping event — drains
        // and retirements shrink the candidate set and the next natural
        // event prices that in (the min == max identity oracle).
        if (delta.capacityAdded()) {
          cl.scheduler->handleCapacityChanged(world, now);
        }
        break;
      }
      case sim::EventKind::CapacityOnline: {
        const bool accepting = cl.controller->onCapacityOnline(
            cl.events, event, cl.machines, pool, now, cl.injectorOrNull());
        if (accepting) {
          if (cl.config.traceSink) {
            cl.config.traceSink(sim::TraceEvent{
                now, sim::TraceEventKind::MachineBooted, sim::kInvalidTask,
                event.machine});
          }
          cl.scheduler->handleCapacityChanged(world, now);
        }
        break;
      }
    }
  }

  for (std::size_t c = 0; c < n; ++c) {
    core::World world = worldOf(c);
    clusters[c].scheduler->finalize(world, now);
  }
  // Stream drained, creation clock final: settle every section's pending
  // counted/uncounted verdicts before any merge reads them.
  gatewayMetrics.endStreamCounting();
  for (Cluster& cl : clusters) cl.metrics.endStreamCounting();

  FederatedTrialResult result;
  result.total.metrics = sim::Metrics(numTaskTypes);
  result.total.metrics.merge(gatewayMetrics);
  result.total.makespan = now;
  result.clusters.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    Cluster& cl = clusters[c];
    // Machine-seconds cost accounting per cluster (merged into the
    // aggregate below), mirroring the single-cluster engine: integrated
    // against *online* capacity, not wall clock.
    const sim::ExecutionModel& model = *models_[c];
    for (std::size_t j = 0; j < cl.machines.size(); ++j) {
      const sim::Machine& m = cl.machines[j];
      cl.metrics.recordMachineSeconds(model.machineTypeOf(static_cast<int>(j)),
                                      m.onlineSeconds(now),
                                      m.drainingSeconds(now), m.busyTime());
    }
    ClusterOutcome outcome;
    outcome.tasksRouted = cl.routed;
    outcome.mappingEvents = cl.scheduler->mappingEvents();
    outcome.lastEvent = cl.lastEvent;
    outcome.fairnessScores = cl.scheduler->pruner().fairness().scores();
    outcome.machineUtilization.reserve(cl.machines.size());
    for (const sim::Machine& m : cl.machines) {
      outcome.machineUtilization.push_back(now > 0 ? m.busyTime() / now : 0.0);
    }
    result.total.metrics.merge(cl.metrics);
    result.total.mappingEvents += outcome.mappingEvents;
    result.total.mappingEngineSeconds +=
        static_cast<double>(cl.scheduler->mappingEngineNanos()) * 1e-9;
    if (cl.scheduler->pctCache() != nullptr) {
      result.total.pctCache += cl.scheduler->pctCache()->stats();
    }
    result.total.machineUtilization.insert(
        result.total.machineUtilization.end(),
        outcome.machineUtilization.begin(), outcome.machineUtilization.end());
    outcome.metrics = std::move(cl.metrics);
    result.clusters.push_back(std::move(outcome));
  }
  result.total.robustnessPercent = result.total.metrics.robustnessPercent();
  // Fairness scores are per-cluster state (each pruner adapts to its own
  // share of the stream); the aggregate carries cluster 0's only in the
  // degenerate single-cluster federation, where it IS the trial's.
  if (n == 1) {
    result.total.fairnessScores = result.clusters[0].fairnessScores;
  }
  return result;
}

}  // namespace hcs::fed
