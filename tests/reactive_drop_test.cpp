// The reactive pass (Fig. 5 step 1) and the lifecycle trace it leaves.
//
//  - Task-identity traps.  Any index the scheduler keeps over its queues
//    must agree with the queues themselves when:
//      * an immediate-mode arrival that is already overdue sits in no queue
//        during its own mapping event and is only placed afterwards;
//      * a federated retry lands in another cluster (the clusters share
//        one task pool, so the first cluster still "knows" the id);
//      * a retried task re-enters the scheduler that lost it;
//      * a streamed pool recycles the slot of a terminal task.
//  - A trace invariant: with reactive dropping on, a batch-mode task never
//    starts after its deadline, and every reactive drop happens after it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/simulation.h"
#include "exp/scenario.h"
#include "fed/federation.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace {

using namespace hcs;
using K = sim::TraceEventKind;

double testScale() {
  if (const char* env = std::getenv("HCS_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return std::min(s, 0.02);
  }
  return 0.02;
}

bool isTerminal(K kind) {
  return kind == K::Completed || kind == K::DroppedReactive ||
         kind == K::DroppedProactive || kind == K::Abandoned ||
         kind == K::Rejected;
}

core::SimulationConfig prunedConfig(const std::string& heuristic) {
  core::SimulationConfig config;
  config.heuristic = heuristic;
  config.warmupMargin = 0;
  return config;
}

core::SimulationConfig churnConfig(const std::string& heuristic) {
  core::SimulationConfig config = prunedConfig(heuristic);
  config.faults.enabled = true;
  config.faults.mtbf = 15.0;
  config.faults.mttr = 4.0;
  config.faults.maxAttempts = 4;
  config.faults.backoffBase = 0.2;
  return config;
}

/// One trace event plus the cluster that emitted it.
struct ClusterEvent {
  std::size_t cluster = 0;
  sim::TraceEvent event;
};

std::map<sim::TaskId, std::vector<ClusterEvent>> byTask(
    const std::vector<ClusterEvent>& trace) {
  std::map<sim::TaskId, std::vector<ClusterEvent>> out;
  for (const ClusterEvent& e : trace) {
    if (e.event.task != sim::kInvalidTask) out[e.event.task].push_back(e);
  }
  return out;
}

// --- Identity traps -----------------------------------------------------------

TEST(ReactiveDropTest, OverdueArrivalIsDroppedByTheFirstPassThatSeesIt) {
  // One machine; the gateway's dispatch latency makes task 1 reach the
  // cluster (t = 1.5) after its deadline (1.2).
  //  - Batch mode queues it before its own event's reactive pass, which
  //    drops it on the spot.
  //  - Immediate mode places it after that pass, behind task 0, so the
  //    next mapping event (task 2's arrival at t = 3.5) drops it from the
  //    machine queue.
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{10.0}});
  const workload::Workload wl({workload::TaskSpec{0, 0.0, 100.0},
                               workload::TaskSpec{0, 1.0, 1.2},
                               workload::TaskSpec{0, 3.0, 100.0}},
                              1);
  struct Case {
    const char* heuristic;
    std::vector<K> kinds;
    double droppedAt;
  };
  for (const Case& c :
       {Case{"MM", {K::Arrival, K::DroppedReactive}, 1.5},
        Case{"MCT", {K::Arrival, K::Dispatched, K::DroppedReactive}, 3.5}}) {
    fed::FederationSpec spec;
    spec.dispatchLatency = 0.5;
    std::vector<ClusterEvent> trace;
    spec.traceSink = [&](std::size_t cluster, const sim::TraceEvent& e) {
      trace.push_back({cluster, e});
    };
    const fed::FederatedTrialResult r =
        fed::FederatedSimulation({&model}, wl, prunedConfig(c.heuristic), spec)
            .run();
    EXPECT_EQ(r.total.metrics.droppedReactive(), 1u) << c.heuristic;

    std::vector<K> kinds;
    double droppedAt = -1.0;
    const auto events = byTask(trace);
    for (const ClusterEvent& e : events.at(1)) {
      kinds.push_back(e.event.kind);
      if (e.event.kind == K::DroppedReactive) droppedAt = e.event.time;
    }
    EXPECT_EQ(kinds, c.kinds) << c.heuristic;
    EXPECT_DOUBLE_EQ(droppedAt, c.droppedAt) << c.heuristic;
  }
}

TEST(ReactiveDropTest, DropsFollowArrivalOrderThenMachineOrder) {
  // Two tasks expire at the same mapping event in an order opposite to
  // their deadlines; the drops must still come out as a full scan emits
  // them — batch queue in arrival order, machine queues in ascending id.
  using workload::TaskSpec;
  {
    // Batch queue: one machine, no queue slot beyond the running task.
    const testutil::FakeModel model =
        testutil::FakeModel::deterministic({{30.0}});
    core::SimulationConfig config = prunedConfig("MM");
    config.machineQueueCapacity = 1;
    sim::TraceLog log;
    config.traceSink = log.sink();
    const workload::Workload wl(
        {TaskSpec{0, 0.0, 100.0}, TaskSpec{0, 1.0, 8.0},
         TaskSpec{0, 2.0, 6.0}, TaskSpec{0, 10.0, 100.0}},
        1);
    core::Simulation(model, wl, config).run();
    std::vector<sim::TaskId> dropped;
    for (const sim::TraceEvent& e : log.ofKind(K::DroppedReactive)) {
      if (e.time == 10.0) dropped.push_back(e.task);
    }
    EXPECT_EQ(dropped, (std::vector<sim::TaskId>{1, 2}));
  }
  {
    // Machine queues: the earlier deadline waits on the higher machine id.
    const testutil::FakeModel model =
        testutil::FakeModel::deterministic({{20.0, 100.0}, {100.0, 20.0}});
    sim::TraceLog log;
    core::SimulationConfig config = prunedConfig("MCT");
    config.traceSink = log.sink();
    const workload::Workload wl(
        {TaskSpec{0, 0.0, 100.0}, TaskSpec{1, 0.0, 100.0},
         TaskSpec{0, 1.0, 8.0}, TaskSpec{1, 1.0, 6.0},
         TaskSpec{0, 10.0, 100.0}},
        2);
    core::Simulation(model, wl, config).run();
    std::vector<std::pair<sim::TaskId, sim::MachineId>> dropped;
    for (const sim::TraceEvent& e : log.ofKind(K::DroppedReactive)) {
      if (e.time == 10.0) dropped.emplace_back(e.task, e.machine);
    }
    EXPECT_EQ(dropped,
              (std::vector<std::pair<sim::TaskId, sim::MachineId>>{{2, 0},
                                                                   {3, 1}}));
  }
}

TEST(ReactiveDropTest, RetryIntoAnotherClusterLeavesTheFirstClusterAlone) {
  // Churn in a three-cluster federation: a task lost to a failure re-enters
  // at the gateway and may be routed to a different cluster, while the
  // cluster that lost it shares the task pool.  Every task must end in
  // exactly one terminal event, emitted by the cluster (or the gateway)
  // that held it last — the first cluster never drops it.
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl = workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(exp::PaperScenario::kRate25k,
                           workload::ArrivalPattern::Spiky),
      {}, 21);
  for (const char* heuristic : {"MM", "MCT"}) {
    fed::FederationSpec spec;
    spec.clusters = 3;
    spec.routing = fed::RoutingPolicyKind::LeastQueueDepth;
    std::vector<ClusterEvent> trace;
    spec.traceSink = [&](std::size_t c, const sim::TraceEvent& e) {
      trace.push_back({c, e});
    };
    const std::vector<const sim::ExecutionModel*> models(3,
                                                         &scenario.hetero());
    fed::FederatedSimulation(models, wl, churnConfig(heuristic), spec).run();

    std::size_t movedAndDropped = 0;
    for (const auto& [task, events] : byTask(trace)) {
      std::size_t terminals = 0;
      std::size_t holder = 0;
      std::set<std::size_t> arrivalClusters;
      for (const ClusterEvent& e : events) {
        if (e.event.kind == K::Arrival) {
          holder = e.cluster;
          arrivalClusters.insert(e.cluster);
        }
        if (isTerminal(e.event.kind)) {
          ++terminals;
          if (e.event.kind == K::DroppedReactive) {
            EXPECT_EQ(e.cluster, holder)
                << heuristic << ": task " << task
                << " dropped by a cluster that no longer holds it";
            if (arrivalClusters.size() > 1) ++movedAndDropped;
          }
        }
      }
      EXPECT_EQ(terminals, 1u) << heuristic << ": task " << task;
    }
    EXPECT_GT(movedAndDropped, 0u)
        << heuristic << ": no retried task changed cluster and was then "
        << "dropped reactively; the check would be vacuous";
  }
}

TEST(ReactiveDropTest, RetryHandedToAnotherSchedulerIsNotRescannedByTheFirst) {
  // Two schedulers share one task pool, as federation clusters do.  Task x
  // waits in A's machine queue when that machine fails; its retry is
  // handed to B (the federation's retry hook), where it waits queued past
  // its deadline.  A's next reactive pass must neither drop x nor rescan
  // A's machine for it — only B, which holds it, does.
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{10.0}});
  core::SimulationConfig config = prunedConfig("MCT");
  config.faults.enabled = true;
  std::vector<sim::TaskId> handedOff;
  config.retryHook = [&](sim::TaskId task, sim::Time) {
    handedOff.push_back(task);
  };
  struct Cluster {
    explicit Cluster(const sim::ExecutionModel& model) : metrics(1), rng(1) {
      machines.emplace_back(0, model.pet(0, 0).binWidth(),
                            /*trackTail=*/false);
    }
    std::vector<sim::Machine> machines;
    sim::EventQueue events;
    sim::Metrics metrics;
    prob::Rng rng;
  };
  Cluster ca(model);
  Cluster cb(model);
  sim::TaskPool pool;
  core::World a{pool, ca.machines, ca.events, ca.metrics, ca.rng, model};
  core::World b{pool, cb.machines, cb.events, cb.metrics, cb.rng, model};
  core::Scheduler sa(config, 1);
  core::Scheduler sb(config, 1);

  const sim::TaskId ra = pool.create(0, 0.0, 100.0);  // runs on A
  const sim::TaskId rb = pool.create(0, 0.0, 100.0);  // runs on B
  const sim::TaskId x = pool.create(0, 1.0, 5.0);
  sa.handleArrival(a, ra, 0.0);
  sb.handleArrival(b, rb, 0.0);
  sa.handleArrival(a, x, 1.0);
  ASSERT_EQ(pool[x].status, sim::TaskStatus::Queued);
  sa.handleMachineFailure(a, 0, 2.0);
  ASSERT_EQ(handedOff, (std::vector<sim::TaskId>{ra, x}));
  sb.handleArrival(b, x, 3.0);  // queued behind rb
  ASSERT_EQ(pool[x].status, sim::TaskStatus::Queued);

  sa.handleMachineRecovery(a, 0, 5.5);  // A's mapping event, x overdue
  EXPECT_EQ(sa.reactiveRescans(), 0u);
  EXPECT_EQ(pool[x].status, sim::TaskStatus::Queued);
  EXPECT_EQ(ca.metrics.droppedReactive(), 0u);

  const sim::TaskId late = pool.create(0, 6.0, 100.0);
  sb.handleArrival(b, late, 6.0);  // B's mapping event drops x
  EXPECT_EQ(sb.reactiveRescans(), 1u);
  EXPECT_EQ(pool[x].status, sim::TaskStatus::DroppedReactive);
  EXPECT_EQ(cb.metrics.droppedReactive(), 1u);
}

TEST(ReactiveDropTest, RetriedTaskIsDroppedReactivelyExactlyOnce) {
  // Single cluster with churn: a task orphaned by a failure re-enters the
  // same scheduler through the retry policy before its deadline.  However
  // many times it was queued, it ends in exactly one terminal event.
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl = workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(exp::PaperScenario::kRate25k,
                           workload::ArrivalPattern::Spiky),
      {}, 22);
  for (const char* heuristic : {"MM", "FCFS-RR", "MCT"}) {
    sim::TraceLog log;
    core::SimulationConfig config = churnConfig(heuristic);
    config.traceSink = log.sink();
    core::Simulation(scenario.hetero(), wl, config).run();

    std::size_t retriedThenDropped = 0;
    for (std::size_t id = 0; id < wl.size(); ++id) {
      bool retried = false;
      std::size_t terminals = 0;
      std::size_t reactive = 0;
      for (const sim::TraceEvent& e :
           log.forTask(static_cast<sim::TaskId>(id))) {
        if (e.kind == K::Retried) retried = true;
        if (isTerminal(e.kind)) ++terminals;
        if (e.kind == K::DroppedReactive) {
          ++reactive;
          if (retried) ++retriedThenDropped;
        }
      }
      EXPECT_EQ(terminals, 1u) << heuristic << ": task " << id;
      EXPECT_LE(reactive, 1u) << heuristic << ": task " << id;
    }
    EXPECT_GT(retriedThenDropped, 0u)
        << heuristic << ": no retried task was dropped reactively; the "
        << "check would be vacuous";
  }
}

TEST(ReactiveDropTest, StreamedRunWithSlotRecyclingMatchesMaterialized) {
  // Streamed pools hand a terminal task's slot to a later arrival, so a
  // task id seen by the reactive pass may name a different task by the
  // time its deadline passes.  The result must not notice.
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  for (const bool churn : {false, true}) {
    for (const char* heuristic : {"MM", "FCFS-RR", "EDF", "MCT"}) {
      const core::SimulationConfig config =
          churn ? churnConfig(heuristic) : prunedConfig(heuristic);
      const workload::Workload wl =
          workload::Workload::generate(*scenario.pet(), arrival, {}, 23);
      const core::TrialResult materialized =
          core::Simulation(scenario.hetero(), wl, config).run();
      workload::GeneratedTaskStream stream(*scenario.pet(), arrival, {}, 23);
      const core::TrialResult streamed =
          core::Simulation(scenario.hetero(), stream, config).run();
      const std::string label =
          std::string(heuristic) + (churn ? " with churn" : "");
      ASSERT_GT(materialized.metrics.droppedReactive(), 0u) << label;
      EXPECT_EQ(materialized.metrics.droppedReactive(),
                streamed.metrics.droppedReactive())
          << label;
      EXPECT_EQ(materialized.metrics.droppedProactive(),
                streamed.metrics.droppedProactive())
          << label;
      EXPECT_EQ(materialized.metrics.completedOnTime(),
                streamed.metrics.completedOnTime())
          << label;
      EXPECT_EQ(materialized.metrics.completedLate(),
                streamed.metrics.completedLate())
          << label;
      EXPECT_EQ(materialized.metrics.abandoned(),
                streamed.metrics.abandoned())
          << label;
      EXPECT_EQ(materialized.mappingEvents, streamed.mappingEvents) << label;
      EXPECT_EQ(materialized.makespan, streamed.makespan) << label;
      EXPECT_EQ(materialized.robustnessPercent, streamed.robustnessPercent)
          << label;
    }
  }
}

// --- Trace invariant ------------------------------------------------------------

class ReactiveTraceInvariant
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(ReactiveTraceInvariant, NoStartAfterDeadlineAndNoEarlyReactiveDrop) {
  const auto& [heuristic, homogeneous] = GetParam();
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const sim::ExecutionModel& model =
      homogeneous ? static_cast<const sim::ExecutionModel&>(scenario.homo())
                  : scenario.hetero();
  std::size_t starts = 0;
  std::size_t drops = 0;
  for (const workload::ArrivalPattern pattern :
       {workload::ArrivalPattern::Constant, workload::ArrivalPattern::Spiky}) {
    const workload::Workload wl = workload::Workload::generate(
        *scenario.pet(),
        scenario.arrivalSpec(exp::PaperScenario::kRate25k, pattern), {}, 3);
    sim::TraceLog log;
    core::SimulationConfig config = prunedConfig(heuristic);
    ASSERT_TRUE(config.pruning.reactiveDropEnabled);
    config.traceSink = log.sink();
    core::Simulation(model, wl, config).run();
    for (const sim::TraceEvent& e : log.events()) {
      if (e.task == sim::kInvalidTask) continue;
      const double deadline =
          wl.tasks()[static_cast<std::size_t>(e.task)].deadline;
      if (e.kind == K::Started) {
        ++starts;
        EXPECT_LE(e.time, deadline) << "task " << e.task << " started late";
      } else if (e.kind == K::DroppedReactive) {
        ++drops;
        EXPECT_GT(e.time, deadline)
            << "task " << e.task << " dropped reactively before its deadline";
      }
    }
  }
  EXPECT_GT(starts, 0u);
  EXPECT_GT(drops, 0u) << "no reactive drops; the invariant would be vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    BatchHeuristicsTimesClusters, ReactiveTraceInvariant,
    ::testing::Combine(::testing::Values("MM", "MSD", "MMU", "FCFS-RR", "EDF",
                                         "SJF"),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + (std::get<1>(info.param) ? "_homogeneous"
                                             : "_heterogeneous");
    });

}  // namespace
