// The incremental mapping engine's contract: byte-identical trial reports
// to the reference engine for every batch heuristic and pruning
// configuration, eager cancellation in the event queue, and the
// finalize-time drain-drop classification.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/scheduler.h"
#include "core/simulation.h"
#include "exp/scenario.h"
#include "prob/rng.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

// --- Engine equivalence ------------------------------------------------------

/// Full lifecycle trace + result digest of one trial.
struct TrialDigest {
  std::vector<sim::TraceEvent> trace;
  double robustness = 0.0;
  std::size_t mappingEvents = 0;
  double makespan = 0.0;
  std::size_t onTime = 0, late = 0, reactive = 0, proactive = 0, defers = 0;

  bool operator==(const TrialDigest&) const = default;
};

TrialDigest runTrial(const core::SimulationConfig& base,
                     const workload::BoundExecutionModel& model,
                     const workload::Workload& wl, bool incremental) {
  core::SimulationConfig config = base;
  config.incrementalMappingEnabled = incremental;
  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r = core::Simulation(model, wl, config).run();
  TrialDigest d;
  d.trace = log.events();
  d.robustness = r.robustnessPercent;
  d.mappingEvents = r.mappingEvents;
  d.makespan = r.makespan;
  d.onTime = r.metrics.completedOnTime();
  d.late = r.metrics.completedLate();
  d.reactive = r.metrics.droppedReactive();
  d.proactive = r.metrics.droppedProactive();
  d.defers = r.metrics.deferrals();
  return d;
}

class EngineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalence, IdenticalTracesAcrossEnginesPruningAndCache) {
  exp::PaperScenario::Options options;
  options.scale = 0.03;  // ~600 tasks; full lifecycle compare stays fast
  const exp::PaperScenario scenario(options);
  const workload::Workload wl = workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(exp::PaperScenario::kRate25k,
                           workload::ArrivalPattern::Spiky),
      {}, 7);

  for (const bool prune : {true, false}) {
    for (const bool cache : {true, false}) {
      core::SimulationConfig config;
      config.heuristic = GetParam();
      config.pruning = prune ? pruning::PruningConfig{}
                             : pruning::PruningConfig::disabled();
      config.pctCacheEnabled = cache;
      config.warmupMargin = 0;
      const TrialDigest reference =
          runTrial(config, scenario.hetero(), wl, false);
      // Adaptive default AND forced-incremental (threshold 0): queues at
      // this test scale may never reach the default threshold, so without
      // the forced run the wide (incremental) evaluation would silently go
      // untested here and only the narrow reference rounds would run.
      for (const std::size_t minQueue :
           {core::SimulationConfig{}.incrementalMapMinQueue,
            std::size_t{0}}) {
        config.incrementalMapMinQueue = minQueue;
        const TrialDigest incremental =
            runTrial(config, scenario.hetero(), wl, true);
        EXPECT_EQ(incremental, reference)
            << GetParam() << " diverged (prune=" << prune
            << ", cache=" << cache << ", minQueue=" << minQueue << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBatchHeuristics, EngineEquivalence,
                         ::testing::Values("MM", "MSD", "MMU", "MaxMin",
                                           "Sufferage"));

TEST(EngineEquivalenceTest, HomogeneousHeuristicsMatchAcrossEngines) {
  exp::PaperScenario::Options options;
  options.scale = 0.03;
  const exp::PaperScenario scenario(options);
  const workload::Workload wl = workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(exp::PaperScenario::kRate20k,
                           workload::ArrivalPattern::Constant),
      {}, 11);
  // Pruning on exercises the deferral skip of the queue-reading path;
  // threshold 0 forces every round onto it (queues at this scale may stay
  // under the default); the heterogeneous cluster gives SJF distinct
  // per-machine minima and EDF distinct completion times.
  for (const char* name : {"FCFS-RR", "EDF", "SJF"}) {
    for (const bool prune : {true, false}) {
      for (const bool homo : {true, false}) {
        const workload::BoundExecutionModel& cluster =
            homo ? scenario.homo() : scenario.hetero();
        core::SimulationConfig config;
        config.heuristic = name;
        config.pruning = prune ? pruning::PruningConfig{}
                               : pruning::PruningConfig::disabled();
        config.warmupMargin = 0;
        const TrialDigest reference = runTrial(config, cluster, wl, false);
        for (const std::size_t minQueue :
             {core::SimulationConfig{}.incrementalMapMinQueue,
              std::size_t{0}}) {
          config.incrementalMapMinQueue = minQueue;
          const TrialDigest incremental = runTrial(config, cluster, wl, true);
          EXPECT_EQ(incremental, reference)
              << name << " diverged (prune=" << prune << ", homo=" << homo
              << ", minQueue=" << minQueue << ")";
        }
      }
    }
  }
}

TEST(EngineEquivalenceTest, AbortHeavyConfigurationMatches) {
  exp::PaperScenario::Options options;
  options.scale = 0.03;
  const exp::PaperScenario scenario(options);
  const workload::Workload wl = workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(exp::PaperScenario::kRate25k,
                           workload::ArrivalPattern::Spiky),
      {}, 13);
  core::SimulationConfig config;
  config.heuristic = "MMU";
  config.abortRunningAtDeadline = true;
  config.warmupMargin = 0;
  const TrialDigest incremental =
      runTrial(config, scenario.hetero(), wl, true);
  const TrialDigest reference =
      runTrial(config, scenario.hetero(), wl, false);
  EXPECT_EQ(incremental, reference);
}

// --- Adaptive-engine model check ---------------------------------------------

TEST(AdaptiveEngineModelCheck, ThresholdCrossingsPreserveTraceIdentity) {
  // Randomized burst trains built to drive the batch-queue depth back and
  // forth across the adaptive threshold mid-trial: deep bursts (well above
  // the default) force wide incremental rounds, trickle stretches drain
  // the queue below it and force narrow reference rounds, and every
  // crossing exercises the narrow→wide memo-poisoning handoff.  For each
  // seed, the adaptive engine must produce the byte-identical lifecycle
  // trace of BOTH fixed engines (always-incremental via threshold 0, and
  // the reference engine).
  exp::PaperScenario::Options options;
  options.scale = 0.03;
  const exp::PaperScenario scenario(options);
  const workload::BoundExecutionModel& cluster = scenario.hetero();
  const int numTypes = cluster.numTaskTypes();
  const std::size_t defaultMinQueue =
      core::SimulationConfig{}.incrementalMapMinQueue;
  ASSERT_GT(defaultMinQueue, 0u)
      << "default threshold is 0; the adaptive leg would equal forced";

  double meanExec = 0.0;
  for (int k = 0; k < numTypes; ++k) {
    for (int j = 0; j < cluster.numMachines(); ++j) {
      meanExec += cluster.expectedExec(k, j);
    }
  }
  meanExec /= static_cast<double>(numTypes * cluster.numMachines());

  for (const std::uint64_t seed : {1ULL, 29ULL, 9001ULL}) {
    std::uint64_t lcg = seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
    const auto rnd = [&lcg](std::uint64_t bound) {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return (lcg >> 33) % bound;
    };
    std::vector<workload::TaskSpec> specs;
    double t = 0.0;
    while (specs.size() < 400) {
      // Deep burst: 2–4x the threshold lands in one mapping event.
      // Trickle: 1–4 tasks, then a drain pause several service times long.
      const bool deep = rnd(2) == 0;
      const std::size_t n =
          deep ? defaultMinQueue * 2 + rnd(defaultMinQueue * 2)
               : 1 + rnd(4);
      for (std::size_t i = 0; i < n; ++i) {
        const auto type = static_cast<sim::TaskType>(rnd(
            static_cast<std::uint64_t>(numTypes)));
        const double arrival = t + static_cast<double>(i) * 1e-7;
        // Deadlines from tight (drops/defers) to comfortable.
        const double deadline =
            arrival + meanExec * (0.5 + static_cast<double>(rnd(8)));
        specs.push_back(workload::TaskSpec{type, arrival, deadline, 1.0});
      }
      t += meanExec * (deep ? static_cast<double>(2 + rnd(6)) : 0.25);
    }
    const workload::Workload wl(std::move(specs), numTypes);

    core::SimulationConfig config;
    config.heuristic = "MM";
    config.warmupMargin = 0;
    const TrialDigest adaptive = runTrial(config, cluster, wl, true);
    config.incrementalMapMinQueue = 0;
    const TrialDigest forcedIncremental = runTrial(config, cluster, wl, true);
    const TrialDigest reference = runTrial(config, cluster, wl, false);
    ASSERT_GT(adaptive.mappingEvents, 0u);
    EXPECT_EQ(adaptive, reference) << "seed " << seed;
    EXPECT_EQ(forcedIncremental, reference) << "seed " << seed;
  }
}

// --- Hand-built world harness ------------------------------------------------

/// Minimal deterministic world for scheduler-level assertions.
struct ManualWorld {
  explicit ManualWorld(const core::SimulationConfig& config,
                       const sim::ExecutionModel& model, int numMachines,
                       double binWidth = 1.0)
      : model_(model),
        metrics(model.numTaskTypes()),
        rng(123),
        scheduler(config, model.numTaskTypes()) {
    const bool batch =
        core::allocationModeFor(config) == core::AllocationMode::Batch;
    for (int j = 0; j < numMachines; ++j) {
      machines.emplace_back(j, binWidth, /*trackTail=*/batch,
                            /*lazyTailRebuild=*/config.pctCacheEnabled);
    }
  }

  core::World world() {
    return core::World{pool, machines, events, metrics, rng, model_};
  }

  /// Pops events until the queue drains, dispatching to the scheduler.
  sim::Time drain() {
    core::World w = world();
    sim::Time now = 0;
    while (auto e = events.tryPop()) {
      now = e->time;
      if (e->kind == sim::EventKind::TaskArrival) {
        scheduler.handleArrival(w, e->task, now);
      } else {
        scheduler.handleCompletion(w, e->machine, e->task, now);
      }
    }
    return now;
  }

  const sim::ExecutionModel& model_;
  sim::TaskPool pool;
  std::vector<sim::Machine> machines;
  sim::EventQueue events;
  sim::Metrics metrics;
  prob::Rng rng;
  core::Scheduler scheduler;
};

using hcs::testutil::FakeModel;

TEST(EventQueueRegressionTest, AbortHeavyTrialLeavesNoPendingCancellations) {
  // Every task's deadline passes mid-execution, so with abort-at-deadline
  // each started task schedules a completion that is later cancelled.  The
  // indexed heap must free each cancellation eagerly: none may linger.
  // One column per machine: ManualWorld instantiates `numMachines` machines
  // and the scheduler queries the PET for every one of them (a 1-column
  // model with 2 machines is an out-of-bounds read, caught by ASan).
  const FakeModel model = FakeModel::deterministic({{10.0, 10.0}});
  core::SimulationConfig config;
  config.heuristic = "MM";
  config.abortRunningAtDeadline = true;
  config.warmupMargin = 0;
  ManualWorld mw(config, model, /*numMachines=*/2);
  for (int i = 0; i < 12; ++i) {
    const double arrival = static_cast<double>(i);
    const auto id = mw.pool.create(0, arrival, arrival + 3.0);  // hopeless
    mw.events.push(arrival, sim::EventKind::TaskArrival, id);
  }
  core::World w = mw.world();
  sim::Time now = mw.drain();
  mw.scheduler.finalize(w, now);
  EXPECT_GT(mw.metrics.droppedReactive(), 0u);  // aborts really happened
  EXPECT_EQ(mw.events.pendingCancellations(), 0u);
  EXPECT_TRUE(mw.events.empty());
}

TEST(SchedulerFinalizeTest, ClassifiesDrainedBatchTasksByOverdueness) {
  // Two tasks never mapped (machine queues full): at finalize time one is
  // already overdue (reactive drop), one could still have met its deadline
  // in a longer trial (proactive drop).
  const FakeModel model = FakeModel::deterministic({{4.0}});
  core::SimulationConfig config;
  config.heuristic = "MM";
  config.machineQueueCapacity = 1;
  config.pruning = pruning::PruningConfig::disabled();
  config.warmupMargin = 0;
  ManualWorld mw(config, model, /*numMachines=*/1);
  core::World w = mw.world();
  // Occupant runs 0..4 and fills the machine's single system slot.
  const auto occupant = mw.pool.create(0, 0.0, 100.0);
  mw.scheduler.handleArrival(w, occupant, 0.0);
  ASSERT_EQ(mw.pool[occupant].status, sim::TaskStatus::Running);
  // Both arrive while the occupant runs; capacity 1 → neither is mapped.
  const auto overdue = mw.pool.create(0, 1.0, 2.0);    // dead by t=3
  const auto hopeful = mw.pool.create(0, 1.0, 50.0);   // still viable
  mw.scheduler.handleArrival(w, overdue, 1.0);
  mw.scheduler.handleArrival(w, hopeful, 1.0);
  ASSERT_EQ(mw.scheduler.batchQueueLength(), 2u);

  // The trial ends at t=3 with the occupant still running.
  mw.scheduler.finalize(w, 3.0);
  EXPECT_EQ(mw.scheduler.batchQueueLength(), 0u);
  EXPECT_EQ(mw.pool[overdue].status, sim::TaskStatus::DroppedReactive);
  EXPECT_EQ(mw.pool[hopeful].status, sim::TaskStatus::DroppedProactive);
}

}  // namespace
