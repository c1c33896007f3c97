// Tests for the ten mapping heuristics of Section III and the
// MappingContext facade they run against.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "heuristics/batch.h"
#include "heuristics/context.h"
#include "heuristics/homogeneous.h"
#include "heuristics/immediate.h"
#include "heuristics/registry.h"
#include "heuristics/type_buckets.h"
#include "sim/batch_queue.h"
#include "sim/machine.h"
#include "test_util.h"

namespace {

using hcs::heuristics::Assignment;
using hcs::heuristics::MappingContext;
using hcs::prob::DiscretePmf;
using hcs::sim::Machine;
using hcs::sim::MachineId;
using hcs::sim::TaskId;
using hcs::sim::TaskPool;
using hcs::testutil::FakeModel;

/// Two machines; type 0 prefers machine 0 (2 vs 6), type 1 prefers
/// machine 1 (8 vs 3) — an inconsistent 2x2 system.
FakeModel affinityModel() {
  return FakeModel::deterministic({{2.0, 6.0}, {8.0, 3.0}});
}

struct TestWorld {
  explicit TestWorld(int numMachines, const FakeModel& model,
                     std::size_t capacity = 4)
      : model(model), capacity(capacity) {
    for (int j = 0; j < numMachines; ++j) machines.emplace_back(j, 1.0);
  }

  MappingContext context(double now = 0.0) const {
    return MappingContext(now, pool, machines, model, capacity);
  }

  TaskId addTask(int type, double arrival, double deadline) {
    return pool.create(type, arrival, deadline);
  }

  void preload(MachineId machine, int type, int count) {
    for (int i = 0; i < count; ++i) {
      const TaskId id = pool.create(type, 0.0, 1e9);
      machines[static_cast<std::size_t>(machine)].dispatch(id, 0.0, pool,
                                                           model);
    }
  }

  TaskPool pool;
  std::vector<Machine> machines;
  const FakeModel& model;
  std::size_t capacity;
};

// --- MappingContext ------------------------------------------------------------

TEST(MappingContextTest, ExpectedCompletionAddsReadyAndExec) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  world.preload(0, 0, 2);  // machine 0 busy for 4 units
  const TaskId t = world.addTask(1, 0.0, 100.0);
  const MappingContext ctx = world.context();
  EXPECT_DOUBLE_EQ(ctx.expectedReady(0), 4.0);
  EXPECT_DOUBLE_EQ(ctx.expectedReady(1), 0.0);
  EXPECT_DOUBLE_EQ(ctx.expectedCompletion(t, 0), 12.0);  // 4 + 8
  EXPECT_DOUBLE_EQ(ctx.expectedCompletion(t, 1), 3.0);   // 0 + 3
}

TEST(MappingContextTest, FreeSlotsCountRunningTask) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model, /*capacity=*/3);
  const MappingContext before = world.context();
  EXPECT_EQ(before.freeSlots(0), 3u);
  world.preload(0, 0, 2);  // 1 running + 1 queued
  const MappingContext after = world.context();
  EXPECT_EQ(after.freeSlots(0), 1u);
  world.preload(0, 0, 1);
  const MappingContext full = world.context();
  EXPECT_EQ(full.freeSlots(0), 0u);
}

TEST(MappingContextTest, UnboundedCapacityNeverFills) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model, MappingContext::kUnbounded);
  world.preload(0, 0, 50);
  EXPECT_EQ(world.context().freeSlots(0), MappingContext::kUnbounded);
}

TEST(MappingContextTest, SuccessChanceMatchesDirectConvolution) {
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf(2, {0.5, 0.0, 0.5})});  // P(2)=.5, P(4)=.5
  const FakeModel model{std::move(pets)};
  TestWorld world(1, model);
  world.preload(0, 0, 1);  // one running task
  const TaskId t = world.addTask(0, 0.0, 6.0);
  // PCT = running {2,4} * exec {2,4}: {4:.25, 6:.5, 8:.25}; P[<=6] = .75.
  EXPECT_NEAR(world.context().successChance(t, 0), 0.75, 1e-12);
}

TEST(MappingContextTest, SuccessChancesBatchMatchesPerMachineQueries) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  world.preload(0, 0, 2);
  world.preload(1, 1, 1);
  const TaskId t = world.addTask(0, 0.0, 9.0);
  // With and without a PCT cache attached, the bulk query must agree
  // exactly with the per-machine Eq. 2 evaluations.
  const MappingContext plain = world.context();
  const std::vector<double> bulk = plain.successChances(t);
  ASSERT_EQ(bulk.size(), 2u);
  for (MachineId j = 0; j < 2; ++j) {
    EXPECT_EQ(bulk[static_cast<std::size_t>(j)], plain.successChance(t, j));
  }
  hcs::heuristics::PctCache cache;
  const MappingContext cached(0.0, world.pool, world.machines, world.model,
                              world.capacity, &cache);
  const std::vector<double> bulkCached = cached.successChances(t);
  ASSERT_EQ(bulkCached.size(), 2u);
  for (MachineId j = 0; j < 2; ++j) {
    EXPECT_EQ(bulkCached[static_cast<std::size_t>(j)],
              bulk[static_cast<std::size_t>(j)]);
  }
}

TEST(ImmediateHeuristicTest, MaxChancePicksTheHighestSuccessChance) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  // Machine 0 is deeply loaded; a type-0 task with a tight deadline can
  // only make it on the idle machine 1 (exec 6 <= 8) — MET would have
  // chosen the overloaded machine 0 (exec 2).
  world.preload(0, 0, 3);
  const TaskId t = world.addTask(0, 0.0, 7.0);
  hcs::heuristics::MaxChance mc;
  const MappingContext ctx = world.context();
  EXPECT_EQ(mc.selectMachine(ctx, t), 1);
  const std::vector<double> chances = ctx.successChances(t);
  EXPECT_GT(chances[1], chances[0]);
}

TEST(MappingContextTest, RejectsEmptyOrZeroCapacity) {
  const FakeModel model = affinityModel();
  TaskPool pool;
  std::vector<Machine> none;
  EXPECT_THROW(MappingContext(0.0, pool, none, model, 4),
               std::invalid_argument);
  std::vector<Machine> one;
  one.emplace_back(0, 1.0);
  EXPECT_THROW(MappingContext(0.0, pool, one, model, 0),
               std::invalid_argument);
}

// --- Immediate-mode heuristics ---------------------------------------------------

TEST(ImmediateTest, RoundRobinCycles) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  hcs::heuristics::RoundRobin rr;
  const TaskId t = world.addTask(0, 0.0, 100.0);
  const MappingContext ctx = world.context();
  EXPECT_EQ(rr.selectMachine(ctx, t), 0);
  EXPECT_EQ(rr.selectMachine(ctx, t), 1);
  EXPECT_EQ(rr.selectMachine(ctx, t), 0);
}

TEST(ImmediateTest, MetPicksAffinityIgnoringLoad) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  world.preload(0, 0, 10);  // machine 0 heavily loaded
  hcs::heuristics::MinimumExpectedExecutionTime met;
  const TaskId fast0 = world.addTask(0, 0.0, 100.0);
  const TaskId fast1 = world.addTask(1, 0.0, 100.0);
  const MappingContext ctx = world.context();
  EXPECT_EQ(met.selectMachine(ctx, fast0), 0);  // still machine 0
  EXPECT_EQ(met.selectMachine(ctx, fast1), 1);
}

TEST(ImmediateTest, MctAccountsForQueuedWork) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  world.preload(0, 0, 10);  // ready at 20
  hcs::heuristics::MinimumExpectedCompletionTime mct;
  const TaskId t = world.addTask(0, 0.0, 100.0);
  // Machine 0: 20 + 2 = 22; machine 1: 0 + 6 = 6.
  EXPECT_EQ(mct.selectMachine(world.context(), t), 1);
}

TEST(ImmediateTest, KpbRestrictsToAffinitySubset) {
  // Three machines: type 0 execs {2, 3, 50}.  K=2/3 keeps machines {0,1};
  // with machine 0 loaded, KPB must pick machine 1 even though machine 2
  // is idle (MCT would consider it; MET would pick loaded machine 0).
  const FakeModel model = FakeModel::deterministic({{2.0, 3.0, 50.0}});
  TestWorld world(3, model);
  world.preload(0, 0, 20);  // machine 0 ready at 40
  hcs::heuristics::KPercentBest kpb(2.0 / 3.0);
  const TaskId t = world.addTask(0, 0.0, 100.0);
  EXPECT_EQ(kpb.selectMachine(world.context(), t), 1);
}

TEST(ImmediateTest, KpbWithFullKEqualsMct) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  world.preload(0, 0, 3);
  hcs::heuristics::KPercentBest kpb(1.0);
  hcs::heuristics::MinimumExpectedCompletionTime mct;
  for (int type = 0; type < 2; ++type) {
    const TaskId t = world.addTask(type, 0.0, 100.0);
    EXPECT_EQ(kpb.selectMachine(world.context(), t),
              mct.selectMachine(world.context(), t));
  }
}

TEST(ImmediateTest, KpbRejectsBadK) {
  EXPECT_THROW(hcs::heuristics::KPercentBest(0.0), std::invalid_argument);
  EXPECT_THROW(hcs::heuristics::KPercentBest(1.5), std::invalid_argument);
}

// --- Batch-mode heterogeneous heuristics ------------------------------------------

std::vector<TaskId> ids(const std::vector<Assignment>& assignments) {
  std::vector<TaskId> out;
  out.reserve(assignments.size());
  for (const auto& a : assignments) out.push_back(a.task);
  return out;
}

TEST(BatchTest, MmPrefersShortTasksFirst) {
  const FakeModel model = FakeModel::deterministic({{1.0, 4.0}, {10.0, 30.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId longTask = world.addTask(1, 0.0, 100.0);
  const TaskId shortTask = world.addTask(0, 0.0, 100.0);
  const std::vector<TaskId> batch = {longTask, shortTask};
  hcs::heuristics::MinCompletionMinCompletion mm;
  const auto assignments = mm.map(world.context(), batch);
  // Both machines have one slot; the short task wins machine 0 (its best),
  // and the long task gets the other slot.
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, shortTask);
  EXPECT_EQ(assignments[0].machine, 0);
  EXPECT_EQ(assignments[1].task, longTask);
  EXPECT_EQ(assignments[1].machine, 1);
}

TEST(BatchTest, MsdPrefersSoonestDeadline) {
  const FakeModel model = FakeModel::deterministic({{2.0, 2.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId lax = world.addTask(0, 0.0, 100.0);
  const TaskId urgent = world.addTask(0, 0.0, 5.0);
  hcs::heuristics::MinCompletionSoonestDeadline msd;
  const auto assignments =
      msd.map(world.context(), std::vector<TaskId>{lax, urgent});
  ASSERT_EQ(assignments.size(), 2u);
  // Phase 1 routes both to machine 0 (tie broken by index); phase 2 picks
  // the urgent one there, and the lax task lands on machine 1 next round.
  EXPECT_EQ(assignments[0].task, urgent);
  EXPECT_EQ(assignments[0].machine, 0);
  EXPECT_EQ(assignments[1].task, lax);
}

TEST(BatchTest, MmuPrefersTightestSlack) {
  const FakeModel model = FakeModel::deterministic({{2.0, 2.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId comfortable = world.addTask(0, 0.0, 50.0);
  const TaskId tight = world.addTask(0, 0.0, 4.0);
  hcs::heuristics::MinCompletionMaxUrgency mmu;
  const auto assignments =
      mmu.map(world.context(), std::vector<TaskId>{comfortable, tight});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, tight);
}

TEST(BatchTest, MmuTreatsPastDueAsMaximallyUrgent) {
  const FakeModel model = FakeModel::deterministic({{2.0}});
  TestWorld world(1, model, /*capacity=*/1);
  const TaskId doomed = world.addTask(0, 0.0, 1.0);  // slack 1 - 2 < 0
  const TaskId healthy = world.addTask(0, 0.0, 10.0);
  hcs::heuristics::MinCompletionMaxUrgency mmu;
  const auto assignments =
      mmu.map(world.context(), std::vector<TaskId>{healthy, doomed});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].task, doomed);
}

TEST(BatchTest, RespectsQueueCapacity) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model, /*capacity=*/2);
  std::vector<TaskId> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(world.addTask(0, 0.0, 100.0));
  hcs::heuristics::MinCompletionMinCompletion mm;
  const auto assignments = mm.map(world.context(), batch);
  EXPECT_EQ(assignments.size(), 4u);  // 2 machines x capacity 2
  // No task assigned twice.
  auto assigned = ids(assignments);
  std::sort(assigned.begin(), assigned.end());
  EXPECT_EQ(std::adjacent_find(assigned.begin(), assigned.end()),
            assigned.end());
}

TEST(BatchTest, EmptyBatchMapsNothing) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model);
  hcs::heuristics::MinCompletionMinCompletion mm;
  EXPECT_TRUE(mm.map(world.context(), std::vector<TaskId>{}).empty());
}

TEST(BatchTest, FullQueuesMapNothing) {
  const FakeModel model = affinityModel();
  TestWorld world(2, model, /*capacity=*/1);
  world.preload(0, 0, 1);
  world.preload(1, 0, 1);
  hcs::heuristics::MinCompletionMinCompletion mm;
  const TaskId t = world.addTask(0, 0.0, 100.0);
  EXPECT_TRUE(mm.map(world.context(), std::vector<TaskId>{t}).empty());
}

TEST(BatchTest, MaxMinPrefersLongTasksFirst) {
  // Mirror of MmPrefersShortTasksFirst: MaxMin gives the long task its
  // best machine first.
  const FakeModel model = FakeModel::deterministic({{1.0, 4.0}, {10.0, 30.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId longTask = world.addTask(1, 0.0, 100.0);
  const TaskId shortTask = world.addTask(0, 0.0, 100.0);
  hcs::heuristics::MaxMin maxmin;
  const auto assignments =
      maxmin.map(world.context(), std::vector<TaskId>{longTask, shortTask});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, longTask);
  EXPECT_EQ(assignments[0].machine, 0);  // 10 on m0 vs 30 on m1
  EXPECT_EQ(assignments[1].task, shortTask);
}

TEST(BatchTest, SufferagePrioritizesTaskWithMostToLose) {
  // Both tasks prefer machine 0.  Task A: 2 on m0, 20 on m1 (sufferage 18).
  // Task B: 3 on m0, 4 on m1 (sufferage 1).  With one slot per machine,
  // Sufferage gives machine 0 to A; MM would give it to B (lower ECT).
  const FakeModel model = FakeModel::deterministic({{2.0, 20.0}, {3.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId a = world.addTask(0, 0.0, 100.0);
  const TaskId b = world.addTask(1, 0.0, 100.0);
  hcs::heuristics::SufferageHeuristic sufferage;
  const auto chosen =
      sufferage.map(world.context(), std::vector<TaskId>{b, a});
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0].task, a);
  EXPECT_EQ(chosen[0].machine, 0);
  EXPECT_EQ(chosen[1].task, b);
  EXPECT_EQ(chosen[1].machine, 1);

  hcs::heuristics::MinCompletionMinCompletion mm;
  const auto mmChosen = mm.map(world.context(), std::vector<TaskId>{b, a});
  ASSERT_EQ(mmChosen.size(), 2u);
  EXPECT_EQ(mmChosen[0].task, a);  // 2 < 3: A still wins m0 under MM here
}

TEST(BatchTest, SufferageWithSingleOpenMachineFallsBackToCompletion) {
  // Only one machine has slots: secondEct == ect, every sufferage is zero,
  // and the completion-time tie-break decides.
  const FakeModel model = FakeModel::deterministic({{5.0, 1.0}, {2.0, 1.0}});
  TestWorld world(2, model, /*capacity=*/1);
  world.preload(1, 0, 1);  // machine 1 full
  const TaskId slow = world.addTask(0, 0.0, 100.0);
  const TaskId fast = world.addTask(1, 0.0, 100.0);
  hcs::heuristics::SufferageHeuristic sufferage;
  const auto chosen =
      sufferage.map(world.context(), std::vector<TaskId>{slow, fast});
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0].task, fast);
  EXPECT_EQ(chosen[0].machine, 0);
}

TEST(BatchTest, MmBalancesAcrossMachinesAsVirtualQueuesGrow) {
  // Identical machines: MM must spread 6 equal tasks 3/3, not pile on one.
  const FakeModel model = FakeModel::deterministic({{5.0, 5.0}});
  TestWorld world(2, model, /*capacity=*/4);
  std::vector<TaskId> batch;
  for (int i = 0; i < 6; ++i) batch.push_back(world.addTask(0, 0.0, 100.0));
  hcs::heuristics::MinCompletionMinCompletion mm;
  const auto assignments = mm.map(world.context(), batch);
  ASSERT_EQ(assignments.size(), 6u);
  int onMachine0 = 0;
  for (const auto& a : assignments) onMachine0 += (a.machine == 0) ? 1 : 0;
  EXPECT_EQ(onMachine0, 3);
}

// --- Homogeneous heuristics ---------------------------------------------------------

TEST(HomogeneousTest, FcfsRrPreservesArrivalOrderAndCycles) {
  const FakeModel model = FakeModel::deterministic({{3.0, 3.0, 3.0}});
  TestWorld world(3, model, /*capacity=*/2);
  std::vector<TaskId> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(world.addTask(0, 0.0, 100.0));
  hcs::heuristics::FcfsRoundRobin fcfs;
  const auto assignments = fcfs.map(world.context(), batch);
  ASSERT_EQ(assignments.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(assignments[i].task, batch[i]);
    EXPECT_EQ(assignments[i].machine, static_cast<int>(i % 3));
  }
}

TEST(HomogeneousTest, FcfsRrSkipsFullMachines) {
  const FakeModel model = FakeModel::deterministic({{3.0, 3.0}});
  TestWorld world(2, model, /*capacity=*/1);
  world.preload(0, 0, 1);  // machine 0 full
  hcs::heuristics::FcfsRoundRobin fcfs;
  const TaskId t = world.addTask(0, 0.0, 100.0);
  const auto assignments = fcfs.map(world.context(), std::vector<TaskId>{t});
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].machine, 1);
}

TEST(HomogeneousTest, EdfMapsByDeadlineOrder) {
  const FakeModel model = FakeModel::deterministic({{4.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId late = world.addTask(0, 0.0, 90.0);
  const TaskId soon = world.addTask(0, 0.0, 10.0);
  const TaskId mid = world.addTask(0, 0.0, 50.0);
  hcs::heuristics::EarliestDeadlineFirst edf;
  const auto assignments =
      edf.map(world.context(), std::vector<TaskId>{late, soon, mid});
  ASSERT_EQ(assignments.size(), 2u);  // 2 slots only
  EXPECT_EQ(assignments[0].task, soon);
  EXPECT_EQ(assignments[1].task, mid);
}

TEST(HomogeneousTest, SjfMapsByExecutionTimeOrder) {
  // Type execution times 7 / 1 / 4 on every machine.
  const FakeModel model =
      FakeModel::deterministic({{7.0, 7.0}, {1.0, 1.0}, {4.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId slow = world.addTask(0, 0.0, 100.0);
  const TaskId quick = world.addTask(1, 0.0, 100.0);
  const TaskId medium = world.addTask(2, 0.0, 100.0);
  hcs::heuristics::ShortestJobFirst sjf;
  const auto assignments =
      sjf.map(world.context(), std::vector<TaskId>{slow, quick, medium});
  ASSERT_EQ(assignments.size(), 2u);
  EXPECT_EQ(assignments[0].task, quick);
  EXPECT_EQ(assignments[1].task, medium);
}

TEST(HomogeneousTest, SjfKeysFollowASwitchToAnotherModel) {
  // SJF computes its per-type keys once per execution model; a call
  // against a second model must order by that model's execution times.
  const FakeModel fastFirst = FakeModel::deterministic({{1.0}, {5.0}});
  const FakeModel fastSecond = FakeModel::deterministic({{5.0}, {1.0}});
  TestWorld first(1, fastFirst, /*capacity=*/1);
  TestWorld second(1, fastSecond, /*capacity=*/1);
  hcs::heuristics::ShortestJobFirst sjf;
  for (TestWorld* world : {&first, &second, &first}) {
    const TaskId type0 = world->addTask(0, 0.0, 100.0);
    const TaskId type1 = world->addTask(1, 0.0, 100.0);
    const TaskId expected = world == &first ? type0 : type1;
    EXPECT_EQ(ids(sjf.map(world->context(),
                          std::vector<TaskId>{type0, type1})),
              (std::vector<TaskId>{expected}));
  }
}

TEST(HomogeneousTest, TiesFollowBatchOrderNotTaskIds) {
  // Streamed task ids are recycled slot handles, so a tie must resolve by
  // arrival (batch) order; here batch order runs against id order.
  const FakeModel model = FakeModel::deterministic({{4.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId a = world.addTask(0, 0.0, 50.0);
  const TaskId b = world.addTask(0, 0.0, 50.0);
  const TaskId c = world.addTask(0, 0.0, 50.0);
  const TaskId urgent = world.addTask(0, 0.0, 10.0);
  const std::vector<TaskId> batch{c, a, urgent, b};
  hcs::heuristics::EarliestDeadlineFirst edf;
  EXPECT_EQ(ids(edf.map(world.context(), batch)),
            (std::vector<TaskId>{urgent, c}));
  hcs::heuristics::ShortestJobFirst sjf;
  EXPECT_EQ(ids(sjf.map(world.context(), batch)),
            (std::vector<TaskId>{c, a}));
}

TEST(HomogeneousTest, EdfAndSjfMapNothingWithoutFreeSlots) {
  const FakeModel model = FakeModel::deterministic({{4.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/1);
  world.preload(0, 0, 1);
  world.preload(1, 0, 1);
  const std::vector<TaskId> batch{world.addTask(0, 0.0, 50.0),
                                  world.addTask(0, 0.0, 20.0)};
  hcs::heuristics::EarliestDeadlineFirst edf;
  hcs::heuristics::ShortestJobFirst sjf;
  EXPECT_TRUE(edf.map(world.context(), batch).empty());
  EXPECT_TRUE(sjf.map(world.context(), batch).empty());
}

TEST(HomogeneousTest, MoreSlotsThanTasksMapsEveryTaskInOrder) {
  const FakeModel model =
      FakeModel::deterministic({{7.0, 7.0}, {1.0, 1.0}, {4.0, 4.0}});
  TestWorld world(2, model, /*capacity=*/4);
  const TaskId slowSoon = world.addTask(0, 0.0, 10.0);
  const TaskId quickLate = world.addTask(1, 0.0, 30.0);
  const TaskId mediumMid = world.addTask(2, 0.0, 20.0);
  const std::vector<TaskId> batch{slowSoon, quickLate, mediumMid};
  hcs::heuristics::EarliestDeadlineFirst edf;
  EXPECT_EQ(ids(edf.map(world.context(), batch)),
            (std::vector<TaskId>{slowSoon, mediumMid, quickLate}));
  hcs::heuristics::ShortestJobFirst sjf;
  EXPECT_EQ(ids(sjf.map(world.context(), batch)),
            (std::vector<TaskId>{quickLate, mediumMid, slowSoon}));
}

TEST(HomogeneousTest, QueueReadingPathSkipsDeferredTasks) {
  // A persistent context with an attached queue and an empty span: EDF and
  // SJF read the candidates off the queue, where a task deferred this
  // mapping event is out of the running until the next one.
  const FakeModel model = FakeModel::deterministic({{7.0, 7.0}, {1.0, 1.0}});
  TestWorld world(2, model, /*capacity=*/1);
  const TaskId slowSoon = world.addTask(0, 0.0, 10.0);
  const TaskId quickLate = world.addTask(1, 0.0, 30.0);
  const TaskId slowLate = world.addTask(0, 0.0, 40.0);
  MappingContext ctx = world.context();
  ctx.enablePersistence();
  hcs::sim::BatchQueue queue;
  ctx.attachBatchQueue(&queue);
  for (const TaskId t : {slowSoon, quickLate, slowLate}) queue.push(t);
  hcs::heuristics::EarliestDeadlineFirst edf;
  hcs::heuristics::ShortestJobFirst sjf;
  EXPECT_EQ(ids(edf.map(ctx, {})),
            (std::vector<TaskId>{slowSoon, quickLate}));
  EXPECT_EQ(ids(sjf.map(ctx, {})),
            (std::vector<TaskId>{quickLate, slowSoon}));

  queue.beginEvent();
  queue.markDeferred(slowSoon);
  queue.markDeferred(quickLate);
  EXPECT_EQ(ids(edf.map(ctx, {})), (std::vector<TaskId>{slowLate}));
  EXPECT_EQ(ids(sjf.map(ctx, {})), (std::vector<TaskId>{slowLate}));

  // The next event expires the deferrals; a removal replays through the
  // journal.
  queue.beginEvent();
  queue.remove(slowSoon);
  EXPECT_EQ(ids(edf.map(ctx, {})),
            (std::vector<TaskId>{quickLate, slowLate}));
  EXPECT_EQ(ids(sjf.map(ctx, {})),
            (std::vector<TaskId>{quickLate, slowLate}));
}

// --- TypeBuckets ------------------------------------------------------------------------

/// The live tasks of one bucket, in bucket order.
std::vector<TaskId> liveIn(const hcs::heuristics::TypeBuckets& buckets,
                           std::size_t type) {
  std::vector<TaskId> out;
  const auto& bucket = buckets.bucket(type);
  for (std::size_t i = buckets.heads()[type]; i < bucket.size(); ++i) {
    if (bucket[i].mark != hcs::heuristics::TypeBuckets::kDead) {
      out.push_back(bucket[i].task);
    }
  }
  return out;
}

TEST(TypeBucketsTest, ReplaysRecycledSlotsWithoutRebuilding) {
  // Under streaming a task can leave the queue, terminate and hand its
  // pool slot to a newer task of another type before the journal is
  // replayed.  The removal must still be found (through what its push was
  // filed under), not trigger a rebuild — which would re-read every key.
  const FakeModel model = FakeModel::deterministic({{1.0}, {2.0}});
  TaskPool pool;
  pool.enableRecycling();
  std::vector<Machine> machines;
  machines.emplace_back(0, 1.0);
  MappingContext ctx(0.0, pool, machines, model, 4);
  ctx.enablePersistence();
  hcs::sim::BatchQueue queue;
  ctx.attachBatchQueue(&queue);
  hcs::heuristics::TypeBuckets buckets;
  int keyReads = 0;
  const auto key = [&](const MappingContext& c, TaskId task) {
    ++keyReads;
    return c.pool()[task].deadline;
  };

  const TaskId a = pool.create(0, 0.0, 30.0);
  const TaskId b = pool.create(1, 0.0, 20.0);
  queue.push(a);
  queue.push(b);
  buckets.sync(ctx, key);
  EXPECT_EQ(keyReads, 2);

  // Remove replayed after the slot's reuse.
  queue.remove(a);
  pool.retire(a);
  const TaskId c = pool.create(1, 0.0, 10.0);
  ASSERT_EQ(c, a);
  queue.push(c);
  keyReads = 0;
  buckets.sync(ctx, key);
  EXPECT_EQ(keyReads, 1);
  EXPECT_TRUE(liveIn(buckets, 0).empty());
  EXPECT_EQ(liveIn(buckets, 1), (std::vector<TaskId>{c, b}));

  // Push AND remove replayed after the slot's reuse: the push files the
  // newer task's data, and its removal finds exactly that entry.
  const TaskId d = pool.create(0, 0.0, 5.0);
  queue.push(d);
  queue.remove(d);
  pool.retire(d);
  const TaskId e = pool.create(1, 0.0, 15.0);
  ASSERT_EQ(e, d);
  queue.push(e);
  keyReads = 0;
  buckets.sync(ctx, key);
  EXPECT_EQ(keyReads, 2);
  EXPECT_TRUE(liveIn(buckets, 0).empty());
  EXPECT_EQ(liveIn(buckets, 1), (std::vector<TaskId>{c, e, b}));
}

// --- Registry ------------------------------------------------------------------------

TEST(RegistryTest, BuildsEveryAdvertisedHeuristic) {
  for (const auto& name : hcs::heuristics::immediateHeuristicNames()) {
    const auto h = hcs::heuristics::makeImmediate(name);
    EXPECT_EQ(h->name(), name);
    EXPECT_TRUE(hcs::heuristics::isImmediateHeuristic(name));
    EXPECT_FALSE(hcs::heuristics::isBatchHeuristic(name));
  }
  for (const auto& name : hcs::heuristics::batchHeteroHeuristicNames()) {
    EXPECT_EQ(hcs::heuristics::makeBatch(name)->name(), name);
    EXPECT_TRUE(hcs::heuristics::isBatchHeuristic(name));
  }
  for (const auto& name : hcs::heuristics::homogeneousHeuristicNames()) {
    EXPECT_EQ(hcs::heuristics::makeBatch(name)->name(), name);
    EXPECT_TRUE(hcs::heuristics::isBatchHeuristic(name));
  }
}

TEST(RegistryTest, RejectsUnknownNames) {
  EXPECT_THROW(hcs::heuristics::makeImmediate("MM"), std::invalid_argument);
  EXPECT_THROW(hcs::heuristics::makeBatch("MCT"), std::invalid_argument);
  EXPECT_THROW(hcs::heuristics::makeBatch("nope"), std::invalid_argument);
}

TEST(RegistryTest, KpbOptionIsForwarded) {
  hcs::heuristics::HeuristicOptions options;
  options.kpbPercent = 0.5;
  const auto h = hcs::heuristics::makeImmediate("KPB", options);
  const auto* kpb = dynamic_cast<hcs::heuristics::KPercentBest*>(h.get());
  ASSERT_NE(kpb, nullptr);
  EXPECT_DOUBLE_EQ(kpb->kPercent(), 0.5);
}

}  // namespace
