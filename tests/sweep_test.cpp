// The paired-trial sweep executor: runSweep runs every (point, trial) unit
// of a grid on one pool and generates each paired workload once, yet must
// equal running the points one at a time through runExperiment — every
// ExperimentResult field and the report bytes — for any job count.

#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/report.h"
#include "exp/scenario_spec.h"
#include "util/json.h"

namespace {

using namespace hcs;

// Two rates x five variants: two paired heuristics, a streamed point, a
// federated point and a point with fewer trials.  Per rate, the four
// materialized variants draw the same 3 workloads; the streamed one pulls
// its own.
constexpr const char* kMixedGrid = R"({
  "run": { "trials": 3, "scale": 0.01 },
  "sweep": [
    { "field": "workload.rate", "values": [15000, 25000] },
    { "label": "variant", "cases": [
      { "name": "MM", "set": { "sim.heuristic": "MM" } },
      { "name": "MSD-P", "set": { "sim.heuristic": "MSD", "sim.pruning": {} } },
      { "name": "MM-stream", "set": { "stream.enabled": true } },
      { "name": "MM-fed", "set": { "federation.enabled": true,
                                   "federation.clusters": 2 } },
      { "name": "MM-2", "set": { "run.trials": 2 } }
    ] }
  ]
})";

// deep_backlog's shape: 2 patterns x 3 unpruned homogeneous heuristics x
// 2 trials, so 4 distinct workloads behind 12 trials.
constexpr const char* kFig10Grid = R"({
  "cluster": { "kind": "homogeneous" },
  "workload": { "rate": 25000 },
  "run": { "trials": 2, "scale": 0.01 },
  "sweep": [
    { "field": "workload.pattern", "values": ["constant", "spiky"] },
    { "label": "variant", "cases": [
      { "name": "FCFS-RR", "set": { "sim.heuristic": "FCFS-RR" } },
      { "name": "SJF", "set": { "sim.heuristic": "SJF" } },
      { "name": "EDF", "set": { "sim.heuristic": "EDF" } }
    ] }
  ],
  "sim": { "pruning": { "enabled": false, "reactive_drop": false,
                        "defer": false, "toggle": "never" } }
})";

exp::ScenarioDoc docAtJobs(const char* text, std::size_t jobs) {
  exp::ScenarioDoc doc = exp::parseScenarioDoc(text);
  exp::setJsonPath(doc.base, "run.jobs",
                   util::JsonValue(static_cast<double>(jobs)));
  return doc;
}

/// The reference: each grid point bound on its own and run through
/// runExperiment, sharing nothing with the other points.
std::vector<exp::SweepOutcome> pointAtATime(const exp::ScenarioDoc& doc) {
  std::vector<exp::SweepOutcome> outcomes;
  for (exp::GridPoint& point : exp::expandGrid(doc)) {
    const exp::BoundScenario bound = exp::bindScenario(point.spec);
    exp::ExperimentResult result =
        bound.federated ? exp::runExperiment(bound.fedModels,
                                             bound.experiment, bound.federation)
                        : exp::runExperiment(*bound.model, bound.experiment);
    outcomes.push_back({std::move(point), std::move(result)});
  }
  return outcomes;
}

void expectSameStats(const stats::RunningStats& a,
                     const stats::RunningStats& b, const char* name) {
  EXPECT_EQ(a.count(), b.count()) << name;
  EXPECT_EQ(a.mean(), b.mean()) << name;
  EXPECT_EQ(a.variance(), b.variance()) << name;
  EXPECT_EQ(a.min(), b.min()) << name;
  EXPECT_EQ(a.max(), b.max()) << name;
}

void expectSameResult(const exp::ExperimentResult& a,
                      const exp::ExperimentResult& b) {
  expectSameStats(a.robustness, b.robustness, "robustness");
  EXPECT_EQ(a.robustnessCi.mean, b.robustnessCi.mean);
  EXPECT_EQ(a.robustnessCi.halfWidth, b.robustnessCi.halfWidth);
  EXPECT_EQ(a.perTrialRobustness, b.perTrialRobustness);
  expectSameStats(a.completedLatePct, b.completedLatePct, "completedLatePct");
  expectSameStats(a.droppedReactivePct, b.droppedReactivePct,
                  "droppedReactivePct");
  expectSameStats(a.droppedProactivePct, b.droppedProactivePct,
                  "droppedProactivePct");
  expectSameStats(a.deferralsPerTask, b.deferralsPerTask, "deferralsPerTask");
  expectSameStats(a.meanUtilization, b.meanUtilization, "meanUtilization");
  expectSameStats(a.abandonedPct, b.abandonedPct, "abandonedPct");
  expectSameStats(a.rejectedPct, b.rejectedPct, "rejectedPct");
  expectSameStats(a.retriesPerTask, b.retriesPerTask, "retriesPerTask");
  expectSameStats(a.failedThenMetPct, b.failedThenMetPct, "failedThenMetPct");
  expectSameStats(a.machineFailures, b.machineFailures, "machineFailures");
  expectSameStats(a.utilizationPct, b.utilizationPct, "utilizationPct");
  expectSameStats(a.machineSeconds, b.machineSeconds, "machineSeconds");
  expectSameStats(a.scaleUps, b.scaleUps, "scaleUps");
  expectSameStats(a.scaleDowns, b.scaleDowns, "scaleDowns");
}

TEST(SweepExecutor, EqualsPointAtATimeRunsAtAnyJobCount) {
  const std::vector<exp::SweepOutcome> reference =
      pointAtATime(docAtJobs(kMixedGrid, 1));
  ASSERT_EQ(reference.size(), 10u);
  for (std::size_t jobs : {1, 2, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    const exp::ScenarioDoc doc = docAtJobs(kMixedGrid, jobs);
    exp::SweepStats stats;
    const std::vector<exp::SweepOutcome> swept =
        exp::runSweep(doc, {}, &stats);
    ASSERT_EQ(swept.size(), reference.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      EXPECT_EQ(swept[i].point.labels, reference[i].point.labels);
      expectSameResult(swept[i].result, reference[i].result);
    }
    EXPECT_EQ(util::writeJson(exp::sweepReportJson(doc, swept)),
              util::writeJson(exp::sweepReportJson(doc, pointAtATime(doc))));
    // 2 rates x 3 trials, where point-at-a-time generates 2 x (3+3+3+2).
    EXPECT_EQ(stats.workloadsGenerated, 6u);
    EXPECT_GE(stats.peakLiveWorkloads, 1u);
    EXPECT_LE(stats.peakLiveWorkloads, jobs + 1);
  }
}

TEST(SweepExecutor, Fig10ShapedGridGeneratesEachWorkloadOnce) {
  for (std::size_t jobs : {1, 3}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    exp::SweepStats stats;
    const std::vector<exp::SweepOutcome> swept =
        exp::runSweep(docAtJobs(kFig10Grid, jobs), {}, &stats);
    ASSERT_EQ(swept.size(), 6u);
    EXPECT_EQ(stats.workloadsGenerated, 4u);  // not 12
    EXPECT_LE(stats.peakLiveWorkloads, jobs + 1);
    if (jobs == 1) EXPECT_EQ(stats.peakLiveWorkloads, 1u);
  }
}

TEST(SweepExecutor, ProgressAnnouncesEveryPointOnce) {
  const exp::ScenarioDoc doc = docAtJobs(kFig10Grid, 2);
  std::vector<std::size_t> announced;
  (void)exp::runSweep(doc, [&](std::size_t i, std::size_t n,
                               const std::string& label) {
    EXPECT_EQ(n, 6u);
    EXPECT_NE(label.find("variant="), std::string::npos);
    announced.push_back(i);
  });
  std::sort(announced.begin(), announced.end());
  EXPECT_EQ(announced, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
