// The federation tier's contracts:
//  - ORACLE: a federation of ONE cluster with ZERO dispatch latency is
//    byte-identical — trace-for-trace, metric-for-metric — to the plain
//    single-cluster engine, across heuristic × pruning configurations.
//  - Routing policies distribute the stream deterministically (ties toward
//    cluster 0), dispatch latency shifts cluster-side arrivals, per-cluster
//    RNG streams split reproducibly, and per-cluster metrics sum to the
//    aggregate.
//  - The scenario schema's `federation` block round-trips and rejects
//    malformed input with line numbers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/scenario.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "fed/federation.h"
#include "sim/trace.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

double testScale() {
  // Honor HCS_SCALE like the other scale-dependent suites (the sanitizer
  // CI leg shrinks it), but never above the default 0.03.
  if (const char* env = std::getenv("HCS_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return std::min(s, 0.03);
  }
  return 0.03;
}

/// Full lifecycle trace + result digest of one trial.
struct TrialDigest {
  std::vector<sim::TraceEvent> trace;
  double robustness = 0.0;
  std::size_t mappingEvents = 0;
  double makespan = 0.0;
  std::size_t onTime = 0, late = 0, reactive = 0, proactive = 0, defers = 0;
  std::vector<double> utilization;
  std::vector<double> fairness;

  bool operator==(const TrialDigest&) const = default;
};

TrialDigest digestOf(const core::TrialResult& r,
                     std::vector<sim::TraceEvent> trace) {
  TrialDigest d;
  d.trace = std::move(trace);
  d.robustness = r.robustnessPercent;
  d.mappingEvents = r.mappingEvents;
  d.makespan = r.makespan;
  d.onTime = r.metrics.completedOnTime();
  d.late = r.metrics.completedLate();
  d.reactive = r.metrics.droppedReactive();
  d.proactive = r.metrics.droppedProactive();
  d.defers = r.metrics.deferrals();
  d.utilization = r.machineUtilization;
  d.fairness = r.fairnessScores;
  return d;
}

TrialDigest runDirect(const core::SimulationConfig& base,
                      const sim::ExecutionModel& model,
                      const workload::Workload& wl) {
  core::SimulationConfig config = base;
  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r = core::Simulation(model, wl, config).run();
  return digestOf(r, log.events());
}

fed::FederatedTrialResult runFederatedRaw(
    const core::SimulationConfig& base,
    std::vector<const sim::ExecutionModel*> models,
    const workload::Workload& wl, fed::FederationSpec spec,
    std::vector<sim::TraceEvent>* trace = nullptr,
    std::vector<std::size_t>* traceClusters = nullptr) {
  if (trace != nullptr) {
    spec.traceSink = [trace, traceClusters](std::size_t cluster,
                                            const sim::TraceEvent& e) {
      trace->push_back(e);
      if (traceClusters != nullptr) traceClusters->push_back(cluster);
    };
  }
  return fed::FederatedSimulation(std::move(models), wl, base, spec).run();
}

TrialDigest runFederated(const core::SimulationConfig& base,
                         std::vector<const sim::ExecutionModel*> models,
                         const workload::Workload& wl,
                         fed::FederationSpec spec) {
  std::vector<sim::TraceEvent> trace;
  const fed::FederatedTrialResult r =
      runFederatedRaw(base, std::move(models), wl, spec, &trace);
  return digestOf(r.total, std::move(trace));
}

workload::Workload makeWorkload(const exp::PaperScenario& scenario,
                                std::size_t rate, std::uint64_t seed) {
  return workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(rate, workload::ArrivalPattern::Spiky), {}, seed);
}

// --- The oracle: federation(N=1, latency=0) == single-cluster engine -------

class FederationOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(FederationOracle, SingleClusterZeroLatencyIsTraceIdentical) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 7);

  for (const bool prune : {true, false}) {
    core::SimulationConfig config;
    config.heuristic = GetParam();
    config.pruning = prune ? pruning::PruningConfig{}
                           : pruning::PruningConfig::disabled();
    config.warmupMargin = 0;
    const TrialDigest direct = runDirect(config, scenario.hetero(), wl);
    const TrialDigest federated = runFederated(
        config, {&scenario.hetero()}, wl, fed::FederationSpec{});
    EXPECT_EQ(direct, federated)
        << GetParam() << " diverged through the federation (prune=" << prune
        << ")";
  }
}

// Batch two-phase, immediate, and chance-aware heuristics: well beyond the
// required 5 heuristic × pruning configurations.
INSTANTIATE_TEST_SUITE_P(HeuristicsTimesPruning, FederationOracle,
                         ::testing::Values("MM", "MSD", "MMU", "MaxMin",
                                           "Sufferage", "MCT", "KPB",
                                           "MaxChance"));

TEST(FederationOracleTest, AbortAndNoCacheConfigurationsMatch) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 13);

  for (const bool cache : {true, false}) {
    core::SimulationConfig config;
    config.heuristic = "MMU";
    config.abortRunningAtDeadline = true;
    config.pctCacheEnabled = cache;
    config.warmupMargin = 0;
    const TrialDigest direct = runDirect(config, scenario.hetero(), wl);
    const TrialDigest federated = runFederated(
        config, {&scenario.hetero()}, wl, fed::FederationSpec{});
    EXPECT_EQ(direct, federated) << "cache=" << cache;
  }
}

TEST(FederationOracleTest, PctCacheStatsMatchDirectEngine) {
  // The federated total carries the PCT cache's work counters summed over
  // the clusters; at N=1 they are the single-cluster trial's.
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 7);
  core::SimulationConfig config;
  config.heuristic = "MM";
  const core::TrialResult direct =
      core::Simulation(scenario.hetero(), wl, config).run();
  const core::TrialResult federated =
      fed::FederatedSimulation({&scenario.hetero()}, wl, config,
                               fed::FederationSpec{})
          .run()
          .total;
  const heuristics::PctCache::Stats& a = direct.pctCache;
  const heuristics::PctCache::Stats& b = federated.pctCache;
  EXPECT_GT(a.hits(), 0u);
  EXPECT_GT(a.deferStages.total(), 0u);
  EXPECT_EQ(a.appendHits, b.appendHits);
  EXPECT_EQ(a.appendMisses, b.appendMisses);
  EXPECT_EQ(a.chainHits, b.chainHits);
  EXPECT_EQ(a.chainMisses, b.chainMisses);
  EXPECT_EQ(a.meanHits, b.meanHits);
  EXPECT_EQ(a.meanMisses, b.meanMisses);
  EXPECT_EQ(a.deferStages.bounds, b.deferStages.bounds);
  EXPECT_EQ(a.deferStages.estimate, b.deferStages.estimate);
  EXPECT_EQ(a.deferStages.exact, b.deferStages.exact);
  EXPECT_EQ(a.dropStages.bounds, b.dropStages.bounds);
  EXPECT_EQ(a.dropStages.estimate, b.dropStages.estimate);
  EXPECT_EQ(a.dropStages.exact, b.dropStages.exact);
}

TEST(FederationOracleTest, ExperimentAggregatesMatchRunExperiment) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  exp::ExperimentSpec spec =
      scenario.experimentSpec(exp::PaperScenario::kRate20k,
                              workload::ArrivalPattern::Spiky);
  spec.trials = 3;
  spec.sim.heuristic = "MM";
  const exp::ExperimentResult direct =
      exp::runExperiment(scenario.hetero(), spec);
  const exp::ExperimentResult federated = exp::runExperiment(
      {&scenario.hetero()}, spec, fed::FederationSpec{});
  EXPECT_EQ(direct.perTrialRobustness, federated.perTrialRobustness);
  EXPECT_EQ(direct.robustnessCi.mean, federated.robustnessCi.mean);
  EXPECT_EQ(direct.robustnessCi.halfWidth, federated.robustnessCi.halfWidth);
}

// --- Multi-cluster behavior -------------------------------------------------

TEST(FederationTest, RoundRobinDistributesCyclically) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 3);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 3;
  spec.routing = fed::RoutingPolicyKind::RoundRobin;
  const auto& model = scenario.hetero();
  const fed::FederatedTrialResult r =
      runFederatedRaw(config, {&model, &model, &model}, wl, spec);
  ASSERT_EQ(r.clusters.size(), 3u);
  std::size_t routed = 0;
  for (const fed::ClusterOutcome& c : r.clusters) routed += c.tasksRouted;
  EXPECT_EQ(routed, wl.size());
  // Cyclic assignment: per-cluster counts differ by at most one.
  const auto [lo, hi] = std::minmax(
      {r.clusters[0].tasksRouted, r.clusters[1].tasksRouted,
       r.clusters[2].tasksRouted});
  EXPECT_LE(hi - lo, 1u);
  // Every task terminates exactly once, somewhere in the federation.
  EXPECT_EQ(r.total.metrics.totals().total(), wl.size());
}

TEST(FederationTest, StatefulPoliciesUseEveryClusterAndImproveOnOverload) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  // 25k-equivalent on ONE cluster is oversubscribed; across 2 clusters the
  // stateful policies must spread it.
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 5);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const auto& model = scenario.hetero();
  for (const fed::RoutingPolicyKind kind :
       {fed::RoutingPolicyKind::LeastQueueDepth,
        fed::RoutingPolicyKind::LeastExpectedCompletion,
        fed::RoutingPolicyKind::MaxChance}) {
    fed::FederationSpec spec;
    spec.clusters = 2;
    spec.routing = kind;
    const fed::FederatedTrialResult r =
        runFederatedRaw(config, {&model, &model}, wl, spec);
    EXPECT_GT(r.clusters[0].tasksRouted, 0u) << toString(kind);
    EXPECT_GT(r.clusters[1].tasksRouted, 0u) << toString(kind);
    EXPECT_EQ(r.total.metrics.totals().total(), wl.size()) << toString(kind);

    // Doubling the capacity behind the gateway must not hurt robustness
    // relative to forcing everything through one cluster.
    fed::FederationSpec one;
    const fed::FederatedTrialResult single =
        runFederatedRaw(config, {&model}, wl, one);
    EXPECT_GE(r.total.robustnessPercent, single.total.robustnessPercent)
        << toString(kind);
  }
}

TEST(FederationTest, DispatchLatencyShiftsClusterSideArrivals) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 9);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.dispatchLatency = 2.5;
  std::vector<sim::TraceEvent> trace;
  (void)runFederatedRaw(config, {&scenario.hetero()}, wl, spec, &trace);

  std::size_t arrivals = 0;
  for (const sim::TraceEvent& e : trace) {
    if (e.kind != sim::TraceEventKind::Arrival) continue;
    ++arrivals;
    const sim::Task expected{};  // silence unused warnings on some gccs
    (void)expected;
    EXPECT_DOUBLE_EQ(
        e.time, wl.tasks()[static_cast<std::size_t>(e.task)].arrival + 2.5);
  }
  EXPECT_EQ(arrivals, wl.size());
}

TEST(FederationTest, PerClusterMetricsSumToAggregate) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 21);

  core::SimulationConfig config;
  config.heuristic = "MSD";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 4;
  spec.routing = fed::RoutingPolicyKind::LeastQueueDepth;
  const auto& model = scenario.hetero();
  const fed::FederatedTrialResult r =
      runFederatedRaw(config, {&model, &model, &model, &model}, wl, spec);

  std::size_t onTime = 0, counted = 0, defers = 0, events = 0;
  for (const fed::ClusterOutcome& c : r.clusters) {
    onTime += c.metrics.completedOnTime();
    counted += c.metrics.countedTasks();
    defers += c.metrics.deferrals();
    events += c.mappingEvents;
  }
  EXPECT_EQ(onTime, r.total.metrics.completedOnTime());
  EXPECT_EQ(counted, r.total.metrics.countedTasks());
  EXPECT_EQ(defers, r.total.metrics.deferrals());
  EXPECT_EQ(events, r.total.mappingEvents);
  EXPECT_EQ(r.total.machineUtilization.size(),
            4u * static_cast<std::size_t>(model.numMachines()));
}

TEST(FederationTest, RunsAreDeterministic) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 17);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 3;
  spec.routing = fed::RoutingPolicyKind::MaxChance;
  const auto& model = scenario.hetero();
  const TrialDigest first =
      runFederated(config, {&model, &model, &model}, wl, spec);
  const TrialDigest second =
      runFederated(config, {&model, &model, &model}, wl, spec);
  EXPECT_EQ(first, second);
}

TEST(FederationTest, ClusterSeedsSplitFromTheBaseStream) {
  const std::uint64_t base = 0x5eed;
  EXPECT_EQ(fed::clusterExecutionSeed(base, 0), base);
  std::vector<std::uint64_t> seeds;
  for (std::size_t c = 0; c < 8; ++c) {
    seeds.push_back(fed::clusterExecutionSeed(base, c));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "cluster seeds must be pairwise distinct";
}

TEST(FederationTest, RejectsMalformedConstruction) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 1);
  core::SimulationConfig config;
  config.heuristic = "MM";
  const auto& model = scenario.hetero();

  fed::FederationSpec twoClusters;
  twoClusters.clusters = 2;
  EXPECT_THROW(fed::FederatedSimulation({&model}, wl, config, twoClusters),
               std::invalid_argument);
  fed::FederationSpec negative;
  negative.dispatchLatency = -1.0;
  EXPECT_THROW(fed::FederatedSimulation({&model}, wl, config, negative),
               std::invalid_argument);
  fed::FederationSpec zero;
  zero.clusters = 0;
  EXPECT_THROW(
      fed::FederatedSimulation(std::vector<const sim::ExecutionModel*>{}, wl,
                               config, zero),
      std::invalid_argument);
}

// --- Scenario schema --------------------------------------------------------

TEST(FederationScenarioTest, BlockParsesAndRoundTrips) {
  const util::JsonValue json = util::parseJson(R"({
    "federation": {
      "enabled": true,
      "clusters": 3,
      "routing": "max_chance",
      "dispatch_latency": 1.5,
      "cluster_shapes": [[0, 1, 2], [3, 4], [5, 6, 7, 0]]
    }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  EXPECT_TRUE(spec.federationEnabled);
  EXPECT_EQ(spec.fedClusters, 3u);
  EXPECT_EQ(spec.fedRouting, fed::RoutingPolicyKind::MaxChance);
  EXPECT_DOUBLE_EQ(spec.fedDispatchLatency, 1.5);
  ASSERT_EQ(spec.fedClusterShapes.size(), 3u);
  EXPECT_EQ(spec.fedClusterShapes[1], (std::vector<int>{3, 4}));

  // parse -> serialize -> parse is the identity.
  const exp::ScenarioSpec again =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spec));
  EXPECT_EQ(again.federationEnabled, spec.federationEnabled);
  EXPECT_EQ(again.fedClusters, spec.fedClusters);
  EXPECT_EQ(again.fedRouting, spec.fedRouting);
  EXPECT_EQ(again.fedDispatchLatency, spec.fedDispatchLatency);
  EXPECT_EQ(again.fedClusterShapes, spec.fedClusterShapes);
  EXPECT_EQ(exp::scenarioSpecToJson(again), exp::scenarioSpecToJson(spec));
}

TEST(FederationScenarioTest, DefaultIsDisabledAndAbsentFromLegacyFiles) {
  const exp::ScenarioSpec spec =
      exp::parseScenarioSpec(util::parseJson("{}"));
  EXPECT_FALSE(spec.federationEnabled);
  EXPECT_EQ(spec.fedClusters, 1u);
}

void expectRejected(const char* text, const char* needle) {
  try {
    (void)exp::parseScenarioSpec(util::parseJson(text));
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const exp::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FederationScenarioTest, RejectsMalformedBlocksWithLineNumbers) {
  expectRejected(R"({"federation": {"clusters": 0}})", "clusters");
  expectRejected(R"({"federation": {"routing": "best_effort"}})",
                 "unknown policy");
  expectRejected(R"({"federation": {"dispatch_latency": -2}})",
                 "dispatch_latency");
  expectRejected(R"({"federation": {"surprise": 1}})", "unknown key");
  expectRejected(
      R"({"federation": {"clusters": 2, "cluster_shapes": [[0]]}})",
      "cluster_shapes");
  expectRejected(R"({"federation": {"cluster_shapes": [[99]]}})",
                 "out of range");
}

TEST(FederationScenarioTest, BindBuildsOneModelPerCluster) {
  exp::ScenarioSpec spec;
  spec.scale = testScale();
  spec.federationEnabled = true;
  spec.fedClusters = 2;
  const exp::BoundScenario mirrored = exp::bindScenario(spec);
  EXPECT_TRUE(mirrored.federated);
  ASSERT_EQ(mirrored.fedModels.size(), 2u);
  EXPECT_EQ(mirrored.fedModels[0], mirrored.model);
  EXPECT_EQ(mirrored.fedModels[1], mirrored.model);

  spec.fedClusterShapes = {{0, 1, 2, 3}, {4, 5}};
  const exp::BoundScenario skewed = exp::bindScenario(spec);
  ASSERT_EQ(skewed.fedModels.size(), 2u);
  EXPECT_EQ(skewed.fedModels[0]->numMachines(), 4);
  EXPECT_EQ(skewed.fedModels[1]->numMachines(), 2);
  EXPECT_EQ(skewed.federation.clusters, 2u);
}

TEST(FederationScenarioTest, SweepRunsFederatedGridPoints) {
  // A 2-point sweep over cluster count through the real runSweep path, at a
  // tiny scale: locks the fed <-> sweep wiring without golden files.
  const std::string doc = R"({
    "workload": { "rate": 25000 },
    "run": { "trials": 1, "scale": 0.02 },
    "federation": { "enabled": true, "routing": "least_queue" },
    "sweep": [ { "field": "federation.clusters", "values": [1, 2] } ]
  })";
  const exp::ScenarioDoc parsed = exp::parseScenarioDoc(doc);
  const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(parsed);
  ASSERT_EQ(outcomes.size(), 2u);
  // Two clusters absorb an oversubscribed stream at least as well as one.
  EXPECT_GE(outcomes[1].result.robustnessMean(),
            outcomes[0].result.robustnessMean());
}

}  // namespace
