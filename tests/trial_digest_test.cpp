// Pinned digests of single-cluster trials.
//
// Every other oracle compares the engine with itself under a flag; these
// digests compare it with committed history.  Each one is a 64-bit FNV-1a
// hash over a core::Simulation trial's full lifecycle trace and every
// TrialResult field (metrics, utilizations, fairness scores, mapping
// events, makespan and the PCT cache's work counters), across
//   11 heuristics x pruning {default, disabled}
//      x {plain, active churn, acting elasticity, streamed}.
// Churn and elasticity legs also assert that failures were injected and
// the controller scaled, so no leg passes vacuously.
//
// A change that moves any digest changes simulated behaviour.  If that is
// intended, run the suite with HCS_PRINT_TRIAL_DIGESTS=1 to print the new
// table and commit it together with the change that explains it.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "exp/scenario.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void addCount(Fnv64& h, std::size_t v) { h.add(static_cast<std::uint64_t>(v)); }

void addResult(Fnv64& h, const core::TrialResult& r) {
  const sim::Metrics& m = r.metrics;
  h.add(r.robustnessPercent);
  h.add(m.weightedRobustnessPercent());
  addCount(h, r.mappingEvents);
  h.add(r.makespan);
  for (const std::size_t v :
       {m.completedOnTime(), m.completedLate(), m.droppedReactive(),
        m.droppedProactive(), m.abandoned(), m.rejected(), m.deferrals(),
        m.machineFailures(), m.retries(), m.spillovers(), m.failedThenMet(),
        m.countedTasks(), m.terminalCount(), m.scaleUps(), m.scaleDowns()}) {
    addCount(h, v);
  }
  for (const sim::TypeOutcomes& t : m.perType()) {
    for (const std::size_t v :
         {t.completedOnTime, t.completedLate, t.droppedReactive,
          t.droppedProactive, t.abandoned, t.rejected}) {
      addCount(h, v);
    }
  }
  for (const sim::Metrics::ExecutionSplit& s : m.perMachineExecution()) {
    h.add(s.useful);
    h.add(s.wasted);
  }
  for (const sim::Metrics::MachineSeconds& s : m.perTypeMachineSeconds()) {
    h.add(s.online);
    h.add(s.draining);
    h.add(s.busy);
  }
  for (const double u : r.machineUtilization) h.add(u);
  for (const double f : r.fairnessScores) h.add(f);
  const heuristics::PctCache::Stats& c = r.pctCache;
  for (const std::uint64_t v :
       {c.appendHits, c.appendMisses, c.chainHits, c.chainMisses, c.meanHits,
        c.meanMisses, c.deferStages.bounds, c.deferStages.estimate,
        c.deferStages.exact, c.dropStages.bounds, c.dropStages.estimate,
        c.dropStages.exact}) {
    h.add(v);
  }
}

enum class Leg { Plain, Churn, Elastic, Streamed };

const char* legName(Leg leg) {
  switch (leg) {
    case Leg::Plain: return "plain";
    case Leg::Churn: return "churn";
    case Leg::Elastic: return "elastic";
    case Leg::Streamed: return "streamed";
  }
  return "?";
}

struct Pinned {
  const char* heuristic;
  bool pruned;
  Leg leg;
  std::uint64_t digest;
};

// Generated with HCS_PRINT_TRIAL_DIGESTS=1.
constexpr Pinned kPinned[] = {
    {"MM", true, Leg::Plain, 0x275779b5b6ba9ce2ULL},
    {"MM", true, Leg::Churn, 0x19a3d30f6ed34b38ULL},
    {"MM", true, Leg::Elastic, 0x78d13d67a360fb6dULL},
    {"MM", true, Leg::Streamed, 0xbd9d455af190758fULL},
    {"MM", false, Leg::Plain, 0xc28858b6521a077fULL},
    {"MM", false, Leg::Churn, 0xbee4dc055a1eda6cULL},
    {"MM", false, Leg::Elastic, 0x3442bdd74e081b20ULL},
    {"MM", false, Leg::Streamed, 0xebc164be5acb3f3fULL},
    {"MSD", true, Leg::Plain, 0xb79d05eab3f8db03ULL},
    {"MSD", true, Leg::Churn, 0x5491498b202d2759ULL},
    {"MSD", true, Leg::Elastic, 0x374180331abf92c7ULL},
    {"MSD", true, Leg::Streamed, 0xdb9774c887cd2fafULL},
    {"MSD", false, Leg::Plain, 0x14d200c181a0ede2ULL},
    {"MSD", false, Leg::Churn, 0x631aba1eaa846482ULL},
    {"MSD", false, Leg::Elastic, 0x187c797a99bbf9d7ULL},
    {"MSD", false, Leg::Streamed, 0xb495885134e942beULL},
    {"MMU", true, Leg::Plain, 0xf6e8cdde4cfbcfd6ULL},
    {"MMU", true, Leg::Churn, 0xba05e8cedbbee1d0ULL},
    {"MMU", true, Leg::Elastic, 0x81696281f3490c6eULL},
    {"MMU", true, Leg::Streamed, 0x3884cb80d71ee533ULL},
    {"MMU", false, Leg::Plain, 0x3a16da5e8856f194ULL},
    {"MMU", false, Leg::Churn, 0x699677a5bd146fcaULL},
    {"MMU", false, Leg::Elastic, 0xa78a4b8b79934776ULL},
    {"MMU", false, Leg::Streamed, 0x77907cf2aecee94cULL},
    {"MaxMin", true, Leg::Plain, 0xd13e3d95bffb0ddaULL},
    {"MaxMin", true, Leg::Churn, 0xae8dc736dc98864eULL},
    {"MaxMin", true, Leg::Elastic, 0x995d9e47e310d2efULL},
    {"MaxMin", true, Leg::Streamed, 0x22e2c96c4deaa205ULL},
    {"MaxMin", false, Leg::Plain, 0xf66235a6420ce5bdULL},
    {"MaxMin", false, Leg::Churn, 0xb63529f637050f8bULL},
    {"MaxMin", false, Leg::Elastic, 0xf81e45144c92bacfULL},
    {"MaxMin", false, Leg::Streamed, 0x0cafec7d5cb0d25dULL},
    {"Sufferage", true, Leg::Plain, 0xc81b605285f9c1f9ULL},
    {"Sufferage", true, Leg::Churn, 0x392bae751fb94c96ULL},
    {"Sufferage", true, Leg::Elastic, 0x050eb1559060e9c0ULL},
    {"Sufferage", true, Leg::Streamed, 0x7796aae6eba10ae1ULL},
    {"Sufferage", false, Leg::Plain, 0xc28858b6521a077fULL},
    {"Sufferage", false, Leg::Churn, 0xbee4dc055a1eda6cULL},
    {"Sufferage", false, Leg::Elastic, 0x3442bdd74e081b20ULL},
    {"Sufferage", false, Leg::Streamed, 0xebc164be5acb3f3fULL},
    {"MCT", true, Leg::Plain, 0x9ebe01ed5200c1c8ULL},
    {"MCT", true, Leg::Churn, 0x4cd9031b3633f3cbULL},
    {"MCT", true, Leg::Elastic, 0x52d99df07e7295d2ULL},
    {"MCT", true, Leg::Streamed, 0xf558f01d447ac88dULL},
    {"MCT", false, Leg::Plain, 0x6f02879d62f01c31ULL},
    {"MCT", false, Leg::Churn, 0x78a642c6bb341937ULL},
    {"MCT", false, Leg::Elastic, 0xf6fc9b4011cbb375ULL},
    {"MCT", false, Leg::Streamed, 0x9db34307a7dd8f2dULL},
    {"KPB", true, Leg::Plain, 0x42903de3e1531d08ULL},
    {"KPB", true, Leg::Churn, 0x88128f77a10e6443ULL},
    {"KPB", true, Leg::Elastic, 0xda1c8297da12a5faULL},
    {"KPB", true, Leg::Streamed, 0xadd26eab141ce7cfULL},
    {"KPB", false, Leg::Plain, 0x919cedc9a50cc6c6ULL},
    {"KPB", false, Leg::Churn, 0xc442bf368da45505ULL},
    {"KPB", false, Leg::Elastic, 0x6d53c675aa4a5945ULL},
    {"KPB", false, Leg::Streamed, 0xbb32b17bf02e5be6ULL},
    {"MaxChance", true, Leg::Plain, 0x122213dfebd0bcd8ULL},
    {"MaxChance", true, Leg::Churn, 0xd890a715982588a6ULL},
    {"MaxChance", true, Leg::Elastic, 0x366208db3bb34454ULL},
    {"MaxChance", true, Leg::Streamed, 0xb3b0dc2ba1868506ULL},
    {"MaxChance", false, Leg::Plain, 0xd2b03a0fe0ad8d81ULL},
    {"MaxChance", false, Leg::Churn, 0x326b089004b2501dULL},
    {"MaxChance", false, Leg::Elastic, 0x3aeb2891b322237cULL},
    {"MaxChance", false, Leg::Streamed, 0xfb9a6ac185f42249ULL},
    {"FCFS-RR", true, Leg::Plain, 0xd42bcd04d36f1bb8ULL},
    {"FCFS-RR", true, Leg::Churn, 0x5e2dcef4d1ce2f1bULL},
    {"FCFS-RR", true, Leg::Elastic, 0x958b8d7274aea2d2ULL},
    {"FCFS-RR", true, Leg::Streamed, 0xd4568335e6ed941fULL},
    {"FCFS-RR", false, Leg::Plain, 0x5ca15763be98f3fbULL},
    {"FCFS-RR", false, Leg::Churn, 0xcfeedc6406a76f7bULL},
    {"FCFS-RR", false, Leg::Elastic, 0x3e52cd962c12dd74ULL},
    {"FCFS-RR", false, Leg::Streamed, 0xa1e4f192d634e94bULL},
    {"EDF", true, Leg::Plain, 0xd5ba3deaa85964feULL},
    {"EDF", true, Leg::Churn, 0x151ac69fa3ea4b73ULL},
    {"EDF", true, Leg::Elastic, 0x72b0f4c69bfd39c1ULL},
    {"EDF", true, Leg::Streamed, 0x854849881f3243d8ULL},
    {"EDF", false, Leg::Plain, 0x45dd470401d40e6dULL},
    {"EDF", false, Leg::Churn, 0x4d8656da19175cc0ULL},
    {"EDF", false, Leg::Elastic, 0x35088326d980f7a0ULL},
    {"EDF", false, Leg::Streamed, 0x15b174b5cf1dda31ULL},
    {"SJF", true, Leg::Plain, 0xc7b55cb27b1b7e99ULL},
    {"SJF", true, Leg::Churn, 0xbb18ebaf039d074cULL},
    {"SJF", true, Leg::Elastic, 0xcf886528e63618c6ULL},
    {"SJF", true, Leg::Streamed, 0x0913334e2f342aafULL},
    {"SJF", false, Leg::Plain, 0x24d45b5018a2c971ULL},
    {"SJF", false, Leg::Churn, 0x25fe3d8695384ad8ULL},
    {"SJF", false, Leg::Elastic, 0x313efac086d915beULL},
    {"SJF", false, Leg::Streamed, 0xbf99bb4262add109ULL},
};

bool homogeneousHeuristic(const std::string& name) {
  return name == "FCFS-RR" || name == "EDF" || name == "SJF";
}

struct Fixture {
  Fixture()
      : scenario([] {
          exp::PaperScenario::Options options;
          options.scale = 0.02;
          return options;
        }()),
        elastic([&] {
          std::vector<int> types(
              static_cast<std::size_t>(scenario.hetero().numMachines()));
          std::iota(types.begin(), types.end(), 0);
          types.insert(types.end(), {0, 0, 1, 1});
          return workload::BoundExecutionModel(scenario.pet(), types);
        }()) {}

  exp::PaperScenario scenario;
  workload::BoundExecutionModel elastic;
};

struct LegRun {
  std::uint64_t digest = 0;
  core::TrialResult result;
};

LegRun runLeg(const Fixture& fx, const std::string& heuristic, bool pruned,
           Leg leg) {
  const exp::PaperScenario& scenario = fx.scenario;
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  constexpr std::uint64_t kSeed = 41;

  core::SimulationConfig config;
  config.heuristic = heuristic;
  config.pruning =
      pruned ? pruning::PruningConfig{} : pruning::PruningConfig::disabled();
  config.warmupMargin = 20;
  config.executionSeed = 0x5eed41;
  const sim::ExecutionModel* model = homogeneousHeuristic(heuristic)
                                         ? &scenario.homo()
                                         : &scenario.hetero();
  if (leg == Leg::Churn) {
    config.faults.enabled = true;
    config.faults.mtbf = 20.0;
    config.faults.mttr = 4.0;
    config.faultSeed = 0xfa0141;
  }
  if (leg == Leg::Elastic) {
    model = &fx.elastic;
    sim::ElasticityConfig& e = config.elasticity;
    e.enabled = true;
    e.period = 0.5;
    e.bootLatency = 1.0;
    e.scaleUpQueue = 2.0;
    e.scaleDownQueue = 1.0;
    e.baseMachines = static_cast<std::size_t>(scenario.hetero().numMachines());
    e.pool.push_back({0, 1, 3});
    e.pool.push_back({1, 1, 3});
    config.elasticitySeed = 0xe1a541;
  }

  Fnv64 h;
  config.traceSink = [&h](const sim::TraceEvent& e) {
    h.add(e.time);
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add(static_cast<std::uint64_t>(e.task));
    h.add(static_cast<std::uint64_t>(e.machine));
  };
  LegRun run;
  if (leg == Leg::Streamed) {
    const std::unique_ptr<workload::TaskStream> stream =
        workload::openTaskStream(workload::StreamSpec{}, *scenario.pet(),
                                 arrival, {}, kSeed);
    run.result = core::Simulation(*model, *stream, config).run();
  } else {
    const workload::Workload wl =
        workload::Workload::generate(*scenario.pet(), arrival, {}, kSeed);
    run.result = core::Simulation(*model, wl, config).run();
  }
  addResult(h, run.result);
  run.digest = h.value();
  return run;
}

TEST(TrialDigestTest, SingleClusterTrialsMatchPinnedDigests) {
  const Fixture fx;
  const bool print = std::getenv("HCS_PRINT_TRIAL_DIGESTS") != nullptr;
  std::size_t checked = 0;
  for (const char* heuristic :
       {"MM", "MSD", "MMU", "MaxMin", "Sufferage", "MCT", "KPB", "MaxChance",
        "FCFS-RR", "EDF", "SJF"}) {
    for (const bool pruned : {true, false}) {
      for (const Leg leg :
           {Leg::Plain, Leg::Churn, Leg::Elastic, Leg::Streamed}) {
        const LegRun run = runLeg(fx, heuristic, pruned, leg);
        const sim::Metrics& m = run.result.metrics;
        const std::string where = std::string(heuristic) +
                                  (pruned ? " pruned " : " unpruned ") +
                                  legName(leg);
        if (leg == Leg::Churn) {
          EXPECT_GT(m.machineFailures(), 0u) << where << ": no failure";
          EXPECT_GT(m.retries(), 0u) << where << ": no retry";
        }
        if (leg == Leg::Elastic) {
          EXPECT_GT(m.scaleUps(), 0u) << where << ": never scaled up";
        }
        EXPECT_GT(m.countedTasks(), 0u) << where;
        if (print) {
          std::printf("    {\"%s\", %s, Leg::%c%s, 0x%016" PRIx64 "ULL},\n",
                      heuristic, pruned ? "true" : "false",
                      legName(leg)[0] - 'a' + 'A', legName(leg) + 1,
                      run.digest);
          continue;
        }
        bool found = false;
        for (const Pinned& p : kPinned) {
          if (heuristic != std::string(p.heuristic) || p.pruned != pruned ||
              p.leg != leg) {
            continue;
          }
          found = true;
          ++checked;
          EXPECT_EQ(run.digest, p.digest)
              << where << ": digest moved (robustness "
              << run.result.robustnessPercent << ", mapping events "
              << run.result.mappingEvents << ")";
        }
        EXPECT_TRUE(found) << where << ": no pinned digest";
      }
    }
  }
  if (!print) EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
