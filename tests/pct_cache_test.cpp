// Tests for the PCT cache: memoized append convolutions, the certified
// chance estimates and their queue-suffix chain, hit/invalidate-on-epoch-
// bump semantics, and end-to-end equivalence of cached vs uncached
// simulation — including runs whose pruning bar sits exactly on chances
// the pruning checks evaluate.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/simulation.h"
#include "exp/scenario.h"
#include "heuristics/heuristic.h"
#include "heuristics/pct_cache.h"
#include "heuristics/registry.h"
#include "prob/pmf.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/workload.h"

namespace {

using hcs::heuristics::PctCache;
using hcs::prob::DiscretePmf;
using hcs::sim::Machine;
using hcs::sim::TaskPool;
using hcs::testutil::FakeModel;

FakeModel twoTypeModel() {
  // Two task types, one machine; PMFs with some spread so convolutions are
  // non-trivial.
  return FakeModel({
      {DiscretePmf(2, {0.5, 0.5})},
      {DiscretePmf(3, {0.25, 0.5, 0.25})},
  });
}

// --- Machine queue epoch -----------------------------------------------------

TEST(QueueEpochTest, BumpsOnEveryMutation) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  const auto e0 = m.queueEpoch();

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  const auto c = pool.create(0, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  const auto e1 = m.queueEpoch();
  EXPECT_GT(e1, e0);

  m.dispatch(b, 1.0, pool, model);
  m.dispatch(c, 1.0, pool, model);
  const auto e2 = m.queueEpoch();
  EXPECT_GT(e2, e1);

  m.removeQueued(c, 2.0, pool, model);
  const auto e3 = m.queueEpoch();
  EXPECT_GT(e3, e2);

  m.finishRunning(3.0, pool, model);
  const auto e4 = m.queueEpoch();
  EXPECT_GT(e4, e3);

  m.startNextIfIdle(3.0, pool, model);
  const auto e5 = m.queueEpoch();
  EXPECT_GT(e5, e4);

  m.abortRunning(4.0, pool, model);
  EXPECT_GT(m.queueEpoch(), e5);
}

// --- appendPct ---------------------------------------------------------------

TEST(PctCacheTest, AppendPctMatchesUncachedComputation) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);

  for (hcs::sim::TaskType type : {0, 1}) {
    const DiscretePmf expected =
        m.tailPct(5.0, pool, model).convolve(model.pet(type, 0));
    EXPECT_EQ(cache.appendPct(m, 5.0, pool, model, type), expected);
    EXPECT_DOUBLE_EQ(cache.appendChance(m, 5.0, pool, model, type, 9.0),
                     expected.successProbability(9.0));
  }
}

TEST(PctCacheTest, SecondLookupIsAHit) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);

  cache.appendPct(m, 1.0, pool, model, 0);
  EXPECT_EQ(cache.stats().appendMisses, 1u);
  EXPECT_EQ(cache.stats().appendHits, 0u);

  cache.appendPct(m, 1.0, pool, model, 0);
  EXPECT_EQ(cache.stats().appendMisses, 1u);
  EXPECT_EQ(cache.stats().appendHits, 1u);

  // A different type misses (separate convolution), then hits.
  cache.appendPct(m, 1.0, pool, model, 1);
  cache.appendPct(m, 1.0, pool, model, 1);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
  EXPECT_EQ(cache.stats().appendHits, 2u);
}

TEST(PctCacheTest, EpochBumpInvalidates) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);
  cache.appendPct(m, 1.0, pool, model, 0);
  cache.appendPct(m, 1.0, pool, model, 0);
  EXPECT_EQ(cache.stats().appendHits, 1u);

  // Mutating the machine bumps the epoch; the next lookup must recompute
  // against the new queue state.
  m.dispatch(pool.create(1, 0.0, 50.0), 1.0, pool, model);
  const DiscretePmf expected =
      m.tailPct(1.0, pool, model).convolve(model.pet(0, 0));
  EXPECT_EQ(cache.appendPct(m, 1.0, pool, model, 0), expected);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
  EXPECT_EQ(cache.stats().appendHits, 1u);
}

TEST(PctCacheTest, UntrackedMachineUsesElapsedBinKey) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  // trackTail off — the immediate-mode configuration.
  Machine m(0, 1.0, /*trackTail=*/false);
  PctCache cache;

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);

  const DiscretePmf atOne =
      m.tailPct(1.0, pool, model).convolve(model.pet(0, 0));
  EXPECT_EQ(cache.appendPct(m, 1.0, pool, model, 0), atOne);

  // Same elapsed bin, same epoch: hit even though `now` moved within the
  // bin... (bin width 1.0, so 1.4 stays in elapsed bin 1).
  cache.appendPct(m, 1.4, pool, model, 0);
  EXPECT_EQ(cache.stats().appendHits, 1u);

  // Crossing into the next elapsed bin re-conditions the chain.
  const DiscretePmf atTwo =
      m.tailPct(2.0, pool, model).convolve(model.pet(0, 0));
  EXPECT_EQ(cache.appendPct(m, 2.0, pool, model, 0), atTwo);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
}

// --- certified estimates ---------------------------------------------------

TEST(PctCacheTest, AppendChanceEstimateTracksTheExactChance) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  // Empty machine (idle point mass at `now`), then a busy one with a queue.
  for (int dispatched = 0; dispatched < 3; ++dispatched) {
    for (hcs::sim::TaskType type : {0, 1}) {
      for (double deadline : {3.0, 4.0, 5.5, 6.0, 8.0, 12.0}) {
        EXPECT_NEAR(
            cache.appendChanceEstimate(m, 1.0, pool, model, type, deadline),
            cache.appendChance(m, 1.0, pool, model, type, deadline), 1e-12)
            << "dispatched=" << dispatched << " deadline=" << deadline;
      }
    }
    m.dispatch(pool.create(dispatched % 2, 0.0, 50.0), 0.0, pool, model);
  }
}

TEST(PctCacheTest, QueuedChanceEstimateTracksTheExactChain) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // runs
  m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);  // queued
  const auto second = pool.create(0, 0.0, 50.0);
  m.dispatch(second, 0.0, pool, model);  // queued

  // The reference walk's exact chances: availability ⊛ PET(q_0) ⊛ … .
  const auto expectMatchesExactChain = [&](hcs::sim::Time now) {
    DiscretePmf acc = m.availabilityPct(now, pool, model);
    for (std::size_t idx = 0; idx < m.queueLength(); ++idx) {
      acc = acc.convolve(model.pet(m.queueTypes()[idx], 0));
      for (double deadline : {4.0, 5.0, 6.5, 7.0, 9.0, 11.0}) {
        EXPECT_NEAR(cache.queuedChanceEstimate(m, now, pool, model, idx,
                                               deadline),
                    acc.successProbability(deadline), 1e-12)
            << "now=" << now << " idx=" << idx << " deadline=" << deadline;
      }
    }
  };
  expectMatchesExactChain(2.0);
  EXPECT_EQ(cache.stats().chainMisses, 2u);  // levels 0 and 1 built

  // The suffix chain ignores `now`: a new elapsed bin reuses every level.
  expectMatchesExactChain(3.0);
  EXPECT_EQ(cache.stats().chainMisses, 2u);

  // An append keeps the levels and builds only the new one.
  m.dispatch(pool.create(1, 0.0, 50.0), 3.0, pool, model);
  expectMatchesExactChain(3.0);
  EXPECT_EQ(cache.stats().chainMisses, 3u);

  // Removing a queued task rebuilds from the first changed level.
  m.removeQueued(second, 3.0, pool, model);
  expectMatchesExactChain(3.0);
  EXPECT_EQ(cache.stats().chainMisses, 4u);
}

// --- scalar memo helpers -----------------------------------------------------

TEST(PctCacheTest, RemainingMeanMatchesPmfMean) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);
  const double expected =
      model.pet(1, 0).conditionalRemaining(1.7).mean();
  EXPECT_EQ(cache.remainingMean(m, 1.7, pool, model), expected);
  cache.remainingMean(m, 1.7, pool, model);
  EXPECT_EQ(cache.stats().meanHits, 1u);
}

TEST(DiscretePmfFastPathTest, ScalarShortcutsMatchMaterializedPmfs) {
  const DiscretePmf pet(3, {0.1, 0.0, 0.4, 0.3, 0.2}, 0.5);
  for (double elapsed : {0.0, 0.4, 1.1, 1.6, 2.9, 5.0}) {
    const DiscretePmf remaining = pet.conditionalRemaining(elapsed);
    EXPECT_EQ(remaining.mean(), pet.conditionalRemainingMean(elapsed))
        << "elapsed=" << elapsed;
    const auto [lo, hi] = pet.conditionalRemainingBounds(elapsed);
    EXPECT_EQ(lo, remaining.firstBin()) << "elapsed=" << elapsed;
    EXPECT_EQ(hi, remaining.lastBin()) << "elapsed=" << elapsed;
  }
  // cdfShiftedBy == shifted().cdf().
  for (double t : {0.0, 1.5, 2.0, 3.7}) {
    EXPECT_EQ(pet.cdfShiftedBy(4, t), pet.shifted(4).cdf(t));
  }
}

// --- end-to-end equivalence --------------------------------------------------

TEST(PctCacheTest, CachedSimulationMatchesUncachedExactly) {
  hcs::exp::PaperScenario::Options options;
  options.scale = 0.02;
  options.trials = 2;
  const hcs::exp::PaperScenario scenario(options);

  for (const char* heuristic : {"MM", "MMU", "MCT"}) {
    hcs::exp::ExperimentSpec spec = scenario.experimentSpec(
        hcs::exp::PaperScenario::kRate20k,
        hcs::workload::ArrivalPattern::Spiky);
    spec.sim.heuristic = heuristic;

    spec.sim.pctCacheEnabled = true;
    const auto cached = hcs::exp::runExperiment(scenario.hetero(), spec);
    spec.sim.pctCacheEnabled = false;
    const auto uncached = hcs::exp::runExperiment(scenario.hetero(), spec);

    ASSERT_EQ(cached.perTrialRobustness.size(),
              uncached.perTrialRobustness.size());
    for (std::size_t i = 0; i < cached.perTrialRobustness.size(); ++i) {
      EXPECT_EQ(cached.perTrialRobustness[i], uncached.perTrialRobustness[i])
          << heuristic << " trial " << i;
    }
    EXPECT_EQ(cached.robustnessCi.mean, uncached.robustnessCi.mean)
        << heuristic;
  }
}

// --- certified decisions end to end ------------------------------------------

/// Wraps a batch heuristic and records exact Eq. 2 chances the pruning
/// checks evaluate: at the first round of each mapping event, every queued
/// task's (the proactive walk's question — the walk ran at this `now` on
/// this queue, minus its drops), and at every round, the first
/// assignment's (the deferring check's, asked before any dispatch of the
/// round).  The chances come from the reference chain (Machine::chainPcts,
/// Machine::tailPct ⊛ PET).
class ChanceRecorder final : public hcs::heuristics::BatchHeuristic {
 public:
  ChanceRecorder(std::unique_ptr<hcs::heuristics::BatchHeuristic> inner,
                 bool queued, bool appended, std::vector<double>* chances)
      : inner_(std::move(inner)),
        queued_(queued),
        appended_(appended),
        chances_(chances) {}

  std::string_view name() const override { return inner_->name(); }
  bool consumesBatchQueue() const override {
    return inner_->consumesBatchQueue();
  }

  std::vector<hcs::heuristics::Assignment> map(
      const hcs::heuristics::MappingContext& ctx,
      std::span<const hcs::sim::TaskId> batch) override {
    const TaskPool& pool = ctx.pool();
    if (queued_ && ctx.now() != lastNow_) {
      lastNow_ = ctx.now();
      for (int j = 0; j < ctx.numMachines(); ++j) {
        const Machine& m = ctx.machine(j);
        const std::vector<DiscretePmf> chain =
            m.chainPcts(ctx.now(), pool, ctx.model());
        const std::size_t offset = m.busy() ? 1 : 0;
        for (std::size_t i = 0; i < m.queueLength(); ++i) {
          chances_->push_back(chain[offset + i].successProbability(
              pool[m.queue()[i]].deadline));
        }
      }
    }
    std::vector<hcs::heuristics::Assignment> out = inner_->map(ctx, batch);
    if (appended_ && !out.empty()) {
      const hcs::sim::Task& t = pool[out.front().task];
      const Machine& m = ctx.machine(out.front().machine);
      chances_->push_back(m.tailPct(ctx.now(), pool, ctx.model())
                              .convolve(ctx.model().pet(t.type, m.id()))
                              .successProbability(t.deadline));
    }
    return out;
  }

 private:
  std::unique_ptr<hcs::heuristics::BatchHeuristic> inner_;
  bool queued_;
  bool appended_;
  std::vector<double>* chances_;
  hcs::sim::Time lastNow_ = -1.0;
};

struct NearBarRun {
  std::vector<hcs::sim::TraceEvent> trace;
  double robustness = 0.0;
  PctCache::Stats stats;
};

TEST(PctCacheTest, NearBarDecisionsMatchTheReferenceExactly) {
  hcs::exp::PaperScenario::Options options;
  options.scale = 0.02;
  const hcs::exp::PaperScenario scenario(options);
  const hcs::workload::Workload wl = hcs::workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(hcs::exp::PaperScenario::kRate25k,
                           hcs::workload::ArrivalPattern::Spiky),
      {}, 13);

  const auto run = [&](const char* heuristic, bool defer, bool drop,
                       double threshold, bool cache,
                       std::vector<double>* chances) {
    hcs::core::SimulationConfig config;
    config.heuristic = heuristic;
    config.pruning.threshold = threshold;
    config.pruning.fairnessFactor = 0.0;  // the bar is the threshold itself
    config.pruning.deferEnabled = defer;
    config.pruning.toggle = drop ? hcs::pruning::ToggleMode::AlwaysDropping
                                 : hcs::pruning::ToggleMode::NoDropping;
    config.pctCacheEnabled = cache;
    config.warmupMargin = 0;
    if (chances != nullptr) {
      config.customBatchHeuristic = [=] {
        return std::make_unique<ChanceRecorder>(
            hcs::heuristics::makeBatch(heuristic), drop, defer, chances);
      };
    }
    hcs::sim::TraceLog log;
    config.traceSink = log.sink();
    const hcs::core::TrialResult r =
        hcs::core::Simulation(scenario.hetero(), wl, config).run();
    return NearBarRun{log.events(), r.robustnessPercent, r.pctCache};
  };

  for (const char* heuristic : {"MM", "MSD", "MMU"}) {
    for (const auto [defer, drop] :
         {std::pair{true, true}, std::pair{true, false},
          std::pair{false, true}}) {
      // Put the bar on the first interior chance a reference run
      // evaluates; that chance's decision only depends on earlier ones,
      // so re-derive it under the new bar until the cached run's exact
      // stage actually fires.
      double threshold = 0.5;
      NearBarRun cached;
      std::uint64_t exact = 0;
      for (int attempt = 0; attempt < 8 && exact == 0; ++attempt) {
        std::vector<double> chances;
        run(heuristic, defer, drop, threshold, false, &chances);
        for (const double c : chances) {
          if (c > 0.01 && c < 0.99) {
            threshold = c;
            break;
          }
        }
        cached = run(heuristic, defer, drop, threshold, true, nullptr);
        exact = cached.stats.deferStages.exact + cached.stats.dropStages.exact;
      }
      const NearBarRun reference =
          run(heuristic, defer, drop, threshold, false, nullptr);
      EXPECT_GT(exact, 0u) << heuristic << " defer=" << defer
                           << " drop=" << drop;
      EXPECT_EQ(cached.trace, reference.trace)
          << heuristic << " defer=" << defer << " drop=" << drop
          << " threshold=" << threshold;
      EXPECT_EQ(cached.robustness, reference.robustness) << heuristic;
    }
  }
}

TEST(PctCacheTest, ExactConvolutionsSettleUnderOnePercentOfDecisions) {
  // A Fig. 9 point (MM-P: reactive Toggle, 50% threshold, deferring and
  // dropping) at a fixed seed.  The counts are deterministic, so this pins
  // the work the certified decisions save, machine-independently.
  hcs::exp::PaperScenario::Options options;
  options.scale = 0.1;
  const hcs::exp::PaperScenario scenario(options);
  const hcs::workload::Workload wl = hcs::workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(hcs::exp::PaperScenario::kRate25k,
                           hcs::workload::ArrivalPattern::Constant),
      {}, 2019);
  hcs::core::SimulationConfig config;
  config.heuristic = "MM";
  const PctCache::Stats stats =
      hcs::core::Simulation(scenario.hetero(), wl, config).run().pctCache;
  for (const PctCache::StageCounts& path :
       {stats.deferStages, stats.dropStages}) {
    ASSERT_GT(path.total(), 1000u);
    EXPECT_LT(static_cast<double>(path.exact),
              0.01 * static_cast<double>(path.total()));
    EXPECT_GT(path.estimate, 0u);
  }
}

}  // namespace
