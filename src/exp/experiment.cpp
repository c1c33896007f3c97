#include "exp/experiment.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "exp/parallel.h"

namespace hcs::exp {

std::uint64_t executionSeedFor(std::uint64_t workloadSeed) {
  // Independent execution randomness per trial, decoupled from the
  // workload stream.
  return workloadSeed * 0x9e3779b97f4a7c15ULL + 1;
}

std::uint64_t faultSeedFor(std::uint64_t workloadSeed) {
  // A full splitmix64 scramble (distinct increment from the execution
  // stream's golden-ratio step) keeps the fault stream well-separated from
  // both the workload and execution streams of the same trial.
  std::uint64_t z = workloadSeed + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t elasticitySeedFor(std::uint64_t workloadSeed) {
  // Same splitmix64 scramble shape as the fault stream, with its own
  // increment, so the controller's reserved stream is independent of the
  // workload, execution, and fault streams of the same trial.
  std::uint64_t z = workloadSeed + 0x7f4a7c159e3779b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TrialRunner::TrialRunner(const workload::BoundExecutionModel& model,
                         const ExperimentSpec& spec)
    : TrialRunner({&model}, spec, fed::FederationSpec{}) {}

TrialRunner::TrialRunner(
    std::vector<const workload::BoundExecutionModel*> models,
    const ExperimentSpec& spec, fed::FederationSpec federation)
    : models_(std::move(models)),
      spec_(&spec),
      federation_(std::move(federation)) {
  if (models_.empty() || models_.size() != federation_.clusters) {
    throw std::invalid_argument("TrialRunner: one model per cluster required");
  }
}

core::SimulationConfig TrialRunner::trialConfig(std::size_t trial) const {
  const std::uint64_t workloadSeed = spec_->baseSeed + trial;
  core::SimulationConfig simConfig = spec_->sim;
  simConfig.executionSeed = executionSeedFor(workloadSeed);
  simConfig.faultSeed = faultSeedFor(workloadSeed);
  simConfig.elasticitySeed = elasticitySeedFor(workloadSeed);
  return simConfig;
}

bool TrialRunner::sharesWorkloads(const TrialRunner& other) const {
  return materialized() && other.materialized() &&
         &models_[0]->matrix() == &other.models_[0]->matrix() &&
         spec_->arrival == other.spec_->arrival &&
         spec_->deadline == other.spec_->deadline &&
         spec_->baseSeed == other.spec_->baseSeed;
}

workload::Workload TrialRunner::generateWorkload(std::size_t trial) const {
  return workload::Workload::generate(models_[0]->matrix(), spec_->arrival,
                                      spec_->deadline,
                                      spec_->baseSeed + trial);
}

core::TrialResult TrialRunner::runTrial(std::size_t trial) const {
  if (materialized()) return runTrial(trial, generateWorkload(trial));
  // Bounded-memory path: the trial pulls tasks as it reaches them —
  // generated (identical to the materialized trial) or replayed from an
  // external trace — and never holds more than the in-flight window.
  const std::unique_ptr<workload::TaskStream> stream =
      workload::openTaskStream(spec_->stream, models_[0]->matrix(),
                               spec_->arrival, spec_->deadline,
                               spec_->baseSeed + trial);
  return fed::FederatedSimulation({models_.begin(), models_.end()}, *stream,
                                  trialConfig(trial), federation_)
      .run()
      .total;
}

core::TrialResult TrialRunner::runTrial(
    std::size_t trial, const workload::Workload& workload) const {
  return fed::FederatedSimulation({models_.begin(), models_.end()}, workload,
                                  trialConfig(trial), federation_)
      .run()
      .total;
}

namespace {

/// One (group, trial) workload, shared by that trial's units of the group.
struct SharedWorkload {
  std::once_flag generated;
  std::optional<workload::Workload> workload;
  std::atomic<std::size_t> pending{0};  ///< units yet to finish with it
};

/// One trial of one point; `shared` is null for streamed points.
struct Unit {
  std::size_t point;
  std::size_t trial;
  SharedWorkload* shared;
};

}  // namespace

std::vector<ExperimentResult> runExperiments(
    const std::vector<TrialRunner>& points, std::size_t jobs,
    const std::function<void(std::size_t)>& onPointStart, SweepStats* stats) {
  // Group the points whose trial t draws the same workload, each group in
  // order of its first point.  Streamed points share with nothing.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].trials() == 0) {
      throw std::invalid_argument("runExperiment: need at least one trial");
    }
    const auto group = std::find_if(
        groups.begin(), groups.end(), [&](const std::vector<std::size_t>& g) {
          return points[g.front()].sharesWorkloads(points[p]);
        });
    if (group == groups.end()) {
      groups.push_back({p});
    } else {
      group->push_back(p);
    }
  }

  // Units group-major, then trial-major, then in point order: a (group,
  // trial)'s units are adjacent, so its workload lives only while they run.
  std::deque<SharedWorkload> shared;
  std::vector<Unit> units;
  for (const std::vector<std::size_t>& group : groups) {
    std::size_t trials = 0;
    for (std::size_t p : group) trials = std::max(trials, points[p].trials());
    for (std::size_t t = 0; t < trials; ++t) {
      SharedWorkload* slot =
          points[group.front()].materialized() ? &shared.emplace_back()
                                               : nullptr;
      for (std::size_t p : group) {
        if (t >= points[p].trials()) continue;
        units.push_back({p, t, slot});
        if (slot != nullptr) slot->pending.fetch_add(1);
      }
    }
  }

  std::vector<std::vector<core::TrialResult>> outcomes(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    outcomes[p].resize(points[p].trials());
  }
  std::mutex announceMutex;
  std::atomic<std::size_t> generated{0};
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peakLive{0};
  ParallelExecutor(jobs).run(units.size(), [&](std::size_t i) {
    const Unit& unit = units[i];
    const TrialRunner& runner = points[unit.point];
    if (unit.trial == 0 && onPointStart) {
      const std::lock_guard<std::mutex> lock(announceMutex);
      onPointStart(unit.point);
    }
    core::TrialResult& slot = outcomes[unit.point][unit.trial];
    if (unit.shared == nullptr) {
      slot = runner.runTrial(unit.trial);
      return;
    }
    SharedWorkload& shared = *unit.shared;
    std::call_once(shared.generated, [&] {
      shared.workload.emplace(runner.generateWorkload(unit.trial));
      generated.fetch_add(1);
      const std::size_t now = live.fetch_add(1) + 1;
      std::size_t peak = peakLive.load();
      while (peak < now && !peakLive.compare_exchange_weak(peak, now)) {
      }
    });
    slot = runner.runTrial(unit.trial, *shared.workload);
    if (shared.pending.fetch_sub(1) == 1) {
      shared.workload.reset();
      live.fetch_sub(1);
    }
  });

  if (stats != nullptr) {
    stats->workloadsGenerated = generated.load();
    stats->peakLiveWorkloads = peakLive.load();
  }
  std::vector<ExperimentResult> results;
  results.reserve(points.size());
  for (const std::vector<core::TrialResult>& trials : outcomes) {
    results.push_back(aggregateTrialResults(trials));
  }
  return results;
}

ExperimentResult aggregateTrialResults(
    const std::vector<core::TrialResult>& outcomes) {
  // Fold the per-trial slots in trial order, so the aggregates are
  // bit-identical to a serial run no matter how many jobs executed.
  ExperimentResult result;
  for (const core::TrialResult& tr : outcomes) {
    result.robustness.add(tr.robustnessPercent);
    result.perTrialRobustness.push_back(tr.robustnessPercent);

    const double counted =
        static_cast<double>(tr.metrics.countedTasks());
    if (counted > 0) {
      result.completedLatePct.add(
          100.0 * static_cast<double>(tr.metrics.completedLate()) / counted);
      result.droppedReactivePct.add(
          100.0 * static_cast<double>(tr.metrics.droppedReactive()) / counted);
      result.droppedProactivePct.add(
          100.0 * static_cast<double>(tr.metrics.droppedProactive()) /
          counted);
      result.deferralsPerTask.add(
          static_cast<double>(tr.metrics.deferrals()) / counted);
      result.abandonedPct.add(
          100.0 * static_cast<double>(tr.metrics.abandoned()) / counted);
      result.rejectedPct.add(
          100.0 * static_cast<double>(tr.metrics.rejected()) / counted);
      result.retriesPerTask.add(
          static_cast<double>(tr.metrics.retries()) / counted);
      result.failedThenMetPct.add(
          100.0 * static_cast<double>(tr.metrics.failedThenMet()) / counted);
    }
    result.machineFailures.add(
        static_cast<double>(tr.metrics.machineFailures()));
    result.utilizationPct.add(tr.metrics.utilizationPercent());
    result.machineSeconds.add(tr.metrics.onlineMachineSeconds());
    result.scaleUps.add(static_cast<double>(tr.metrics.scaleUps()));
    result.scaleDowns.add(static_cast<double>(tr.metrics.scaleDowns()));
    double utilization = 0.0;
    for (double u : tr.machineUtilization) utilization += u;
    if (!tr.machineUtilization.empty()) {
      utilization /= static_cast<double>(tr.machineUtilization.size());
    }
    result.meanUtilization.add(utilization);
  }
  result.robustnessCi = stats::meanConfidenceInterval(result.robustness);
  return result;
}

ExperimentResult runExperiment(const workload::BoundExecutionModel& model,
                               const ExperimentSpec& spec) {
  return runExperiment({&model}, spec, fed::FederationSpec{});
}

ExperimentResult runExperiment(
    const std::vector<const workload::BoundExecutionModel*>& models,
    const ExperimentSpec& spec, const fed::FederationSpec& federation) {
  return runExperiments({TrialRunner(models, spec, federation)}, spec.jobs)
      .front();
}

}  // namespace hcs::exp
