#include "exp/experiment.h"

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

core::TrialResult TrialRunner::runTrial(std::size_t trial) const {
  const std::uint64_t workloadSeed = spec_->baseSeed + trial;

  core::SimulationConfig simConfig = spec_->sim;
  simConfig.executionSeed = executionSeedFor(workloadSeed);
  simConfig.faultSeed = faultSeedFor(workloadSeed);
  simConfig.elasticitySeed = elasticitySeedFor(workloadSeed);

  std::vector<const sim::ExecutionModel*> models(models_.begin(),
                                                 models_.end());
  const workload::PetMatrix& pet = models_[0]->matrix();
  if (spec_->stream.enabled) {
    // Bounded-memory path: the trial pulls tasks as it reaches them —
    // generated (identical to the materialized trial below) or replayed
    // from an external trace — and never holds more than the in-flight
    // window.
    const std::unique_ptr<workload::TaskStream> stream =
        workload::openTaskStream(spec_->stream, pet, spec_->arrival,
                                 spec_->deadline, workloadSeed);
    return fed::FederatedSimulation(std::move(models), *stream, simConfig,
                                    federation_)
        .run()
        .total;
  }
  const workload::Workload wl = workload::Workload::generate(
      pet, spec_->arrival, spec_->deadline, workloadSeed);
  return fed::FederatedSimulation(std::move(models), wl, simConfig,
                                  federation_)
      .run()
      .total;
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
  if (spec.trials == 0) {
    throw std::invalid_argument("runExperiment: need at least one trial");
  }
  const TrialRunner runner(models, spec, federation);

  // Execute trials on the pool (each owns all of its mutable state)…
  std::vector<core::TrialResult> outcomes(spec.trials);
  ParallelExecutor(spec.jobs).run(
      spec.trials,
      [&](std::size_t trial) { outcomes[trial] = runner.runTrial(trial); });

  return aggregateTrialResults(outcomes);
}

}  // namespace hcs::exp
