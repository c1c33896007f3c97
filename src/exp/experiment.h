#pragma once
// Multi-trial experiments: the paper's methodology of §V-A — "30 workload
// trials were performed using different task arrival times built from the
// same arrival rate and pattern. In each case, the mean and 95% confidence
// interval of the results are reported."

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "fed/federation.h"
#include "stats/confidence.h"
#include "stats/running_stats.h"
#include "workload/pet_matrix.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::exp {

struct ExperimentSpec {
  workload::ArrivalSpec arrival;
  workload::DeadlineSpec deadline;
  core::SimulationConfig sim;
  /// Streamed-arrival mode (the scenario `stream` block): when enabled,
  /// each trial pulls its tasks from a TaskStream — generated on the fly
  /// from `arrival`/`deadline` with the trial's workload seed (identical
  /// results, bounded memory) or replayed from an external trace — instead
  /// of materializing a Workload up front.
  workload::StreamSpec stream;
  std::size_t trials = 8;
  /// Trial t uses workload seed baseSeed + t (and a derived execution
  /// seed), so different specs with the same baseSeed see the *same*
  /// workload trials — the paper's paired-comparison setup.
  std::uint64_t baseSeed = 2019;
  /// Worker threads for trial execution: 1 = serial (default), 0 = one per
  /// hardware thread, N = exactly N.  Trials are independent and results
  /// are merged in trial order, so every value produces bit-identical
  /// aggregates.
  std::size_t jobs = 1;
};

struct ExperimentResult {
  stats::RunningStats robustness;       ///< % completed on time, per trial
  stats::ConfidenceInterval robustnessCi;
  std::vector<double> perTrialRobustness;

  stats::RunningStats completedLatePct;
  stats::RunningStats droppedReactivePct;
  stats::RunningStats droppedProactivePct;
  stats::RunningStats deferralsPerTask;
  stats::RunningStats meanUtilization;

  // Robustness-under-churn outcomes (all zero for fault-free runs).
  stats::RunningStats abandonedPct;     ///< retry policy gave up, % counted
  stats::RunningStats rejectedPct;      ///< gateway refusals, % counted
  stats::RunningStats retriesPerTask;   ///< retry re-arrivals per counted task
  stats::RunningStats failedThenMetPct; ///< survived >=1 failure AND met
  stats::RunningStats machineFailures;  ///< failure transitions per trial

  // Capacity-cost outcomes (meaningful for every trial; the elastic knobs
  // move them, fixed capacity just reports the flat baseline).
  stats::RunningStats utilizationPct;   ///< busy / *online* machine-seconds
  stats::RunningStats machineSeconds;   ///< online machine-seconds (cost)
  stats::RunningStats scaleUps;         ///< controller scale-up actions
  stats::RunningStats scaleDowns;       ///< controller scale-down actions

  double robustnessMean() const { return robustnessCi.mean; }
};

/// Executes the independent trials of one experiment.  Each trial
/// generates its own workload (seeded from the spec) — or opens its arrival
/// stream, when spec.stream is enabled — and owns every piece of mutable
/// simulation state, so any number of trials may run concurrently against
/// the shared immutable models.
class TrialRunner {
 public:
  /// Single-cluster trials.  `model` and `spec` must outlive the runner.
  TrialRunner(const workload::BoundExecutionModel& model,
              const ExperimentSpec& spec);

  /// Federated trials: one model per cluster (models.size() ==
  /// federation.clusters).  Deadlines come from models[0]'s PET matrix
  /// (all clusters of a federation share one matrix).  The models and
  /// `spec` must outlive the runner.
  TrialRunner(std::vector<const workload::BoundExecutionModel*> models,
              const ExperimentSpec& spec, fed::FederationSpec federation);

  std::size_t trials() const { return spec_->trials; }

  /// Runs trial `trial` (0-based) to completion.  Deterministic in
  /// (models, spec, federation, trial) — thread-safe by construction.
  core::TrialResult runTrial(std::size_t trial) const;

 private:
  std::vector<const workload::BoundExecutionModel*> models_;
  const ExperimentSpec* spec_;
  fed::FederationSpec federation_;
};

/// Runs `spec.trials` independent workload trials against the given cluster
/// model — on `spec.jobs` threads — and aggregates the outcomes in trial
/// order (bit-identical for any job count).  The PET matrix behind `model`
/// is also used for deadline assignment (Eq. 4 needs avg_i / avg_all).
ExperimentResult runExperiment(const workload::BoundExecutionModel& model,
                               const ExperimentSpec& spec);

/// The same through a federation of `models.size()` clusters: identical
/// workloads and per-trial seeds, so a 1-cluster federation with zero
/// dispatch latency reproduces the single-cluster experiment bit-for-bit
/// and federated sweep points stay paired with plain ones.
ExperimentResult runExperiment(
    const std::vector<const workload::BoundExecutionModel*>& models,
    const ExperimentSpec& spec, const fed::FederationSpec& federation);

/// Folds per-trial outcomes — already in trial order — into the aggregate
/// statistics.
ExperimentResult aggregateTrialResults(
    const std::vector<core::TrialResult>& outcomes);

/// The per-trial execution seed derived from a workload seed; exposed so
/// tools that spell out the trial recipe derive the identical stream.
std::uint64_t executionSeedFor(std::uint64_t workloadSeed);

/// The per-trial FAULT-stream seed derived from the same workload seed but
/// through a different mix, so the fault stream is independent of both the
/// workload and execution streams.  Because workload and execution draws
/// never touch it, a fault-enabled sweep point sees the exact same arrivals
/// and execution samples as its fault-free twin — the seed-pairing contract
/// the robustness sweeps rely on.
std::uint64_t faultSeedFor(std::uint64_t workloadSeed);

/// The per-trial ELASTICITY-stream seed, again from the same workload seed
/// through its own mix.  The controller's reserved RNG draws nothing in the
/// shipped (deterministic) policies, but the stream exists and is derived
/// here so a future stochastic policy cannot be tempted to tap the
/// execution or fault streams and break seed pairing.
std::uint64_t elasticitySeedFor(std::uint64_t workloadSeed);

}  // namespace hcs::exp
