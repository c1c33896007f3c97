#pragma once
// Multi-trial experiments: the paper's methodology of §V-A — "30 workload
// trials were performed using different task arrival times built from the
// same arrival rate and pattern. In each case, the mean and 95% confidence
// interval of the results are reported."

#include <cstdint>
#include <functional>
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
  /// hardware thread, N = exactly N (a sweep runs on one pool of its points'
  /// largest value).  Trials are independent and results are merged in
  /// trial order, so every value produces bit-identical aggregates.
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

/// Executes the independent trials of one experiment.  Each trial draws
/// its workload from the spec's seed — materialized (generateWorkload), or
/// as an arrival stream when spec.stream is enabled — and owns every piece
/// of mutable simulation state, so any number of trials may run
/// concurrently against the shared immutable models.
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

  /// True unless the trials pull their tasks from an arrival stream.
  bool materialized() const { return !spec_->stream.enabled; }

  /// True when both runners materialize their trials and trial t of each
  /// generates the same workload: same PET matrix, arrival and deadline
  /// specs, and base seed — everything Workload::generate reads.
  bool sharesWorkloads(const TrialRunner& other) const;

  /// Trial `trial`'s materialized workload.
  workload::Workload generateWorkload(std::size_t trial) const;

  /// Runs trial `trial` (0-based) to completion.  Deterministic in
  /// (models, spec, federation, trial) — thread-safe by construction.
  core::TrialResult runTrial(std::size_t trial) const;

  /// The same over a workload already generated for this trial (by this
  /// runner or by one it sharesWorkloads() with).
  core::TrialResult runTrial(std::size_t trial,
                             const workload::Workload& workload) const;

 private:
  core::SimulationConfig trialConfig(std::size_t trial) const;

  std::vector<const workload::BoundExecutionModel*> models_;
  const ExperimentSpec* spec_;
  fed::FederationSpec federation_;
};

/// Counters of one runExperiments call.
struct SweepStats {
  /// Materialized workloads built: one per (group, trial), whatever jobs.
  std::size_t workloadsGenerated = 0;
  /// Most workloads held at once: 1 serially; with more jobs it depends on
  /// timing, but never exceeds jobs + 1.
  std::size_t peakLiveWorkloads = 0;
};

/// Runs every trial of every point on one pool of `jobs` threads (0 = one
/// per hardware thread) and aggregates each point in trial order, so the
/// results are bit-identical to running the points one at a time, for any
/// job count.  Points that sharesWorkloads() form a group; units run
/// group-major, then trial-major, then in point order.  The first unit of
/// a (group, trial) generates its workload and the last to finish frees
/// it, so at most jobs + 1 workloads are live at once.  `onPointStart`
/// (optional; calls are serialized) is invoked as a point's first trial
/// starts.  Throws std::invalid_argument for a point with zero trials.
std::vector<ExperimentResult> runExperiments(
    const std::vector<TrialRunner>& points, std::size_t jobs,
    const std::function<void(std::size_t)>& onPointStart = {},
    SweepStats* stats = nullptr);

/// Runs `spec.trials` independent workload trials against the given cluster
/// model — on `spec.jobs` threads — and aggregates the outcomes in trial
/// order (bit-identical for any job count): the one-point runExperiments.
/// The PET matrix behind `model` is also used for deadline assignment
/// (Eq. 4 needs avg_i / avg_all).
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
