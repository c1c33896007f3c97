#pragma once
// Single-trial simulation: feeds one workload through a configured resource
// allocation system and reports the trial's outcome.  The trial loop itself
// lives in fed/federation.h; a Simulation runs it with one cluster.

#include <vector>

#include "core/config.h"
#include "core/scheduler.h"
#include "sim/metrics.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::core {

/// Everything a trial produces.
struct TrialResult {
  sim::Metrics metrics;

  /// % of counted tasks completed on time — the paper's robustness metric.
  double robustnessPercent = 0.0;

  /// Per-machine busy-time / makespan.
  std::vector<double> machineUtilization;

  /// Final per-type sufferage scores (diagnostics for the Fairness module).
  std::vector<double> fairnessScores;

  std::size_t mappingEvents = 0;
  sim::Time makespan = 0;  ///< time of the last event in the trial

  /// Wall-clock seconds spent inside the batch-mapping section of mapping
  /// events (candidate assembly + heuristic + dispatch/defer decisions).
  /// Populated only when SimulationConfig.measureMappingEngine is set;
  /// 0 otherwise.  Lets benches compare mapping engines without the
  /// simulation substrate (event heap, sampling, metrics) diluting the
  /// signal.
  double mappingEngineSeconds = 0.0;

  /// The PCT cache's deterministic work counters (memo hits/misses and the
  /// decision stages of the deferring check and the proactive walk); all
  /// zero when SimulationConfig.pctCacheEnabled is off.
  heuristics::PctCache::Stats pctCache;
};

/// Runs one workload trial to completion.  Deterministic: the same model,
/// workload, and config always produce the same result.
///
/// A Simulation is the one-cluster entry to the trial loop of
/// fed::FederatedSimulation: one cluster, zero dispatch latency, accept_all
/// admission.  Both arrival sources run through that loop:
///  - materialized (a Workload): served as a stream over a task pool that
///    never recycles, so task ids equal arrival indices;
///  - streamed (a TaskStream): terminal tasks return their TaskPool slots,
///    and memory stays bounded by the in-flight window however long the
///    stream runs.  A streamed trial of the same task sequence produces the
///    identical TrialResult (only trace task ids differ, under slot reuse).
class Simulation {
 public:
  /// `model` must outlive run().
  Simulation(const sim::ExecutionModel& model,
             const workload::Workload& workload, SimulationConfig config);

  /// Streamed-arrival trial; `model` and `stream` must outlive run().
  Simulation(const sim::ExecutionModel& model, workload::TaskStream& stream,
             SimulationConfig config);

  TrialResult run();

 private:
  const sim::ExecutionModel& model_;
  const workload::Workload* workload_ = nullptr;
  workload::TaskStream* stream_ = nullptr;
  SimulationConfig config_;
};

}  // namespace hcs::core
