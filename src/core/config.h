#pragma once
// Simulation-level configuration: cluster shape, resource-allocation mode,
// mapping heuristic, and the pruning plug-in.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "heuristics/registry.h"
#include "pruning/config.h"
#include "sim/elasticity.h"
#include "sim/faults.h"
#include "sim/trace.h"

namespace hcs::core {

/// Immediate-mode maps on arrival only; batch-mode holds an arrival queue
/// and maps at every mapping event (Fig. 1).
enum class AllocationMode {
  Immediate,
  Batch,
};

struct SimulationConfig {
  /// Mapping heuristic name; see heuristics/registry.h for the roster.
  /// RR/MET/MCT/KPB imply immediate mode, the rest batch mode.
  std::string heuristic = "MM";

  heuristics::HeuristicOptions heuristicOptions;

  /// Bring-your-own batch heuristic: when set, overrides `heuristic` and
  /// forces batch mode.  The pruning mechanism wraps it unchanged — the
  /// paper's "plugged into any mapping heuristic" claim, as an API.
  std::function<std::unique_ptr<heuristics::BatchHeuristic>()>
      customBatchHeuristic;

  /// Same for immediate-mode heuristics.
  std::function<std::unique_ptr<heuristics::ImmediateHeuristic>()>
      customImmediateHeuristic;

  /// The pruning mechanism's configuration (PruningConfig::disabled() for
  /// the paper's baselines).
  pruning::PruningConfig pruning;

  /// Max tasks in a machine's system (running + waiting) in batch mode;
  /// immediate mode is always unbounded (an arriving task must be placed).
  std::size_t machineQueueCapacity = 4;

  /// If true, a running task is aborted (counted as a reactive drop) at the
  /// first mapping event after its deadline passes.  Default off: the paper
  /// lets started work finish (it just counts as late).
  bool abortRunningAtDeadline = false;

  /// Memoize PCT convolutions across mapping events, keyed on each
  /// machine's queue epoch (see heuristics/pct_cache.h).  Results are
  /// bit-identical either way; the knob exists so benches can measure the
  /// saving and tests can compare both paths.
  bool pctCacheEnabled = true;

  /// Drive mapping events through the incremental engine: one persistent
  /// MappingContext per trial (epoch-validated ready/exec memos), delta
  /// evaluation inside the two-phase batch heuristics, and the indexed
  /// batch queue's O(1) removal/deferral.  Off = the reference engine
  /// (fresh context and full re-evaluation every round, as Fig. 5 reads).
  /// Reports are bit-identical either way; the knob exists so benches can
  /// measure the saving and tests can compare both engines.
  bool incrementalMappingEnabled = true;

  /// Adaptive engine selection inside the incremental engine: a mapping
  /// round whose batch queue holds fewer than this many live tasks runs the
  /// reference two-phase evaluation (against the SAME persistent context —
  /// the trial-lifetime ready/exec memos still apply), because the
  /// delta-evaluation bookkeeping (journal replay, per-type buckets,
  /// phase-1 diffing) has a fixed per-round cost that only pays for itself
  /// on wide batches.  At or above the threshold the round runs the full
  /// incremental path.  Both evaluations are trace-identical, and the rule
  /// reads nothing but the queue depth — a pure function of simulation
  /// state, never wall clock — so runs stay deterministic and reports stay
  /// byte-identical at ANY threshold.  0 = always incremental (the pre-
  /// adaptive behaviour); ignored when incrementalMappingEnabled is false.
  std::size_t incrementalMapMinQueue = 16;

  /// Accumulate wall-clock time spent in the batch-mapping section of each
  /// mapping event into TrialResult.mappingEngineSeconds (two clock reads
  /// per event).  Off by default — for engine benchmarks only.
  bool measureMappingEngine = false;

  /// Seed for sampling actual execution times.
  std::uint64_t executionSeed = 0x5eed;

  /// Machine churn + retry policy (sim/faults.h).  Inactive configs — the
  /// default — leave the engine byte-identical to the fault-free build.
  sim::FaultConfig faults;

  /// Seed of the dedicated fault RNG stream (failure/repair draws, retry
  /// jitter).  Independent of executionSeed so fault-enabled runs stay
  /// seed-paired with their fault-free twins; exp::faultSeedFor derives it
  /// per trial.
  std::uint64_t faultSeed = 0xfa017;

  /// Elastic capacity control (sim/elasticity.h).  Inactive configs — the
  /// default — arm no controller and leave the engine byte-identical to
  /// the fixed-capacity build.
  sim::ElasticityConfig elasticity;

  /// Seed of the controller's reserved RNG stream.  Independent of the
  /// execution and fault seeds so elastic runs stay seed-paired with their
  /// fixed-capacity twins; exp::elasticitySeedFor derives it per trial.
  std::uint64_t elasticitySeed = 0xe1a5;

  /// Where a failed task's retry re-enters the system: the trial loop
  /// installs a hook that files it in the gateway's retry heap, so retries
  /// are re-routed and re-admitted against the whole federation, not
  /// pinned to the cluster that failed them.  A scheduler asked to retry
  /// a task without one throws.
  std::function<void(sim::TaskId, sim::Time)> retryHook;

  /// First/last arrivals excluded from robustness (§V-B uses 100).
  std::size_t warmupMargin = 100;

  /// Optional sink receiving every task lifecycle transition (see
  /// sim/trace.h).  Null = no tracing (zero overhead).
  sim::TraceSink traceSink;
};

/// Mode implied by the configured heuristic name.
AllocationMode allocationModeFor(const std::string& heuristicName);

/// Mode of a full configuration (accounts for custom heuristic overrides;
/// setting both custom factories is an error).
AllocationMode allocationModeFor(const SimulationConfig& config);

}  // namespace hcs::core
