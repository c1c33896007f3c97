#pragma once
// The trial loop: N independent clusters behind a gateway.
//
// This is the simulator's one event loop.  core::Simulation runs it with
// one cluster, zero dispatch latency and accept_all admission; federated
// scenarios run it with many.  A FederatedSimulation owns one full
// resource-allocation stack per cluster — Scheduler (heuristic + pruner +
// PCT cache), EventQueue, machines, metrics, and a *split per-cluster RNG
// stream* — plus a gateway that walks the global arrival stream in time
// order and routes every task by a pluggable RoutingPolicy.  Routed tasks
// reach their cluster immediately or after a configurable inter-cluster
// dispatch latency.  Failure retries have one path: each scheduler hands
// them to the gateway's retry heap, and they re-enter the gateway like
// arrivals (re-routed, re-admitted).
//
// Reproducibility contracts:
//  - Cluster 0 keeps the trial's base execution-RNG stream and clusters run
//    their events in deterministic (time, cluster, seq) order, so a
//    single-cluster trial's results do not depend on how many clusters
//    other scenarios configure.
//  - Cluster c > 0 derives its stream from the same seed via a splitmix64
//    step, so paired-seed sweeps (same run.seed, different cluster counts or
//    routing policies) stay paired.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "fed/admission.h"
#include "fed/routing.h"
#include "heuristics/context.h"
#include "heuristics/pct_cache.h"
#include "prob/rng.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::fed {

/// Shape of a federation, independent of the per-cluster simulation config.
struct FederationSpec {
  std::size_t clusters = 1;
  RoutingPolicyKind routing = RoutingPolicyKind::RoundRobin;
  /// Gateway-to-cluster delivery delay (time units).  0 = a routed task
  /// arrives at its cluster at its global arrival time, exactly as the
  /// single-cluster engine sees it.
  double dispatchLatency = 0.0;
  /// Gateway admission control: applied after routing to every task that
  /// enters the gateway (stream arrivals AND failure retries).  A refused
  /// task spills to sibling clusters in ascending index order (when
  /// spillover is on); a federation-wide refusal rejects it outright.  The
  /// accept_all default keeps the fault-free identity contracts intact.
  AdmissionConfig admission;
  /// Per-cluster elastic-capacity overrides.  Empty = every cluster runs
  /// the shared SimulationConfig.elasticity block; otherwise exactly one
  /// fully-resolved config per cluster (the bind layer merges scenario
  /// overrides and fills each cluster's baseMachines/pool).
  std::vector<sim::ElasticityConfig> clusterElasticity;
  /// Optional sink receiving every task lifecycle transition together with
  /// the cluster it happened on.
  std::function<void(std::size_t cluster, const sim::TraceEvent&)> traceSink;
};

/// Execution-RNG seed of cluster `cluster`, split from the trial seed.
/// Cluster 0 keeps the base stream (the N=1 identity); higher clusters get
/// independent splitmix64-derived streams from the same seed.
std::uint64_t clusterExecutionSeed(std::uint64_t base, std::size_t cluster);

/// One cluster's share of a federated trial.
struct ClusterOutcome {
  sim::Metrics metrics;
  std::size_t tasksRouted = 0;
  std::size_t mappingEvents = 0;
  /// Time of the last event processed on this cluster (0 if none).
  sim::Time lastEvent = 0;
  std::vector<double> machineUtilization;
  std::vector<double> fairnessScores;
};

/// Everything a federated trial produces: the aggregate (cross-cluster)
/// trial result plus the per-cluster breakdown.
struct FederatedTrialResult {
  /// Aggregate result in the single-cluster shape — metrics merged across
  /// clusters, utilizations concatenated cluster-major — so the experiment
  /// layer aggregates federated and plain trials with the same code.
  core::TrialResult total;
  std::vector<ClusterOutcome> clusters;
};

/// Runs one workload trial through the federation.  Deterministic: the same
/// models, workload, config, and spec always produce the same result.
///
/// The gateway accepts either a materialized Workload or a TaskStream; both
/// are served as a stream, tasks created as the gateway reaches them.  A
/// Workload's pool never recycles (ids = arrival indices); a TaskStream's
/// pool gives terminal tasks' slots back, so memory stays bounded by the
/// in-flight window.  Warm-up trimming is decided online either way, and
/// the streamed trial reproduces the materialized TrialResult exactly.
class FederatedSimulation {
 public:
  /// `models` (one per cluster, all sharing the workload's task-type count
  /// and PET bin width) must outlive run().
  FederatedSimulation(std::vector<const sim::ExecutionModel*> models,
                      const workload::Workload& workload,
                      core::SimulationConfig config, FederationSpec spec);

  /// Streamed-arrival federated trial; `models` and `stream` must outlive
  /// run().
  FederatedSimulation(std::vector<const sim::ExecutionModel*> models,
                      workload::TaskStream& stream,
                      core::SimulationConfig config, FederationSpec spec);

  FederatedTrialResult run();

 private:
  void validate(int numTaskTypes);

  std::vector<const sim::ExecutionModel*> models_;
  const workload::Workload* workload_ = nullptr;
  workload::TaskStream* stream_ = nullptr;
  core::SimulationConfig config_;
  FederationSpec spec_;
};

}  // namespace hcs::fed
