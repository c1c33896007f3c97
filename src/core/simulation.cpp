#include "core/simulation.h"

#include <stdexcept>

#include "fed/federation.h"

namespace hcs::core {

Simulation::Simulation(const sim::ExecutionModel& model,
                       const workload::Workload& workload,
                       SimulationConfig config)
    : model_(model), workload_(&workload), config_(std::move(config)) {
  if (workload.numTaskTypes() != model.numTaskTypes()) {
    throw std::invalid_argument(
        "Simulation: workload / model task-type count mismatch");
  }
}

Simulation::Simulation(const sim::ExecutionModel& model,
                       workload::TaskStream& stream, SimulationConfig config)
    : model_(model), stream_(&stream), config_(std::move(config)) {
  if (stream.numTaskTypes() != model.numTaskTypes()) {
    throw std::invalid_argument(
        "Simulation: stream / model task-type count mismatch");
  }
}

TrialResult Simulation::run() {
  // One cluster, zero dispatch latency, accept_all admission: the gateway
  // routes every arrival straight to the only scheduler.
  std::vector<const sim::ExecutionModel*> models{&model_};
  fed::FederatedSimulation engine =
      stream_ != nullptr
          ? fed::FederatedSimulation(std::move(models), *stream_, config_, {})
          : fed::FederatedSimulation(std::move(models), *workload_, config_,
                                     {});
  return std::move(engine.run().total);
}

}  // namespace hcs::core
