#pragma once
// A workload trial: the full, time-sorted list of task specs fed to one
// simulation run.  (The warm-up/cool-down trimming of §V-B — "The first and
// last 100 tasks in each workload trial are removed from the data" — is
// sim::Metrics::enableOnlineCounting.)

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "workload/arrival.h"
#include "workload/deadline.h"
#include "workload/pet_matrix.h"

namespace hcs::workload {

struct TaskSpec {
  sim::TaskType type = 0;
  sim::Time arrival = 0;
  sim::Time deadline = 0;
  double value = 1.0;  ///< relative worth (priority-aware pruning, §VII)
};

/// One trial's task list.  Immutable after construction.
class Workload {
 public:
  Workload(std::vector<TaskSpec> tasks, int numTaskTypes);

  /// Generates a trial: arrivals per `arrivalSpec`, deadlines per
  /// `deadlineSpec` against the PET matrix.  Deterministic per seed —
  /// reruns with the same seed reproduce the trial exactly, which stands in
  /// for the paper's published trace files (dead link; DESIGN.md §7).
  static Workload generate(const PetMatrix& pet, const ArrivalSpec& arrival,
                           const DeadlineSpec& deadline, std::uint64_t seed);

  const std::vector<TaskSpec>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  int numTaskTypes() const { return numTaskTypes_; }

 private:
  std::vector<TaskSpec> tasks_;
  int numTaskTypes_ = 0;
};

}  // namespace hcs::workload
