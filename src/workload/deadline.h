#pragma once
// Deadline assignment (Eq. 4):
//   delta_i = arr_i + avg_i + beta * avg_all
// where avg_i is the mean execution time of the task's type (across machine
// types), avg_all is the mean over all types, and beta is drawn uniformly
// from [0.8, 2.5] per task (§V-B).

#include "prob/rng.h"
#include "sim/types.h"
#include "workload/pet_matrix.h"

namespace hcs::workload {

struct DeadlineSpec {
  double betaLo = 0.8;
  double betaHi = 2.5;

  bool operator==(const DeadlineSpec&) const = default;
};

/// Computes a task's deadline given its arrival time and type (Eq. 4).
sim::Time assignDeadline(const PetMatrix& pet, sim::TaskType type,
                         sim::Time arrival, const DeadlineSpec& spec,
                         prob::Rng& rng);

}  // namespace hcs::workload
