#pragma once
// Deterministic fork-join execution of independent trial indices.
//
// The experiment layer runs fully independent simulations — the (point,
// trial) units of a sweep, after the paper's §V-A methodology — so the only
// thing a thread pool must guarantee is that results land in per-trial
// slots and are *merged* in trial order afterwards.  ParallelExecutor provides exactly that: a
// fetch-add work queue over [0, n) with no ordering promises during
// execution and all-slots-filled semantics at the join, which keeps every
// aggregate bit-identical to the serial path regardless of the job count.

#include <cstddef>
#include <functional>
#include <thread>

namespace hcs::exp {

/// Resolves a jobs knob: 0 means one job per hardware thread (at least 1),
/// anything else is taken literally.
std::size_t resolveJobs(std::size_t jobs);

class ParallelExecutor {
 public:
  /// `jobs` as passed (0 = auto); the executor resolves it per run().
  explicit ParallelExecutor(std::size_t jobs = 1) : jobs_(jobs) {}

  std::size_t jobs() const { return jobs_; }

  /// Invokes fn(i) for every i in [0, n) and blocks until all calls have
  /// returned.  With an effective job count of 1 (or n <= 1) everything
  /// runs inline on the calling thread — zero threading overhead for the
  /// serial path.  If any fn(i) throws, the exception for the smallest
  /// such i is rethrown after the join (deterministic error reporting).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// Test seam: replaces worker-thread creation inside run() (throw from
  /// the hook to simulate resource exhaustion and exercise the degraded
  /// path).  Pass nullptr to restore the real std::thread path.  Not
  /// thread-safe; tests only.
  static void setSpawnHookForTesting(
      std::thread (*hook)(const std::function<void()>&));

 private:
  std::size_t jobs_;
};

}  // namespace hcs::exp
