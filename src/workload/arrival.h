#pragma once
// Arrival-pattern generation (§V-B, Fig. 6).
//
// Two patterns:
//  (A) Constant rate — per task type, inter-arrival gaps drawn from a Gamma
//      distribution whose variance is 10% of its mean.
//  (B) Variable rate ("spiky") — the default: periodic spikes during which
//      the arrival rate rises to three times the base (lull) rate; each
//      spike lasts one third of the lull period.
//
// Both are realized through a piecewise-constant RateProfile and
// time-rescaling: gaps are drawn in *expected-arrival-index* space (mean 1,
// variance 0.1) and mapped back through the inverse cumulative rate, which
// preserves the Gamma inter-arrival discipline within every constant-rate
// segment while following the profile exactly.

#include <cstdint>
#include <vector>

#include "prob/rng.h"
#include "sim/types.h"

namespace hcs::workload {

enum class ArrivalPattern {
  Constant,
  Spiky,
  /// Inhomogeneous Poisson point process (IPPP) with a Gaussian burst-train
  /// intensity, realized by Lewis-Shedler thinning — the construction of
  /// examples/burst_stress.cpp promoted to a first-class pattern:
  ///   lambda(t) = base + peak * sum_k exp(-((t - c_k) / width)^2 / 2)
  /// with burst centers c_k at period/2, 3*period/2, ...  Rates are
  /// absolute (tasks per time unit across ALL types); task types are drawn
  /// uniformly per arrival, so `totalTasks` is ignored.
  Bursty,
};

/// A piecewise-constant arrival-rate function on [0, span).
class RateProfile {
 public:
  struct Segment {
    sim::Time start = 0;
    sim::Time end = 0;
    double rate = 0;  ///< tasks per time unit
  };

  explicit RateProfile(std::vector<Segment> segments);

  /// Flat profile delivering `totalTasks` over `span`.
  static RateProfile constant(sim::Time span, double totalTasks);

  /// Spiky profile delivering `totalTasks` over `span` with `numSpikes`
  /// spikes of `spikeFactor` x the lull rate, each spike lasting one third
  /// of the lull period (paper defaults).
  static RateProfile spiky(sim::Time span, double totalTasks, int numSpikes,
                           double spikeFactor = 3.0);

  sim::Time span() const { return segments_.back().end; }
  const std::vector<Segment>& segments() const { return segments_; }

  double rateAt(sim::Time t) const;

  /// Integral of the rate over [0, t] (expected arrivals by t).
  double cumulative(sim::Time t) const;

  /// Total expected arrivals over the whole span.
  double totalExpected() const { return cumulative(span()); }

  /// Inverse of cumulative(): the time by which `expected` arrivals have
  /// accumulated.  Returns span() if `expected` exceeds the total.
  sim::Time invertCumulative(double expected) const;

 private:
  std::vector<Segment> segments_;
  std::vector<double> cumAtSegmentStart_;
};

/// One generated arrival (deadlines are attached later; see deadline.h).
struct Arrival {
  sim::TaskType type = 0;
  sim::Time time = 0;
};

struct ArrivalSpec {
  ArrivalPattern pattern = ArrivalPattern::Spiky;
  sim::Time span = 1200;         ///< workload time span (time units)
  std::size_t totalTasks = 1500; ///< across all task types
  int numTaskTypes = 12;
  int numSpikes = 6;
  double spikeFactor = 3.0;
  /// Gamma gap discipline: variance of the unit-mean gap distribution
  /// (paper: variance is 10% of the mean).
  double gapVarianceFraction = 0.1;

  /// Bursty (IPPP) pattern only — see ArrivalPattern::Bursty.
  double burstBaseRate = 0.0;  ///< lull arrivals per time unit (all types)
  double burstPeakRate = 0.0;  ///< extra rate at a burst center
  double burstWidth = 1.0;     ///< burst standard deviation (time units)
  double burstPeriod = 0.0;    ///< burst spacing (time units)

  bool operator==(const ArrivalSpec&) const = default;
};

/// Generates the merged, time-sorted arrival list for all task types.
/// Each type gets an equal share of the total and its own independent
/// arrival stream over the same profile shape.
std::vector<Arrival> generateArrivals(const ArrivalSpec& spec, prob::Rng& rng);

}  // namespace hcs::workload
