// End-to-end benchmark program for one scenario document.
//
// Untraced (default): times the scenario's set-up (load + grid expansion +
// one PET synthesis per distinct model), then runs the whole grid through
// exp::runSweep — the entry point `hcs_sim run` uses — once untimed and
// then repeatedly for --seconds, and reports medians over the timed
// repetitions.  Times are scaled by a host-speed probe run around every
// repetition (see hostProbeSeconds), so host drift on a shared machine
// does not move them.
//
// Traced (--trace): alternates untraced repetitions with a span-recording
// replica of runSweep that drives each grid point's trials itself (the
// public seed functions + exp::ParallelExecutor) and wraps the public
// extension points: heuristic factories, a forwarding TaskStream and a
// counting trace sink.  Nothing inside the library is instrumented, so the
// replica must reproduce the untraced per-point digests exactly; a
// mismatch fails the point.
//
// Prints one JSON object on stdout (see perfbench/README.md).
// perfbench/run.py builds this binary, checks its digests against the
// committed references and prints the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "fed/federation.h"
#include "heuristics/registry.h"
#include "prob/arena.h"
#include "util/json.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace {

using namespace hcs;
using Clock = std::chrono::steady_clock;
using util::JsonValue;

constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(sim::TraceEventKind::MachineRetired) + 1;

// ---------------------------------------------------------------------------
// Small utilities

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t nanosSince(Clock::time_point since, Clock::time_point at) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(at - since)
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Peak resident set of this process image.  VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so a large launcher does not leak in.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host-speed probe
//
// On a shared VM the host's speed drifts by 20-40% over tens of seconds
// (other tenants' load on caches and cores), and every wall and CPU time
// moves with it, so run-to-run spread of raw times exceeds the bounds.  The
// probe is a fixed mini event loop — a binary heap of event times and a
// scan over a small ready-time array per event, the same kind of work as
// the simulator's event loop and map() — kept here, not in the library, so
// no change to the program moves it.  Timed right before and after every
// repetition, it tells how fast the host ran around that repetition; the
// timed end-to-end metrics are then stated in reference seconds: times on a
// host on which one probe takes kReferenceProbeSeconds.

constexpr double kReferenceProbeSeconds = 0.025;

double hostProbeSeconds() {
  static volatile double sink = 0.0;
  const Clock::time_point start = Clock::now();
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  const auto uniform = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state >> 11) * 0x1.0p-53;
  };
  using Event = std::pair<double, std::uint32_t>;
  std::vector<Event> heap;
  for (std::uint32_t id = 0; id < 4096; ++id) {
    heap.emplace_back(uniform(), id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  std::vector<double> ready(256, 0.0);
  double total = 0.0;
  for (int step = 0; step < 60000; ++step) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Event event = heap.back();
    heap.pop_back();
    const auto best = std::min_element(ready.begin(), ready.end());
    *best = std::max(*best, event.first) + uniform();
    total += *best;
    heap.emplace_back(event.first + uniform(), event.second);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  sink = sink + total;
  return secondsSince(start);
}

/// Small dense id for the calling thread (span "tid").
int threadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string snakeCase(std::string_view camel) {
  std::string out;
  for (const char c : camel) {
    if (c >= 'A' && c <= 'Z') {
      if (!out.empty()) out += '_';
      out += static_cast<char>(c - 'A' + 'a');
    } else {
      out += c;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Outcome digests

/// FNV-1a over a canonical text rendering of every ExperimentResult
/// aggregate, each double in hexfloat (exact) form.
std::string digestOf(const exp::ExperimentResult& r) {
  std::ostringstream text;
  text << std::hexfloat;
  const auto stat = [&](const stats::RunningStats& s) {
    text << s.count() << ' ' << s.mean() << ' ' << s.variance() << ' '
         << s.min() << ' ' << s.max() << '\n';
  };
  for (const stats::RunningStats* s :
       {&r.robustness, &r.completedLatePct, &r.droppedReactivePct,
        &r.droppedProactivePct, &r.deferralsPerTask, &r.meanUtilization,
        &r.abandonedPct, &r.rejectedPct, &r.retriesPerTask,
        &r.failedThenMetPct, &r.machineFailures, &r.utilizationPct,
        &r.machineSeconds, &r.scaleUps, &r.scaleDowns}) {
    stat(*s);
  }
  text << r.robustnessCi.mean << ' ' << r.robustnessCi.halfWidth << '\n';
  for (const double x : r.perTrialRobustness) text << x << ' ';

  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  return hex;
}

std::string pointLabel(const exp::ScenarioDoc& doc,
                       const exp::GridPoint& point) {
  std::string label;
  for (std::size_t a = 0; a < point.labels.size(); ++a) {
    if (a > 0) label += ' ';
    label += doc.axes[a].label + "=" + point.labels[a];
  }
  return label.empty() ? "base" : label;
}

// ---------------------------------------------------------------------------
// Scenario set-up

exp::ScenarioDoc loadDoc(const std::string& path, std::uint64_t seed) {
  exp::ScenarioDoc doc = exp::loadScenarioDoc(path);
  exp::setJsonPath(doc.base, "run.seed",
                   JsonValue(static_cast<double>(seed)));
  return doc;
}

/// Binds grid points against PET models shared by scenarioModelKey, the
/// way runSweep does.
class ModelCache {
 public:
  exp::BoundScenario bind(const exp::ScenarioSpec& spec) {
    std::shared_ptr<const exp::PaperScenario>& cached =
        models_[exp::scenarioModelKey(spec)];
    exp::BoundScenario bound = exp::bindScenario(spec, cached);
    cached = bound.paper;
    return bound;
  }

 private:
  std::map<std::string, std::shared_ptr<const exp::PaperScenario>> models_;
};

const workload::PetMatrix& petOf(const exp::BoundScenario& bound) {
  return bound.federated ? bound.fedModels.front()->matrix()
                         : bound.model->matrix();
}

/// The set-up a user pays before a sweep: parse, expand, and one PET
/// synthesis per distinct model.
double timeSetup(const std::string& path, std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  const exp::ScenarioDoc doc = loadDoc(path, seed);
  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  std::set<std::string> keys;
  for (const exp::GridPoint& point : grid) {
    if (keys.insert(exp::scenarioModelKey(point.spec)).second) {
      (void)exp::bindScenario(point.spec);
    }
  }
  return secondsSince(start);
}

/// Every task the sweep's trials create (warm-up tasks included), counted
/// by replaying each trial's arrival stream.
std::uint64_t countTasks(const std::vector<exp::GridPoint>& grid) {
  ModelCache cache;
  std::uint64_t tasks = 0;
  for (const exp::GridPoint& point : grid) {
    const exp::BoundScenario bound = cache.bind(point.spec);
    const exp::ExperimentSpec& spec = bound.experiment;
    for (std::size_t t = 0; t < spec.trials; ++t) {
      const std::unique_ptr<workload::TaskStream> stream =
          workload::openTaskStream(spec.stream, petOf(bound), spec.arrival,
                                   spec.deadline, spec.baseSeed + t);
      while (stream->peek() != nullptr) {
        (void)stream->pop();
        ++tasks;
      }
    }
  }
  return tasks;
}

// ---------------------------------------------------------------------------
// One repetition of the whole grid

struct Repetition {
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  std::vector<std::string> digests;  ///< per grid point; empty = threw
  std::vector<double> robustness;    ///< per grid point
  std::string error;
};

Repetition runUntraced(const exp::ScenarioDoc& doc) {
  Repetition rep;
  const double cpu0 = processCpuSeconds();
  const Clock::time_point start = Clock::now();
  try {
    const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(doc);
    rep.wallSeconds = secondsSince(start);
    rep.cpuSeconds = processCpuSeconds() - cpu0;
    for (const exp::SweepOutcome& o : outcomes) {
      rep.digests.push_back(digestOf(o.result));
      rep.robustness.push_back(o.result.robustnessMean());
    }
  } catch (const std::exception& e) {
    rep.wallSeconds = secondsSince(start);
    rep.cpuSeconds = processCpuSeconds() - cpu0;
    rep.error = e.what();
  }
  return rep;
}

// ---------------------------------------------------------------------------
// Tracing: spans and per-trial probes

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  long trial = -1;           ///< global trial id; -1 outside trials
  int thread = 0;
  std::int64_t startNs = 0;  ///< since the traced repetition began
  std::int64_t durNs = 0;    ///< summed busy time for aggregate spans
  std::uint64_t calls = 1;   ///< calls folded into an aggregate span
};

/// Everything one trial records.  A trial runs on one thread, so the
/// probes below write here without synchronisation.
struct TrialProbe {
  std::int64_t generateNs = 0;
  std::int64_t produceNs = 0;
  std::uint64_t pulls = 0;
  std::int64_t mapNs = 0;
  std::uint64_t mapCalls = 0;
  std::int64_t selectNs = 0;
  std::uint64_t selectCalls = 0;
  std::uint64_t candidates = 0;
  std::uint64_t assigned = 0;
  std::int64_t runNs = 0;
  /// Last PCT-cache snapshot of each scheduler (one per cluster).
  std::vector<heuristics::PctCache::Stats> pctCaches;
  std::array<std::uint64_t, kEventKinds> events{};
  prob::PmfArena::Stats arena;
  core::TrialResult result;
  std::vector<Span> spans;
};

/// Forwards to a registry batch heuristic, timing map() and recording the
/// candidates it was offered.  name() and consumesBatchQueue() forward too:
/// the engine picks its code path from the latter.
class TimedBatchHeuristic final : public heuristics::BatchHeuristic {
 public:
  TimedBatchHeuristic(std::unique_ptr<heuristics::BatchHeuristic> inner,
                      TrialProbe& probe)
      : inner_(std::move(inner)), probe_(probe),
        slot_(probe.pctCaches.size()) {
    probe.pctCaches.emplace_back();
  }

  std::string_view name() const override { return inner_->name(); }
  bool consumesBatchQueue() const override {
    return inner_->consumesBatchQueue();
  }

  std::vector<heuristics::Assignment> map(
      const heuristics::MappingContext& ctx,
      std::span<const sim::TaskId> batch) override {
    std::size_t offered = batch.size();
    if (batch.empty() && ctx.batchQueue() != nullptr) {
      // Empty span = "read the queue": the candidates are its live,
      // non-deferred tasks.
      ctx.batchQueue()->liveCandidates(scratch_);
      offered = scratch_.size();
    }
    const Clock::time_point start = Clock::now();
    std::vector<heuristics::Assignment> out = inner_->map(ctx, batch);
    probe_.mapNs += nanosSince(start, Clock::now());
    ++probe_.mapCalls;
    probe_.candidates += offered;
    probe_.assigned += out.size();
    if (ctx.pctCache() != nullptr) {
      probe_.pctCaches[slot_] = ctx.pctCache()->stats();
    }
    return out;
  }

 private:
  std::unique_ptr<heuristics::BatchHeuristic> inner_;
  TrialProbe& probe_;
  std::size_t slot_;
  std::vector<sim::TaskId> scratch_;
};

class TimedImmediateHeuristic final : public heuristics::ImmediateHeuristic {
 public:
  TimedImmediateHeuristic(
      std::unique_ptr<heuristics::ImmediateHeuristic> inner,
      TrialProbe& probe)
      : inner_(std::move(inner)), probe_(probe),
        slot_(probe.pctCaches.size()) {
    probe.pctCaches.emplace_back();
  }

  std::string_view name() const override { return inner_->name(); }

  sim::MachineId selectMachine(const heuristics::MappingContext& ctx,
                               sim::TaskId task) override {
    const Clock::time_point start = Clock::now();
    const sim::MachineId machine = inner_->selectMachine(ctx, task);
    probe_.selectNs += nanosSince(start, Clock::now());
    ++probe_.selectCalls;
    ++probe_.candidates;
    ++probe_.assigned;
    if (ctx.pctCache() != nullptr) {
      probe_.pctCaches[slot_] = ctx.pctCache()->stats();
    }
    return machine;
  }

 private:
  std::unique_ptr<heuristics::ImmediateHeuristic> inner_;
  TrialProbe& probe_;
  std::size_t slot_;
};

/// Forwards the pulls of the stream openTaskStream returned, timing each.
class TimedTaskStream final : public workload::TaskStream {
 public:
  TimedTaskStream(std::unique_ptr<workload::TaskStream> inner,
                  TrialProbe& probe)
      : TaskStream(inner->numTaskTypes()), inner_(std::move(inner)),
        probe_(probe) {}

 protected:
  bool produce(workload::TaskSpec& out) override {
    const Clock::time_point start = Clock::now();
    const bool more = inner_->peek() != nullptr;
    if (more) out = inner_->pop();
    probe_.produceNs += nanosSince(start, Clock::now());
    probe_.pulls += more ? 1 : 0;
    return more;
  }

 private:
  std::unique_ptr<workload::TaskStream> inner_;
  TrialProbe& probe_;
};

void installProbes(core::SimulationConfig& config, TrialProbe& probe) {
  const std::string name = config.heuristic;
  const heuristics::HeuristicOptions options = config.heuristicOptions;
  if (core::allocationModeFor(config) == core::AllocationMode::Batch) {
    config.customBatchHeuristic = [name, options, &probe] {
      return std::make_unique<TimedBatchHeuristic>(
          heuristics::makeBatch(name, options), probe);
    };
  } else {
    config.customImmediateHeuristic = [name, options, &probe] {
      return std::make_unique<TimedImmediateHeuristic>(
          heuristics::makeImmediate(name, options), probe);
    };
  }
  config.traceSink = [&probe](const sim::TraceEvent& e) {
    ++probe.events[static_cast<std::size_t>(e.kind)];
  };
}

/// The trial recipe of exp::TrialRunner / fed::runFederatedExperiment,
/// spelled out so generation and simulation get spans of their own.
void runTracedTrial(const exp::BoundScenario& bound, std::size_t trial,
                    Clock::time_point epoch, TrialProbe& probe) {
  const exp::ExperimentSpec& spec = bound.experiment;
  const std::uint64_t workloadSeed = spec.baseSeed + trial;
  core::SimulationConfig config = spec.sim;
  config.executionSeed = exp::executionSeedFor(workloadSeed);
  config.faultSeed = exp::faultSeedFor(workloadSeed);
  config.elasticitySeed = exp::elasticitySeedFor(workloadSeed);
  installProbes(config, probe);

  const prob::PmfArena::Stats arena0 = prob::PmfArena::local().stats();
  const auto simulate = [&](auto& arrivals) {
    const Clock::time_point start = Clock::now();
    if (bound.federated) {
      std::vector<const sim::ExecutionModel*> models(bound.fedModels.begin(),
                                                     bound.fedModels.end());
      probe.result = fed::FederatedSimulation(std::move(models), arrivals,
                                              config, bound.federation)
                         .run()
                         .total;
    } else {
      probe.result = core::Simulation(*bound.model, arrivals, config).run();
    }
    probe.runNs = nanosSince(start, Clock::now());
    probe.spans.push_back(Span{"core.run", 0, 0, -1, threadIndex(),
                               nanosSince(epoch, start), probe.runNs, 1});
  };
  if (spec.stream.enabled) {
    TimedTaskStream stream(
        workload::openTaskStream(spec.stream, petOf(bound), spec.arrival,
                                 spec.deadline, workloadSeed),
        probe);
    simulate(stream);
  } else {
    const Clock::time_point start = Clock::now();
    const workload::Workload wl = workload::Workload::generate(
        petOf(bound), spec.arrival, spec.deadline, workloadSeed);
    probe.generateNs = nanosSince(start, Clock::now());
    probe.spans.push_back(Span{"workload.generate", 0, 0, -1, threadIndex(),
                               nanosSince(epoch, start), probe.generateNs,
                               1});
    simulate(wl);
  }
  const prob::PmfArena::Stats& arena1 = prob::PmfArena::local().stats();
  probe.arena.acquires = arena1.acquires - arena0.acquires;
  probe.arena.allocations = arena1.allocations - arena0.allocations;
  probe.arena.recycles = arena1.recycles - arena0.recycles;
}

/// Sums over every trial of a traced repetition.
struct LayerTotals {
  double parseNs = 0, bindNs = 0, trialNs = 0, generateNs = 0,
         produceNs = 0, runNs = 0, mapNs = 0, parallelCapacityNs = 0;
  std::vector<double> pointNs;
  double mapCalls = 0, candidates = 0, assigned = 0, mappingEvents = 0;
  double onTime = 0, pctHits = 0, pctMisses = 0;
  double arenaAcquires = 0, arenaAllocations = 0;
  std::array<double, kEventKinds> events{};
};

struct TracedRepetition {
  Repetition rep;
  LayerTotals totals;
  std::vector<Span> spans;
  std::size_t trialThreadsPerPoint = 0;  ///< most threads one point used
};

TracedRepetition runTraced(const std::string& path, std::uint64_t seed) {
  TracedRepetition out;
  LayerTotals& tot = out.totals;
  std::uint64_t nextId = 1;
  const auto addSpan = [&](Span span) {
    span.id = nextId++;
    out.spans.push_back(span);
    return span.id;
  };

  const double cpu0 = processCpuSeconds();
  const Clock::time_point epoch = Clock::now();
  try {
    const exp::ScenarioDoc doc = loadDoc(path, seed);
    std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
    tot.parseNs = static_cast<double>(nanosSince(epoch, Clock::now()));
    addSpan(Span{"exp.parse", 0, 0, -1, threadIndex(), 0,
                 static_cast<std::int64_t>(tot.parseNs), 1});

    ModelCache cache;
    long trialBase = 0;
    for (const exp::GridPoint& point : grid) {
      const Clock::time_point pointStart = Clock::now();
      const std::uint64_t pointId = nextId++;

      const exp::BoundScenario bound = cache.bind(point.spec);
      const std::int64_t bindNs = nanosSince(pointStart, Clock::now());
      tot.bindNs += static_cast<double>(bindNs);
      addSpan(Span{"exp.bind", 0, pointId, -1, threadIndex(),
                   nanosSince(epoch, pointStart), bindNs, 1});

      const exp::ExperimentSpec& spec = bound.experiment;
      std::vector<TrialProbe> probes(spec.trials);
      std::vector<std::int64_t> trialStart(spec.trials), trialNs(spec.trials);
      std::vector<int> trialThread(spec.trials);
      const Clock::time_point trialsStart = Clock::now();
      exp::ParallelExecutor(spec.jobs).run(spec.trials, [&](std::size_t t) {
        const Clock::time_point start = Clock::now();
        runTracedTrial(bound, t, epoch, probes[t]);
        trialStart[t] = nanosSince(epoch, start);
        trialNs[t] = nanosSince(start, Clock::now());
        trialThread[t] = threadIndex();
      });
      const std::int64_t trialsWallNs = nanosSince(trialsStart, Clock::now());

      std::vector<core::TrialResult> results;
      for (std::size_t t = 0; t < spec.trials; ++t) {
        TrialProbe& p = probes[t];
        const long trialId = trialBase + static_cast<long>(t);
        const std::uint64_t trialSpan =
            addSpan(Span{"exp.trial", 0, pointId, trialId, trialThread[t],
                         trialStart[t], trialNs[t], 1});
        std::uint64_t runSpan = 0;
        for (Span s : p.spans) {
          s.parent = trialSpan;
          s.trial = trialId;
          const std::uint64_t id = addSpan(s);
          if (std::string_view(s.name) == "core.run") runSpan = id;
        }
        // Per-call spans would number in the millions; heuristic calls and
        // stream pulls are kept as one aggregate span per trial whose
        // duration is the summed busy time.
        const std::int64_t runStart =
            p.spans.empty() ? trialStart[t] : p.spans.back().startNs;
        const auto aggregate = [&](const char* name, std::int64_t ns,
                                   std::uint64_t calls) {
          if (calls > 0) {
            addSpan(Span{name, 0, runSpan, trialId, trialThread[t], runStart,
                         ns, calls});
          }
        };
        aggregate("heuristics.map", p.mapNs, p.mapCalls);
        aggregate("heuristics.select", p.selectNs, p.selectCalls);
        aggregate("workload.produce", p.produceNs, p.pulls);

        tot.trialNs += static_cast<double>(trialNs[t]);
        tot.generateNs += static_cast<double>(p.generateNs);
        tot.produceNs += static_cast<double>(p.produceNs);
        tot.runNs += static_cast<double>(p.runNs);
        tot.mapNs += static_cast<double>(p.mapNs + p.selectNs);
        tot.mapCalls += static_cast<double>(p.mapCalls + p.selectCalls);
        tot.candidates += static_cast<double>(p.candidates);
        tot.assigned += static_cast<double>(p.assigned);
        tot.mappingEvents += static_cast<double>(p.result.mappingEvents);
        tot.onTime += static_cast<double>(p.result.metrics.completedOnTime());
        for (const heuristics::PctCache::Stats& s : p.pctCaches) {
          tot.pctHits += static_cast<double>(s.hits());
          tot.pctMisses += static_cast<double>(s.misses());
        }
        tot.arenaAcquires += static_cast<double>(p.arena.acquires);
        tot.arenaAllocations += static_cast<double>(p.arena.allocations);
        for (std::size_t k = 0; k < kEventKinds; ++k) {
          tot.events[k] += static_cast<double>(p.events[k]);
        }
        results.push_back(std::move(p.result));
      }
      trialBase += static_cast<long>(spec.trials);
      out.trialThreadsPerPoint = std::max(
          out.trialThreadsPerPoint,
          std::set<int>(trialThread.begin(), trialThread.end()).size());

      const exp::ExperimentResult result =
          exp::aggregateTrialResults(results);
      out.rep.digests.push_back(digestOf(result));

      const std::int64_t pointNs = nanosSince(pointStart, Clock::now());
      tot.pointNs.push_back(static_cast<double>(pointNs));
      const std::size_t lanes =
          std::min(exp::resolveJobs(spec.jobs), spec.trials);
      tot.parallelCapacityNs +=
          static_cast<double>(lanes) * static_cast<double>(trialsWallNs);
      out.spans.push_back(Span{"exp.point", pointId, 0, -1, threadIndex(),
                               nanosSince(epoch, pointStart), pointNs, 1});
    }
  } catch (const std::exception& e) {
    out.rep.error = e.what();
  }
  out.rep.wallSeconds = secondsSince(epoch);
  out.rep.cpuSeconds = processCpuSeconds() - cpu0;
  return out;
}

/// Per-layer metrics of one traced repetition.
std::map<std::string, double> layerMetrics(const TracedRepetition& traced,
                                           double tasks) {
  const LayerTotals& t = traced.totals;
  const auto events = [&](sim::TraceEventKind kind) {
    return t.events[static_cast<std::size_t>(kind)];
  };
  double allEvents = 0;
  for (const double e : t.events) allEvents += e;
  const double runSelfNs = t.runNs - t.mapNs - t.produceNs;

  std::map<std::string, double> m;
  m["exp.parse_s"] = 1e-9 * t.parseNs;
  m["exp.bind_s"] = 1e-9 * t.bindNs;
  m["exp.point_s_p50"] = 1e-9 * median(t.pointNs);
  m["exp.trial_busy_s"] = 1e-9 * t.trialNs;
  m["exp.parallel_efficiency"] = ratio(t.trialNs, t.parallelCapacityNs);
  // One figure for whichever arrival source the workload uses, so no
  // workload reports a time that is 0 by construction.
  m["workload.source_s"] = 1e-9 * (t.generateNs + t.produceNs);
  m["workload.share"] = ratio(t.generateNs + t.produceNs, t.trialNs);
  m["core.run_self_s"] = 1e-9 * runSelfNs;
  m["core.mapping_events_per_task"] = ratio(t.mappingEvents, tasks);
  m["core.us_per_mapping_event"] = ratio(1e-3 * runSelfNs, t.mappingEvents);
  m["heuristics.map_s"] = 1e-9 * t.mapNs;
  m["heuristics.map_share"] = ratio(t.mapNs, t.trialNs);
  m["heuristics.calls_per_task"] = ratio(t.mapCalls, tasks);
  m["heuristics.candidates_per_call"] = ratio(t.candidates, t.mapCalls);
  m["heuristics.us_per_candidate"] = ratio(1e-3 * t.mapNs, t.candidates);
  m["heuristics.assigned_ratio"] = ratio(t.assigned, t.candidates);
  m["pct_cache.hit_ratio"] = ratio(t.pctHits, t.pctHits + t.pctMisses);
  m["pct_cache.misses_per_task"] = ratio(t.pctMisses, tasks);
  m["pruning.defers_per_task"] =
      ratio(events(sim::TraceEventKind::Deferred), tasks);
  m["pruning.drops_proactive_per_task"] =
      ratio(events(sim::TraceEventKind::DroppedProactive), tasks);
  m["pruning.drops_reactive_per_task"] =
      ratio(events(sim::TraceEventKind::DroppedReactive), tasks);
  m["pruning.useful_start_ratio"] =
      ratio(t.onTime, events(sim::TraceEventKind::Started));
  m["prob.arena_acquires_per_task"] = ratio(t.arenaAcquires, tasks);
  m["prob.arena_alloc_ratio"] = ratio(t.arenaAllocations, t.arenaAcquires);
  m["sim.trace_events_per_task"] = ratio(allEvents, tasks);
  for (std::size_t k = 0; k < kEventKinds; ++k) {
    m["sim.events_per_task." +
      snakeCase(sim::toString(static_cast<sim::TraceEventKind>(k)))] =
        ratio(t.events[k], tasks);
  }
  m["sim.retries_per_task"] =
      ratio(events(sim::TraceEventKind::Retried), tasks);
  m["sim.machine_failures_per_ktask"] =
      ratio(1000.0 * events(sim::TraceEventKind::MachineFailed), tasks);
  m["fed.rejected_per_task"] =
      ratio(events(sim::TraceEventKind::Rejected), tasks);
  return m;
}

/// Chrome trace-event JSON (loads in Perfetto / chrome://tracing); the
/// span tree is in each event's args.
void writeSpans(const std::string& path, const std::vector<Span>& spans) {
  JsonValue events = JsonValue::makeArray();
  for (const Span& s : spans) {
    JsonValue e = JsonValue::makeObject();
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("pid", 1);
    e.set("tid", s.thread);
    e.set("ts", 1e-3 * static_cast<double>(s.startNs));
    e.set("dur", 1e-3 * static_cast<double>(s.durNs));
    JsonValue args = JsonValue::makeObject();
    args.set("span", static_cast<double>(s.id));
    args.set("parent", static_cast<double>(s.parent));
    args.set("trial", static_cast<double>(s.trial));
    args.set("calls", static_cast<double>(s.calls));
    e.set("args", std::move(args));
    events.append(std::move(e));
  }
  JsonValue root = JsonValue::makeObject();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  std::ofstream file(path);
  file << util::writeJson(root);
  if (!file) throw std::runtime_error("cannot write span file " + path);
}

// ---------------------------------------------------------------------------
// Main

struct Options {
  std::string scenario;
  std::uint64_t seed = 2019;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --scenario FILE [--seed N] [--seconds S]"
               " [--trace --spans FILE]\n";
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--scenario") {
        o.scenario = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = true;
      } else if (arg == "--spans") {
        o.spans = value();
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (o.scenario.empty()) usage("--scenario is required");
  if (o.seed >= (std::uint64_t{1} << 53)) usage("--seed must be < 2^53");
  if (o.trace && o.spans.empty()) usage("--trace needs --spans");
  return o;
}

/// Marks point p failed when a repetition threw or disagreed with `canon`.
void checkAgainst(const Repetition& rep, const std::vector<std::string>& canon,
                  std::vector<std::string>& failures) {
  for (std::size_t p = 0; p < canon.size(); ++p) {
    if (!failures[p].empty()) continue;
    if (!rep.error.empty()) {
      failures[p] = "threw: " + rep.error;
    } else if (rep.digests.size() != canon.size()) {
      failures[p] = "grid size changed between repetitions";
    } else if (rep.digests[p] != canon[p]) {
      failures[p] = "digest " + rep.digests[p] + " != " + canon[p];
    }
  }
}

int run(const Options& opt) {
  const exp::ScenarioDoc doc = loadDoc(opt.scenario, opt.seed);
  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  const double tasks = static_cast<double>(countTasks(grid));

  // Untimed first repetition: page faults, arena and cache warm-up.
  const Repetition first = runUntraced(doc);
  std::vector<std::string> canon = first.digests;
  if (canon.size() != grid.size()) canon.assign(grid.size(), "");
  std::vector<std::string> failures(grid.size());
  checkAgainst(first, canon, failures);

  // Set-up is timed a few times before every repetition rather than all
  // at once, so its samples span the run the way the sweep's do.  Each
  // group of set-ups is scaled by the host probe taken right after it;
  // untraced repetition i by the mean of probes[i] (right before it) and
  // probes[i + 1].
  (void)hostProbeSeconds();  // first touch of its pages and code
  std::vector<double> probes;
  std::vector<double> setups;
  std::vector<double> pendingSetups;
  const auto timeSetups = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      pendingSetups.push_back(timeSetup(opt.scenario, opt.seed));
    }
  };
  const auto probeHost = [&] {
    probes.push_back(hostProbeSeconds());
    for (const double s : pendingSetups) {
      setups.push_back(s * kReferenceProbeSeconds / probes.back());
    }
    pendingSetups.clear();
  };
  std::vector<Repetition> untraced;
  std::vector<TracedRepetition> traced;
  const Clock::time_point start = Clock::now();
  const std::size_t minReps = opt.trace ? 2 : 3;
  while (untraced.size() < minReps || traced.size() < (opt.trace ? minReps : 0) ||
         secondsSince(start) < opt.seconds) {
    timeSetups(5);
    probeHost();
    untraced.push_back(runUntraced(doc));
    checkAgainst(untraced.back(), canon, failures);
    if (opt.trace) {
      traced.push_back(runTraced(opt.scenario, opt.seed));
      checkAgainst(traced.back().rep, canon, failures);
    }
  }
  probeHost();
  if (setups.size() < 25) {
    timeSetups(25 - setups.size());
    probeHost();
  }

  const auto tasksPerSecond = [&](const Repetition& r) {
    return tasks / r.wallSeconds;
  };
  std::vector<double> tps, cpu, wallTps;
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const Repetition& r = untraced[i];
    const double hostScale =
        kReferenceProbeSeconds / (0.5 * (probes[i] + probes[i + 1]));
    tps.push_back(tasksPerSecond(r) / hostScale);
    cpu.push_back(1e3 * r.cpuSeconds * hostScale / (tasks / 1e3));
    wallTps.push_back(tasksPerSecond(r));
  }
  double robustness = 0.0;
  for (const double r : first.robustness) robustness += r;
  robustness /= static_cast<double>(std::max<std::size_t>(1, grid.size()));

  JsonValue metrics = JsonValue::makeObject();
  metrics.set("tasks_per_s", median(tps));
  metrics.set("cpu_ms_per_ktask", median(cpu));
  metrics.set("setup_s", median(setups));
  metrics.set("peak_rss_mb", peakRssMb());
  metrics.set("robustness_pct", robustness);

  JsonValue layers = JsonValue::makeObject();
  if (opt.trace) {
    std::map<std::string, std::vector<double>> perRep;
    std::vector<double> tracedTps;
    std::size_t threads = 0;
    for (const TracedRepetition& t : traced) {
      for (const auto& [name, value] : layerMetrics(t, tasks)) {
        perRep[name].push_back(value);
      }
      tracedTps.push_back(tasksPerSecond(t.rep));
      threads = std::max(threads, t.trialThreadsPerPoint);
    }
    for (const auto& [name, values] : perRep) layers.set(name, median(values));
    layers.set("trace.overhead_ratio", median(wallTps) / median(tracedTps));
    layers.set("host.probe_ms", 1e3 * median(probes));
    layers.set("host.wall_tasks_per_s", median(wallTps));
    layers.set("exp.trial_threads_per_point", threads);
    writeSpans(opt.spans, traced.back().spans);
  }

  JsonValue points = JsonValue::makeArray();
  for (std::size_t p = 0; p < grid.size(); ++p) {
    JsonValue point = JsonValue::makeObject();
    point.set("label", pointLabel(doc, grid[p]));
    point.set("digest", canon[p]);
    point.set("error", failures[p]);
    points.append(std::move(point));
  }

  JsonValue out = JsonValue::makeObject();
  out.set("seed", static_cast<double>(opt.seed));
  out.set("tasks", tasks);
  out.set("jobs", exp::resolveJobs(grid.front().spec.jobs));
  out.set("untraced_reps", untraced.size());
  out.set("traced_reps", traced.size());
  JsonValue wallSamples = JsonValue::makeArray();
  for (const Repetition& r : untraced) wallSamples.append(r.wallSeconds);
  JsonValue probeSamples = JsonValue::makeArray();
  for (const double p : probes) probeSamples.append(p);
  out.set("wall_s", std::move(wallSamples));
  out.set("probe_s", std::move(probeSamples));
  out.set("points", std::move(points));
  out.set("metrics", std::move(metrics));
  out.set("layers", std::move(layers));
  std::cout << util::writeJson(out) << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parseOptions(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
