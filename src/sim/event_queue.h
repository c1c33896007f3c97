#pragma once
// Discrete-event queue driving the simulation.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

/// Mapping events fire "when a task completes its execution or when a new
/// task arrives into the system" (§II); those are the paper's two kinds.
/// The fault-injection layer adds machine churn through the same queue:
/// failures and recoveries are ordinary timed events, so fault-enabled runs
/// keep the engine's total (time, seq) order — and runs with no fault
/// events scheduled are byte-identical to the original two-kind engine.
enum class EventKind {
  /// A task the gateway routed reaches its cluster after the dispatch
  /// latency (arrivals and retries otherwise never pass through the queue).
  TaskArrival,
  TaskCompletion,
  MachineFailure,   ///< the machine in Event.machine goes offline
  MachineRecovery,  ///< the machine in Event.machine rejoins the cluster
  ControllerTick,   ///< periodic capacity-controller evaluation
  CapacityOnline,   ///< a booted machine finishes its provisioning delay
};

struct Event {
  Time time = 0;
  EventKind kind = EventKind::TaskArrival;
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;
  /// Monotone sequence number breaking time ties deterministically
  /// (completions scheduled earlier pop earlier).
  std::uint64_t seq = 0;
};

/// Indexed min-heap of events ordered by (time, seq).
///
/// The heap is 4-ary — shallower than a binary heap for the same size, and
/// the four-child minimum scan is friendlier to the cache line the children
/// share — and every live event's heap position is tracked by its sequence
/// number, so cancel() removes the event *in place*.  The previous
/// implementation parked cancellations in a tombstone set that each pop had
/// to consult and that abort-heavy runs grew without bound; here a
/// cancellation is one O(log4 n) heap repair and the entry is freed eagerly.
/// Because (time, seq) is a total order over unique keys, the pop sequence
/// is bit-identical to the tombstone implementation's.
class EventQueue {
 public:
  void push(Time time, EventKind kind, TaskId task,
            MachineId machine = kInvalidMachine);

  bool empty() const { return heap_.empty(); }
  /// Live (non-cancelled) events; cancelled entries leave the heap at once.
  std::size_t size() const { return heap_.size(); }

  /// The next event to pop.  Never a cancelled event: cancellation removes
  /// entries eagerly instead of hiding them behind a tombstone.
  const Event& top() const { return heap_.front(); }
  Event pop();

  /// Pops the next event, or returns nullopt if none remain.
  std::optional<Event> tryPop();

  /// Voids a previously scheduled event (e.g. the running task was
  /// aborted): the entry is unlinked from the heap immediately.  Cancelling
  /// a seq that is not live — already popped, already cancelled, or never
  /// pushed — is a harmless no-op; nothing is recorded, so a stray seq can
  /// never suppress a future event.
  void cancel(std::uint64_t seq);

  /// Cancellations recorded but not yet applied.  Always zero: cancel()
  /// frees entries eagerly instead of accumulating tombstones.  Kept so
  /// abort-heavy regression tests can assert the invariant.
  std::size_t pendingCancellations() const { return 0; }

  /// Sequence number that the next push() will be assigned; lets callers
  /// remember a completion event so they can cancel it.
  std::uint64_t nextSeq() const { return nextSeq_; }

  /// Width of the position-index window (a memory-bound test hook): the
  /// span from the oldest live event's seq to nextSeq().  Amortized
  /// compaction keeps this proportional to the live-event count rather
  /// than the total pushes of the trial.
  std::size_t posWindow() const { return pos_.size(); }

 private:
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;

  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  void removeAt(std::size_t i);
  void compact();
  void place(std::size_t i, Event e) {
    pos_[e.seq - posBase_] = static_cast<std::uint32_t>(i);
    heap_[i] = std::move(e);
  }

  std::vector<Event> heap_;
  /// pos_[seq - posBase_] = heap index of that event, or kNotInHeap once it
  /// popped or was cancelled.  Sequence numbers are dense (one per push),
  /// so a flat vector replaces the hash probe on every cancel; the window
  /// slides forward (posBase_) via amortized compaction so a long stream's
  /// dead prefix is reclaimed instead of growing 4 bytes per push forever.
  std::vector<std::uint32_t> pos_;
  std::uint64_t posBase_ = 0;
  std::size_t compactAt_ = 1024;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace hcs::sim
