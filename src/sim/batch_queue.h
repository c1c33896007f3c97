#pragma once
// The indexed arrival (batch) queue of the incremental mapping engine.
//
// The queue must iterate in arrival order (the batch heuristics' contract),
// but the hot mutations are random-access: a dispatch removes one task from
// the middle, and the step-10 deferring check marks one task as out of the
// running for the remainder of the current mapping event.  A plain vector
// made both O(queue) (std::erase plus a per-round rebuild that filtered a
// hash set of deferrals); here removal tombstones the slot in O(1) through
// a dense task-id position index, deferral is a generation stamp (cleared
// for the whole queue in O(1) by bumping the event generation), and
// tombstones are compacted away amortized-O(1) when they outnumber the
// live entries.
//
// A head cursor skips the removed prefix, so a reader that only needs the
// oldest few candidates (FCFS-RR's K free slots, the queue front) walks
// O(K) entries instead of O(queue): dispatch removes tasks mostly from the
// front, and those tombstones are never revisited.
//
// Consumers that keep derived structures (the per-type buckets of the
// two-phase heuristics and EDF/SJF) stay in sync *without rescanning*:
// every task carries a stable arrival sequence number, and every push/
// remove is appended to a mutation journal the consumer replays from its
// last position — per mapping event that is O(what changed), not O(queue).
// Recording starts at the first consumer's requestJournal(), so a queue
// nobody replays never grows a journal, and the consumer releases what it
// replayed, so the journal holds only the mutations since its last sync —
// or, if the consumer stays away long enough that a rebuild from the live
// queue would be cheaper than the replay, none at all.

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

class BatchQueue {
 public:
  struct JournalEntry {
    enum class Op : std::uint8_t { Push, Remove };
    Op op = Op::Push;
    TaskId task = kInvalidTask;
    /// The task's arrivalSeq — carried here so a Remove can still be
    /// located in seq-keyed consumer structures after the queue forgot it.
    std::uint64_t seq = 0;
  };

  bool empty() const { return liveCount_ == 0; }
  std::size_t size() const { return liveCount_; }

  /// Opens a new mapping event: all deferral marks from the previous event
  /// expire at once (no per-entry clearing).
  void beginEvent() { ++eventGen_; }

  void push(TaskId task) {
    const auto idx = static_cast<std::size_t>(task);
    if (posByTask_.size() <= idx) posByTask_.resize(idx + 1, kNoPos);
    posByTask_[idx] = static_cast<std::uint32_t>(entries_.size());
    const std::uint64_t seq = nextArrivalSeq_++;
    entries_.push_back(Entry{task, seq, 0});
    ++liveCount_;
    record(JournalEntry{JournalEntry::Op::Push, task, seq});
  }

  /// The oldest live task, kInvalidTask when empty — O(1) off the head
  /// cursor.
  TaskId front() const {
    return head_ < entries_.size() ? entries_[head_].task : kInvalidTask;
  }

  bool contains(TaskId task) const {
    const auto idx = static_cast<std::size_t>(task);
    return idx < posByTask_.size() && posByTask_[idx] != kNoPos;
  }

  /// O(1) stable removal (dispatch or drop): the slot becomes a tombstone,
  /// every other task keeps its arrival order.
  void remove(TaskId task) {
    const std::uint32_t pos = posByTask_[static_cast<std::size_t>(task)];
    posByTask_[static_cast<std::size_t>(task)] = kNoPos;
    entries_[pos].task = kInvalidTask;
    --liveCount_;
    record(JournalEntry{JournalEntry::Op::Remove, task,
                        entries_[pos].arrivalSeq});
    if (pos == head_) {
      // Each tombstone is hopped once: the cursor only moves forward until
      // a compaction (or clear) re-bases every position.
      while (head_ < entries_.size() && entries_[head_].task == kInvalidTask) {
        ++head_;
      }
    }
    maybeCompact();
  }

  /// Step 10: `task` is deferred to the next mapping event — it stays in
  /// the queue but candidate iteration skips it until beginEvent().
  void markDeferred(TaskId task) {
    entries_[posByTask_[static_cast<std::size_t>(task)]].deferGen = eventGen_;
  }

  bool deferredThisEvent(TaskId task) const {
    const auto idx = static_cast<std::size_t>(task);
    if (idx >= posByTask_.size() || posByTask_[idx] == kNoPos) return false;
    return entries_[posByTask_[idx]].deferGen == eventGen_;
  }

  /// Stable per-task arrival sequence number (assigned at push, never
  /// reused); iteration order == ascending arrivalSeq.  The task must be
  /// in the queue.
  std::uint64_t arrivalSeq(TaskId task) const {
    return entries_[posByTask_[static_cast<std::size_t>(task)]].arrivalSeq;
  }

  /// Calls `fn(taskId, arrivalSeq)` for every live task in arrival order.
  /// `fn` must not mutate the queue (collect first, then remove — the
  /// scheduler's existing drop idiom).
  template <class Fn>
  void forEachLive(Fn&& fn) const {
    for (std::size_t i = head_; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.task != kInvalidTask) fn(e.task, e.arrivalSeq);
    }
  }

  /// Calls `fn(taskId)` for the live tasks not deferred this event, in
  /// arrival order, until `fn` returns false — the bounded walk of a reader
  /// that needs only the oldest candidates.  `fn` must not mutate the
  /// queue.
  template <class Fn>
  void forEachCandidate(Fn&& fn) const {
    for (std::size_t i = head_; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.task != kInvalidTask && e.deferGen != eventGen_ && !fn(e.task)) {
        return;
      }
    }
  }

  /// Fills `out` with the live tasks not deferred this event, in arrival
  /// order — the candidate set of one mapping round.
  void liveCandidates(std::vector<TaskId>& out) const {
    out.clear();
    out.reserve(liveCount_);
    forEachCandidate([&](TaskId task) {
      out.push_back(task);
      return true;
    });
  }

  // --- Mutation journal --------------------------------------------------

  /// Monotone count of mutations since recording started (or the last
  /// clear); journalAt(i) is the i-th mutation, for i in [journalBegin(),
  /// journalSize()).  A consumer that remembers its last position replays
  /// exactly the delta.
  std::size_t journalSize() const { return released_ + journal_.size(); }
  const JournalEntry& journalAt(std::size_t i) const {
    return journal_[i - released_];
  }
  /// The oldest mutation still held; earlier ones were released.
  std::size_t journalBegin() const { return released_; }

  /// Discards the mutations before position `pos` — the consumer has
  /// replayed them — so the journal holds only what changed since the
  /// consumer's last sync, not the whole trial's history.
  void releaseJournal(std::size_t pos) const {
    if (pos <= released_) return;
    journal_.erase(journal_.begin(),
                   journal_.begin() +
                       static_cast<std::ptrdiff_t>(pos - released_));
    released_ = pos;
  }

  /// Bumped whenever history is discarded (clear) or recording starts;
  /// consumers holding a journal position from another generation must
  /// rebuild from the live queue.
  std::uint64_t resetGeneration() const { return resetGen_; }

  /// Called by a journal consumer before every replay: the first call
  /// starts recording.  The mutations before it were never recorded, so
  /// the reset generation is bumped and the consumer rebuilds from the
  /// live queue.  The journal is replay bookkeeping, not queue contents,
  /// hence callable on a const queue.
  void requestJournal() const {
    if (journalRecording_) return;
    journalRecording_ = true;
    ++resetGen_;
  }

  void clear() {
    for (const Entry& e : entries_) {
      if (e.task != kInvalidTask) {
        posByTask_[static_cast<std::size_t>(e.task)] = kNoPos;
      }
    }
    entries_.clear();
    journal_.clear();
    released_ = 0;
    liveCount_ = 0;
    head_ = 0;
    ++resetGen_;
  }

 private:
  struct Entry {
    TaskId task;              ///< kInvalidTask once removed (tombstone)
    std::uint64_t arrivalSeq; ///< stable arrival-order stamp
    std::uint64_t deferGen;   ///< event generation of the last deferral
  };

  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  void record(const JournalEntry& entry) {
    if (!journalRecording_) return;
    journal_.push_back(entry);
    // A consumer that stops syncing for a while (the adaptive engine's
    // narrow rounds read spans) must not make the journal grow with the
    // trial: once replaying it would cost more than rebuilding from the
    // live queue, drop it and bump the reset generation, so the consumer
    // rebuilds at its next sync.
    if (journal_.size() > 64 + 4 * liveCount_) {
      released_ += journal_.size();
      journal_.clear();
      ++resetGen_;
    }
  }

  void maybeCompact() {
    if (entries_.size() < 16 || liveCount_ * 2 >= entries_.size()) return;
    std::size_t write = 0;
    for (std::size_t i = head_; i < entries_.size(); ++i) {
      const Entry e = entries_[i];
      if (e.task == kInvalidTask) continue;
      posByTask_[static_cast<std::size_t>(e.task)] =
          static_cast<std::uint32_t>(write);
      entries_[write++] = e;
    }
    entries_.resize(write);
    head_ = 0;
  }

  std::vector<Entry> entries_;  ///< arrival order, with tombstones
  /// task id → position in entries_ (task ids are dense pool indices, so a
  /// flat vector beats hashing); kNoPos when not in the queue.
  std::vector<std::uint32_t> posByTask_;
  /// Mutations [released_, journalSize()); the journal is replay
  /// bookkeeping, not queue contents, hence releasable on a const queue.
  mutable std::vector<JournalEntry> journal_;
  mutable std::size_t released_ = 0;
  std::size_t liveCount_ = 0;
  /// First index of entries_ that may be live: every earlier entry is a
  /// tombstone.
  std::size_t head_ = 0;
  mutable bool journalRecording_ = false;
  std::uint64_t eventGen_ = 1;
  std::uint64_t nextArrivalSeq_ = 0;
  mutable std::uint64_t resetGen_ = 0;
};

}  // namespace hcs::sim
