#pragma once
// Per-task-type views of the incremental engine's batch queue — the one
// index the ordering queue readers keep (the two-phase engine's phase-2
// candidates, EDF/SJF's ordered head; FCFS-RR reads the queue's own
// arrival order and needs none).
//
// Each bucket holds one type's queued tasks sorted by (key, arrival seq),
// the key being a static per-task value the consumer supplies (a constant
// for FIFO-within-type, the deadline, ...).  sync() replays the queue's
// mutation journal since the previous call — O(what changed) per mapping
// event — and rebuilds from the live queue only when the history it holds
// is void: another queue, pool or execution model, or a reset generation
// bump (the first sync starts the queue's journal, which bumps it).  Every
// sync releases what it replayed, so the queue's journal holds only the
// mutations since the last sync.  A removal tombstones its entry instead of
// memmoving the bucket (dead entries keep their (key, seq), so binary
// searches stay exact), a per-type head hops the dead prefix — the common
// death site, since winners are heads — and a bucket is compacted once its
// tombstones outnumber the living.
//
// A Remove is located through the (type, key) its Push was replayed with,
// kept per task slot, and the seq the journal carries — never by
// re-reading the pool: under streaming a terminal task's slot may be
// recycled (and re-pushed) before the journal is replayed.  A Push whose
// slot was already recycled reads the newer task's data, but its Remove
// (which must precede the slot's reuse in the journal) then finds exactly
// the entry that Push made.

#include <cstdint>
#include <vector>

#include "heuristics/context.h"
#include "sim/batch_queue.h"
#include "sim/types.h"

namespace hcs::heuristics {

class TypeBuckets {
 public:
  /// Entry::mark of a tombstone.  Consumers may stamp live entries with
  /// any other value (the two-phase engine's per-call "assigned" stamp);
  /// new entries start at 0.
  static constexpr std::uint32_t kDead = 0xffffffffu;

  struct Entry {
    double key = 0.0;
    std::uint64_t seq = 0;  ///< stable arrival sequence (the tie-break)
    sim::TaskId task = sim::kInvalidTask;
    std::uint32_t mark = 0;
  };

  /// (key, seq) order — the order of every bucket.
  static bool less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }

  /// Brings the buckets in step with ctx.batchQueue() (which must be
  /// attached).  `key(ctx, task)` is read once per pushed task; it must be
  /// a fixed function of the task and the execution model.
  template <class KeyFn>
  void sync(const MappingContext& ctx, const KeyFn& key);

  std::vector<Entry>& bucket(std::size_t type) { return buckets_[type]; }
  const std::vector<Entry>& bucket(std::size_t type) const {
    return buckets_[type];
  }
  /// Per type: the first index that may be live (every earlier entry is a
  /// tombstone).
  const std::vector<std::uint32_t>& heads() const { return head_; }

 private:
  /// What a replayed Push filed its task under, per task slot.
  struct Filed {
    double key = 0.0;
    std::uint32_t type = 0;
  };

  void insert(std::size_t type, const Entry& entry);
  /// Tombstones the live entry (key, seq) of `type`; false when there is
  /// none (journal and buckets disagree).
  bool erase(std::size_t type, double key, std::uint64_t seq);
  void file(sim::TaskId task, const Filed& filed);
  void resetBuckets(std::size_t numTypes);
  void sortBuckets();

  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> dead_;  ///< tombstones per bucket
  std::vector<Filed> filed_;         ///< indexed by task slot
  const sim::BatchQueue* queue_ = nullptr;
  const void* pool_ = nullptr;
  const void* model_ = nullptr;
  std::uint64_t resetGen_ = 0;
  std::size_t journalPos_ = 0;
};

template <class KeyFn>
void TypeBuckets::sync(const MappingContext& ctx, const KeyFn& key) {
  const sim::BatchQueue& queue = *ctx.batchQueue();
  queue.requestJournal();
  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  bool rebuild = queue_ != &queue ||
                 resetGen_ != queue.resetGeneration() ||
                 pool_ != static_cast<const void*>(&ctx.pool()) ||
                 model_ != static_cast<const void*>(&ctx.model()) ||
                 buckets_.size() != numTypes;
  if (!rebuild) {
    const std::size_t journalEnd = queue.journalSize();
    for (std::size_t i = journalPos_; i < journalEnd; ++i) {
      const sim::BatchQueue::JournalEntry& je = queue.journalAt(i);
      if (je.op == sim::BatchQueue::JournalEntry::Op::Push) {
        const Filed filed{key(ctx, je.task),
                          static_cast<std::uint32_t>(ctx.pool()[je.task].type)};
        file(je.task, filed);
        insert(filed.type, Entry{filed.key, je.seq, je.task, 0});
        continue;
      }
      const auto slot = static_cast<std::size_t>(je.task);
      if (slot >= filed_.size() ||
          !erase(filed_[slot].type, filed_[slot].key, je.seq)) {
        rebuild = true;  // defensive: journal and buckets disagree
        break;
      }
    }
    journalPos_ = journalEnd;
  }
  if (!rebuild) {
    queue.releaseJournal(journalPos_);
    return;
  }
  resetBuckets(numTypes);
  queue.forEachLive([&](sim::TaskId task, std::uint64_t seq) {
    const Filed filed{key(ctx, task),
                      static_cast<std::uint32_t>(ctx.pool()[task].type)};
    file(task, filed);
    buckets_[filed.type].push_back(Entry{filed.key, seq, task, 0});
  });
  sortBuckets();
  queue_ = &queue;
  pool_ = &ctx.pool();
  model_ = &ctx.model();
  resetGen_ = queue.resetGeneration();
  journalPos_ = queue.journalSize();
  queue.releaseJournal(journalPos_);
}

}  // namespace hcs::heuristics
