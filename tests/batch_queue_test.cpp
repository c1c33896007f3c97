// Randomized model-check of sim::BatchQueue — the indexed arrival queue —
// against a naive vector reference.  Random insert / remove / oldest-first
// remove / defer / begin-event / clear sequences (with journal-replay
// consumers kept in sync the way TypeBuckets does it) must agree with the
// obviously-correct model at every step, across tens of thousands of ops
// and multiple seeds.  This pins down the tombstone/compaction machinery,
// the head cursor and its bounded candidate walk, the O(1) generation-
// stamped deferral expiry, and the mutation journal — previously exercised
// only indirectly through mapping_engine_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/batch_queue.h"

namespace {

using hcs::sim::BatchQueue;
using hcs::sim::TaskId;

/// The obviously-correct reference: a plain vector in arrival order.
class NaiveQueue {
 public:
  void push(TaskId task) { entries_.push_back({task, nextSeq_++, 0}); }

  void remove(TaskId task) {
    entries_.erase(std::find_if(
        entries_.begin(), entries_.end(),
        [task](const Entry& e) { return e.task == task; }));
  }

  void beginEvent() { ++eventGen_; }

  void markDeferred(TaskId task) {
    std::find_if(entries_.begin(), entries_.end(), [task](const Entry& e) {
      return e.task == task;
    })->deferGen = eventGen_;
  }

  bool contains(TaskId task) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [task](const Entry& e) { return e.task == task; });
  }

  bool deferredThisEvent(TaskId task) const {
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [task](const Entry& e) { return e.task == task; });
    return it != entries_.end() && it->deferGen == eventGen_;
  }

  std::uint64_t arrivalSeq(TaskId task) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [task](const Entry& e) { return e.task == task; })
        ->seq;
  }

  std::size_t size() const { return entries_.size(); }

  std::vector<TaskId> live() const {
    std::vector<TaskId> out;
    for (const Entry& e : entries_) out.push_back(e.task);
    return out;
  }

  std::vector<TaskId> candidates() const {
    std::vector<TaskId> out;
    for (const Entry& e : entries_) {
      if (e.deferGen != eventGen_) out.push_back(e.task);
    }
    return out;
  }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    TaskId task;
    std::uint64_t seq;
    std::uint64_t deferGen;
  };
  std::vector<Entry> entries_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventGen_ = 1;
};

/// A journal consumer in the style of TypeBuckets: replays only the delta
/// since its last position and must always reconstruct the live task set.
class JournalConsumer {
 public:
  void sync(const BatchQueue& queue) {
    queue.requestJournal();
    if (resetGen_ != queue.resetGeneration()) {
      // History was discarded (or never recorded): rebuild from the live
      // queue.
      live_.clear();
      queue.forEachLive([&](TaskId task, std::uint64_t seq) {
        live_.push_back({task, seq});
      });
      pos_ = queue.journalSize();
      resetGen_ = queue.resetGeneration();
    }
    ASSERT_GE(pos_, queue.journalBegin()) << "journal released unreplayed";
    for (; pos_ < queue.journalSize(); ++pos_) {
      const BatchQueue::JournalEntry& e = queue.journalAt(pos_);
      if (e.op == BatchQueue::JournalEntry::Op::Push) {
        live_.push_back({e.task, e.seq});
      } else {
        live_.erase(std::find_if(
            live_.begin(), live_.end(),
            [&](const auto& p) { return p.second == e.seq; }));
      }
    }
    queue.releaseJournal(pos_);
  }

  std::vector<TaskId> liveTasks() const {
    std::vector<TaskId> out;
    for (const auto& [task, seq] : live_) out.push_back(task);
    return out;
  }

 private:
  std::vector<std::pair<TaskId, std::uint64_t>> live_;
  std::size_t pos_ = 0;
  std::uint64_t resetGen_ = 0;
};

std::vector<TaskId> liveOf(const BatchQueue& queue) {
  std::vector<TaskId> out;
  queue.forEachLive(
      [&](TaskId task, std::uint64_t) { out.push_back(task); });
  return out;
}

void checkAgreement(const BatchQueue& queue, const NaiveQueue& model,
                    JournalConsumer& consumer, const std::vector<TaskId>& all,
                    std::mt19937_64& rng) {
  ASSERT_EQ(queue.size(), model.size());
  ASSERT_EQ(queue.empty(), model.size() == 0);
  ASSERT_EQ(liveOf(queue), model.live());
  std::vector<TaskId> candidates;
  queue.liveCandidates(candidates);
  ASSERT_EQ(candidates, model.candidates());
  const std::vector<TaskId> live = model.live();
  ASSERT_EQ(queue.front(), live.empty() ? hcs::sim::kInvalidTask : live[0]);
  // The head cursor's bounded walk, stopped after a random K, reads
  // exactly the first K candidates.
  const std::size_t k = rng() % (candidates.size() + 2);
  std::vector<TaskId> walked;
  queue.forEachCandidate([&](TaskId task) {
    walked.push_back(task);
    return walked.size() < k;
  });
  const std::size_t expect = std::min(std::max<std::size_t>(k, 1),
                                      candidates.size());
  ASSERT_EQ(walked, std::vector<TaskId>(candidates.begin(),
                                        candidates.begin() +
                                            static_cast<std::ptrdiff_t>(
                                                expect)));
  consumer.sync(queue);
  ASSERT_EQ(consumer.liveTasks(), model.live());

  // Point queries on a random sample of every task ever created.
  for (int probe = 0; probe < 8 && !all.empty(); ++probe) {
    const TaskId task = all[rng() % all.size()];
    ASSERT_EQ(queue.contains(task), model.contains(task)) << task;
    ASSERT_EQ(queue.deferredThisEvent(task), model.deferredThisEvent(task))
        << task;
    if (model.contains(task)) {
      ASSERT_EQ(queue.arrivalSeq(task), model.arrivalSeq(task)) << task;
    }
  }
}

class BatchQueueModelCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchQueueModelCheck, RandomOpSequencesMatchNaiveReference) {
  std::mt19937_64 rng(GetParam());
  BatchQueue queue;
  NaiveQueue model;
  JournalConsumer consumer;
  std::vector<TaskId> all;   // every id ever pushed (probe pool)
  std::vector<TaskId> live;  // ids currently in the queue
  TaskId nextId = 0;

  constexpr int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 40 || live.empty()) {
      const TaskId id = nextId++;
      queue.push(id);
      model.push(id);
      all.push_back(id);
      live.push_back(id);
    } else if (roll < 52) {
      // Oldest first, as dispatch mostly removes: long tombstone runs at
      // the head, which the cursor must hop.
      const TaskId id = live.front();
      queue.remove(id);
      model.remove(id);
      live.erase(live.begin());
    } else if (roll < 65) {
      const std::size_t pick = rng() % live.size();
      const TaskId id = live[pick];
      queue.remove(id);
      model.remove(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 85) {
      const TaskId id = live[rng() % live.size()];
      queue.markDeferred(id);
      model.markDeferred(id);
    } else if (roll < 99) {
      queue.beginEvent();
      model.beginEvent();
    } else {
      queue.clear();
      model.clear();
      live.clear();
    }
    // Full-state agreement every 64 ops (keeps the test O(ops * probes)),
    // cheap point agreement every op.
    if (op % 64 == 0) {
      checkAgreement(queue, model, consumer, all, rng);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ASSERT_EQ(queue.size(), model.size()) << "op " << op;
    }
  }
  checkAgreement(queue, model, consumer, all, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchQueueModelCheck,
                         ::testing::Values(1u, 2u, 3u, 0xfeedfaceu));

TEST(BatchQueueTest, DeferralMarksSurviveCompaction) {
  // Force the tombstone compaction (live < half, >= 16 entries) while a
  // deferral mark is outstanding in the current event: the mark must
  // survive the entry moves.
  BatchQueue queue;
  for (TaskId id = 0; id < 32; ++id) queue.push(id);
  queue.beginEvent();
  queue.markDeferred(30);
  for (TaskId id = 0; id < 24; ++id) queue.remove(id);  // triggers compact
  EXPECT_EQ(queue.size(), 8u);
  EXPECT_TRUE(queue.deferredThisEvent(30));
  EXPECT_FALSE(queue.deferredThisEvent(31));
  std::vector<TaskId> candidates;
  queue.liveCandidates(candidates);
  EXPECT_EQ(candidates, (std::vector<TaskId>{24, 25, 26, 27, 28, 29, 31}));
  queue.beginEvent();
  EXPECT_FALSE(queue.deferredThisEvent(30));  // expired in O(1)
}

TEST(BatchQueueTest, JournalCarriesSeqsAcrossRemovalAndReuse) {
  BatchQueue queue;
  queue.requestJournal();
  queue.push(5);
  queue.push(9);
  queue.remove(5);
  queue.push(5);  // same task id, new arrival seq
  ASSERT_EQ(queue.journalSize(), 4u);
  EXPECT_EQ(queue.journalAt(0).op, BatchQueue::JournalEntry::Op::Push);
  EXPECT_EQ(queue.journalAt(0).seq, 0u);
  EXPECT_EQ(queue.journalAt(2).op, BatchQueue::JournalEntry::Op::Remove);
  EXPECT_EQ(queue.journalAt(2).seq, 0u);
  EXPECT_EQ(queue.journalAt(3).seq, 2u);
  EXPECT_EQ(queue.arrivalSeq(5), 2u);
  // Iteration order is arrival order of the *current* entries.
  std::vector<TaskId> liveNow;
  queue.forEachLive(
      [&](TaskId task, std::uint64_t) { liveNow.push_back(task); });
  EXPECT_EQ(liveNow, (std::vector<TaskId>{9, 5}));
}

TEST(BatchQueueTest, RecordsNoJournalUntilAConsumerAsks) {
  BatchQueue queue;
  queue.push(1);
  queue.push(2);
  queue.remove(1);
  EXPECT_EQ(queue.journalSize(), 0u);
  const std::uint64_t gen = queue.resetGeneration();
  queue.requestJournal();
  // The unrecorded history is void: consumers must rebuild.
  EXPECT_NE(queue.resetGeneration(), gen);
  queue.requestJournal();  // idempotent once recording
  EXPECT_EQ(queue.resetGeneration(), gen + 1);
  queue.push(3);
  ASSERT_EQ(queue.journalSize(), 1u);
  EXPECT_EQ(queue.journalAt(0).task, 3);
}

TEST(BatchQueueTest, ReleasedJournalStaysBoundedOverALongRun) {
  // A long push/remove run with a small live set, synced every few
  // mutations: the journal holds only what the consumer has not replayed,
  // not two entries per task ever pushed — while positions stay monotone.
  BatchQueue queue;
  JournalConsumer consumer;
  std::vector<TaskId> live;
  std::size_t maxHeld = 0;
  TaskId nextId = 0;
  for (int op = 0; op < 200000; ++op) {
    if (live.size() < 8 || op % 2 == 0) {
      queue.push(nextId);
      live.push_back(nextId++);
    } else {
      queue.remove(live.front());
      live.erase(live.begin());
    }
    maxHeld = std::max(maxHeld, queue.journalSize() - queue.journalBegin());
    if (op % 16 == 0) {
      consumer.sync(queue);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      ASSERT_EQ(queue.journalBegin(), queue.journalSize());
    }
  }
  consumer.sync(queue);
  EXPECT_EQ(consumer.liveTasks(), live);
  EXPECT_LE(maxHeld, 16u);
  // Positions never rewind: every op after the first sync started the
  // recording is still numbered.
  EXPECT_EQ(queue.journalSize(), 200000u - 1);

  // A consumer that stops syncing: the journal is dropped once replaying
  // it would cost more than a rebuild, and the next sync rebuilds.
  const std::uint64_t gen = queue.resetGeneration();
  for (int op = 0; op < 100000; ++op) {
    queue.push(nextId);
    live.push_back(nextId++);
    queue.remove(live.front());
    live.erase(live.begin());
    ASSERT_LE(queue.journalSize() - queue.journalBegin(),
              64 + 4 * queue.size());
  }
  EXPECT_NE(queue.resetGeneration(), gen);
  consumer.sync(queue);
  EXPECT_EQ(consumer.liveTasks(), live);
}

std::vector<TaskId> walk(const BatchQueue& queue) {
  std::vector<TaskId> out;
  queue.forEachCandidate([&](TaskId task) {
    out.push_back(task);
    return true;
  });
  return out;
}

TEST(BatchQueueTest, HeadCursorSurvivesCompaction) {
  // 32 entries, the oldest 24 removed front to back: the cursor hops each
  // tombstone, then the compaction (live < half) re-bases it to 0.
  BatchQueue queue;
  for (TaskId id = 0; id < 32; ++id) queue.push(id);
  for (TaskId id = 0; id < 10; ++id) queue.remove(id);
  EXPECT_EQ(queue.front(), 10);
  for (TaskId id = 10; id < 24; ++id) queue.remove(id);  // compacts
  EXPECT_EQ(queue.front(), 24);
  EXPECT_EQ(walk(queue),
            (std::vector<TaskId>{24, 25, 26, 27, 28, 29, 30, 31}));
  queue.remove(25);  // a hole behind the head leaves the cursor alone
  queue.remove(24);  // ... until the head goes, then it hops both
  EXPECT_EQ(queue.front(), 26);
  queue.push(40);
  EXPECT_EQ(walk(queue), (std::vector<TaskId>{26, 27, 28, 29, 30, 31, 40}));
}

TEST(BatchQueueTest, HeadCursorResetsOnClear) {
  BatchQueue queue;
  for (TaskId id = 0; id < 6; ++id) queue.push(id);
  queue.remove(0);
  queue.remove(1);
  queue.clear();
  EXPECT_EQ(queue.front(), hcs::sim::kInvalidTask);
  EXPECT_TRUE(walk(queue).empty());
  queue.push(7);
  queue.push(3);
  EXPECT_EQ(queue.front(), 7);
  EXPECT_EQ(walk(queue), (std::vector<TaskId>{7, 3}));
}

TEST(BatchQueueTest, PushIntoAnEmptiedQueueLandsAtTheCursor) {
  // Below the compaction floor every removal leaves a tombstone, so an
  // emptied queue's cursor sits at the end of its entries; a push must
  // land exactly there.
  BatchQueue queue;
  for (TaskId id = 0; id < 5; ++id) queue.push(id);
  for (TaskId id : {3, 1, 0, 4, 2}) queue.remove(id);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.front(), hcs::sim::kInvalidTask);
  queue.push(9);
  EXPECT_EQ(queue.front(), 9);
  queue.beginEvent();
  queue.markDeferred(9);
  queue.push(2);
  EXPECT_EQ(walk(queue), (std::vector<TaskId>{2}));  // 9 is deferred
  EXPECT_EQ(queue.front(), 9);                       // ... but still first
}

}  // namespace
