// Queue-level coverage for the two event queues, run as one typed suite:
// BucketedEventQueue (the queue every production simulator runs) and
// BinaryEventQueue (the comparison-heap reference order).
//
// Every test pushes sequence numbers in increasing order, the precondition
// BasicSimulator's schedule counter guarantees and the bucketed queue
// relies on. Within that precondition both queues must agree with a plain
// sorted reference on every pop, every pop_run and every size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/event_queue.hpp"
#include "support/random.hpp"

namespace arrowdq {
namespace {

bool same_entry(const EventEntry& a, const EventEntry& b) {
  return a.t == b.t && a.seq_slot == b.seq_slot;
}

/// Ordered multiset of pending entries: the reference model.
struct Reference {
  struct Less {
    bool operator()(const EventEntry& a, const EventEntry& b) const { return a < b; }
  };
  std::multiset<EventEntry, Less> pending;

  EventEntry pop() {
    const EventEntry e = *pending.begin();
    pending.erase(pending.begin());
    return e;
  }
  /// Every entry at the minimal time, in (time, seq) order.
  std::vector<EventEntry> pop_run() {
    std::vector<EventEntry> run;
    const Time t = pending.begin()->t;
    while (!pending.empty() && pending.begin()->t == t) run.push_back(pop());
    return run;
  }
};

/// Pushes entries with a strictly increasing sequence number; the slot is
/// derived from the sequence so a lost or swapped payload shows up too.
template <class Q>
struct Feeder {
  Q& q;
  Reference* ref = nullptr;
  std::uint64_t seq = 0;

  EventEntry push(Time t) {
    const auto slot = static_cast<std::uint32_t>((seq * 2654435761u) & EventEntry::kSlotMask);
    const EventEntry e = EventEntry::make(t, seq++, slot);
    q.push(e);
    if (ref != nullptr) ref->pending.insert(e);
    return e;
  }
};

template <class Q>
class EventQueueTest : public ::testing::Test {};

struct QueueNames {
  template <class Q>
  static std::string GetName(int) {
    return std::is_same_v<Q, BucketedEventQueue> ? "Bucketed" : "Binary";
  }
};

using Queues = ::testing::Types<BucketedEventQueue, BinaryEventQueue>;
TYPED_TEST_SUITE(EventQueueTest, Queues, QueueNames);

TYPED_TEST(EventQueueTest, EmptyAndSingle) {
  TypeParam q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  const EventEntry e = EventEntry::make(5, 0, 42);
  q.push(e);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.top_time(), 5);
  const EventEntry got = q.pop();
  EXPECT_TRUE(same_entry(got, e));
  EXPECT_EQ(got.slot(), 42u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TYPED_TEST(EventQueueTest, OrdersByTimeThenSeq) {
  TypeParam q;
  Feeder<TypeParam> f{q};
  const EventEntry a = f.push(10);
  const EventEntry b = f.push(5);
  const EventEntry c = f.push(10);
  const EventEntry d = f.push(5);
  const EventEntry e = f.push(0);
  for (const EventEntry& want : {e, b, d, a, c}) {
    ASSERT_EQ(q.top_time(), want.t);
    ASSERT_TRUE(same_entry(q.pop(), want));
  }
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, SlotRoundTripsThroughPackedWord) {
  // The largest slot and a late sequence number must come back unmangled,
  // and the packed word must still order ties by sequence.
  TypeParam q;
  const std::uint64_t seq = EventEntry::kMaxSeq - 2;
  const auto max_slot = static_cast<std::uint32_t>(EventEntry::kSlotMask);
  q.push(EventEntry::make(3, seq, max_slot));
  q.push(EventEntry::make(3, seq + 1, 0));
  const EventEntry first = q.pop();
  const EventEntry second = q.pop();
  EXPECT_EQ(first.slot(), max_slot);
  EXPECT_EQ(first.seq_slot >> EventEntry::kSlotBits, seq);
  EXPECT_EQ(second.slot(), 0u);
  EXPECT_EQ(second.seq_slot >> EventEntry::kSlotBits, seq + 1);
}

TYPED_TEST(EventQueueTest, IdenticalTimesDrainInSeqOrder) {
  TypeParam q;
  Feeder<TypeParam> f{q};
  std::vector<EventEntry> pushed;
  for (int i = 0; i < 1000; ++i) pushed.push_back(f.push(7));
  EXPECT_EQ(q.size(), pushed.size());
  for (const EventEntry& want : pushed) {
    ASSERT_EQ(q.top_time(), 7);
    ASSERT_TRUE(same_entry(q.pop(), want));
  }
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, PopRunTakesExactlyOneInstant) {
  TypeParam q;
  Reference ref;
  Feeder<TypeParam> f{q, &ref};
  for (Time t : {4, 2, 9, 2, 4, 2, 9, 4, 2}) f.push(t);
  for (Time want_t : {2, 4, 9}) {
    ASSERT_EQ(q.top_time(), want_t);
    std::vector<EventEntry> out;
    q.pop_run(out);
    const std::vector<EventEntry> want = ref.pop_run();
    ASSERT_EQ(out.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) ASSERT_TRUE(same_entry(out[i], want[i]));
    ASSERT_EQ(q.size(), ref.pending.size());
  }
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, PopRunAppendsAfterExistingOutput) {
  // A non-empty output buffer keeps its prefix; the run lands behind it.
  TypeParam q;
  Feeder<TypeParam> f{q};
  const EventEntry early = f.push(1);
  const EventEntry x = f.push(6);
  const EventEntry y = f.push(6);
  const EventEntry late = f.push(8);
  std::vector<EventEntry> out;
  q.pop_run(out);
  ASSERT_EQ(out.size(), 1u);
  q.pop_run(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(same_entry(out[0], early));
  EXPECT_TRUE(same_entry(out[1], x));
  EXPECT_TRUE(same_entry(out[2], y));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_TRUE(same_entry(q.pop(), late));
}

TYPED_TEST(EventQueueTest, PopRunAfterPartialPopReturnsTheRest) {
  TypeParam q;
  Feeder<TypeParam> f{q};
  std::vector<EventEntry> run;
  for (int i = 0; i < 5; ++i) run.push_back(f.push(3));
  const EventEntry later = f.push(4);
  ASSERT_TRUE(same_entry(q.pop(), run[0]));
  ASSERT_TRUE(same_entry(q.pop(), run[1]));
  std::vector<EventEntry> out;
  q.pop_run(out);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_TRUE(same_entry(out[i], run[i + 2]));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(same_entry(q.pop(), later));
}

TYPED_TEST(EventQueueTest, SameInstantPushesJoinTheOpenInstant) {
  // The simulator schedules at the current instant while draining it: such
  // entries must come out after what was already pending at that instant
  // and before any later time, also after the instant ran dry once.
  TypeParam q;
  Feeder<TypeParam> f{q};
  const EventEntry a = f.push(5);
  const EventEntry b = f.push(5);
  const EventEntry later = f.push(6);
  ASSERT_TRUE(same_entry(q.pop(), a));
  const EventEntry c = f.push(5);
  ASSERT_TRUE(same_entry(q.pop(), b));
  ASSERT_TRUE(same_entry(q.pop(), c));
  const EventEntry d = f.push(5);  // the instant was empty again
  ASSERT_EQ(q.top_time(), 5);
  ASSERT_TRUE(same_entry(q.pop(), d));
  ASSERT_TRUE(same_entry(q.pop(), later));
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, ClearThenReuse) {
  TypeParam q;
  Feeder<TypeParam> f{q};
  for (Time t = 0; t < 200; ++t) f.push(t % 17);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  Reference ref;
  f.ref = &ref;
  for (Time t : {30, 10, 20, 10}) f.push(t);
  while (!ref.pending.empty()) ASSERT_TRUE(same_entry(q.pop(), ref.pop()));
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, StorageRecyclingSurvivesChurn) {
  // Waves of distinct times retire and recycle buckets and map slots (and
  // force the bucketed queue's tombstone compaction) many times over.
  TypeParam q;
  q.reserve(64);
  Feeder<TypeParam> f{q};
  for (int wave = 0; wave < 50; ++wave) {
    const Time base = static_cast<Time>(wave) * 1000;
    std::vector<EventEntry> pushed;
    for (int i = 0; i < 100; ++i) pushed.push_back(f.push(base + i));
    for (const EventEntry& want : pushed) ASSERT_TRUE(same_entry(q.pop(), want));
    ASSERT_TRUE(q.empty());
  }
}

TYPED_TEST(EventQueueTest, MatchesReferenceOnRandomStream) {
  // Random pushes (with many ties), pops and batch drains interleaved;
  // every observable must match the sorted reference.
  TypeParam q;
  Reference ref;
  Feeder<TypeParam> f{q, &ref};
  Rng rng(2);
  std::vector<EventEntry> out;
  for (int round = 0; round < 5000; ++round) {
    const std::uint64_t op = rng.next_below(10);
    if (q.empty() || op < 5) {
      f.push(static_cast<Time>(rng.next_below(300)));
    } else if (op < 8) {
      ASSERT_EQ(q.top_time(), ref.pending.begin()->t);
      ASSERT_TRUE(same_entry(q.pop(), ref.pop()));
    } else {
      out.clear();
      q.pop_run(out);
      const std::vector<EventEntry> want = ref.pop_run();
      ASSERT_EQ(out.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) ASSERT_TRUE(same_entry(out[i], want[i]));
    }
    ASSERT_EQ(q.size(), ref.pending.size());
  }
  while (!ref.pending.empty()) ASSERT_TRUE(same_entry(q.pop(), ref.pop()));
  EXPECT_TRUE(q.empty());
}

TYPED_TEST(EventQueueTest, MonotoneSimulationDrainIsSorted) {
  // Simulator-shaped load: every push lands at or after the last popped
  // time, so the popped times never decrease and every entry comes out.
  TypeParam q;
  Feeder<TypeParam> f{q};
  Rng rng(11);
  for (int i = 0; i < 64; ++i) f.push(static_cast<Time>(rng.next_below(4)));
  Time now = 0;
  std::uint64_t popped = 0;
  while (!q.empty()) {
    const EventEntry e = q.pop();
    ASSERT_GE(e.t, now);
    now = e.t;
    ++popped;
    if (f.seq < 20000) {
      const std::uint64_t children = rng.next_below(3);
      for (std::uint64_t c = 0; c < children; ++c) {
        f.push(now + static_cast<Time>(rng.next_below(5)));
      }
    }
  }
  EXPECT_EQ(popped, f.seq);
}

}  // namespace
}  // namespace arrowdq
