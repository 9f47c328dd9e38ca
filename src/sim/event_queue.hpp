// Event queues for the simulator: 16-byte (time, seq|slot) handles ordered
// by (time, seq), with the event payload living in the simulator's arena.
//
// Two implementations (BasicSimulator is templated on the queue):
//  * BucketedEventQueue — calendar-style: a binary min-heap over *distinct*
//    pending times plus a FIFO bucket per time. Discrete-event protocol
//    workloads are massively tie-heavy (service times and unit latencies
//    quantize every timestamp; the Figure 10 macro averages dozens of
//    events per instant), so per-event cost collapses to a hash probe and
//    a vector append, and the log-cost heap operation is paid once per
//    *instant* instead of once per event. Requires monotonically increasing
//    sequence numbers across pushes (BasicSimulator guarantees this); the
//    bucket append order then realizes the exact (time, seq) order. This is
//    the only queue production runs: Simulator, CompactSimulator and every
//    sharded lane.
//  * BinaryEventQueue — implicit binary min-heap via std::push_heap /
//    std::pop_heap, whose sift-to-a-leaf-then-bubble-up pop does ~1
//    comparison per level instead of testing "does the displaced element
//    fit here" at every level. An independent comparison-heap order: the
//    tests use it as the reference the bucketed queue must reproduce, and
//    bench_throughput measures it next to the default.
//
// The bucketed queue wins the tie-heavy protocol workloads outright and
// stays within noise of the binary heap on the all-distinct-times
// microbenchmark (bench_throughput's event_core rows).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// A scheduled-event handle. The schedule sequence number and the payload's
/// arena slot share one word: slot in the low kSlotBits, seq above. Since
/// sequence numbers are unique, ordering by the packed word equals ordering
/// by seq whenever times tie — so a 16-byte entry still realizes the exact
/// deterministic (time, seq) order.
struct EventEntry {
  /// Capacity split of the packed word: at most 2^28-1 (~268M) events may
  /// be *concurrently pending* (the implicit scale tier keeps ~1.25n
  /// pending in closed loop, so this covers the n = 2^24 fig10_scale cell
  /// with an order of magnitude to spare; exceeding it is a loud assert,
  /// not corruption) and at most 2^36 (~7x10^10) events may be scheduled
  /// over a simulator's lifetime.
  static constexpr unsigned kSlotBits = 28;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  Time t;
  std::uint64_t seq_slot;

  static EventEntry make(Time t, std::uint64_t seq, std::uint32_t slot) {
    return {t, (seq << kSlotBits) | slot};
  }
  std::uint32_t slot() const { return static_cast<std::uint32_t>(seq_slot & kSlotMask); }

  friend bool operator<(const EventEntry& a, const EventEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq_slot < b.seq_slot;
  }
};

class BinaryEventQueue {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  void reserve(std::size_t n) { v_.reserve(n); }
  void clear() { v_.clear(); }

  Time top_time() const {
    ARROWDQ_ASSERT(!v_.empty());
    return v_[0].t;
  }

  void push(EventEntry e) {
    v_.push_back(e);
    std::push_heap(v_.begin(), v_.end(), Later{});
  }

  EventEntry pop() {
    ARROWDQ_ASSERT(!v_.empty());
    std::pop_heap(v_.begin(), v_.end(), Later{});
    EventEntry e = v_.back();
    v_.pop_back();
    return e;
  }

  /// Batch drain: append every entry whose time equals top_time() to `out`
  /// in (time, seq) order. In an implicit min-heap the minimal-time entries
  /// form an *up-closed* subtree containing the root (any ancestor of a
  /// minimal entry is itself minimal), so instead of paying a full
  /// sift-from-the-root per entry we collect that subtree in one DFS, sort
  /// the run by sequence, and refill the holes deepest-first with one plain
  /// sift-down each. For the degenerate whole-heap run (the t=0 issue burst)
  /// every refill hits the trailing-hole fast path and the drain is one DFS
  /// plus one sort.
  void pop_run(std::vector<EventEntry>& out) {
    ARROWDQ_ASSERT(!v_.empty());
    const Time t = v_[0].t;
    const bool left = v_.size() > 1 && v_[1].t == t;
    const bool right = v_.size() > 2 && v_[2].t == t;
    if (!left && !right) {  // run of one: a normal pop
      out.push_back(pop());
      return;
    }
    const std::size_t base = out.size();
    // BFS over the subtree: parents are processed in increasing index
    // order, and children 2i+1, 2i+2 grow monotonically with i, so holes_
    // comes out sorted ascending without an explicit sort.
    holes_.clear();
    holes_.push_back(0);
    for (std::size_t j = 0; j < holes_.size(); ++j) {
      const std::uint32_t i = holes_[j];
      out.push_back(v_[i]);
      const std::size_t c = 2 * static_cast<std::size_t>(i) + 1;
      if (c < v_.size() && v_[c].t == t) holes_.push_back(static_cast<std::uint32_t>(c));
      if (c + 1 < v_.size() && v_[c + 1].t == t)
        holes_.push_back(static_cast<std::uint32_t>(c + 1));
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
    // Deepest-first refill: when hole h is filled, every deeper hole is
    // already valid, so sifting the moved leaf down from h restores the
    // heap there; the root (processed last) gets the one full sift-down.
    for (std::size_t j = holes_.size(); j-- > 0;) {
      const std::uint32_t h = holes_[j];
      const EventEntry x = v_.back();
      v_.pop_back();
      if (h >= v_.size()) continue;  // the hole was the last element itself
      sift_down(h, x);
    }
  }

 private:
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const { return b < a; }
  };

  void sift_down(std::size_t i, EventEntry x) {
    const std::size_t n = v_.size();
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && v_[c + 1] < v_[c]) ++c;
      if (!(v_[c] < x)) break;
      v_[i] = v_[c];
      i = c;
    }
    v_[i] = x;
  }

  std::vector<EventEntry> v_;
  // BFS / hole scratch, kept across calls so steady-state drains allocate
  // nothing.
  std::vector<std::uint32_t> holes_;
};

/// Calendar-style tie-bucketing queue: a binary min-heap over the distinct
/// pending times, a FIFO bucket of entries per time, and an open-addressed
/// (tombstone-compacting) time→bucket map. See the header comment for why
/// this is the default. Precondition: seq|slot values are pushed in
/// increasing seq order (BasicSimulator's schedule counter guarantees it),
/// which makes bucket append order the exact (time, seq) order.
class BucketedEventQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void reserve(std::size_t n) {
    // Buckets and heap entries exist per *distinct pending time*, typically
    // a small fraction of pending events — sizing them to n would allocate
    // tens of MB for large reserves that never get used.
    const std::size_t distinct = n / 8 + 16;
    heap_.reserve(distinct);
    buckets_.reserve(distinct);
    free_buckets_.reserve(distinct);
  }

  void clear() {
    heap_.clear();
    buckets_.clear();
    free_buckets_.clear();
    map_time_.clear();
    map_bucket_.clear();
    map_mask_ = 0;
    map_live_ = 0;
    map_dirty_ = 0;
    size_ = 0;
  }

  Time top_time() const {
    ARROWDQ_ASSERT(size_ != 0);
    return heap_[0].t;
  }

  void push(EventEntry e) {
    ++size_;
    // Grow / compact tombstones at 1/2 occupancy; live entries are the
    // distinct pending times, typically a small fraction of pending events.
    if (2 * (map_live_ + map_dirty_ + 1) > map_mask_ + 1) map_rehash();
    // One find-or-insert probe walk: existing bucket → append; otherwise
    // remember the first tombstone (or the trailing empty slot) for the
    // insert.
    std::uint64_t pos = mix64(static_cast<std::uint64_t>(e.t)) & map_mask_;
    std::uint64_t insert_pos = ~std::uint64_t{0};
    while (map_time_[pos] != kEmptyKey) {
      if (map_time_[pos] == e.t) {
        buckets_[map_bucket_[pos]].items.push_back(e);
        return;
      }
      if (map_time_[pos] == kTombstone && insert_pos == ~std::uint64_t{0}) insert_pos = pos;
      pos = (pos + 1) & map_mask_;
    }
    if (insert_pos == ~std::uint64_t{0}) {
      insert_pos = pos;
    } else {
      --map_dirty_;
    }
    const std::uint32_t b = acquire_bucket();
    Bucket& bucket = buckets_[b];
    bucket.time = e.t;
    bucket.cursor = 0;
    bucket.items.clear();
    bucket.items.push_back(e);
    map_time_[insert_pos] = e.t;
    map_bucket_[insert_pos] = b;
    ++map_live_;
    heap_push(TimeEntry{e.t, b});
  }

  EventEntry pop() {
    ARROWDQ_ASSERT(size_ != 0);
    Bucket& bucket = buckets_[heap_[0].bucket];
    EventEntry e = bucket.items[bucket.cursor++];
    --size_;
    if (bucket.cursor == bucket.items.size()) retire_top();
    return e;
  }

  /// Batch drain: the minimal-time bucket already holds its run in (time,
  /// seq) order, so the whole instant moves out with one heap pop — no
  /// per-event sift, no sorting. When `out` is empty the bucket's storage
  /// is swapped instead of copied, so batch draining through
  /// BasicSimulator recycles the same two vectors forever.
  void pop_run(std::vector<EventEntry>& out) {
    ARROWDQ_ASSERT(size_ != 0);
    Bucket& bucket = buckets_[heap_[0].bucket];
    const std::size_t count = bucket.items.size() - bucket.cursor;
    if (out.empty() && bucket.cursor == 0) {
      out.swap(bucket.items);
    } else {
      out.insert(out.end(),
                 bucket.items.begin() + static_cast<std::ptrdiff_t>(bucket.cursor),
                 bucket.items.end());
    }
    size_ -= count;
    retire_top();
  }

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
  /// Open-addressing sentinels; simulated times are >= 0, so negative
  /// sentinels can never collide with a real key.
  static constexpr Time kEmptyKey = std::numeric_limits<Time>::min();
  static constexpr Time kTombstone = std::numeric_limits<Time>::min() + 1;

  struct Bucket {
    std::vector<EventEntry> items;
    std::uint32_t cursor = 0;
    Time time = 0;
  };
  struct TimeEntry {
    Time t;
    std::uint32_t bucket;
  };

  /// Pop the (exhausted) minimal time: remove the heap root, recycle its
  /// bucket, and tombstone its map slot.
  void retire_top() {
    const TimeEntry top = heap_[0];
    map_erase(top.t);
    free_buckets_.push_back(top.bucket);
    const TimeEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) heap_sift_down(0, last);
  }

  std::uint32_t acquire_bucket() {
    if (!free_buckets_.empty()) {
      const std::uint32_t b = free_buckets_.back();
      free_buckets_.pop_back();
      return b;
    }
    buckets_.emplace_back();
    return static_cast<std::uint32_t>(buckets_.size() - 1);
  }

  // --- distinct-time binary heap (keyed by time alone; times are unique) --

  void heap_push(TimeEntry e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 1;
      if (!(e.t < heap_[parent].t)) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void heap_sift_down(std::size_t i, TimeEntry x) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= n) break;
      if (c + 1 < n && heap_[c + 1].t < heap_[c].t) ++c;
      if (!(heap_[c].t < x.t)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = x;
  }

  // --- open-addressed time→bucket map ------------------------------------

  void map_erase(Time t) {
    std::uint64_t pos = mix64(static_cast<std::uint64_t>(t)) & map_mask_;
    while (map_time_[pos] != t) {
      ARROWDQ_ASSERT(map_time_[pos] != kEmptyKey);
      pos = (pos + 1) & map_mask_;
    }
    map_time_[pos] = kTombstone;
    --map_live_;
    ++map_dirty_;
  }

  void map_rehash() {
    std::uint64_t cap = 16;
    while (cap < 4 * (map_live_ + 1)) cap <<= 1;
    std::vector<Time> old_time = std::move(map_time_);
    std::vector<std::uint32_t> old_bucket = std::move(map_bucket_);
    map_time_.assign(cap, kEmptyKey);
    map_bucket_.assign(cap, kNoBucket);
    map_mask_ = cap - 1;
    map_dirty_ = 0;
    for (std::size_t i = 0; i < old_time.size(); ++i) {
      const Time t = old_time[i];
      if (t == kEmptyKey || t == kTombstone) continue;
      std::uint64_t pos = mix64(static_cast<std::uint64_t>(t)) & map_mask_;
      while (map_time_[pos] != kEmptyKey) pos = (pos + 1) & map_mask_;
      map_time_[pos] = t;
      map_bucket_[pos] = old_bucket[i];
    }
  }

  std::vector<TimeEntry> heap_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<Time> map_time_;
  std::vector<std::uint32_t> map_bucket_;
  std::uint64_t map_mask_ = 0;
  std::size_t map_live_ = 0;
  std::size_t map_dirty_ = 0;
  std::size_t size_ = 0;
};

}  // namespace arrowdq
