// Per-node mailboxes for the shared-memory runtime (src/rt/): bounded MPSC
// delivery with a correctness-preserving overflow path.
//
// A mailbox carries only cross-worker traffic. A post between two nodes of
// the same worker takes that worker's private FIFO instead (runtime.cpp), so
// the producers of a node's mailbox are the other workers, and at T = 1 no
// mailbox is used at all.
//
// Two implementations, chosen at compile time:
//
//  * RingMailbox (default) — a Vyukov-style bounded ring whose push/pop are
//    lock-free. The consumer side is single-threaded by construction (only
//    the node's owning worker pops), so pop needs no CAS on the tail.
//  * LockingMailbox (-DARROWDQ_RT_LOCKING_MAILBOX) — mutex + two swapped
//    vectors. The portable fallback for platforms where the atomic ring is
//    in doubt; workers never sleep on an empty mailbox (scheduling is
//    runqueue-driven, see runtime.hpp), so no condvar is needed on pop.
//
// FIFO contract. The arrow protocol — like the sim, which clamps its latency
// draws per edge — assumes FIFO links: two queue() messages from the same
// sender to the same node must be delivered in send order (a reordering can
// bounce a request off a stale pointer). Both implementations preserve
// per-producer order, including across the overflow path:
//
//  * the ring serves slots in reservation order, so one producer's pushes
//    come out in push order;
//  * once a producer diverts to overflow (ring full, or overflow already
//    non-empty), every later push also diverts until the consumer has
//    drained the overflow batch — so a producer never has messages in the
//    ring *behind* its own overflow messages;
//  * the consumer takes the overflow batch only when the ring looks empty,
//    notes how many ring slots producers have reserved by then (the fence),
//    delivers the ring up to the fence, then the whole batch, and only then
//    the rest of the ring. The fence matters because "looks empty" also
//    covers a slot that is reserved but not yet published: without it a
//    producer's overflow message could overtake its own earlier ring message.
//
// Capacity. The ring bounds steady-state memory; the overflow bounds
// worst-case correctness (a node can transiently receive O(outstanding
// requests) messages — e.g. every queue message in flight chasing the same
// moving tail). Blocking the producer instead would deadlock: two workers
// pushing into each other's full mailboxes would each wait on a consumer
// that never runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace arrowdq::rt {

/// Smallest power of two >= x (x >= 1).
inline std::size_t pow2_at_least(std::size_t x) {
  std::size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// Vyukov bounded MPMC ring, used MPSC: push from any thread, pop only from
/// the owning worker. try_push fails when full (caller falls back to the
/// overflow vector); try_pop fails when empty.
template <typename T>
class RingMailbox {
 public:
  explicit RingMailbox(std::size_t capacity)
      : slots_(pow2_at_least(capacity < 2 ? 2 : capacity)),
        mask_(slots_.size() - 1) {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  bool try_push(const T& v) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          slot.val = v;
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  bool try_pop(T& out) {
    const std::size_t pos = tail_;
    Slot& slot = slots_[pos & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
    if (dif < 0) return false;  // empty (or producer mid-publish: not ready yet)
    ARROWDQ_ASSERT(dif == 0);   // single consumer: tail_ never races ahead
    tail_ = pos + 1;
    out = std::move(slot.val);
    slot.seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate (producers may be mid-publish); exact when quiescent.
  bool maybe_nonempty() const {
    return head_.load(std::memory_order_acquire) != tail_;
  }

  /// Slots reserved by producers so far (published or not).
  std::size_t reserved() const { return head_.load(std::memory_order_acquire); }
  /// Slots popped so far (consumer only).
  std::size_t consumed() const { return tail_; }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T val{};
  };
  std::vector<Slot> slots_;
  std::size_t mask_;
  alignas(64) std::atomic<std::size_t> head_{0};  // producers
  alignas(64) std::size_t tail_{0};               // single consumer
};

/// Mutex fallback: unbounded two-vector swap queue. Per-producer FIFO is
/// immediate from the single lock.
template <typename T>
class LockingMailbox {
 public:
  explicit LockingMailbox(std::size_t /*capacity*/) {}

  void push(const T& v) {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(v);
    nonempty_.store(true, std::memory_order_release);
  }

  bool try_pop(T& out) {
    if (batch_next_ < batch_.size()) {
      out = std::move(batch_[batch_next_++]);
      return true;
    }
    if (!nonempty_.load(std::memory_order_acquire)) return false;
    batch_.clear();
    batch_next_ = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_.swap(inbox_);
      nonempty_.store(false, std::memory_order_release);
    }
    if (batch_.empty()) return false;
    out = std::move(batch_[batch_next_++]);
    return true;
  }

  bool maybe_nonempty() const {
    return batch_next_ < batch_.size() || nonempty_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mu_;
  std::vector<T> inbox_;              // guarded by mu_
  std::vector<T> batch_;              // consumer-private
  std::size_t batch_next_ = 0;        // consumer-private
  std::atomic<bool> nonempty_{false};
};

/// The mailbox the runtime instantiates per node: bounded lock-free ring with
/// a locked overflow vector behind it (or the pure locking fallback). push()
/// never fails and never waits on the consumer.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(std::size_t ring_capacity)
#if defined(ARROWDQ_RT_LOCKING_MAILBOX)
      : impl_(ring_capacity) {
  }

  void push(const T& v) { impl_.push(v); }
  bool try_pop(T& out) { return impl_.try_pop(out); }
  bool maybe_nonempty() const { return impl_.maybe_nonempty(); }

 private:
  LockingMailbox<T> impl_;
#else
      : ring_(ring_capacity) {
  }

  void push(const T& v) {
    // Divert to overflow whenever overflow is (or may be) non-empty: a
    // producer must never land in the ring behind its own overflow messages.
    if (!overflow_nonempty_.load(std::memory_order_acquire) && ring_.try_push(v)) return;
    std::lock_guard<std::mutex> lock(overflow_mu_);
    overflow_.push_back(v);
    overflow_nonempty_.store(true, std::memory_order_release);
  }

  bool try_pop(T& out) {
    // Ring slots reserved before the batch was taken precede it; a false
    // return here means one of them is still being published.
    if (ring_.consumed() < fence_) return ring_.try_pop(out);
    // Then the batch: it predates anything a producer has pushed into the
    // ring since the batch was taken.
    if (batch_next_ < batch_.size()) {
      out = std::move(batch_[batch_next_++]);
      return true;
    }
    if (ring_.try_pop(out)) return true;
    if (!overflow_nonempty_.load(std::memory_order_acquire)) return false;
    batch_.clear();
    batch_next_ = 0;
    {
      std::lock_guard<std::mutex> lock(overflow_mu_);
      batch_.swap(overflow_);
      // Read under the lock, before the flag clears: every ring push made
      // before an overflow push in this batch is below the fence, and every
      // ring push that saw the cleared flag is at or above it.
      fence_ = ring_.reserved();
      overflow_nonempty_.store(false, std::memory_order_release);
    }
    return try_pop(out);
  }

  bool maybe_nonempty() const {
    return batch_next_ < batch_.size() || ring_.maybe_nonempty() ||
           overflow_nonempty_.load(std::memory_order_acquire);
  }

 private:
  RingMailbox<T> ring_;
  std::mutex overflow_mu_;
  std::vector<T> overflow_;     // guarded by overflow_mu_
  std::vector<T> batch_;        // consumer-private
  std::size_t batch_next_ = 0;  // consumer-private
  std::size_t fence_ = 0;       // consumer-private: ring position the batch waits for
  std::atomic<bool> overflow_nonempty_{false};
#endif
};

}  // namespace arrowdq::rt
