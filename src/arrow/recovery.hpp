// The arrow protocol's fault-recovery wave, shared by both arrow drivers
// (arrow/drivers.hpp: OneShotDriver and LoopDriver).
//
// Crash: each crash window corrupts the victim's pointer, bumps the message
// epoch, and runs a SelfStabilizer wave that re-points every arrow toward
// the anchor. The anchor adopts the pending queue tail of the smallest
// pre-crash sink so queuing resumes behind a live request; tails parked at
// other sinks are forfeited (their successor chains are severed — the cost
// the Herlihy-Tirthapura simplification accepts). A stale queue message
// (from an older epoch) is *absorbed* at the current sink.
//
// Partition: at onset the epoch bumps once and each side that holds a
// pre-onset sink is stabilized toward its side anchor (the cut root for the
// isolated subtree, the anchor for the remainder), which adopts the side's
// smallest pre-onset tail. A side with no sink is left frozen — its traffic
// parks at the cut and drains on heal. At heal a global wave (epoch bump +
// full stabilize + anchor adoption) merges the two pointer regimes; the
// cross-cut backlog the filter queued drains in FIFO send order at the heal
// instant and absorbs as stale messages.
//
// Churn: the departed victim's pointer resets to its anchored-tree parent
// (the deterministic re-selection) and the global wave re-centers the
// queue; the filter's node-down window covers the victim's absence.
//
// The driver owns the pointer state (link_, last_req_, epoch_) and the wave
// rewrites it. What differs per driver is only what an absorbed stale
// request does next — the one-shot records it behind the live tail, the
// closed loop answers its requester — so absorb_sink() finds the sink and
// leaves that step to the driver. The wave is a global pointer rewrite, so
// drivers compile it in for the serial engine only; the sharded entries
// refuse topology-fault schedules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arrow/stabilize.hpp"
#include "graph/tree.hpp"
#include "sim/fault.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// `Driver` exposes eng_ (a serial engine with a FaultFilter), link_,
/// last_req_, epoch_, finished() and receive(ctx, from, to, msg); `Msg` is
/// its queue message.
template <typename Driver, typename Msg>
class ArrowRecovery {
 public:
  /// `tree` is the caller's spanning tree, `anchor` the node every wave
  /// converges to (the request root).
  ArrowRecovery(Driver& d, const Tree& tree, NodeId anchor, const FaultSpec& spec)
      : d_(d),
        tree_(tree),
        anchor_(anchor),
        stab_(tree, anchor),
        crashes_(crash_schedule(spec, tree.node_count())),
        crash_rng_(mix64(spec.seed ^ 0xa770c4a54ULL)) {
    // Remap the raw seeded draws to legal victims and install the real tree
    // bipartition for each cut, so the filter defers exactly the cross-cut
    // traffic (its built-in fallback only isolates one node).
    FaultFilter& filt = d_.eng_.faults();
    for (std::size_t k = 0; k < filt.partitions().size(); ++k) {
      NodeId cut = remap_partition_cut(stab_.anchored(), filt.partitions()[k].victim);
      if (cut != kNoNode) filt.set_partition_cut(k, cut, subtree_mask(stab_.anchored(), cut));
    }
    partitions_ = filt.partitions();
    for (std::size_t k = 0; k < filt.churns().size(); ++k)
      filt.set_churn_victim(k, remap_churn_victim(stab_.anchored(), filt.churns()[k].victim,
                                                  spec.churn_leaf_only != 0));
    churns_ = filt.churns();
  }

  /// Schedule the first window of each kind (after the driver's issues).
  void start() {
    if (!crashes_.empty()) at(crashes_[0].at, Wave<&ArrowRecovery::on_crash>{this, 0});
    if (!partitions_.empty())
      at(partitions_[0].at, Wave<&ArrowRecovery::on_partition>{this, 0});
    if (!churns_.empty()) at(churns_[0].at, Wave<&ArrowRecovery::on_churn>{this, 0});
  }

  /// The live sink a stale message arriving at `at` absorbs into. During a
  /// partition window the scan is restricted to at's side of the cut —
  /// bookkeeping must not teleport across a severed edge — and a sinkless
  /// side parks the message until the heal instant (returns kNoNode).
  NodeId absorb_sink(NodeId at, const Msg& m) {
    const FaultFilter& filt = d_.eng_.faults();
    const std::size_t w = filt.active_partition(d_.eng_.ctx_of(at).now());
    if (w != FaultFilter::kNoWindow) {
      const auto& side = filt.partition_side(w);
      if (!side.empty()) {
        const std::uint8_t tag = side[static_cast<std::size_t>(at)];
        for (NodeId v = 0; v < static_cast<NodeId>(d_.link_.size()); ++v) {
          auto vi = static_cast<std::size_t>(v);
          if (side[vi] == tag && d_.link_[vi] == v) return v;
        }
        this->at(partitions_[w].up_at, Parked{this, at, m});
        return kNoNode;
      }
    }
    // The unique live sink (smallest node id breaks transient multi-sink
    // states, which only exist while current-epoch messages are in flight).
    for (NodeId v = 0; v < static_cast<NodeId>(d_.link_.size()); ++v)
      if (d_.link_[static_cast<std::size_t>(v)] == v) return v;
    ARROWDQ_ASSERT_MSG(false, "no sink available to absorb a stale request");
    return kNoNode;
  }

  // Degradation/recovery counters for the run's result.
  int stabilize_rounds = 0;
  int stabilize_corrections = 0;
  std::int32_t crashes_applied = 0;
  std::int32_t partitions_applied = 0;  // windows that opened
  std::int32_t reselections = 0;        // churn splices applied

 private:
  template <void (ArrowRecovery::*Fn)(std::size_t)>
  struct Wave {
    ArrowRecovery* r;
    std::size_t k;
    void operator()() const { (r->*Fn)(k); }
  };

  /// A stale message parked at a sinkless side until its window closes; it
  /// then re-enters receive() (still stale) and absorbs into the healed
  /// queue. Larger than the compact 16-byte slot: topology faults run only
  /// on the default 48-byte-slot simulator.
  struct Parked {
    ArrowRecovery* r;
    NodeId at;
    Msg msg;
    void operator()() const {
      auto ctx = r->d_.eng_.ctx_of(at);
      r->d_.receive(ctx, at, at, msg);
    }
  };

  template <typename F>
  void at(Time t, F fn) {
    d_.eng_.ctx_of(anchor_).at(t, fn);
  }

  void on_crash(std::size_t k) {
    if (d_.finished()) return;
    corrupt_and_recover(crashes_[k].victim);
    if (k + 1 < crashes_.size())
      at(crashes_[k + 1].at, Wave<&ArrowRecovery::on_crash>{this, k + 1});
  }

  /// Snapshot the pre-wave sink landscape: the smallest live sink (whose
  /// tail the anchor adopts) and whether the anchor already is one.
  void snapshot_sinks(NodeId& first_sink, bool& anchor_was_sink) const {
    first_sink = kNoNode;
    anchor_was_sink = false;
    for (NodeId v = 0; v < static_cast<NodeId>(d_.link_.size()); ++v) {
      if (d_.link_[static_cast<std::size_t>(v)] == v) {
        if (first_sink == kNoNode) first_sink = v;
        if (v == anchor_) anchor_was_sink = true;
      }
    }
  }

  /// The global wave (crash, churn splice, partition heal): invalidate every
  /// in-flight message, stabilize all pointers toward the anchor, and
  /// re-center the queue tail there. Callers snapshot *before* perturbing
  /// the pointer state.
  void recover_global(NodeId first_sink, bool anchor_was_sink) {
    const auto n = static_cast<NodeId>(d_.link_.size());
    ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "recovery wave with no live sink");
    RequestId adopted = d_.last_req_[static_cast<std::size_t>(first_sink)];

    // Every in-flight queue message now predates the recovery wave.
    ++d_.epoch_;

    auto h = stab_.estimate_hops(d_.link_);
    StabilizeResult res = stab_.stabilize(d_.link_, h, 4 * n + 8);
    ARROWDQ_ASSERT_MSG(res.converged, "self-stabilization did not converge");
    stabilize_rounds += res.rounds;
    stabilize_corrections += res.corrections;

    // Adoption: the anchor is now the unique sink. If it already was one it
    // keeps its own pending tail; otherwise it adopts the smallest pre-wave
    // sink's tail (other pending tails are forfeited).
    if (!anchor_was_sink) {
      ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-wave sink without a tail");
      d_.last_req_[static_cast<std::size_t>(anchor_)] = adopted;
    }
  }

  void corrupt_and_recover(NodeId victim) {
    const auto n = static_cast<NodeId>(d_.link_.size());
    // Snapshot the pending tails before anything changes: the wave
    // re-centers the queue at the anchor, which must resume from a real
    // pending request, not a stale one.
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
    snapshot_sinks(first_sink, anchor_was_sink);
    ARROWDQ_ASSERT_MSG(first_sink != kNoNode, "crash with no live sink");

    // The victim restarts with corrupted pointer state: a spurious sink, an
    // arbitrary (possibly dangling) pointer, or a plausible tree pointer in
    // the wrong direction (which can close a cycle with a child).
    auto wi = static_cast<std::size_t>(victim);
    switch (crash_rng_.next_below(3)) {
      case 0: d_.link_[wi] = victim; break;
      case 1:
        d_.link_[wi] =
            static_cast<NodeId>(crash_rng_.next_below(static_cast<std::uint64_t>(n)));
        break;
      default: d_.link_[wi] = victim == tree_.root() ? victim : tree_.parent(victim); break;
    }

    recover_global(first_sink, anchor_was_sink);
    ++crashes_applied;
  }

  /// Partition onset: bump the epoch once, then reconcile each side that
  /// holds a pre-onset sink toward its side anchor. A sinkless side stays
  /// frozen — its pointers still lead to the cut, where traffic queues.
  void on_partition(std::size_t k) {
    if (d_.finished()) return;
    const auto n = static_cast<NodeId>(d_.link_.size());
    const NodeId cut = partitions_[k].victim;
    const auto& side = d_.eng_.faults().partition_side(k);
    ++partitions_applied;
    if (side.empty() || cut == kNoNode) {
      // Single-node tree: no edge to sever, the window is a no-op.
      at(partitions_[k].up_at, Wave<&ArrowRecovery::on_heal>{this, k});
      return;
    }
    // Pre-onset landscape per side: smallest sink and whether the side
    // anchor already is one.
    NodeId first_sink[2] = {kNoNode, kNoNode};
    bool anchor_sink[2] = {false, false};
    const NodeId side_anchor[2] = {anchor_, cut};  // side 0 keeps the anchor
    for (NodeId v = 0; v < n; ++v) {
      auto vi = static_cast<std::size_t>(v);
      if (d_.link_[vi] != v) continue;
      const std::uint8_t s = side[vi];
      if (first_sink[s] == kNoNode) first_sink[s] = v;
      if (v == side_anchor[s]) anchor_sink[s] = true;
    }

    // One epoch bump covers both sides' reconciliation.
    ++d_.epoch_;
    auto h = stab_.estimate_hops(d_.link_);
    for (int s = 0; s < 2; ++s) {
      if (first_sink[s] == kNoNode) continue;  // frozen side
      RequestId adopted = d_.last_req_[static_cast<std::size_t>(first_sink[s])];
      StabilizeResult res = stab_.stabilize_side(d_.link_, h, 4 * n + 8, side,
                                                 static_cast<std::uint8_t>(s), side_anchor[s]);
      ARROWDQ_ASSERT_MSG(res.converged, "side stabilization did not converge");
      stabilize_rounds += res.rounds;
      stabilize_corrections += res.corrections;
      if (!anchor_sink[s]) {
        ARROWDQ_ASSERT_MSG(adopted != kNoRequest, "pre-onset sink without a tail");
        d_.last_req_[static_cast<std::size_t>(side_anchor[s])] = adopted;
      }
    }
    at(partitions_[k].up_at, Wave<&ArrowRecovery::on_heal>{this, k});
  }

  /// Partition heal: merge the two pointer regimes with the global wave. The
  /// merge runs even when the run already finished — quiescence must leave a
  /// unique sink — but a finished run schedules no further windows.
  void on_heal(std::size_t k) {
    NodeId first_sink = kNoNode;
    bool anchor_was_sink = false;
    snapshot_sinks(first_sink, anchor_was_sink);
    recover_global(first_sink, anchor_was_sink);
    if (!d_.finished() && k + 1 < partitions_.size())
      at(partitions_[k + 1].at, Wave<&ArrowRecovery::on_partition>{this, k + 1});
  }

  /// Churn: the victim leaves for its down window. Its pointer resets
  /// toward the anchor and the global wave re-centers the queue; on rejoin
  /// it participates again with already-consistent state.
  void on_churn(std::size_t k) {
    if (d_.finished()) return;
    const NodeId victim = churns_[k].victim;
    if (victim != kNoNode && victim != anchor_) {
      NodeId first_sink = kNoNode;
      bool anchor_was_sink = false;
      snapshot_sinks(first_sink, anchor_was_sink);
      d_.link_[static_cast<std::size_t>(victim)] = stab_.anchored().parent(victim);
      recover_global(first_sink, anchor_was_sink);
      ++reselections;
    }
    if (k + 1 < churns_.size())
      at(churns_[k + 1].at, Wave<&ArrowRecovery::on_churn>{this, k + 1});
  }

  Driver& d_;
  const Tree& tree_;
  NodeId anchor_;
  SelfStabilizer stab_;
  std::vector<CrashEventSpec> crashes_;
  std::vector<CrashEventSpec> partitions_;
  std::vector<CrashEventSpec> churns_;
  Rng crash_rng_;
};

}  // namespace arrowdq
