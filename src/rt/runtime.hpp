// rt::Runtime — the arrow distributed-queuing protocol on real threads.
//
// A third execution tier next to the serial and sharded simulators: the same
// per-node protocol state machine (graph/tree.hpp tree, arrow/arrow.hpp
// rules), but driven by T worker threads passing messages to each other
// instead of through a discrete-event queue. The sim *predicts* queuing
// cost under a latency model; the runtime *measures* it under real
// contention — and a recorded history (rt/history.hpp) checked after the run
// replaces goldens, because thread interleavings are not reproducible.
//
// Threading model:
//  * Node ownership is static and follows the tree (see Ownership below): the
//    tree's DFS preorder is cut into T balanced chunks, one per worker, so a
//    worker owns mostly whole subtrees and on a bounded-degree tree almost
//    every tree edge joins two nodes of the same worker. A node's state
//    (link pointer, issued-request slots) is mutated only by its owning
//    worker, so pointer flips never race and need no atomics.
//  * Two delivery channels. A post whose destination is owned by the sending
//    worker goes onto that worker's private FIFO: two vectors swapped per
//    batch, with no per-message allocation, no atomics and no wakeup traffic.
//    Only a post that crosses workers uses the destination's bounded MPSC
//    mailbox (rt/mailbox.hpp). Per-producer FIFO, which the protocol
//    requires, holds on both: a sender node's channel to a given destination
//    is fixed by the two owners, and each channel is FIFO.
//  * Scheduling of cross-worker mail: a per-node `scheduled` flag dedupes
//    wakeups into a per-worker MPSC runqueue of node ids — a sender that
//    transitions the flag false->true pushes the node onto its owner's
//    runqueue; the owner clears the flag *before* draining the mailbox, with
//    an exchange rather than a store so that it is ordered against the
//    senders' exchanges, and re-arms afterwards if mail arrived during the
//    drain, so wakeups are never lost. The flag bounds the runqueue at one
//    entry per owned node.
//  * Delivery order and fairness: a worker alternates one batch of its
//    private FIFO (everything posted there before the batch began) with one
//    runqueue entry (that node's whole mailbox). Posts made during a batch
//    wait for the next batch, so a busy worker still reads cross-worker mail
//    after every batch. Preferring the FIFO until it empties would starve
//    the other workers: in a closed loop the FIFO of a worker that owns the
//    root empties only when its own clients are done.
//  * Lifecycle: the calling thread runs worker 0 and T - 1 spawned threads
//    run the others. Each worker issues round 1 for every owned node, waits
//    until every worker has done so, then delivers messages until every
//    worker has released all its owned requests (a private count per worker;
//    a shared count of busy workers drops once per worker). Then no message
//    is in flight on either channel (a pending message implies an unreleased
//    request), so workers simply exit and join — quiescence and drain
//    coincide.
//
// The protocol per node (exactly arrow's rules, arrow/arrow.hpp):
//  * issue a at v:  old = link(v); id(v) <- a; link(v) <- v;
//                   old == v ? a queues locally behind the previous id(v)
//                            : send queue(a) to old.
//  * queue(a) from w at u:  next = link(u); link(u) <- w;
//                   next != u ? forward queue(a) to next
//                             : a queues behind id(u) at u.
//  * Token (the app payload: mutex grant / counter / directory object)
//    travels directly holder -> successor's node once the holder has both
//    released and learned its successor. A node that has released with no
//    successor known yet parks the token; issuing its own next request
//    always resolves the parked successor (either the queue message
//    terminated here earlier, or the new request queues locally behind it).
//
// Closed-loop workload: every node performs `rounds_per_node` acquire ->
// critical section -> release cycles, issuing its next request immediately
// after releasing the previous one (token serialization is the mutex
// semantics; the sim's Figure 10 loop instead re-issues on queuing
// completion — see README "Runtime tier" for how to compare the two).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/tree.hpp"
#include "rt/history.hpp"
#include "support/types.hpp"

namespace arrowdq::rt {

struct RtConfig {
  int threads = 1;
  std::int64_t rounds_per_node = 1;
  RtApp app = RtApp::kMutex;
  /// Per-node mailbox ring capacity (overflow handles bursts past it). The
  /// mailbox carries only cross-worker traffic; posts between nodes of the
  /// same worker take the worker's private FIFO, so at threads == 1 no
  /// mailbox is ever touched.
  int mailbox_capacity = 64;
  /// Record invoke/enqueue/acquire/release events for check_history. Adds a
  /// seq_cst counter increment per event — turn off for pure throughput runs.
  bool record_history = true;
  /// Simulated critical-section work: relaxed-atomic spin iterations inside
  /// each section (0 = empty section).
  int cs_spin = 0;
};

struct RtResult {
  std::int64_t ops = 0;                 // completed acquire/release pairs
  std::uint64_t queue_messages = 0;     // queue() hops over tree edges
  std::uint64_t token_messages = 0;     // direct token transfers (incl. self)
  std::uint64_t remote_messages = 0;    // posts (queue or token) that crossed workers
  std::int64_t token_travel_units = 0;  // directory app: weighted tree distance
  double wall_seconds = 0.0;
  double ops_per_sec = 0.0;
  int threads = 0;
  History history;  // empty unless cfg.record_history

  /// Mean queue hops per request — the number cross-validated against the
  /// sim's avg_hops_per_request.
  double hops_per_op() const {
    return ops == 0 ? 0.0 : static_cast<double>(queue_messages) / static_cast<double>(ops);
  }
};

/// Tree-locality ownership of nodes by workers: the tree's DFS preorder (from
/// the root, children in Tree::children order) cut into min(threads, n)
/// chunks whose sizes differ by at most one. Every edge a cut between two
/// neighbouring chunks severs hangs off the root path of the last node before
/// the cut, so on a bounded-degree tree a cut severs O(depth) edges (at most
/// depth + 1 on a binary tree) and the rest stay inside one worker.
struct Ownership {
  std::vector<int> owner;                  // node -> worker
  std::vector<std::vector<NodeId>> nodes;  // worker -> owned nodes, in preorder

  int workers() const { return static_cast<int>(nodes.size()); }
};

/// The ownership map run_runtime uses for `threads` workers (clamped to
/// [1, node_count]).
Ownership preorder_ownership(const Tree& tree, int threads);

/// Run the closed-loop arrow runtime on `tree` and return measured counters
/// (plus the merged history when recording). Asserts on internal protocol
/// violations; use check_history(result.history, ...) as the external oracle.
RtResult run_runtime(const Tree& tree, const RtConfig& cfg);

}  // namespace arrowdq::rt
