// Per-node runtime state: the arrow pointer machine plus the token slots,
// mutated only by the node's owning worker (see runtime.hpp for the
// ownership rules). The only cross-thread members are the mailbox and the
// `scheduled` wakeup flag, and only posts from other workers touch them:
// posts from the owning worker go through its private FIFO.
#pragma once

#include <atomic>
#include <cstdint>

#include "rt/history.hpp"
#include "rt/mailbox.hpp"
#include "support/types.hpp"

namespace arrowdq::rt {

enum class MsgKind : std::uint8_t {
  kQueue,  // arrow queue(req): forwarded hop-by-hop along tree edges
  kToken,  // the app token granted directly holder -> successor's node
};

struct Msg {
  RtReq req = kRtNoReq;
  std::int64_t payload = 0;  // token: app payload (counter value)
  NodeId from = kNoNode;     // queue: sender (link flips to it); token: previous holder
  MsgKind kind = MsgKind::kQueue;
};

/// Arrow state of one node. Owner-only fields carry no synchronization: the
/// owning worker is the only thread that ever reads or writes them, and
/// ownership never moves.
struct ArrowNode {
  explicit ArrowNode(std::size_t mailbox_capacity) : mailbox(mailbox_capacity) {}

  // --- cross-thread ---------------------------------------------------------
  /// Mail from nodes owned by other workers (cross-worker posts only).
  Mailbox<Msg> mailbox;
  /// Wakeup dedup: false -> true transition (by any sender) enqueues the node
  /// on its owner's runqueue exactly once; the owner clears it before
  /// draining. Bounds the runqueue at one entry per owned node.
  std::atomic<bool> scheduled{false};

  // --- owner-only -----------------------------------------------------------
  /// link(v): tree neighbour the arrow points to, or v itself (sink).
  NodeId link = kNoNode;
  /// id(v): the last request issued by this node (r0 at the root before its
  /// first issue); the request new arrivals queue behind when v is the sink.
  RtReq last_issued = kRtNoReq;
  /// Successor of last_issued once a queue message (or a local re-issue) has
  /// terminated behind it; kRtNoReq while unknown.
  RtReq succ_of_last = kRtNoReq;
  /// The token is parked here: last_issued was released (r0 counts as
  /// released) but its successor is still unknown, so the grant waits.
  bool token_parked = false;
  std::int64_t token_payload = 0;  // valid while token_parked
  /// Completed acquire/release rounds (closed loop issues the next request
  /// right after a release until rounds_per_node is reached).
  std::int64_t rounds_done = 0;
};

}  // namespace arrowdq::rt
