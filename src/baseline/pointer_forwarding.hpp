// Pointer-forwarding queuing protocols on a complete communication graph:
// the Naimi-Trehel-Arnold (NTA) / Li-Hudak Ivy family discussed in the
// paper's related-work section.
//
// Unlike arrow, these protocols assume a completely connected network: a
// node's pointer may name *any* node, and a find message hops directly
// between arbitrary nodes. Two pointer-update rules are provided:
//
//  * kCompressToRequester ("Ivy/NTA"): every node visited by find(a, v)
//    redirects its pointer straight to the requester v — the "path
//    shortcutting" for which Ginat, Sleator and Tarjan proved an amortized
//    Θ(log n) bound on pointer chases per request.
//
//  * kReverseToSender ("arrow-without-a-tree"): each visited node points
//    back at the hop predecessor, i.e. plain path reversal. This ablation
//    shows the compression is what buys the logarithmic behaviour.
#pragma once

#include <cstdint>

#include "baseline/dist.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/fault.hpp"
#include "support/types.hpp"

namespace arrowdq {

enum class ForwardingMode : std::uint8_t {
  kCompressToRequester,
  kReverseToSender,
};

struct PointerForwardingConfig {
  ForwardingMode mode = ForwardingMode::kCompressToRequester;
  Time service_time = 0;
  /// Initial owner (all pointers initially lead here), default node 0.
  NodeId initial_owner = 0;
  /// Fault schedule (default: none). Graceful degradation only: message
  /// faults delay delivery, crash windows defer deliveries to the victim
  /// until it recovers; the pointer state itself is not corrupted (only the
  /// arrow drivers model state recovery).
  FaultSpec fault;
  /// Optional out-param: filled with drop/duplicate counts after a one-shot
  /// run when a fault schedule is active (the loop result carries its own).
  FaultStats* fault_stats_out = nullptr;
};

/// One-shot execution on `node_count` nodes with pairwise latency `dist`.
/// Completion per Definition 3.2: recorded when the find message reaches the
/// node holding the predecessor request.
///
/// The oracle template is the statically dispatched tier, explicitly
/// instantiated in pointer_forwarding.cpp for every concrete oracle type in
/// dist.hpp; the DistTicksFn overload probes for a wrapped oracle once per
/// run (with_static_dist) and refuses any other callable.
template <typename Dist>
QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      Dist dist, const PointerForwardingConfig& config);
QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      const DistTicksFn& dist,
                                      const PointerForwardingConfig& config);

struct ForwardingLoopResult {
  Time makespan = 0;                  // ticks until every node finished its rounds
  std::int64_t total_requests = 0;
  std::uint64_t find_messages = 0;    // pointer-chase hops
  std::uint64_t reply_messages = 0;   // predecessor-identity replies
  double avg_hops_per_request = 0.0;  // find legs per request
  double avg_round_latency_units = 0.0;  // mean issue->reply time per request
  // Degradation metrics (all zero fault-free).
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::int32_t crashes = 0;
  std::uint64_t partition_backlog = 0;  // sends the filter queued at a cut
};

/// Closed-loop driver matching run_arrow_closed_loop's measurement: every
/// node performs `requests_per_node` rounds; when a find reaches the node
/// holding the predecessor request, that node returns the predecessor's
/// identity to the requester as a direct message (latency dG), and the
/// requester issues its next request one service interval after the reply
/// arrives. A request finding the predecessor locally completes with a
/// zero-latency local reply, exactly like the arrow loop. Same
/// oracle-dispatch scheme as run_pointer_forwarding.
template <typename Dist>
ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        Dist dist,
                                                        const PointerForwardingConfig& config);
ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        const DistTicksFn& dist,
                                                        const PointerForwardingConfig& config);

}  // namespace arrowdq
