// Sharded-engine entry points: the serial drivers' workloads executed on
// ShardedNetSim (sim/parallel/sharded_sim.hpp) with results bit-identical to
// the serial core for any shard count K (including K = 1, which runs the
// identical window/merge machinery inline with no worker threads).
//
// There is one driver class per protocol (arrow/drivers.hpp,
// baseline/drivers.hpp). Each entry here runs the very class its serial
// entry runs, on the sharded engine instead of the serial one, so every
// observable — makespan, message counts, completion records, exact latency
// sums — reproduces the serial run; tests/parallel_test.cpp pins all 30
// golden hashes through these entries at K = 2 and K = 4 plus randomized
// K ∈ {1, 2, 4} property runs.
//
// Restrictions relative to the serial drivers:
//  * Topology faults — crash, partition and churn schedules — are refused
//    (asserted): their recovery waves are global pointer rewrites that
//    cannot run inside a safe window. Message faults (loss, duplication,
//    jitter, spikes) are fully supported — the filter's single RNG stream is
//    consumed at window barriers in exact serial order.
//  * Direct sends must clear the direct-send floor folded into the
//    lookahead (>= 1 tick); a delivery inside its own window is asserted.
#pragma once

#include <cstdint>
#include <vector>

#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "graph/implicit.hpp"
#include "graph/tree.hpp"
#include "proto/queuing.hpp"
#include "proto/request.hpp"
#include "sim/latency.hpp"
#include "sim/parallel/partition.hpp"
#include "support/types.hpp"

namespace arrowdq {

/// The Figure 10 closed-loop arrow driver on the sharded engine
/// (materialized-tree tier). `par_out`, when non-null, receives the engine's
/// window/merge counters (the fig10_parallel bench section reports them).
ClosedLoopResult run_arrow_closed_loop_sharded(const Tree& tree, LatencyModel& latency,
                                               const ClosedLoopConfig& config,
                                               const ShardSpec& shard,
                                               ParallelStats* par_out = nullptr);

/// The same driver on an implicit topology (PR 7's million-node tier). Note
/// the sharded lanes use 64-byte event slots (the engine's delivery event
/// carries the message inline), so per-node event memory is ~2x the serial
/// CompactSimulator tier — the tradeoff for intra-run parallelism.
ClosedLoopResult run_arrow_closed_loop_implicit_sharded(const ImplicitTopology& topo,
                                                        LatencyModel& latency,
                                                        const ClosedLoopConfig& config,
                                                        const ShardSpec& shard,
                                                        ParallelStats* par_out = nullptr);

/// One-shot arrow through the sharded engine, exposing the post-run
/// observables the serial ArrowEngine does (the golden arrow hashes fold
/// links / sink / messages / makespan alongside the outcome).
struct ShardedArrowRun {
  QueuingOutcome out;
  std::vector<NodeId> links;
  NodeId sink = kNoNode;
  std::uint64_t messages = 0;
  Time makespan = 0;
  FaultStats fault_stats;  // loss/duplication counters (zero when fault-free)
};

ShardedArrowRun run_arrow_one_shot_sharded(const Tree& tree, const RequestSet& requests,
                                           LatencyModel& latency, Time service_time,
                                           const FaultSpec& fault, const ShardSpec& shard);

/// Centralized and pointer-forwarding baselines (direct sends against a
/// distance oracle only; the oracle must be pure — lanes draw concurrently).
QueuingOutcome run_centralized_sharded(NodeId node_count, const RequestSet& requests,
                                       const DistTicksFn& dist,
                                       const CentralizedConfig& config,
                                       const ShardSpec& shard);

QueuingOutcome run_pointer_forwarding_sharded(NodeId node_count, const RequestSet& requests,
                                              const DistTicksFn& dist,
                                              const PointerForwardingConfig& config,
                                              const ShardSpec& shard);

ForwardingLoopResult run_pointer_forwarding_closed_loop_sharded(
    NodeId node_count, std::int64_t requests_per_node, const DistTicksFn& dist,
    const PointerForwardingConfig& config, const ShardSpec& shard);

}  // namespace arrowdq
