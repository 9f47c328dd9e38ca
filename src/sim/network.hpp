// Point-to-point FIFO message network over a graph, driven by the simulator.
//
// Guarantees, matching the paper's model:
//  * FIFO links: messages on the same directed edge are delivered in send
//    order even under randomized latencies (later sends are clamped to not
//    overtake earlier ones).
//  * Atomic handlers: a node's handler for one message runs to completion at
//    a single simulated instant.
//  * Optional serial per-node service time: each node processes messages one
//    at a time, each occupying the node for `service_time` ticks. The
//    theoretical model of Section 3.1 has free local processing
//    (service_time = 0, the default); the Section 5 experiment reproduction
//    sets it > 0 to model a real CPU's serial message handling, which is
//    what makes the centralized protocol's home node a bottleneck.
//
// The model is written once, in NetworkModel: the latency draw, the fault
// filter, the FIFO clamp, fault deferral, the send counters and the serial
// service step. Network (this file's serial engine) and ShardedNetSim
// (sim/parallel/sharded_sim.hpp) both own one and call it; neither keeps
// timing arithmetic of its own.
//
// Hot-path design: each in-flight message lives in one slot of a free-listed
// pool and is dispatched through the single stored handler — no per-send
// closure, no allocation after the pool warms up. The FIFO clamp is a flat
// array indexed by the graph's dense directed-edge id (Graph::find_edge,
// O(1)).
//
// Static dispatch: the network is templated on the latency sampler, the
// handler, and the fault filter, and every user names all three. The
// protocol drivers instantiate `Network<M, ConcreteSampler,
// TypedHandlerStruct>`, so a send samples its latency with an inlinable
// direct call and a delivery invokes the protocol handler without an
// indirect dispatch — the whole send → schedule → deliver → handle chain is
// visible to the optimizer as one loop. There is no type-erased default: a
// dynamic LatencyModel reaches a network only through with_static_latency
// (latency.hpp), which hands over its concrete sampler. With the default
// `NoFaults` the fault branches are `if constexpr`-eliminated, so the
// fault-free hot path is unchanged down to the instruction level (the
// golden hashes pin this).
//
// The trailing `Index` and `Sim` parameters generalize the edge index and
// the event arena for the scale path: `Index` is anything with Graph's
// node_count / dir_edge_count / find_edge shape (graph/implicit.hpp's
// ImplicitTreeIndex computes edges on the fly for the structured families),
// and `Sim` selects the event-slot width (CompactSimulator's 32-byte slots
// for network-sized protocol events at millions of nodes). Both default to
// the materialized types, so every existing instantiation is untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

struct NetworkStats {
  std::uint64_t edge_messages = 0;    // messages sent over graph edges
  std::uint64_t direct_messages = 0;  // messages sent via send_with_latency
  Time total_edge_latency = 0;        // sum of sampled edge latencies (ticks)
};

/// The network model, written once: when a message sent now is delivered,
/// and when a serial node finishes handling it. It owns the latency sampler,
/// the fault filter, the per-edge FIFO horizons, the per-node service
/// horizons and the send counters. Network calls it on every send and
/// delivery; ShardedNetSim calls the send side at its window barriers in
/// merged (serial) order and the service step from the lane owning the
/// receiving node.
template <typename Latency, typename Faults, typename Index>
class NetworkModel {
 public:
  NetworkModel(const Index& index, Latency latency, Faults faults)
      : index_(index),
        latency_(std::move(latency)),
        faults_(std::move(faults)),
        fifo_ready_(index.dir_edge_count(), 0),
        busy_until_(static_cast<std::size_t>(index.node_count()), 0) {}

  /// Serial processing cost per message at every node, in ticks.
  void set_service_time(Time ticks) {
    ARROWDQ_ASSERT_MSG(ticks >= 0, "service time must be >= 0");
    service_time_ = ticks;
  }
  /// Whether arrivals queue for serial service (service time > 0).
  bool serial_service() const { return service_time_ != 0; }

  /// Delivery instant of a message sent at `now` over graph edge {from,
  /// to}: latency sampled from the model and clamped for FIFO.
  Time edge_delivery(NodeId from, NodeId to, Time now) {
    // Adding edges renumbers the dense directed ids, which would silently
    // alias fifo_ready_ entries — catch any mutation, not just growth past
    // the old size. Debug-only: a per-send size re-check is pure hot-loop
    // overhead in Release.
    ARROWDQ_ASSERT(index_.dir_edge_count() == fifo_ready_.size());
    DirEdgeRef edge = index_.find_edge(from, to);
    ARROWDQ_ASSERT_MSG(edge, "send over a non-edge");
    Time lat = latency_(from, to, edge.weight);
    ARROWDQ_ASSERT(lat >= 1);
    bool duplicated = false;
    if constexpr (Faults::kActive) {
      EdgeFaultResult f = faults_.on_edge(from, to, lat);
      lat = f.latency;
      duplicated = f.duplicated;
    }
    Time deliver = now + lat;
    // FIFO clamp: never deliver before an earlier message on this edge.
    Time& ready = fifo_ready_[static_cast<std::size_t>(edge.id)];
    if (deliver < ready) deliver = ready;
    if constexpr (Faults::kActive) {
      // A delivery falling inside a crash/churn window of `to` or crossing
      // an active partition cut waits the window out; the FIFO horizon
      // moves with it so link order still holds and cut backlogs drain in
      // send order at the heal instant.
      deliver = faults_.defer_edge(from, to, deliver);
    }
    ready = deliver;
    if constexpr (Faults::kActive) {
      // The duplicate copy is suppressed at the transport (the protocols
      // are not idempotent) but still occupies the link behind the
      // original, so duplication surfaces as FIFO congestion.
      if (duplicated) ready += lat;
    }
    ++stats_.edge_messages;
    stats_.total_edge_latency += lat;
    return deliver;
  }

  /// Delivery instant of a message sent at `now` with an explicit latency
  /// (ticks), e.g. along a shortest path of the underlying graph rather
  /// than a single edge. Not FIFO-clamped against edge traffic (it does not
  /// traverse a single link).
  Time direct_delivery(NodeId from, NodeId to, Time now, Time latency) {
    ARROWDQ_ASSERT(latency >= 0);
    Time deliver = now + latency;
    if constexpr (Faults::kActive) {
      deliver = now + faults_.on_direct(from, to, latency);
      deliver = faults_.defer_edge(from, to, deliver);
    }
    ++stats_.direct_messages;
    return deliver;
  }

  /// The service step for a message arriving at serial node `to` at
  /// `arrival`: wait until the node frees up, occupy it for one service
  /// interval, and return the completion instant, when the handler runs.
  Time serve(NodeId to, Time arrival) {
    Time& busy = busy_until_[static_cast<std::size_t>(to)];
    busy = std::max(arrival, busy) + service_time_;
    return busy;
  }

  Faults& faults() { return faults_; }
  const Faults& faults() const { return faults_; }
  const NetworkStats& stats() const { return stats_; }

 private:
  const Index& index_;
  Latency latency_;
  Faults faults_;
  Time service_time_ = 0;
  std::vector<Time> fifo_ready_;  // indexed by dense directed-edge id
  std::vector<Time> busy_until_;  // indexed by node
  NetworkStats stats_;
};

template <typename M, typename Latency, typename Handler, typename Faults = NoFaults,
          typename Index = Graph, typename Sim = Simulator>
class Network {
 public:
  // Messages are copied in and out of the in-flight pool, and the sharded
  // engine carries them inline in its delivery events, so they must stay
  // trivially copyable and within the default simulator's inline-event
  // budget. (Here they live in the network's own pool, never in an event
  // slot, so the compact simulator does not tighten this bound.)
  static_assert(std::is_trivially_copyable_v<M>,
                "network message types must be trivially copyable");
  static_assert(sizeof(M) <= Simulator::kInlineStorage,
                "network message types must fit the 48-byte inline-event budget");

  Network(const Index& graph, Sim& sim, Latency latency, Faults faults = Faults{})
      : sim_(sim), model_(graph, std::move(latency), std::move(faults)) {}

  void set_handler(Handler h) {
    handler_ = std::move(h);
    handler_set_ = true;
  }

  /// Serial processing cost per message at every node, in ticks.
  void set_service_time(Time ticks) { model_.set_service_time(ticks); }

  /// Capacity hint: pre-size the message pool for ~n concurrently in-flight
  /// messages.
  void reserve_messages(std::size_t n) {
    pool_.reserve(n);
    free_.reserve(n);
  }

  Faults& faults() { return model_.faults(); }
  const Faults& faults() const { return model_.faults(); }
  const NetworkStats& stats() const { return model_.stats(); }

  /// Send over graph edge {from, to}; latency sampled from the model and
  /// clamped for FIFO.
  void send(NodeId from, NodeId to, M msg) {
    schedule_processing(from, to, model_.edge_delivery(from, to, sim_.now()), msg);
  }

  /// Send with an explicit latency (ticks); see
  /// NetworkModel::direct_delivery.
  void send_with_latency(NodeId from, NodeId to, Time latency, M msg) {
    schedule_processing(from, to, model_.direct_delivery(from, to, sim_.now(), latency), msg);
  }

 private:
  struct Pending {
    M msg;
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    bool in_service = false;
  };

  /// The one event type the network schedules: 16 trivially-copyable bytes,
  /// always on the simulator's inline path.
  struct DeliveryEvent {
    Network* net;
    std::uint32_t slot;
    void operator()() const { net->deliver(slot); }
  };

  void schedule_processing(NodeId from, NodeId to, Time deliver, const M& msg) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      Pending& p = pool_[slot];
      p.msg = msg;
      p.from = from;
      p.to = to;
      p.in_service = false;
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Pending{msg, from, to, false});
    }
    sim_.at(deliver, DeliveryEvent{this, slot});
  }

  void deliver(std::uint32_t slot) {
    Pending& p = pool_[slot];
    if (model_.serial_service() && !p.in_service) {
      // Arrival at a serial node: re-arm this same record for the instant
      // its service completes.
      p.in_service = true;
      sim_.at(model_.serve(p.to, sim_.now()), DeliveryEvent{this, slot});
      return;
    }
    if constexpr (std::is_constructible_v<bool, const Handler&>) {
      ARROWDQ_ASSERT_MSG(static_cast<bool>(handler_), "no handler installed");
    } else {
      // Typed handlers carry no emptiness state of their own; the flag
      // keeps "forgot set_handler" loud under the Debug/ASan CI job.
      ARROWDQ_ASSERT(handler_set_);
    }
    // Copy the record out and recycle the slot first: the handler may send,
    // and that send can reuse this slot immediately.
    NodeId from = p.from;
    NodeId to = p.to;
    M msg = p.msg;
    free_.push_back(slot);
    handler_(from, to, msg);
  }

  Sim& sim_;
  NetworkModel<Latency, Faults, Index> model_;
  Handler handler_{};
  bool handler_set_ = false;
  std::vector<Pending> pool_;
  std::vector<std::uint32_t> free_;
};

}  // namespace arrowdq
