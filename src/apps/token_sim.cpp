#include "apps/token_sim.hpp"

#include <algorithm>
#include <utility>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"

namespace arrowdq {

namespace {

struct TokenMsg {
  NodeId destination = kNoNode;
  std::size_t order_index = 0;  // which queue position the token is heading to
};

template <typename Latency, typename Handler>
struct TokenDriver;

template <typename Latency>
struct TokenHandler {
  TokenDriver<Latency, TokenHandler>* d = nullptr;
  inline void operator()(NodeId from, NodeId at, const TokenMsg& m) const;
};

/// Message-driven token circulation, statically dispatched like the main
/// protocol drivers: the token is a real message hopping tree edges through
/// the typed-handler network under the given latency sampler.
template <typename Latency, typename Handler>
struct TokenDriver {
  const Tree& tree;
  const RequestSet& requests;
  const QueuingOutcome& outcome;
  Time hold;
  std::vector<RequestId> order;
  TokenSimResult res;
  Graph tree_graph;
  Simulator sim;
  Network<TokenMsg, Latency, Handler> net;
  // The token's position and the queue index it has served so far.
  NodeId token_node;

  TokenDriver(const Tree& t, const RequestSet& reqs, const QueuingOutcome& out, Time hold_ticks,
              Latency latency)
      : tree(t),
        requests(reqs),
        outcome(out),
        hold(hold_ticks),
        order(out.order()),
        tree_graph(t.as_graph()),
        net(tree_graph, sim, std::move(latency)),
        token_node(reqs.root()) {
    res.granted.assign(static_cast<std::size_t>(reqs.size()) + 1, kTimeNever);
    // One token: a single in-flight message plus one pending hold/dispatch
    // event at any instant.
    sim.reserve(4);
    net.reserve_messages(2);
  }

  /// When the token is free at `token_node` having served order[served],
  /// dispatch it toward order[served+1] once that request's completion time
  /// has passed.
  void dispatch_next(std::size_t served) {
    if (served + 1 >= order.size()) return;
    RequestId next_id = order[served + 1];
    const auto& c = outcome.completion(next_id);
    NodeId dest = requests.by_id(next_id).node;
    Time start = std::max(sim.now(), c.completed_at);
    sim.at(start, DepartEvent{this, served, dest});
  }

  void depart(std::size_t served, NodeId dest) {
    if (token_node == dest) {
      // Local handoff (repeated requests from one node).
      RequestId id = order[served + 1];
      res.granted[static_cast<std::size_t>(id)] = sim.now();
      res.makespan = std::max(res.makespan, sim.now() + hold);
      sim.at(sim.now() + hold, HoldDoneEvent{this, served + 1});
      return;
    }
    // First hop along the tree path (next_hop: O(log n), no allocation).
    NodeId hop = tree.next_hop(token_node, dest);
    res.token_travel += tree_graph.edge_weight(token_node, hop);
    ++res.token_messages;
    net.send(token_node, hop, TokenMsg{dest, served + 1});
  }

  void handle(NodeId /*from*/, NodeId at, const TokenMsg& m) {
    if (at != m.destination) {
      // Continue along the tree path toward the destination.
      NodeId hop = tree.next_hop(at, m.destination);
      res.token_travel += tree_graph.edge_weight(at, hop);
      ++res.token_messages;
      net.send(at, hop, TokenMsg{m.destination, m.order_index});
      return;
    }
    // Token arrived at the requester.
    token_node = at;
    RequestId id = order[m.order_index];
    res.granted[static_cast<std::size_t>(id)] = sim.now();
    res.makespan = std::max(res.makespan, sim.now() + hold);
    sim.at(sim.now() + hold, HoldDoneEvent{this, m.order_index});
  }

  struct DepartEvent {
    TokenDriver* d;
    std::size_t served;
    NodeId dest;
    void operator()() const { d->depart(served, dest); }
  };
  struct HoldDoneEvent {
    TokenDriver* d;
    std::size_t served;
    void operator()() const { d->dispatch_next(served); }
  };
};

template <typename Latency>
inline void TokenHandler<Latency>::operator()(NodeId from, NodeId at, const TokenMsg& m) const {
  d->handle(from, at, m);
}

}  // namespace

TokenSimResult simulate_token_passing(const Tree& tree, const RequestSet& requests,
                                      const QueuingOutcome& outcome, Time hold_ticks,
                                      LatencyModel& latency) {
  ARROWDQ_ASSERT_MSG(hold_ticks >= 0, "hold time must be >= 0");
  return with_static_latency(latency, [&](auto lat) {
    using L = decltype(lat);
    TokenDriver<L, TokenHandler<L>> driver(tree, requests, outcome, hold_ticks, std::move(lat));
    driver.net.set_handler(TokenHandler<L>{&driver});
    driver.dispatch_next(0);
    driver.sim.run();
    return std::move(driver.res);
  });
}

}  // namespace arrowdq
