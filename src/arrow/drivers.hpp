// The two arrow protocol drivers, each written once against the driver
// context (sim/engine.hpp), so the serial entries (arrow.cpp,
// closed_loop.cpp) and the sharded ones (sim/parallel/drivers.cpp) run the
// same code:
//
//  * OneShotDriver — a fixed request set run to quiescence (ArrowEngine).
//  * LoopDriver — Section 5's closed loop, one outstanding request per node.
//
// Both reverse link(u) and forward queue(a), or queue behind id(u) at the
// sink, exactly as arrow.hpp states the protocol. Topology-fault recovery
// is the shared wave of arrow/recovery.hpp, compiled in for the serial
// engine only (`kRecovery`).
//
// The classes live in an unnamed namespace so that every instantiation is
// local to the one .cpp that runs it; GCC then inlines the whole
// deliver -> receive -> send chain. With external linkage it kept
// Network::schedule_processing and the sharded delivery path out of line,
// about 9% slower on the Figure 10 cell at K = 2.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "arrow/recovery.hpp"
#include "graph/implicit.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"

namespace arrowdq {
namespace {

/// The unique node whose link points to itself (asserted unique: the
/// quiescence invariant).
inline NodeId unique_sink(const std::vector<NodeId>& link) {
  NodeId sink = kNoNode;
  for (NodeId v = 0; v < static_cast<NodeId>(link.size()); ++v) {
    if (link[static_cast<std::size_t>(v)] == v) {
      ARROWDQ_ASSERT_MSG(sink == kNoNode, "multiple sinks at quiescence");
      sink = v;
    }
  }
  ARROWDQ_ASSERT_MSG(sink != kNoNode, "no sink at quiescence");
  return sink;
}

// --- one-shot ---------------------------------------------------------------

/// One-shot arrow: issue a fixed request set, run to quiescence. Borrows the
/// caller's pointer/id state so post-run inspection (links, sink) works.
template <typename Engine, typename Latency, typename Faults = NoFaults>
class OneShotDriver {
 public:
  using Eng = typename Engine::template Net<ArrowMsg, Latency, CtxHandler<OneShotDriver>, Faults,
                                            Graph, Simulator>;
  using Ctx = typename Eng::LaneCtx;
  static constexpr bool kRecovery = Faults::kActive && !Eng::kSharded;

  /// Resets `link` / `last_req` to the initial configuration (Figure 1):
  /// every pointer leads to the request root, the sink holding r0.
  OneShotDriver(const Tree& tree, const Graph& tree_graph, const RequestSet& requests,
                const FaultSpec& fault, Time service_time, std::vector<NodeId>& link,
                std::vector<RequestId>& last_req, QueuingOutcome& out, Latency latency,
                Faults faults, typename Eng::Setup setup)
      : graph_(tree_graph),
        eng_(tree_graph, std::move(latency), std::move(faults), std::move(setup)),
        link_(link),
        last_req_(last_req),
        out_(out) {
    const NodeId root = requests.root();
    ARROWDQ_ASSERT_MSG(root >= 0 && root < tree.node_count(), "request root is not a tree node");
    const auto n = static_cast<std::size_t>(tree.node_count());
    // Rebuild the tree rooted at the request root so parent pointers point
    // the right way regardless of how the caller rooted T.
    const Tree rooted = tree.root() == root ? tree : tree.rerooted(root);
    link_.assign(n, kNoNode);
    last_req_.assign(n, kNoRequest);
    for (NodeId v = 0; v < tree.node_count(); ++v)
      link_[static_cast<std::size_t>(v)] = v == root ? v : rooted.parent(v);
    last_req_[static_cast<std::size_t>(root)] = kRootRequest;
    // Pending events are bounded by the issue schedule plus in-flight
    // messages (at most a few per tree node at any instant).
    eng_.reserve(static_cast<std::size_t>(requests.size()) + 2 * n, 2 * n);
    eng_.set_service_time(service_time);
    eng_.set_handler(CtxHandler<OneShotDriver>{this});
    eng_.record_into(out);
    if constexpr (kRecovery) {
      if (fault.has_topology_faults()) rec_.emplace(*this, tree, root, fault);
    } else {
      (void)fault;
    }
  }

  void run(const RequestSet& requests) {
    for (const Request& r : requests.real()) eng_.post_initial(r.node, r.time, IssueEvent{this, r});
    if constexpr (kRecovery) {
      if (rec_) rec_->start();
    }
    eng_.run();
  }

  Eng& engine() { return eng_; }
  /// Recovery counters (absent when no topology fault was scheduled).
  const std::optional<ArrowRecovery<OneShotDriver, ArrowMsg>>& recovery() const { return rec_; }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    if constexpr (Faults::kActive) {
      // A crashed node cannot issue; retry when its down window closes.
      Time up = eng_.faults().defer(r.node, ctx.now());
      if (up != ctx.now()) {
        ctx.at(up, IssueEvent{this, r});
        return;
      }
    }
    NodeId v = r.node;
    auto vi = static_cast<std::size_t>(v);
    if (link_[vi] == v) {
      // v is the sink: queue behind v's previous request locally, no messages.
      RequestId pred = last_req_[vi];
      ARROWDQ_ASSERT(pred != kNoRequest);
      last_req_[vi] = r.id;
      record(ctx, r.id, pred, 0, 0);
      return;
    }
    NodeId target = link_[vi];
    last_req_[vi] = r.id;
    link_[vi] = v;
    ctx.send(v, target, ArrowMsg{r.id, 1, graph_.edge_weight(v, target), epoch_});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const ArrowMsg& msg) {
    if constexpr (kRecovery) {
      if (msg.epoch != epoch_) {
        absorb(ctx, at, msg);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;  // path reversal
    if (next != at) {
      ctx.send(at, next,
               ArrowMsg{msg.req, msg.hops + 1, msg.dist + graph_.edge_weight(at, next), epoch_});
      return;
    }
    // `at` is the sink: msg.req is queued behind at's last issued request.
    RequestId pred = last_req_[ui];
    ARROWDQ_ASSERT_MSG(pred != kNoRequest, "sink without an id — broken initial state");
    record(ctx, msg.req, pred, msg.hops, msg.dist);
  }

 private:
  friend class ArrowRecovery<OneShotDriver, ArrowMsg>;

  struct IssueEvent {
    OneShotDriver* driver;
    Request r;
    void operator()() const { driver->issue(r); }
  };

  bool finished() const { return out_.is_complete(); }

  /// The live end of the recorded successor chain containing `id`. A stored
  /// pending tail can be superseded while faults are active: partition-side
  /// adoption copies a tail without clearing its source, and absorb's
  /// chain-end walk can land on an id another live sink also holds — so two
  /// sinks alias one chain, and whichever appends first gives the shared id
  /// a successor. Queuing behind the stale copy would then put two requests
  /// behind the same predecessor; walking to the chain end at use time makes
  /// every record site self-healing.
  RequestId chain_end(RequestId id) const {
    while (out_.successor_of(id) != kNoRequest) id = out_.successor_of(id);
    return id;
  }

  /// Record `req` queued behind the stored tail `pred`. Under recovery every
  /// record site goes through here: the stored tail is walked to its chain
  /// end, and when that end lies inside req's own chain (a wave adopted req,
  /// or a request queued behind it, as a tail before req's own message
  /// arrived) recording behind it would close a successor cycle, so req's
  /// chain attaches to the end of the root chain instead. That chain is
  /// disjoint from req's: req is unrecorded, so it heads its own chain, and
  /// recorded chains never merge.
  void record(Ctx& ctx, RequestId req, RequestId pred, std::int32_t hops, Weight dist) {
    if constexpr (kRecovery) {
      pred = chain_end(pred);
      if (chain_end(req) == pred) pred = chain_end(kRootRequest);
    }
    ctx.record(Completion{req, pred, ctx.now(), hops, dist});
  }

  /// Queue a pre-wave message's request behind the live tail. The stale
  /// request may already have its own successor chain (requests that queued
  /// behind it before the wave, or behind its adopted tail after), so the
  /// live tail advances to the *end* of that chain.
  void absorb(Ctx& ctx, NodeId at, const ArrowMsg& msg) {
    const NodeId sink = rec_->absorb_sink(at, msg);
    if (sink == kNoNode) return;  // parked until the heal
    auto si = static_cast<std::size_t>(sink);
    ARROWDQ_ASSERT_MSG(last_req_[si] != kNoRequest, "absorbing sink without a tail");
    const RequestId tail = chain_end(msg.req);
    record(ctx, msg.req, last_req_[si], msg.hops, msg.dist);
    last_req_[si] = tail;
  }

  const Graph& graph_;
  Eng eng_;
  std::vector<NodeId>& link_;
  std::vector<RequestId>& last_req_;
  QueuingOutcome& out_;
  std::int32_t epoch_ = 0;
  std::optional<ArrowRecovery<OneShotDriver, ArrowMsg>> rec_;
};

// --- closed loop ------------------------------------------------------------

enum class LoopMsgKind : std::uint8_t { kQueue, kNotify };

struct LoopMsg {
  LoopMsgKind kind = LoopMsgKind::kQueue;
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;  // issuer of `req` (for the reply)
  std::int32_t hops = 0;
  std::int32_t epoch = 0;  // recovery epoch (kQueue only); 0 fault-free
};

/// Topology policies for LoopDriver. The protocol core reads only
/// node_count / root / parent, so one driver serves both tiers — which is
/// what makes the implicit path tick-identical to the materialized one by
/// construction.
///
/// Materialized: a Tree and its Graph, the default 64-byte event slots,
/// topology-fault recovery available (SelfStabilizer walks the real tree).
struct MaterializedTopo {
  const Tree* tree = nullptr;
  using Index = Graph;
  using Sim = Simulator;
  /// Round counters are kept wide; requests_per_node is an int64 axis.
  using RoundCount = std::int64_t;
  static constexpr bool kMaterialized = true;
  NodeId node_count() const { return tree->node_count(); }
  NodeId root() const { return tree->root(); }
  NodeId parent(NodeId v) const { return tree->parent(v); }
  Index make_index() const { return tree->as_graph(); }
};

/// Implicit: closed-form parents and on-the-fly edge ids (no stored Graph,
/// no stored parent array), CompactSimulator's 32-byte event slots, 32-bit
/// round counters — the compact configuration for million-node runs.
struct ImplicitLoopTopo {
  ImplicitTopology topo;
  using Index = ImplicitTreeIndex;
  using Sim = CompactSimulator;
  using RoundCount = std::int32_t;
  static constexpr bool kMaterialized = false;
  NodeId node_count() const { return topo.n; }
  NodeId root() const { return topo.root; }
  NodeId parent(NodeId v) const { return topo.tree_parent(v); }
  Index make_index() const { return ImplicitTreeIndex{topo}; }
};

/// Closed-loop arrow driver: requests are generated on the fly, one
/// outstanding per node; the sink returns the predecessor identity to the
/// requester as a direct message, on whose receipt the requester issues
/// its next request.
template <typename Engine, typename Latency, typename Faults = NoFaults,
          typename Topo = MaterializedTopo>
class LoopDriver {
 public:
  using Eng = typename Engine::template Net<LoopMsg, Latency, CtxHandler<LoopDriver>, Faults,
                                            typename Topo::Index, typename Topo::Sim>;
  using Ctx = typename Eng::LaneCtx;
  static constexpr bool kRecovery = Faults::kActive && !Eng::kSharded && Topo::kMaterialized;

  LoopDriver(Topo topo, const typename Topo::Index& index, const ClosedLoopConfig& config,
             Latency latency, Faults faults, typename Eng::Setup setup)
      : topo_(std::move(topo)),
        config_(config),
        eng_(index, std::move(latency), std::move(faults), std::move(setup)),
        link_(static_cast<std::size_t>(topo_.node_count())),
        last_req_(static_cast<std::size_t>(topo_.node_count()), kNoRequest),
        issued_(static_cast<std::size_t>(topo_.node_count()), 0),
        issue_time_(static_cast<std::size_t>(topo_.node_count()), 0),
        accum_(static_cast<std::size_t>(eng_.lane_count())) {
    // One outstanding request per node bounds concurrently pending events
    // and in-flight messages to O(n).
    const auto n = static_cast<std::size_t>(topo_.node_count());
    if constexpr (Topo::kMaterialized) {
      eng_.reserve(4 * n, 2 * n);
    } else {
      // At million-node scale the reserve itself is the memory budget:
      // ~n events (every node's t=0 issue) and ~n in-flight messages are
      // live at once; growth past the hint stays amortized.
      eng_.reserve(n + n / 4 + 64, n + n / 4 + 64);
    }
    eng_.set_service_time(config.service_time);
    eng_.set_handler(CtxHandler<LoopDriver>{this});
    NodeId root = topo_.root();
    for (NodeId v = 0; v < topo_.node_count(); ++v)
      link_[static_cast<std::size_t>(v)] = v == root ? v : topo_.parent(v);
    last_req_[static_cast<std::size_t>(root)] = kRootRequest;
    if constexpr (kRecovery) {
      if (config.fault.has_topology_faults()) rec_.emplace(*this, *topo_.tree, root, config.fault);
    } else if constexpr (Faults::kActive) {
      // The entry points keep topology-fault schedules off the sharded
      // engine and the implicit tier; this is the backstop.
      ARROWDQ_ASSERT_MSG(!config.fault.has_topology_faults(),
                         "topology-fault recovery requires the serial engine and a "
                         "materialized tree");
    }
  }

  Eng& engine() { return eng_; }

  ClosedLoopResult run() {
    for (NodeId v = 0; v < topo_.node_count(); ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    if constexpr (kRecovery) {
      if (rec_) rec_->start();
    }
    eng_.run();
    ClosedLoopResult res;
    res.makespan = eng_.makespan();
    res.total_requests = static_cast<std::int64_t>(topo_.node_count()) *
                         config_.requests_per_node;
    res.tree_messages = eng_.stats().edge_messages;
    res.notify_messages = eng_.stats().direct_messages;
    res.avg_hops_per_request =
        res.total_requests == 0
            ? 0.0
            : static_cast<double>(res.tree_messages) / static_cast<double>(res.total_requests);
    res.avg_round_latency_units = mean_round_latency_units(accum_);
    if constexpr (Faults::kActive) {
      res.messages_dropped = eng_.faults().stats().messages_dropped;
      res.messages_duplicated = eng_.faults().stats().messages_duplicated;
      res.partition_backlog = eng_.faults().stats().partition_deferred;
    }
    if constexpr (kRecovery) {
      if (rec_) {
        res.crashes = rec_->crashes_applied;
        res.stabilize_rounds = rec_->stabilize_rounds;
        res.stabilize_corrections = rec_->stabilize_corrections;
        res.partitions = rec_->partitions_applied;
        res.reselections = rec_->reselections;
      }
    }
    return res;
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const LoopMsg& m) {
    if (m.kind == LoopMsgKind::kNotify) {
      // Replies ride outside the pointer dynamics, so they stay valid
      // across recovery waves — no epoch check.
      round_done(ctx, at);
      return;
    }
    if constexpr (kRecovery) {
      if (m.epoch != epoch_) {
        absorb(ctx, at, m);
        return;
      }
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link_[ui];
    link_[ui] = from;
    if (next != at) {
      ctx.send(at, next, LoopMsg{LoopMsgKind::kQueue, m.req, m.requester, m.hops + 1, epoch_});
      return;
    }
    // Sink found; return the predecessor identity to the requester.
    ARROWDQ_ASSERT(last_req_[ui] != kNoRequest);
    reply(ctx, at, m);
  }

  void issue(NodeId v) {
    Ctx ctx = eng_.ctx_of(v);
    auto vi = static_cast<std::size_t>(v);
    if (issued_[vi] >= config_.requests_per_node) return;
    if constexpr (Faults::kActive) {
      // A crashed node cannot issue; retry when its down window closes.
      Time up = eng_.faults().defer(v, ctx.now());
      if (up != ctx.now()) {
        ctx.at(up, IssueEvent{this, v});
        return;
      }
    }
    ++issued_[vi];
    RequestId a =
        accum_[static_cast<std::size_t>(ctx.lane())].next_id(ctx.lane(), eng_.lane_count());
    issue_time_[vi] = ctx.now();
    if (link_[vi] == v) {
      ARROWDQ_ASSERT(last_req_[vi] != kNoRequest);
      last_req_[vi] = a;
      // Predecessor found locally: the reply is local too (zero latency).
      round_done(ctx, v);
      return;
    }
    NodeId target = link_[vi];
    last_req_[vi] = a;
    link_[vi] = v;
    ctx.send(v, target, LoopMsg{LoopMsgKind::kQueue, a, v, 1, epoch_});
  }

 private:
  friend class ArrowRecovery<LoopDriver, LoopMsg>;

  /// The one event the driver itself schedules: issue node v's next request.
  struct IssueEvent {
    LoopDriver* driver;
    NodeId v;
    void operator()() const { driver->issue(v); }
  };

  /// The sink answers m's requester (locally when it is the requester) with
  /// a direct message of one unit: the complete-graph SP2 setup, where
  /// every pair is one unit apart.
  void reply(Ctx& ctx, NodeId sink, const LoopMsg& m) {
    if (m.requester == sink) {
      round_done(ctx, sink);
    } else {
      ctx.send_with_latency(sink, m.requester, kTicksPerUnit,
                            LoopMsg{LoopMsgKind::kNotify, m.req, m.requester, 0, epoch_});
    }
  }

  void round_done(Ctx& ctx, NodeId v) {
    LaneAccum& acc = accum_[static_cast<std::size_t>(ctx.lane())];
    acc.lat_sum += ctx.now() - issue_time_[static_cast<std::size_t>(v)];
    ++acc.lat_count;
    // Re-issue through the event loop (not recursively) so long local-only
    // streaks do not grow the call stack. Preparing the next request costs
    // one service interval of local CPU time — without this, a node holding
    // the tail would complete its whole budget of local requests in zero
    // simulated time, which no real processor can do.
    ctx.in(config_.service_time, IssueEvent{this, v});
  }

  std::int64_t rounds_done() const {
    std::int64_t done = 0;
    for (const LaneAccum& a : accum_) done += a.lat_count;
    return done;
  }

  bool finished() const {
    return rounds_done() >=
           static_cast<std::int64_t>(topo_.node_count()) * config_.requests_per_node;
  }

  /// A pre-wave queue message: the pointer path it was chasing is gone, so
  /// the live sink queues the request behind its tail and answers the
  /// requester directly — the round completes, just via recovery.
  void absorb(Ctx& ctx, NodeId at, const LoopMsg& m) {
    const NodeId sink = rec_->absorb_sink(at, m);
    if (sink == kNoNode) return;  // parked until the heal
    auto si = static_cast<std::size_t>(sink);
    ARROWDQ_ASSERT_MSG(last_req_[si] != kNoRequest, "absorbing sink without a tail");
    last_req_[si] = m.req;
    reply(ctx, sink, m);
  }

  Topo topo_;
  const ClosedLoopConfig& config_;
  Eng eng_;
  std::vector<NodeId> link_;          // element-owned by the node's lane
  std::vector<RequestId> last_req_;   // element-owned by the node's lane
  std::vector<typename Topo::RoundCount> issued_;
  std::vector<Time> issue_time_;
  std::vector<LaneAccum> accum_;
  std::int32_t epoch_ = 0;
  std::optional<ArrowRecovery<LoopDriver, LoopMsg>> rec_;
};

}  // namespace
}  // namespace arrowdq
