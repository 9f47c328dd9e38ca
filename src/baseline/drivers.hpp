// The centralized and pointer-forwarding drivers, each written once against
// the driver context (sim/engine.hpp): the serial entries (centralized.cpp,
// pointer_forwarding.cpp) and the sharded ones (sim/parallel/drivers.cpp)
// instantiate the same classes. Every message is a direct send with an
// explicit latency drawn from a distance oracle — the network has no edges
// (DirectOnlyIndex) and its sampler is a stateless placeholder. The oracle
// is a value type, so the standard unit/APSP draws are direct calls, and the
// Faults parameter compiles the fault branch out under NoFaults.
//
// The classes live in an unnamed namespace for the inlining reason given in
// arrow/drivers.hpp.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "sim/engine.hpp"
#include "support/assert.hpp"

namespace arrowdq {
namespace {

// --- centralized ------------------------------------------------------------

enum class CentralKind : std::uint8_t { kRequest, kReply };

struct CentralMsg {
  CentralKind kind = CentralKind::kRequest;
  RequestId req = kNoRequest;
  RequestId pred = kNoRequest;
  NodeId requester = kNoNode;
};

/// One-shot centralized queuing: every request goes to the center, which
/// appends it to the queue and replies with the predecessor. A request from
/// the center itself completes locally with zero messages.
template <typename Engine, typename Dist, typename Faults>
class CentralOneShot {
 public:
  using Eng = typename Engine::template Net<CentralMsg, SyncSampler, CtxHandler<CentralOneShot>,
                                            Faults, DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::LaneCtx;

  CentralOneShot(const DirectOnlyIndex& index, const RequestSet& requests, Dist dist,
                 const CentralizedConfig& config, QueuingOutcome& out, Faults faults,
                 typename Eng::Setup setup)
      : eng_(index, SyncSampler{}, std::move(faults), std::move(setup)),
        dist_(dist),
        config_(config),
        travel_(static_cast<std::size_t>(requests.size()) + 1, 0) {
    ARROWDQ_ASSERT_MSG(config.center >= 0 && config.center < index.node_count(),
                       "center must be a node");
    eng_.reserve(2 * static_cast<std::size_t>(requests.size()) + 2,
                 static_cast<std::size_t>(requests.size()) + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(CtxHandler<CentralOneShot>{this});
    eng_.record_into(out);
    for (const Request& r : requests.real()) {
      ARROWDQ_ASSERT_MSG(r.node >= 0 && r.node < index.node_count(), "request from a non-node");
      eng_.post_initial(r.node, r.time, IssueEvent{this, r});
      travel_[static_cast<std::size_t>(r.id)] = ticks_to_units(dist(r.node, config.center));
    }
  }

  /// Run to quiescence; fills config.fault_stats_out when set.
  void run() {
    eng_.run();
    if (config_.fault_stats_out != nullptr) {
      *config_.fault_stats_out = FaultStats{};
      if constexpr (Faults::kActive) *config_.fault_stats_out = eng_.faults().stats();
    }
  }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    const NodeId center = config_.center;
    if (r.node == center) {
      RequestId pred = enqueue(r.id);
      ctx.record(Completion{r.id, pred, ctx.now(), 0, 0});
      return;
    }
    ctx.send_with_latency(r.node, center, dist(r.node, center),
                          CentralMsg{CentralKind::kRequest, r.id, kNoRequest, r.node});
  }

  void receive(Ctx& ctx, NodeId /*from*/, NodeId at, const CentralMsg& m) {
    const NodeId center = config_.center;
    if (m.kind == CentralKind::kRequest) {
      ARROWDQ_ASSERT(at == center);
      RequestId pred = enqueue(m.req);
      if (m.requester == center) {
        ctx.record(Completion{m.req, pred, ctx.now(), /*hops=*/1,
                              static_cast<Weight>(travel_[static_cast<std::size_t>(m.req)])});
      } else {
        ctx.send_with_latency(center, m.requester, dist(center, m.requester),
                              CentralMsg{CentralKind::kReply, m.req, pred, m.requester});
      }
    } else {
      ctx.record(Completion{m.req, m.pred, ctx.now(), /*hops=*/2,
                            static_cast<Weight>(2 * travel_[static_cast<std::size_t>(m.req)])});
    }
  }

 private:
  struct IssueEvent {
    CentralOneShot* d;
    Request r;
    void operator()() const { d->issue(r); }
  };

  /// Processes a request at the center: returns the predecessor and
  /// advances the tail. Only events executing at the center touch tail_ —
  /// on the sharded engine, the center's lane alone.
  RequestId enqueue(RequestId req) {
    RequestId pred = tail_;
    tail_ = req;
    return pred;
  }

  Time dist(NodeId u, NodeId v) const { return u == v ? Time{0} : dist_(u, v); }

  Eng eng_;
  Dist dist_;
  const CentralizedConfig& config_;
  std::vector<Weight> travel_;  // filled before the run, read-only while running
  RequestId tail_ = kRootRequest;
};

// --- pointer forwarding -----------------------------------------------------

struct FindMsg {
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;
  std::int32_t hops = 0;
  Weight dist_units = 0;
};

/// One-shot pointer forwarding: a find chases owner hints to the node
/// holding the tail, updating each hint it passes (config.mode).
template <typename Engine, typename Dist, typename Faults>
class Forwarder {
 public:
  using Eng = typename Engine::template Net<FindMsg, SyncSampler, CtxHandler<Forwarder>, Faults,
                                            DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::LaneCtx;

  Forwarder(const DirectOnlyIndex& index, const RequestSet& requests, Dist dist,
            const PointerForwardingConfig& config, QueuingOutcome& out, Faults faults,
            typename Eng::Setup setup)
      : eng_(index, SyncSampler{}, std::move(faults), std::move(setup)),
        dist_(dist),
        config_(config),
        hint_(static_cast<std::size_t>(index.node_count()), config.initial_owner),
        last_req_(static_cast<std::size_t>(index.node_count()), kNoRequest),
        // A single find visits each node at most a few times even under
        // heavy concurrency; this cap only exists to turn a protocol bug
        // into a loud failure instead of a hang.
        hop_cap_(8 * index.node_count() + 16) {
    eng_.reserve(2 * static_cast<std::size_t>(requests.size()) + 2,
                 static_cast<std::size_t>(requests.size()) + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(CtxHandler<Forwarder>{this});
    eng_.record_into(out);
    last_req_[static_cast<std::size_t>(config.initial_owner)] = kRootRequest;
    for (const Request& r : requests.real()) {
      ARROWDQ_ASSERT_MSG(r.node >= 0 && r.node < index.node_count(), "request from a non-node");
      eng_.post_initial(r.node, r.time, IssueEvent{this, r});
    }
  }

  /// Run to quiescence; fills config.fault_stats_out when set.
  void run() {
    eng_.run();
    if (config_.fault_stats_out != nullptr) {
      *config_.fault_stats_out = FaultStats{};
      if constexpr (Faults::kActive) *config_.fault_stats_out = eng_.faults().stats();
    }
  }

  void issue(const Request& r) {
    Ctx ctx = eng_.ctx_of(r.node);
    auto vi = static_cast<std::size_t>(r.node);
    if (hint_[vi] == r.node) {
      RequestId pred = last_req_[vi];
      ARROWDQ_ASSERT(pred != kNoRequest);
      last_req_[vi] = r.id;
      ctx.record(Completion{r.id, pred, ctx.now(), 0, 0});
      return;
    }
    NodeId target = hint_[vi];
    last_req_[vi] = r.id;
    hint_[vi] = r.node;
    Weight leg = ticks_to_units(dist_(r.node, target));
    ctx.send_with_latency(r.node, target, dist_(r.node, target), FindMsg{r.id, r.node, 1, leg});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const FindMsg& m) {
    ARROWDQ_ASSERT_MSG(m.hops <= hop_cap_, "pointer-forwarding find did not terminate");
    auto ui = static_cast<std::size_t>(at);
    NodeId next = hint_[ui];
    hint_[ui] = config_.mode == ForwardingMode::kCompressToRequester ? m.requester : from;
    if (next == at) {
      RequestId pred = last_req_[ui];
      ARROWDQ_ASSERT(pred != kNoRequest);
      ctx.record(Completion{m.req, pred, ctx.now(), m.hops, m.dist_units});
      return;
    }
    Weight leg = ticks_to_units(dist_(at, next));
    ctx.send_with_latency(at, next, dist_(at, next),
                          FindMsg{m.req, m.requester, m.hops + 1, m.dist_units + leg});
  }

 private:
  struct IssueEvent {
    Forwarder* d;
    Request r;
    void operator()() const { d->issue(r); }
  };

  Eng eng_;
  Dist dist_;
  const PointerForwardingConfig& config_;
  std::vector<NodeId> hint_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
  std::int32_t hop_cap_;
};

enum class FwdLoopKind : std::uint8_t { kFind, kReply };

struct FwdLoopMsg {
  FwdLoopKind kind = FwdLoopKind::kFind;
  RequestId req = kNoRequest;
  NodeId requester = kNoNode;
  std::int32_t hops = 0;
};

/// Closed-loop pointer forwarding: the hint/last_req core is Forwarder's,
/// the round structure (one outstanding request per node, re-issue one
/// service interval after the predecessor identity arrives) is the arrow
/// LoopDriver's. The reply is a direct message with latency
/// dG(owner, requester); a locally satisfied request replies with zero
/// latency, exactly like the arrow loop's local case.
template <typename Engine, typename Dist, typename Faults>
class LoopForwarder {
 public:
  using Eng = typename Engine::template Net<FwdLoopMsg, SyncSampler, CtxHandler<LoopForwarder>,
                                            Faults, DirectOnlyIndex, Simulator>;
  using Ctx = typename Eng::LaneCtx;

  LoopForwarder(const DirectOnlyIndex& index, std::int64_t requests_per_node, Dist dist,
                const PointerForwardingConfig& config, Faults faults, typename Eng::Setup setup)
      : eng_(index, SyncSampler{}, std::move(faults), std::move(setup)),
        dist_(dist),
        config_(config),
        node_count_(index.node_count()),
        requests_per_node_(requests_per_node),
        hint_(static_cast<std::size_t>(index.node_count()), config.initial_owner),
        last_req_(static_cast<std::size_t>(index.node_count()), kNoRequest),
        issued_(static_cast<std::size_t>(index.node_count()), 0),
        issue_time_(static_cast<std::size_t>(index.node_count()), 0),
        accum_(static_cast<std::size_t>(eng_.lane_count())),
        hop_cap_(8 * index.node_count() + 16) {
    // One outstanding request per node bounds pending events/messages to O(n).
    const auto n = static_cast<std::size_t>(index.node_count());
    eng_.reserve(4 * n, 2 * n);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(CtxHandler<LoopForwarder>{this});
    last_req_[static_cast<std::size_t>(config.initial_owner)] = kRootRequest;
  }

  ForwardingLoopResult run() {
    for (NodeId v = 0; v < node_count_; ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
    eng_.run();
    ForwardingLoopResult res;
    res.makespan = eng_.makespan();
    res.total_requests = static_cast<std::int64_t>(node_count_) * requests_per_node_;
    for (const LaneAccum& a : accum_) {
      res.find_messages += a.find_messages;
      res.reply_messages += a.reply_messages;
    }
    res.avg_hops_per_request =
        res.total_requests == 0
            ? 0.0
            : static_cast<double>(res.find_messages) / static_cast<double>(res.total_requests);
    res.avg_round_latency_units = mean_round_latency_units(accum_);
    if constexpr (Faults::kActive) {
      res.messages_dropped = eng_.faults().stats().messages_dropped;
      res.messages_duplicated = eng_.faults().stats().messages_duplicated;
      res.crashes = static_cast<std::int32_t>(eng_.faults().crashes().size());
      res.partition_backlog = eng_.faults().stats().partition_deferred;
    }
    return res;
  }

  void issue(NodeId v) {
    Ctx ctx = eng_.ctx_of(v);
    auto vi = static_cast<std::size_t>(v);
    if (issued_[vi] >= requests_per_node_) return;
    ++issued_[vi];
    issue_time_[vi] = ctx.now();
    LaneAccum& acc = accum_[static_cast<std::size_t>(ctx.lane())];
    RequestId a = acc.next_id(ctx.lane(), eng_.lane_count());
    if (hint_[vi] == v) {
      ARROWDQ_ASSERT(last_req_[vi] != kNoRequest);
      last_req_[vi] = a;
      round_done(ctx, v);  // predecessor found locally: the reply is local too
      return;
    }
    NodeId target = hint_[vi];
    last_req_[vi] = a;
    hint_[vi] = v;
    ++acc.find_messages;
    ctx.send_with_latency(v, target, dist_(v, target), FwdLoopMsg{FwdLoopKind::kFind, a, v, 1});
  }

  void receive(Ctx& ctx, NodeId from, NodeId at, const FwdLoopMsg& m) {
    if (m.kind == FwdLoopKind::kReply) {
      round_done(ctx, at);
      return;
    }
    ARROWDQ_ASSERT_MSG(m.hops <= hop_cap_, "pointer-forwarding find did not terminate");
    LaneAccum& acc = accum_[static_cast<std::size_t>(ctx.lane())];
    auto ui = static_cast<std::size_t>(at);
    NodeId next = hint_[ui];
    hint_[ui] = config_.mode == ForwardingMode::kCompressToRequester ? m.requester : from;
    if (next == at) {
      // Owner found; return the predecessor identity to the requester (the
      // reply's req field carries last_req, not the requester's own id —
      // it is what the requester "learns", though only the arrival instant
      // drives the round structure).
      ARROWDQ_ASSERT(last_req_[ui] != kNoRequest);
      if (m.requester == at) {
        round_done(ctx, at);
      } else {
        ++acc.reply_messages;
        ctx.send_with_latency(at, m.requester, dist_(at, m.requester),
                              FwdLoopMsg{FwdLoopKind::kReply, last_req_[ui], m.requester, 0});
      }
      return;
    }
    ++acc.find_messages;
    ctx.send_with_latency(at, next, dist_(at, next),
                          FwdLoopMsg{FwdLoopKind::kFind, m.req, m.requester, m.hops + 1});
  }

 private:
  struct IssueEvent {
    LoopForwarder* d;
    NodeId v;
    void operator()() const { d->issue(v); }
  };

  void round_done(Ctx& ctx, NodeId v) {
    LaneAccum& acc = accum_[static_cast<std::size_t>(ctx.lane())];
    acc.lat_sum += ctx.now() - issue_time_[static_cast<std::size_t>(v)];
    ++acc.lat_count;
    // Re-issue through the event loop: preparing the next request costs one
    // service interval of local CPU time (same rule as the arrow loop).
    ctx.in(config_.service_time, IssueEvent{this, v});
  }

  Eng eng_;
  Dist dist_;
  const PointerForwardingConfig& config_;
  NodeId node_count_;
  std::int64_t requests_per_node_;
  std::vector<NodeId> hint_;         // element-owned by the node's lane
  std::vector<RequestId> last_req_;  // element-owned by the node's lane
  std::vector<std::int64_t> issued_;
  std::vector<Time> issue_time_;
  std::vector<LaneAccum> accum_;
  std::int32_t hop_cap_;
};

}  // namespace
}  // namespace arrowdq
