#include "baseline/centralized.hpp"

#include <utility>
#include <vector>

#include "baseline/drivers.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "support/stats.hpp"

namespace arrowdq {

DistTicksFn apsp_dist_fn(const AllPairs& apsp) { return DistTicksFn(ApspDist{&apsp}); }

DistTicksFn unit_dist_fn() { return DistTicksFn(UnitDist{}); }

namespace {

/// Closed-loop centralized driver, matching the arrow loop's round
/// structure: every node keeps one request outstanding and re-issues one
/// service interval after the center's reply arrives.
template <typename Dist, typename Faults>
class CentralLoop {
 public:
  using Eng = SerialNetSim<CentralMsg, SyncSampler, CtxHandler<CentralLoop>, Faults,
                           DirectOnlyIndex>;
  using Ctx = typename Eng::LaneCtx;

  CentralLoop(const DirectOnlyIndex& index, std::int64_t requests_per_node, Dist dist,
              const CentralizedConfig& config, Faults faults, Simulator& sim)
      : eng_(index, SyncSampler{}, std::move(faults), {&sim}),
        dist_(dist),
        config_(config),
        requests_per_node_(requests_per_node),
        issued_(static_cast<std::size_t>(index.node_count()), 0),
        issue_time_(static_cast<std::size_t>(index.node_count()), 0) {
    ARROWDQ_ASSERT_MSG(config.center >= 0 && config.center < index.node_count(),
                       "center must be a node");
    const auto n = static_cast<std::size_t>(index.node_count());
    eng_.reserve(2 * n + 2, n + 1);
    eng_.set_service_time(config.service_time);
    eng_.set_handler(CtxHandler<CentralLoop>{this});
    for (NodeId v = 0; v < index.node_count(); ++v) eng_.post_initial(v, 0, IssueEvent{this, v});
  }

  Eng& engine() { return eng_; }
  const StatAccumulator& latencies() const { return latencies_; }

  void issue(NodeId v) {
    Ctx ctx = eng_.ctx_of(v);
    auto vi = static_cast<std::size_t>(v);
    if (issued_[vi] >= requests_per_node_) return;
    ++issued_[vi];
    issue_time_[vi] = ctx.now();
    RequestId a = ++next_id_;
    const NodeId center = config_.center;
    if (v == center) {
      enqueue(a);
      latencies_.add(0.0);
      ctx.in(config_.service_time, IssueEvent{this, v});
      return;
    }
    ctx.send_with_latency(v, center, dist(v, center),
                          CentralMsg{CentralKind::kRequest, a, kNoRequest, v});
  }

  void receive(Ctx& ctx, NodeId /*from*/, NodeId at, const CentralMsg& m) {
    const NodeId center = config_.center;
    if (m.kind == CentralKind::kRequest) {
      RequestId pred = enqueue(m.req);
      ctx.send_with_latency(center, m.requester, dist(center, m.requester),
                            CentralMsg{CentralKind::kReply, m.req, pred, m.requester});
    } else {
      auto vi = static_cast<std::size_t>(at);
      latencies_.add(static_cast<double>(ctx.now() - issue_time_[vi]));
      ctx.in(config_.service_time, IssueEvent{this, at});
    }
  }

 private:
  struct IssueEvent {
    CentralLoop* d;
    NodeId v;
    void operator()() const { d->issue(v); }
  };

  RequestId enqueue(RequestId req) {
    RequestId pred = tail_;
    tail_ = req;
    return pred;
  }

  Time dist(NodeId u, NodeId v) const { return u == v ? Time{0} : dist_(u, v); }

  Eng eng_;
  Dist dist_;
  const CentralizedConfig& config_;
  std::int64_t requests_per_node_;
  std::vector<std::int64_t> issued_;
  std::vector<Time> issue_time_;
  StatAccumulator latencies_;
  RequestId next_id_ = kRootRequest;
  RequestId tail_ = kRootRequest;
};

template <typename Dist>
QueuingOutcome run_centralized_impl(NodeId node_count, const RequestSet& requests, Dist dist,
                                    const CentralizedConfig& config) {
  QueuingOutcome out(requests.size());
  with_fault_filter(config.fault, node_count, [&](auto filt) {
    using F = decltype(filt);
    const DirectOnlyIndex index{node_count};
    Simulator sim;
    CentralOneShot<SerialEngine, Dist, F> driver(index, requests, dist,
                                                 config, out, std::move(filt), {&sim});
    driver.run();
  });
  ARROWDQ_ASSERT_MSG(out.is_complete(), "centralized protocol did not complete all requests");
  return out;
}

template <typename Dist>
CentralizedLoopResult run_centralized_closed_loop_impl(NodeId node_count,
                                                       std::int64_t requests_per_node, Dist dist,
                                                       const CentralizedConfig& config) {
  return with_fault_filter(config.fault, node_count, [&](auto filt) {
    using F = decltype(filt);
    const DirectOnlyIndex index{node_count};
    Simulator sim;
    CentralLoop<Dist, F> driver(index, requests_per_node, dist, config,
                                std::move(filt), sim);
    driver.engine().run();

    CentralizedLoopResult res;
    res.makespan = driver.engine().makespan();
    res.total_requests = static_cast<std::int64_t>(node_count) * requests_per_node;
    res.messages = driver.engine().stats().direct_messages;
    res.avg_round_latency_units =
        driver.latencies().count() == 0
            ? 0.0
            : driver.latencies().mean() / static_cast<double>(kTicksPerUnit);
    if constexpr (F::kActive) {
      const FaultStats& fs = driver.engine().faults().stats();
      res.messages_dropped = fs.messages_dropped;
      res.messages_duplicated = fs.messages_duplicated;
      res.crashes = static_cast<std::int32_t>(driver.engine().faults().crashes().size());
      res.partition_backlog = fs.partition_deferred;
    }
    return res;
  });
}

}  // namespace

template <typename Dist>
QueuingOutcome run_centralized(NodeId node_count, const RequestSet& requests, Dist dist,
                               const CentralizedConfig& config) {
  return run_centralized_impl(node_count, requests, dist, config);
}

QueuingOutcome run_centralized(NodeId node_count, const RequestSet& requests,
                               const DistTicksFn& dist, const CentralizedConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return run_centralized_impl(node_count, requests, oracle, config);
  });
}

template <typename Dist>
CentralizedLoopResult run_centralized_closed_loop(NodeId node_count,
                                                  std::int64_t requests_per_node, Dist dist,
                                                  const CentralizedConfig& config) {
  return run_centralized_closed_loop_impl(node_count, requests_per_node, dist, config);
}

CentralizedLoopResult run_centralized_closed_loop(NodeId node_count,
                                                  std::int64_t requests_per_node,
                                                  const DistTicksFn& dist,
                                                  const CentralizedConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return run_centralized_closed_loop_impl(node_count, requests_per_node, oracle, config);
  });
}

// One explicit instantiation per concrete oracle in dist.hpp. An oracle type
// missing here fails at link time rather than silently falling back to the
// type-erased tier.
#define ARROWDQ_CENTRALIZED_INSTANTIATE(Dist)                                              \
  template QueuingOutcome run_centralized<Dist>(NodeId, const RequestSet&, Dist,           \
                                                const CentralizedConfig&);                 \
  template CentralizedLoopResult run_centralized_closed_loop<Dist>(NodeId, std::int64_t,   \
                                                                   Dist,                   \
                                                                   const CentralizedConfig&)
ARROWDQ_CENTRALIZED_INSTANTIATE(UnitDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(ApspDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(PathDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(RingDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(GridDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(TorusDist);
ARROWDQ_CENTRALIZED_INSTANTIATE(HypercubeDist);
#undef ARROWDQ_CENTRALIZED_INSTANTIATE

}  // namespace arrowdq
