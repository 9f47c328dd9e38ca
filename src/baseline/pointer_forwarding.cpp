#include "baseline/pointer_forwarding.hpp"

#include <utility>

#include "baseline/drivers.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"

namespace arrowdq {

namespace {

template <typename Dist>
QueuingOutcome run_pointer_forwarding_impl(NodeId node_count, const RequestSet& requests,
                                           Dist dist, const PointerForwardingConfig& config) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");
  ARROWDQ_ASSERT_MSG(requests.root() == config.initial_owner,
                     "request-set root must equal the initial owner");

  QueuingOutcome out(requests.size());
  with_fault_filter(config.fault, node_count, [&](auto filt) {
    using F = decltype(filt);
    const DirectOnlyIndex index{node_count};
    Simulator sim;
    Forwarder<SerialEngine, Dist, F> driver(index, requests, dist, config,
                                            out, std::move(filt), {&sim});
    driver.run();
  });
  ARROWDQ_ASSERT_MSG(out.is_complete(), "pointer forwarding did not complete all requests");
  return out;
}

template <typename Dist>
ForwardingLoopResult run_pointer_forwarding_closed_loop_impl(
    NodeId node_count, std::int64_t requests_per_node, Dist dist,
    const PointerForwardingConfig& config) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(requests_per_node >= 0, "requests_per_node must be >= 0");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");

  return with_fault_filter(config.fault, node_count, [&](auto filt) {
    using F = decltype(filt);
    const DirectOnlyIndex index{node_count};
    Simulator sim;
    LoopForwarder<SerialEngine, Dist, F> driver(index, requests_per_node,
                                                dist, config, std::move(filt), {&sim});
    return driver.run();
  });
}

}  // namespace

template <typename Dist>
QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      Dist dist, const PointerForwardingConfig& config) {
  return run_pointer_forwarding_impl(node_count, requests, dist, config);
}

QueuingOutcome run_pointer_forwarding(NodeId node_count, const RequestSet& requests,
                                      const DistTicksFn& dist,
                                      const PointerForwardingConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return run_pointer_forwarding_impl(node_count, requests, oracle, config);
  });
}

template <typename Dist>
ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        Dist dist,
                                                        const PointerForwardingConfig& config) {
  return run_pointer_forwarding_closed_loop_impl(node_count, requests_per_node, dist, config);
}

ForwardingLoopResult run_pointer_forwarding_closed_loop(NodeId node_count,
                                                        std::int64_t requests_per_node,
                                                        const DistTicksFn& dist,
                                                        const PointerForwardingConfig& config) {
  return with_static_dist(dist, [&](auto oracle) {
    return run_pointer_forwarding_closed_loop_impl(node_count, requests_per_node, oracle,
                                                   config);
  });
}

// One explicit instantiation per concrete oracle in dist.hpp (see
// centralized.cpp for the rationale).
#define ARROWDQ_FORWARDING_INSTANTIATE(Dist)                                            \
  template QueuingOutcome run_pointer_forwarding<Dist>(NodeId, const RequestSet&, Dist, \
                                                       const PointerForwardingConfig&); \
  template ForwardingLoopResult run_pointer_forwarding_closed_loop<Dist>(               \
      NodeId, std::int64_t, Dist, const PointerForwardingConfig&)
ARROWDQ_FORWARDING_INSTANTIATE(UnitDist);
ARROWDQ_FORWARDING_INSTANTIATE(ApspDist);
ARROWDQ_FORWARDING_INSTANTIATE(PathDist);
ARROWDQ_FORWARDING_INSTANTIATE(RingDist);
ARROWDQ_FORWARDING_INSTANTIATE(GridDist);
ARROWDQ_FORWARDING_INSTANTIATE(TorusDist);
ARROWDQ_FORWARDING_INSTANTIATE(HypercubeDist);
#undef ARROWDQ_FORWARDING_INSTANTIATE

}  // namespace arrowdq
