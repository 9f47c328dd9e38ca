#include "arrow/closed_loop.hpp"

#include <limits>
#include <utility>

#include "arrow/drivers.hpp"
#include "support/assert.hpp"

namespace arrowdq {

namespace {

/// One closed-loop run of `topo` on the serial engine.
template <typename Topo, typename Latency, typename Faults>
ClosedLoopResult run_loop(Topo topo, Latency latency, Faults faults,
                          const ClosedLoopConfig& config) {
  const typename Topo::Index index = topo.make_index();
  typename Topo::Sim sim;
  LoopDriver<SerialEngine, Latency, Faults, Topo> driver(std::move(topo), index, config,
                                                         std::move(latency), std::move(faults),
                                                         {&sim});
  return driver.run();
}

}  // namespace

ClosedLoopResult run_arrow_closed_loop(const Tree& tree, LatencyModel& latency,
                                       const ClosedLoopConfig& config) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node >= 0, "requests_per_node must be >= 0");
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(config.fault, tree.node_count(), [&](auto filt) {
      return run_loop(MaterializedTopo{&tree}, std::move(lat), std::move(filt), config);
    });
  });
}

ClosedLoopResult run_arrow_closed_loop_implicit(const ImplicitTopology& topo,
                                                LatencyModel& latency,
                                                const ClosedLoopConfig& config) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node >= 0, "requests_per_node must be >= 0");
  ARROWDQ_ASSERT_MSG(config.requests_per_node <= std::numeric_limits<std::int32_t>::max(),
                     "implicit tier keeps 32-bit round counters");
  ARROWDQ_ASSERT_MSG(!config.fault.has_topology_faults(),
                     "topology-fault recovery requires a materialized tree");
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(config.fault, topo.n, [&](auto filt) {
      return run_loop(ImplicitLoopTopo{topo}, std::move(lat), std::move(filt), config);
    });
  });
}

}  // namespace arrowdq
