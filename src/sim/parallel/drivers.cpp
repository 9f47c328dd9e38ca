// Sharded entry points: each derives its run's lookahead and shard setup and
// instantiates the protocol's one driver class (arrow/drivers.hpp,
// baseline/drivers.hpp) on ShardedEngine — the class its serial entry runs
// on SerialEngine. sim/engine.hpp states the three rules that make one
// driver serve both engines; sharded_sim.hpp argues why the merge then
// reproduces the serial (time, seq) execution exactly.
#include "sim/parallel/parallel.hpp"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "arrow/drivers.hpp"
#include "baseline/drivers.hpp"
#include "sim/parallel/lookahead.hpp"
#include "sim/parallel/sharded_sim.hpp"
#include "support/assert.hpp"

namespace arrowdq {

namespace {

/// Direct-send latency floor per distance oracle: every oracle maps distinct
/// nodes to >= 1 unit. (The engine asserts every finalized delivery clears
/// its window, so an optimistic floor fails loudly.)
inline Time dist_floor(const UnitDist&) { return kTicksPerUnit; }
inline Time dist_floor(const ApspDist&) { return kTicksPerUnit; }
inline Time dist_floor(const PathDist&) { return kTicksPerUnit; }
inline Time dist_floor(const RingDist&) { return kTicksPerUnit; }
inline Time dist_floor(const GridDist&) { return kTicksPerUnit; }
inline Time dist_floor(const TorusDist&) { return kTicksPerUnit; }
inline Time dist_floor(const HypercubeDist&) { return kTicksPerUnit; }

/// Implicit trees are unit-weight.
inline Weight min_edge_weight(const ImplicitTreeIndex&) { return 1; }

/// Graph builds its edge index lazily, which is not thread-safe: build it
/// before the lanes run.
inline void warm_index(const Graph& g) {
  if (g.node_count() >= 2) (void)g.find_edge(0, 1);
}
inline void warm_index(const ImplicitTreeIndex&) {}

/// The one path every sharded entry takes to its engine setup. Topology
/// faults (crash, partition, churn) are refused here: their recovery waves
/// are global pointer rewrites that cannot run inside a safe window.
ShardSetup shard_setup(const FaultSpec& fault, const ShardSpec& shard, NodeId node_count,
                       Time derived_lookahead) {
  ARROWDQ_ASSERT_MSG(!fault.has_topology_faults(),
                     "sharded runs do not support topology-fault schedules (crash, partition, "
                     "churn)");
  return ShardSetup{shard.partition(node_count),
                    shard.force_lookahead > 0 ? shard.force_lookahead : derived_lookahead};
}

template <typename Topo>
ClosedLoopResult run_loop_sharded(Topo topo, LatencyModel& latency,
                                  const ClosedLoopConfig& config, const ShardSpec& shard,
                                  ParallelStats* par_out) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node >= 0, "requests_per_node must be >= 0");
  const typename Topo::Index index = topo.make_index();
  warm_index(index);
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(config.fault, topo.node_count(), [&](auto filt) {
      const Time lookahead = combined_lookahead(sampler_floor(lat, min_edge_weight(index)),
                                                kTicksPerUnit, config.fault);
      LoopDriver<ShardedEngine, decltype(lat), decltype(filt), Topo> driver(
          topo, index, config, std::move(lat), std::move(filt),
          shard_setup(config.fault, shard, topo.node_count(), lookahead));
      ClosedLoopResult res = driver.run();
      if (par_out != nullptr) *par_out = driver.engine().parallel_stats();
      return res;
    });
  });
}

}  // namespace

ClosedLoopResult run_arrow_closed_loop_sharded(const Tree& tree, LatencyModel& latency,
                                               const ClosedLoopConfig& config,
                                               const ShardSpec& shard,
                                               ParallelStats* par_out) {
  return run_loop_sharded(MaterializedTopo{&tree}, latency, config, shard, par_out);
}

ClosedLoopResult run_arrow_closed_loop_implicit_sharded(const ImplicitTopology& topo,
                                                        LatencyModel& latency,
                                                        const ClosedLoopConfig& config,
                                                        const ShardSpec& shard,
                                                        ParallelStats* par_out) {
  ARROWDQ_ASSERT_MSG(config.requests_per_node <= std::numeric_limits<std::int32_t>::max(),
                     "implicit tier keeps 32-bit round counters");
  return run_loop_sharded(ImplicitLoopTopo{topo}, latency, config, shard, par_out);
}

ShardedArrowRun run_arrow_one_shot_sharded(const Tree& tree, const RequestSet& requests,
                                           LatencyModel& latency, Time service_time,
                                           const FaultSpec& fault, const ShardSpec& shard) {
  const Graph graph = tree.as_graph();
  warm_index(graph);
  QueuingOutcome out(requests.size());
  std::vector<NodeId> link;
  std::vector<RequestId> last_req;
  return with_static_latency(latency, [&](auto lat) {
    return with_fault_filter(fault, tree.node_count(), [&](auto filt) {
      using F = decltype(filt);
      const Time lookahead =
          fault_adjusted_floor(sampler_floor(lat, min_edge_weight(graph)), fault);
      OneShotDriver<ShardedEngine, decltype(lat), F> driver(
          tree, graph, requests, fault, service_time, link, last_req, out, std::move(lat),
          std::move(filt), shard_setup(fault, shard, tree.node_count(), lookahead));
      driver.run(requests);
      ARROWDQ_ASSERT_MSG(out.is_complete(), "arrow did not complete all requests");
      FaultStats fs;
      if constexpr (F::kActive) fs = driver.engine().faults().stats();
      const NodeId sink = unique_sink(link);
      return ShardedArrowRun{std::move(out), std::move(link), sink,
                             driver.engine().stats().edge_messages, driver.engine().makespan(),
                             fs};
    });
  });
}

QueuingOutcome run_centralized_sharded(NodeId node_count, const RequestSet& requests,
                                       const DistTicksFn& dist,
                                       const CentralizedConfig& config,
                                       const ShardSpec& shard) {
  const DirectOnlyIndex index{node_count};
  QueuingOutcome out(requests.size());
  with_static_dist(dist, [&](auto oracle) {
    with_fault_filter(config.fault, node_count, [&](auto filt) {
      const Time lookahead = fault_adjusted_floor(dist_floor(oracle), config.fault);
      CentralOneShot<ShardedEngine, decltype(oracle), decltype(filt)> driver(
          index, requests, oracle, config, out, std::move(filt),
          shard_setup(config.fault, shard, node_count, lookahead));
      driver.run();
    });
  });
  ARROWDQ_ASSERT_MSG(out.is_complete(), "centralized protocol did not complete all requests");
  return out;
}

QueuingOutcome run_pointer_forwarding_sharded(NodeId node_count, const RequestSet& requests,
                                              const DistTicksFn& dist,
                                              const PointerForwardingConfig& config,
                                              const ShardSpec& shard) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");
  ARROWDQ_ASSERT_MSG(requests.root() == config.initial_owner,
                     "request-set root must equal the initial owner");
  const DirectOnlyIndex index{node_count};
  QueuingOutcome out(requests.size());
  with_static_dist(dist, [&](auto oracle) {
    with_fault_filter(config.fault, node_count, [&](auto filt) {
      const Time lookahead = fault_adjusted_floor(dist_floor(oracle), config.fault);
      Forwarder<ShardedEngine, decltype(oracle), decltype(filt)> driver(
          index, requests, oracle, config, out, std::move(filt),
          shard_setup(config.fault, shard, node_count, lookahead));
      driver.run();
    });
  });
  ARROWDQ_ASSERT_MSG(out.is_complete(), "pointer forwarding did not complete all requests");
  return out;
}

ForwardingLoopResult run_pointer_forwarding_closed_loop_sharded(
    NodeId node_count, std::int64_t requests_per_node, const DistTicksFn& dist,
    const PointerForwardingConfig& config, const ShardSpec& shard) {
  ARROWDQ_ASSERT_MSG(node_count >= 1, "need at least one node");
  ARROWDQ_ASSERT_MSG(requests_per_node >= 0, "requests_per_node must be >= 0");
  ARROWDQ_ASSERT_MSG(config.initial_owner >= 0 && config.initial_owner < node_count,
                     "initial owner must be a node");
  const DirectOnlyIndex index{node_count};
  return with_static_dist(dist, [&](auto oracle) {
    return with_fault_filter(config.fault, node_count, [&](auto filt) {
      const Time lookahead = fault_adjusted_floor(dist_floor(oracle), config.fault);
      LoopForwarder<ShardedEngine, decltype(oracle), decltype(filt)> driver(
          index, requests_per_node, oracle, config, std::move(filt),
          shard_setup(config.fault, shard, node_count, lookahead));
      return driver.run();
    });
  });
}

}  // namespace arrowdq
