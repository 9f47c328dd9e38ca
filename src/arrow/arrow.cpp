#include "arrow/arrow.hpp"

#include <utility>

#include "arrow/drivers.hpp"
#include "support/assert.hpp"

namespace arrowdq {

ArrowEngine::ArrowEngine(const Tree& tree, LatencyModel& latency)
    : tree_(tree), latency_(latency), tree_graph_(tree.as_graph()) {}

QueuingOutcome ArrowEngine::run(const RequestSet& requests) {
  return with_static_latency(latency_, [&](auto lat) {
    return run_with(requests, std::move(lat));
  });
}

template <typename Latency>
QueuingOutcome ArrowEngine::run_with(const RequestSet& requests, Latency latency) {
  sim_ = Simulator{};
  QueuingOutcome out(requests.size());
  with_fault_filter(fault_, tree_.node_count(), [&](auto filt) {
    using F = decltype(filt);
    OneShotDriver<SerialEngine, Latency, F> driver(tree_, tree_graph_, requests, fault_,
                                                   service_time_, link_, last_req_, out,
                                                   std::move(latency), std::move(filt), {&sim_});
    driver.run(requests);
    messages_ = driver.engine().stats().edge_messages;
    fault_stats_ = FaultStats{};
    if constexpr (F::kActive) fault_stats_ = driver.engine().faults().stats();
    const auto& rec = driver.recovery();
    stabilize_rounds_ = rec ? rec->stabilize_rounds : 0;
    stabilize_corrections_ = rec ? rec->stabilize_corrections : 0;
    crashes_applied_ = rec ? rec->crashes_applied : 0;
    partitions_applied_ = rec ? rec->partitions_applied : 0;
    reselections_ = rec ? rec->reselections : 0;
  });
  ARROWDQ_ASSERT_MSG(out.is_complete(), "arrow did not complete all requests");
  return out;
}

NodeId ArrowEngine::sink_node() const { return unique_sink(link_); }

QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests, LatencyModel& latency) {
  ArrowEngine engine(tree, latency);
  auto out = engine.run(requests);
  out.validate(requests);
  return out;
}

QueuingOutcome run_arrow(const Tree& tree, const RequestSet& requests) {
  SynchronousLatency sync;
  return run_arrow(tree, requests, sync);
}

}  // namespace arrowdq
