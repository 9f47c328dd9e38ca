// Mobile-object directory: a shared object (e.g. a writable file) migrates
// between requesting nodes; the arrow directory orders the requests and the
// object travels down the queue. We compare the object's travel distance
// under arrow's locality-aware order against a FIFO (issue-time) order.
//
//   $ ./mobile_object
#include <cstdio>

#include "apps/directory.hpp"
#include "arrow/arrow.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

using namespace arrowdq;

int main() {
  Rng rng(99);
  Graph g = make_grid(8, 8);
  Tree t = shortest_path_tree(g, 0);

  // Localized contention: all requests come from one corner region, issued
  // concurrently — the regime where arrow's nearest-neighbour order shines.
  RequestSet reqs = localized_burst(/*lo=*/48, /*hi=*/63, /*root=*/0, /*count=*/24, rng);

  auto outcome = run_arrow(t, reqs);
  DirectoryResult dir = directory_from_outcome(t, reqs, outcome, units_to_ticks(1));

  std::printf("mobile object on an 8x8 grid, %d requests from the far corner\n", reqs.size());
  std::printf("  object travel (arrow order): %lld units\n",
              static_cast<long long>(dir.object_travel));

  // FIFO strawman: visit requesters in issue order (ties by id).
  Weight fifo_travel = 0;
  NodeId at = 0;
  for (const Request& r : reqs.real()) {
    fifo_travel += t.distance(at, r.node);
    at = r.node;
  }
  std::printf("  object travel (FIFO order) : %lld units\n",
              static_cast<long long>(fifo_travel));
  std::printf("  makespan                   : %.1f units\n", ticks_to_units_d(dir.makespan));

  std::printf("\nobject itinerary (first 12 stops):\n");
  auto order = outcome.order();
  for (std::size_t i = 1; i < order.size() && i <= 12; ++i) {
    RequestId id = order[i];
    std::printf("  stop %2zu: node %2d (request %2d) at t=%.1f\n", i, reqs.by_id(id).node, id,
                ticks_to_units_d(dir.object_at[static_cast<std::size_t>(id)]));
  }
  return 0;
}
