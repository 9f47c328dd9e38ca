#include "graph/comm_tree.hpp"

#include <numeric>

#include "graph/shortest_paths.hpp"
#include "graph/spanning_tree.hpp"
#include "support/assert.hpp"

namespace arrowdq {

double expected_comm_cost(const Tree& tree, const std::vector<double>& probs) {
  auto n = tree.node_count();
  ARROWDQ_ASSERT_MSG(static_cast<NodeId>(probs.size()) == n, "probability vector size must equal n");
  double mass = std::accumulate(probs.begin(), probs.end(), 0.0);
  ARROWDQ_ASSERT_MSG(mass > 0.0, "probability mass must be positive");
  double total = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    double pu = probs[static_cast<std::size_t>(u)];
    if (pu == 0.0) continue;
    for (NodeId v = u + 1; v < n; ++v) {
      double pv = probs[static_cast<std::size_t>(v)];
      if (pv == 0.0) continue;
      total += 2.0 * pu * pv * static_cast<double>(tree.distance(u, v));
    }
  }
  return total / (mass * mass);
}

NodeId weighted_median(const Graph& g, const std::vector<double>& probs) {
  ARROWDQ_ASSERT_MSG(static_cast<NodeId>(probs.size()) == g.node_count(), "probability vector size must equal n");
  const AllPairs apsp(g);
  NodeId best = 0;
  double best_cost = -1.0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::span<const Weight> d = apsp.row(v);
    double cost = 0.0;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      ARROWDQ_ASSERT_MSG(d[static_cast<std::size_t>(u)] != kUnreachable,
                         "weighted median of a disconnected graph");
      cost += probs[static_cast<std::size_t>(u)] *
              static_cast<double>(d[static_cast<std::size_t>(u)]);
    }
    if (best_cost < 0.0 || cost < best_cost) {
      best_cost = cost;
      best = v;
    }
  }
  return best;
}

Tree weighted_median_spt(const Graph& g, const std::vector<double>& probs) {
  return shortest_path_tree(g, weighted_median(g, probs));
}

std::vector<double> uniform_probs(NodeId n) {
  ARROWDQ_ASSERT_MSG(n > 0, "node count must be > 0");
  return std::vector<double>(static_cast<std::size_t>(n), 1.0 / static_cast<double>(n));
}

std::vector<double> hotspot_probs(NodeId n, NodeId hot, double hot_mass) {
  ARROWDQ_ASSERT_MSG(n > 0 && hot >= 0 && hot < n, "hot node must be a node");
  ARROWDQ_ASSERT_MSG(hot_mass >= 0.0 && hot_mass <= 1.0, "hot mass must be in [0, 1]");
  double rest = n > 1 ? (1.0 - hot_mass) / static_cast<double>(n - 1) : 0.0;
  std::vector<double> p(static_cast<std::size_t>(n), rest);
  p[static_cast<std::size_t>(hot)] = n > 1 ? hot_mass : 1.0;
  return p;
}

}  // namespace arrowdq
