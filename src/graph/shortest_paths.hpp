// Single-source and all-pairs shortest paths on the network graph.
//
// Distances are in whole time units (Weight). The analysis uses dG for the
// optimal offline algorithm's message latencies and dT (tree distances,
// provided by Tree) for the arrow protocol.
//
// Every shortest-path search runs one Dijkstra over a radix heap (Ahuja,
// Mehlhorn, Orlin & Tarjan, JACM 1990): a monotone integer queue whose cost
// per entry is bounded by the key's bit width, not by the edge weights, so
// unit-weight and 2^40-weight graphs take the same path.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "support/assert.hpp"
#include "support/types.hpp"

namespace arrowdq {

inline constexpr Weight kUnreachable = -1;

/// Dijkstra from source; returns distances (kUnreachable where no path).
std::vector<Weight> sssp(const Graph& g, NodeId source);

/// Dijkstra from source, also emitting the shortest-path parent of each node
/// (kNoNode for the source / unreachable nodes). Among several shortest-path
/// parents the one with the smallest (distance, id) wins.
std::vector<Weight> sssp_with_parents(const Graph& g, NodeId source,
                                      std::vector<NodeId>& parents);

/// Unweighted BFS hop counts (ignores weights).
std::vector<Weight> bfs_hops(const Graph& g, NodeId source);

/// All-pairs shortest paths: one flat row-major n x n table filled by n
/// Dijkstra runs that share their queue. Suitable for the n <= a few
/// thousand graphs used in experiments; dist(u, v) is dG(u, v).
class AllPairs {
 public:
  explicit AllPairs(const Graph& g);

  Weight dist(NodeId u, NodeId v) const {
    ARROWDQ_ASSERT(u >= 0 && u < n_);
    ARROWDQ_ASSERT(v >= 0 && v < n_);
    return dist_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(v)];
  }
  /// dG(u, .) for every node, in id order.
  std::span<const Weight> row(NodeId u) const {
    ARROWDQ_ASSERT(u >= 0 && u < n_);
    return {dist_.data() + static_cast<std::size_t>(u) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }
  NodeId node_count() const { return n_; }

  /// Maximum finite pairwise distance (graph diameter); asserts connectivity.
  Weight diameter() const;
  /// Minimum over u of max over v of dist (graph radius).
  Weight radius() const;
  /// A node achieving the radius (a center of the graph).
  NodeId center() const;

 private:
  NodeId n_ = 0;
  std::vector<Weight> dist_;
};

}  // namespace arrowdq
