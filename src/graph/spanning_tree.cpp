#include "graph/spanning_tree.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "graph/shortest_paths.hpp"
#include "graph/union_find.hpp"
#include "support/assert.hpp"

namespace arrowdq {

namespace {

/// Root an undirected edge list at `root`, producing parent arrays.
Tree root_edge_list(NodeId n, const std::vector<Edge>& tree_edges, NodeId root) {
  std::vector<std::vector<HalfEdge>> adj(static_cast<std::size_t>(n));
  for (const auto& e : tree_edges) {
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, e.weight});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, e.weight});
  }
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  std::vector<Weight> wpar(static_cast<std::size_t>(n), 1);
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::vector<NodeId> stack{root};
  seen[static_cast<std::size_t>(root)] = true;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (const auto& he : adj[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(he.to)]) {
        seen[static_cast<std::size_t>(he.to)] = true;
        parent[static_cast<std::size_t>(he.to)] = v;
        wpar[static_cast<std::size_t>(he.to)] = he.weight;
        stack.push_back(he.to);
      }
    }
  }
  return Tree(std::move(parent), std::move(wpar), root);
}

}  // namespace

Tree shortest_path_tree(const Graph& g, NodeId root) {
  std::vector<NodeId> parents;
  auto dist = sssp_with_parents(g, root, parents);
  std::vector<Weight> wpar(static_cast<std::size_t>(g.node_count()), 1);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ARROWDQ_ASSERT_MSG(dist[static_cast<std::size_t>(v)] != kUnreachable,
                       "spanning tree of a disconnected graph");
    if (v != root)
      wpar[static_cast<std::size_t>(v)] =
          g.edge_weight(v, parents[static_cast<std::size_t>(v)]);
  }
  return Tree(std::move(parents), std::move(wpar), root);
}

Tree kruskal_mst(const Graph& g, NodeId root) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.weight < b.weight; });
  UnionFind uf(g.node_count());
  std::vector<Edge> chosen;
  chosen.reserve(static_cast<std::size_t>(g.node_count()));
  for (const auto& e : edges)
    if (uf.unite(e.u, e.v)) chosen.push_back(e);
  ARROWDQ_ASSERT_MSG(uf.set_count() == 1, "MST of a disconnected graph");
  return root_edge_list(g.node_count(), chosen, root);
}

Tree prim_mst(const Graph& g, NodeId root) {
  struct Item {
    Weight w;
    NodeId to;
    NodeId from;
    bool operator>(const Item& o) const {
      if (w != o.w) return w > o.w;
      if (to != o.to) return to > o.to;
      return from > o.from;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  std::vector<bool> in_tree(static_cast<std::size_t>(g.node_count()), false);
  std::vector<NodeId> parent(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::vector<Weight> wpar(static_cast<std::size_t>(g.node_count()), 1);
  in_tree[static_cast<std::size_t>(root)] = true;
  for (const auto& he : g.neighbors(root)) heap.push({he.weight, he.to, root});
  NodeId joined = 1;
  while (!heap.empty() && joined < g.node_count()) {
    auto [w, to, from] = heap.top();
    heap.pop();
    if (in_tree[static_cast<std::size_t>(to)]) continue;
    in_tree[static_cast<std::size_t>(to)] = true;
    parent[static_cast<std::size_t>(to)] = from;
    wpar[static_cast<std::size_t>(to)] = w;
    ++joined;
    for (const auto& he : g.neighbors(to))
      if (!in_tree[static_cast<std::size_t>(he.to)]) heap.push({he.weight, he.to, to});
  }
  ARROWDQ_ASSERT_MSG(joined == g.node_count(), "MST of a disconnected graph");
  return Tree(std::move(parent), std::move(wpar), root);
}

Tree balanced_binary_overlay(const Graph& g, NodeId root) {
  ARROWDQ_ASSERT_MSG(root == 0, "balanced binary overlay is defined with root 0");
  auto n = g.node_count();
  std::vector<NodeId> parent(static_cast<std::size_t>(n), kNoNode);
  std::vector<Weight> wpar(static_cast<std::size_t>(n), 1);
  for (NodeId i = 1; i < n; ++i) {
    NodeId p = (i - 1) / 2;
    ARROWDQ_ASSERT_MSG(g.has_edge(i, p), "graph lacks balanced-binary overlay edge");
    parent[static_cast<std::size_t>(i)] = p;
    wpar[static_cast<std::size_t>(i)] = g.edge_weight(i, p);
  }
  return Tree(std::move(parent), std::move(wpar), 0);
}

Tree random_spanning_tree(const Graph& g, NodeId root, Rng& rng) {
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  rng.shuffle(edges);
  UnionFind uf(g.node_count());
  std::vector<Edge> chosen;
  for (const auto& e : edges)
    if (uf.unite(e.u, e.v)) chosen.push_back(e);
  ARROWDQ_ASSERT_MSG(uf.set_count() == 1, "spanning tree of a disconnected graph");
  return root_edge_list(g.node_count(), chosen, root);
}

Tree median_spt(const Graph& g) {
  // Median = argmin_v sum_u dG(v, u).
  const AllPairs apsp(g);
  NodeId best = 0;
  Weight best_sum = -1;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::span<const Weight> d = apsp.row(v);
    Weight sum = std::accumulate(d.begin(), d.end(), Weight{0});
    if (best_sum < 0 || sum < best_sum) {
      best_sum = sum;
      best = v;
    }
  }
  return shortest_path_tree(g, best);
}

}  // namespace arrowdq
