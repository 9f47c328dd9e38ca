#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <queue>

namespace arrowdq {

namespace {

/// Monotone integer priority queue (radix heap). An entry sits in the bucket
/// named by the highest bit in which its key differs from the last key
/// popped; a pop from an empty bucket 0 empties the lowest non-empty bucket
/// into lower ones around that bucket's minimum. Each entry moves down at
/// most once per bit, whatever the key range. Keys pushed must not be below
/// the last key popped, which Dijkstra's non-negative weights guarantee.
class RadixHeap {
 public:
  struct Entry {
    std::uint64_t key;
    NodeId node;
  };

  bool empty() const { return nonempty_ == 0; }

  void push(const Entry& e) {
    // Weights are int64 and distances stay non-negative, so key ^ last_ <
    // 2^63 and the bucket index stays below 64.
    const int b = std::bit_width(e.key ^ last_);
    buckets_[static_cast<std::size_t>(b)].push_back(e);
    nonempty_ |= std::uint64_t{1} << b;
  }

  Entry pop() {
    if (buckets_[0].empty()) {
      const int i = std::countr_zero(nonempty_);
      std::vector<Entry>& from = buckets_[static_cast<std::size_t>(i)];
      last_ = std::min_element(from.begin(), from.end(),
                               [](const Entry& a, const Entry& b) { return a.key < b.key; })
                  ->key;
      // Every entry lands in a bucket below i: its key agrees with the new
      // minimum above bit i - 1.
      for (const Entry& e : from) push(e);
      from.clear();
      nonempty_ &= ~(std::uint64_t{1} << i);
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    if (buckets_[0].empty()) nonempty_ &= ~std::uint64_t{1};
    return e;
  }

  void clear() {
    for (std::uint64_t m = nonempty_; m != 0; m &= m - 1)
      buckets_[static_cast<std::size_t>(std::countr_zero(m))].clear();
    nonempty_ = 0;
    last_ = 0;
  }

 private:
  std::array<std::vector<Entry>, 64> buckets_;
  std::uint64_t nonempty_ = 0;  // bit b set iff buckets_[b] is non-empty
  std::uint64_t last_ = 0;
};

/// Dijkstra over one graph, reusable across sources: the queue keeps its
/// buckets' capacity from run to run.
class Dijkstra {
 public:
  explicit Dijkstra(const Graph& g) : g_(g) {
    const std::span<const Edge> edges = g.edges();
    if (!edges.empty())
      min_weight_ = std::min_element(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
                      return a.weight < b.weight;
                    })->weight;
  }

  /// Fill dist (size n) with dG(source, .), kUnreachable where no path.
  void run(NodeId source, std::span<Weight> dist) {
    ARROWDQ_ASSERT_MSG(source >= 0 && source < g_.node_count(), "source out of range");
    std::fill(dist.begin(), dist.end(), kUnreachable);
    heap_.clear();
    dist[static_cast<std::size_t>(source)] = 0;
    heap_.push({0, source});
    NodeId reached = 1;
    // Largest tentative distance ever assigned. Tentative distances only
    // fall, so this bounds the largest current one from above.
    Weight farthest = 0;
    while (!heap_.empty()) {
      const auto [key, v] = heap_.pop();
      const auto d = static_cast<Weight>(key);
      if (d != dist[static_cast<std::size_t>(v)]) continue;  // stale entry
      for (const HalfEdge& he : g_.neighbors(v)) {
        const Weight nd = d + he.weight;
        Weight& cur = dist[static_cast<std::size_t>(he.to)];
        if (cur == kUnreachable) {
          ++reached;
          farthest = std::max(farthest, nd);
        } else if (nd >= cur) {
          continue;
        }
        cur = nd;
        heap_.push({static_cast<std::uint64_t>(nd), he.to});
      }
      // Every node is reached and no relaxation from the frontier (keys >= d)
      // can undercut any tentative distance: they are all final.
      if (reached == g_.node_count() && d + min_weight_ >= farthest) break;
    }
  }

 private:
  const Graph& g_;
  Weight min_weight_ = 0;
  RadixHeap heap_;
};

}  // namespace

std::vector<Weight> sssp(const Graph& g, NodeId source) {
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()));
  Dijkstra(g).run(source, dist);
  return dist;
}

std::vector<Weight> sssp_with_parents(const Graph& g, NodeId source,
                                      std::vector<NodeId>& parents) {
  std::vector<Weight> dist = sssp(g, source);
  // A node's parent is its (distance, id)-smallest neighbour on a shortest
  // path: the node whose relaxation a (distance, id)-ordered Dijkstra would
  // have let set the final distance first.
  parents.assign(static_cast<std::size_t>(g.node_count()), kNoNode);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const Weight dv = dist[static_cast<std::size_t>(v)];
    if (v == source || dv == kUnreachable) continue;
    NodeId best = kNoNode;
    for (const HalfEdge& he : g.neighbors(v)) {
      const Weight dp = dist[static_cast<std::size_t>(he.to)];
      if (dp == kUnreachable || dp + he.weight != dv) continue;
      if (best == kNoNode || dp < dist[static_cast<std::size_t>(best)] ||
          (dp == dist[static_cast<std::size_t>(best)] && he.to < best))
        best = he.to;
    }
    parents[static_cast<std::size_t>(v)] = best;
  }
  return dist;
}

std::vector<Weight> bfs_hops(const Graph& g, NodeId source) {
  ARROWDQ_ASSERT(source >= 0 && source < g.node_count());
  std::vector<Weight> dist(static_cast<std::size_t>(g.node_count()), kUnreachable);
  std::queue<NodeId> q;
  dist[static_cast<std::size_t>(source)] = 0;
  q.push(source);
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop();
    for (const auto& he : g.neighbors(v)) {
      if (dist[static_cast<std::size_t>(he.to)] == kUnreachable) {
        dist[static_cast<std::size_t>(he.to)] = dist[static_cast<std::size_t>(v)] + 1;
        q.push(he.to);
      }
    }
  }
  return dist;
}

AllPairs::AllPairs(const Graph& g)
    : n_(g.node_count()),
      dist_(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_)) {
  Dijkstra dijkstra(g);
  for (NodeId v = 0; v < n_; ++v)
    dijkstra.run(v, {dist_.data() + static_cast<std::size_t>(v) * static_cast<std::size_t>(n_),
                     static_cast<std::size_t>(n_)});
}

Weight AllPairs::diameter() const {
  Weight best = 0;
  for (Weight d : dist_) {
    ARROWDQ_ASSERT_MSG(d != kUnreachable, "diameter of a disconnected graph");
    best = std::max(best, d);
  }
  return best;
}

Weight AllPairs::radius() const {
  Weight best = kUnreachable;
  for (NodeId u = 0; u < n_; ++u) {
    Weight ecc = 0;
    for (Weight d : row(u)) {
      ARROWDQ_ASSERT_MSG(d != kUnreachable, "radius of a disconnected graph");
      ecc = std::max(ecc, d);
    }
    if (best == kUnreachable || ecc < best) best = ecc;
  }
  return best;
}

NodeId AllPairs::center() const {
  Weight best = kUnreachable;
  NodeId center = kNoNode;
  for (NodeId v = 0; v < n_; ++v) {
    const std::span<const Weight> r = row(v);
    const Weight ecc = *std::max_element(r.begin(), r.end());
    if (best == kUnreachable || ecc < best) {
      best = ecc;
      center = v;
    }
  }
  return center;
}

}  // namespace arrowdq
