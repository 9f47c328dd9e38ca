// Shared fixtures for the test suite: seeded RNG construction, standard
// tree builders, and the randomized (graph, tree, requests) instance
// generator used by the lemma and property sweeps.
//
// Everything here is deterministic in its inputs. Helpers that existing
// tests migrated onto (path_tree, grid_tree, make_instance) keep the exact
// arithmetic of the originals so refactored suites see identical streams.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/spanning_tree.hpp"
#include "graph/tree.hpp"
#include "proto/request.hpp"
#include "support/random.hpp"
#include "support/types.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace testutil {

/// 64-bit FNV-1a over little-endian words: the fold every golden pin uses.
class Fnv1a {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_signed(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Decorrelated per-case RNG for parameterized sweeps: nearby seeds map to
/// distant states.
inline Rng seeded_rng(int seed, std::uint64_t salt = 0) {
  return Rng(mix64(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + salt + 1));
}

/// Shortest-path tree over the n-node unit-weight path, rooted at `root`.
inline Tree path_tree(NodeId n, NodeId root = 0) {
  return shortest_path_tree(make_path(n), root);
}

/// Shortest-path tree over a rows x cols unit-weight grid, rooted at `root`.
inline Tree grid_tree(NodeId rows = 4, NodeId cols = 4, NodeId root = 0) {
  return shortest_path_tree(make_grid(rows, cols), root);
}

/// Shortest-path tree over a uniformly random labelled tree.
inline Tree random_tree(NodeId n, Rng& rng, NodeId root = 0) {
  return shortest_path_tree(make_random_tree(n, rng), root);
}

/// A random tree topology whose edges carry weights uniform in [1, max_weight].
inline Graph random_weighted_graph(NodeId n, Rng& rng, Weight max_weight = 9) {
  Graph g = make_random_tree(n, rng);
  Graph wg(n);
  for (const auto& e : g.edges())
    wg.add_edge(e.u, e.v, 1 + static_cast<Weight>(rng.next_below(
                              static_cast<std::uint64_t>(max_weight))));
  return wg;
}

/// A random (graph, tree, requests) triple for one sweep seed. Mixes graph
/// families and workload regimes so a sweep covers sequential, bursty and
/// Poisson loads on paths, grids, trees and complete graphs.
struct Instance {
  Graph graph{0};
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RequestSet requests{0, {}};
};

inline Instance make_instance(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  Instance inst;
  switch (seed % 4) {
    case 0: inst.graph = make_path(12 + seed % 9); break;
    case 1: inst.graph = make_grid(4, 4 + seed % 4); break;
    case 2: inst.graph = make_random_tree(18 + seed % 10, rng); break;
    default: inst.graph = make_complete(10 + seed % 8); break;
  }
  NodeId n = inst.graph.node_count();
  auto root = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
  inst.tree = shortest_path_tree(inst.graph, root);
  Rng wrng = rng.split();
  switch (seed % 3) {
    case 0:
      inst.requests = one_shot_all(n, root);
      break;
    case 1:
      inst.requests = poisson_uniform(n, root, 18 + seed % 12, 0.4 + 0.2 * (seed % 4), wrng);
      break;
    default:
      inst.requests = bursty(n, root, 3, 5, 4, wrng);
      break;
  }
  return inst;
}

/// Tree-only variant for protocol-level sweeps: a random tree topology
/// (uniform, weighted, path, star-ish caterpillar, or balanced k-ary), a
/// random root, and a random request schedule drawn from every workload
/// regime. Wider coverage than make_instance; used by the arrow property
/// suite.
struct TreeInstance {
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RequestSet requests{0, {}};
};

inline TreeInstance make_tree_instance(int seed) {
  Rng rng = seeded_rng(seed, /*salt=*/0xa77e57);
  NodeId n = 8 + static_cast<NodeId>(rng.next_below(25));
  Graph g;
  switch (seed % 5) {
    case 0: g = make_random_tree(n, rng); break;
    case 1: g = make_path(n); break;
    case 2: g = make_balanced_kary_tree(n, 2 + seed % 3); break;
    case 3: g = make_caterpillar(n / 3 + 2, 2); break;
    default: g = random_weighted_graph(n, rng); break;
  }
  n = g.node_count();
  TreeInstance inst;
  auto root = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(n)));
  inst.tree = shortest_path_tree(g, root);
  Rng wrng = rng.split();
  switch (seed % 4) {
    case 0: inst.requests = one_shot_all(n, root); break;
    case 1:
      inst.requests = poisson_uniform(n, root, 15 + seed % 15, 0.3 + 0.25 * (seed % 4), wrng);
      break;
    case 2: inst.requests = bursty(n, root, 2 + seed % 3, 4, 3, wrng); break;
    default:
      inst.requests =
          sequential_random(n, root, 10, inst.tree.diameter() + 1, wrng);
      break;
  }
  return inst;
}

}  // namespace testutil
}  // namespace arrowdq
