// Cross-module integration sweeps: the full pipeline (generate graph ->
// choose tree -> generate workload -> run protocol -> analyze) across graph
// families, tree strategies, workloads and latency models.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/competitive.hpp"
#include "analysis/costs.hpp"
#include "analysis/nn_tsp.hpp"
#include "arrow/arrow.hpp"
#include "arrow/invariants.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"
#include "workload/workloads.hpp"

namespace arrowdq {
namespace {

enum class GraphKind { kPath, kRing, kGrid, kTorus, kComplete, kRandomTree, kGeometric };
enum class TreeKind { kSpt, kMst, kMedian, kRandom };
enum class LoadKind { kOneShot, kPoisson, kBursty, kSequential };

Graph build_graph(GraphKind kind, Rng& rng) {
  switch (kind) {
    case GraphKind::kPath: return make_path(18);
    case GraphKind::kRing: return make_ring(18);
    case GraphKind::kGrid: return make_grid(4, 5);
    case GraphKind::kTorus: return make_torus(4, 4);
    case GraphKind::kComplete: return make_complete(14);
    case GraphKind::kRandomTree: return make_random_tree(20, rng);
    case GraphKind::kGeometric: return make_random_geometric(18, 0.35, rng);
  }
  return make_path(4);
}

Tree build_tree(TreeKind kind, const Graph& g, Rng& rng) {
  switch (kind) {
    case TreeKind::kSpt: return shortest_path_tree(g, 0);
    case TreeKind::kMst: return kruskal_mst(g, 0);
    case TreeKind::kMedian: return median_spt(g);
    case TreeKind::kRandom: return random_spanning_tree(g, 0, rng);
  }
  return shortest_path_tree(g, 0);
}

RequestSet build_load(LoadKind kind, NodeId n, NodeId root, Rng& rng) {
  switch (kind) {
    case LoadKind::kOneShot: return one_shot_all(n, root);
    case LoadKind::kPoisson: return poisson_uniform(n, root, 22, 0.8, rng);
    case LoadKind::kBursty: return bursty(n, root, 3, 6, 5, rng);
    case LoadKind::kSequential: return sequential_random(n, root, 10, 30, rng);
  }
  return one_shot_all(n, root);
}

using PipelineParam = std::tuple<GraphKind, TreeKind, LoadKind>;

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweep, ArrowValidAndNnCharacterized) {
  auto [gk, tk, lk] = GetParam();
  Rng rng(0xA11C0FFEEULL);
  Graph g = build_graph(gk, rng);
  Tree t = build_tree(tk, g, rng);
  NodeId root = t.root();
  RequestSet reqs = build_load(lk, g.node_count(), root, rng);

  SynchronousLatency sync;
  ArrowEngine engine(t, sync);
  auto out = engine.run(reqs);
  out.validate(reqs);

  // Pointer state legal at quiescence.
  EXPECT_TRUE(links_form_in_tree(engine.links(), t));

  // Lemma 3.8 property on every pipeline combination.
  auto cT = make_cT(tree_dist_ticks(t));
  EXPECT_TRUE(is_nn_order(out.order(), reqs, cT));

  // Lemma 3.10 identity (per the proof's sign) on every combination.
  Time ct_sum = order_cost(out.order(), reqs, cT);
  EXPECT_EQ(out.total_latency(reqs), ct_sum - reqs.by_id(out.order().back()).time);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PipelineSweep,
    ::testing::Combine(::testing::Values(GraphKind::kPath, GraphKind::kRing, GraphKind::kGrid,
                                         GraphKind::kTorus, GraphKind::kComplete,
                                         GraphKind::kRandomTree, GraphKind::kGeometric),
                       ::testing::Values(TreeKind::kSpt, TreeKind::kMst, TreeKind::kMedian,
                                         TreeKind::kRandom),
                       ::testing::Values(LoadKind::kOneShot, LoadKind::kPoisson,
                                         LoadKind::kBursty, LoadKind::kSequential)));

class AsyncPipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(AsyncPipelineSweep, AsyncExecutionsStayValidAndBounded) {
  int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 101 + 1);
  Graph g = make_grid(4, 5);
  Tree t = shortest_path_tree(g, 0);
  Rng wrng = rng.split();
  auto reqs = poisson_uniform(20, 0, 30, 1.0, wrng);

  auto lat = make_uniform_async(static_cast<std::uint64_t>(seed) + 999, 0.05);
  auto out = run_arrow(t, reqs, *lat);

  // Async latency of each request is bounded by dT to its predecessor
  // (Section 3.8: delays normalized to <= 1 per unit weight).
  auto dT = tree_dist_ticks(t);
  for (RequestId id = 1; id <= reqs.size(); ++id) {
    const auto& c = out.completion(id);
    Time bound = dT(reqs.by_id(id).node, reqs.by_id(c.predecessor).node);
    EXPECT_LE(c.completed_at - reqs.by_id(id).time, bound);
    // And the c'T chain of Section 3.8: 0 <= c'T <= cT <= cM. c'T for
    // consecutive pairs is (tj - ti) + actual latency.
  }

  // The async cost never exceeds the synchronous cost on the same workload
  // and order... orders may differ, but the total is bounded by the sync
  // cost of the async order, which Lemma 3.20 + (12) guarantee:
  auto cT = make_cT(dT);
  auto order = out.order();
  Time sync_cost_of_async_order = order_cost(order, reqs, cT);
  Time t_last = reqs.by_id(order.back()).time;
  EXPECT_LE(out.total_latency(reqs), sync_cost_of_async_order + t_last);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncPipelineSweep, ::testing::Range(0, 10));

TEST(Integration, WeightedGeometricEndToEnd) {
  Rng rng(2718);
  Graph g = make_random_geometric(24, 0.35, rng, /*weight_scale=*/8);
  Tree t = kruskal_mst(g, 0);
  Rng wrng = rng.split();
  auto reqs = poisson_uniform(24, 0, 12, 0.05, wrng);
  auto out = run_arrow(t, reqs);
  auto rep = analyze_competitive(g, t, reqs, out, 12);
  EXPECT_TRUE(rep.lemma310_exact);
  EXPECT_GT(rep.cost_arrow, 0);
  if (rep.opt.value > 0) {
    EXPECT_LE(rep.ratio, 64.0 * rep.s_log_d);
  }
}

}  // namespace
}  // namespace arrowdq
