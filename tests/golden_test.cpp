// Golden determinism pins for the event core.
//
// Each case runs a seeded (tree, schedule, latency) instance through the
// full simulation stack and folds the complete observable outcome — the
// total order, every completion record (predecessor, completion time, hops,
// weighted distance), the post-run pointer state and sink — into one 64-bit
// FNV-1a hash, pinned below. The pins were recorded against the original
// std::priority_queue + std::function core, so any event-core rewrite that
// perturbs tie-breaking, FIFO clamping, or service-time serialization by
// even one tick flips a hash and fails loudly.
//
// Regenerate (only when an *intentional* behavior change is made): run with
// --gtest_also_run_disabled_tests and copy the table printed by
// DISABLED_PrintActualHashes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/pointer_forwarding.hpp"
#include "proto/queuing.hpp"
#include "sim/latency.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

using testutil::Fnv1a;

void hash_outcome(Fnv1a& h, const QueuingOutcome& out) {
  for (RequestId id : out.order()) h.add_signed(id);
  for (RequestId id = 1; id <= out.request_count(); ++id) {
    const Completion& c = out.completion(id);
    h.add_signed(c.predecessor);
    h.add_signed(c.completed_at);
    h.add_signed(c.hops);
    h.add_signed(c.distance);
  }
}

/// Arrow one-shot on a seeded instance; odd seeds use an async latency
/// model (exercising the per-edge FIFO clamp), seeds 2 mod 3 add a serial
/// service time (exercising the busy-until chain).
std::uint64_t arrow_case_hash(int seed) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_uniform_async(static_cast<std::uint64_t>(seed) * 29 + 5, 0.1)
               : make_synchronous();
  ArrowEngine engine(inst.tree, *lat);
  if (seed % 3 == 2) engine.set_service_time(kTicksPerUnit / 8);
  QueuingOutcome out = engine.run(inst.requests);
  out.validate(inst.requests);
  Fnv1a h;
  hash_outcome(h, out);
  for (NodeId link : engine.links()) h.add_signed(link);
  h.add_signed(engine.sink_node());
  h.add(engine.messages_sent());
  h.add_signed(engine.sim().now());
  return h.value();
}

/// Closed-loop arrow (Figure 10 driver): service time and an async model so
/// both the FIFO clamp and the two-phase service path are on the hot path.
std::uint64_t closed_loop_case_hash(int seed) {
  auto inst = testutil::make_tree_instance(seed);
  std::unique_ptr<LatencyModel> lat =
      seed % 2 ? make_truncated_exp(static_cast<std::uint64_t>(seed) * 17 + 3, 0.4)
               : make_synchronous();
  ClosedLoopConfig cfg;
  cfg.requests_per_node = 20 + seed % 7;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  ClosedLoopResult res = run_arrow_closed_loop(inst.tree, *lat, cfg);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.tree_messages);
  h.add(res.notify_messages);
  return h.value();
}

/// Baselines share the Simulator/Network core via send_with_latency.
std::uint64_t baseline_case_hash(int seed) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  auto dist = apsp_dist_fn(apsp);
  Fnv1a h;
  {
    CentralizedConfig cfg;
    cfg.center = inst.requests.root();
    cfg.service_time = seed % 2 ? kTicksPerUnit / 8 : 0;
    QueuingOutcome out = run_centralized(inst.graph.node_count(), inst.requests, dist, cfg);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  {
    PointerForwardingConfig cfg;
    cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
    cfg.initial_owner = inst.requests.root();
    QueuingOutcome out =
        run_pointer_forwarding(inst.graph.node_count(), inst.requests, dist, cfg);
    out.validate(inst.requests);
    hash_outcome(h, out);
  }
  return h.value();
}

/// Closed-loop pointer forwarding (PR 5's find-completion reply driver):
/// seeded graphs with APSP latencies, both pointer-update rules, with and
/// without a serial service time.
std::uint64_t forwarding_loop_case_hash(int seed) {
  auto inst = testutil::make_instance(seed);
  AllPairs apsp(inst.graph);
  PointerForwardingConfig cfg;
  cfg.mode = seed % 2 ? ForwardingMode::kReverseToSender : ForwardingMode::kCompressToRequester;
  cfg.service_time = seed % 3 == 0 ? 0 : kTicksPerUnit / 16;
  cfg.initial_owner = inst.requests.root();
  ForwardingLoopResult res = run_pointer_forwarding_closed_loop(
      inst.graph.node_count(), 10 + seed % 6, apsp_dist_fn(apsp), cfg);
  Fnv1a h;
  h.add_signed(res.makespan);
  h.add_signed(res.total_requests);
  h.add(res.find_messages);
  h.add(res.reply_messages);
  return h.value();
}

constexpr int kArrowCases = 12;
constexpr int kLoopCases = 6;
constexpr int kBaselineCases = 6;
constexpr int kForwardLoopCases = 6;

// Pinned against the seed core (PR 1, commit ca30709).
constexpr std::uint64_t kArrowGolden[kArrowCases] = {
    0xa3ade1240818de46ULL, 0x274910a9ef0bc26cULL, 0x404b9d9836515fa4ULL,
    0xa7ebda7ee0383d5eULL, 0x53bd9a048b4452f3ULL, 0x5a18688a32ef00adULL,
    0xe6c14bbbd76a9fc6ULL, 0xbc8e13cfa33e9702ULL, 0x518c82754f88fbcbULL,
    0x67dc5498a20ecb10ULL, 0x2c56d49a5d19d2f2ULL, 0xebc3eb6f5728fafbULL,
};
constexpr std::uint64_t kLoopGolden[kLoopCases] = {
    0xa2b7a93c0f54b90dULL, 0x01a7ddb264d4e040ULL, 0xfec69f80e67ecc6bULL,
    0xc70b1c1a7415989fULL, 0x8fd7e09eb5015d8fULL, 0x1f545d89b56fe700ULL,
};
constexpr std::uint64_t kBaselineGolden[kBaselineCases] = {
    0x7d578953c5317ac1ULL, 0x67756554244e97e0ULL, 0xe4d98f25eb225b1eULL,
    0x8f7019033c6c7ccdULL, 0xf41286ee244fee07ULL, 0xe6ab23ba7db16448ULL,
};
// Pinned against the initial closed-loop forwarding driver (PR 5).
constexpr std::uint64_t kForwardLoopGolden[kForwardLoopCases] = {
    0xa69e76166af37bffULL, 0x7a8ed0ca0849b181ULL, 0xe24b0d7463ce83a0ULL,
    0x92289a766347d17dULL, 0x6935c587a2e6cea1ULL, 0xf5f47e33a0435fb2ULL,
};

TEST(GoldenDeterminism, ArrowOneShot) {
  for (int seed = 0; seed < kArrowCases; ++seed)
    EXPECT_EQ(arrow_case_hash(seed), kArrowGolden[seed]) << "arrow seed " << seed;
}

TEST(GoldenDeterminism, ArrowClosedLoop) {
  for (int seed = 0; seed < kLoopCases; ++seed)
    EXPECT_EQ(closed_loop_case_hash(seed), kLoopGolden[seed]) << "closed-loop seed " << seed;
}

TEST(GoldenDeterminism, Baselines) {
  for (int seed = 0; seed < kBaselineCases; ++seed)
    EXPECT_EQ(baseline_case_hash(seed), kBaselineGolden[seed]) << "baseline seed " << seed;
}

TEST(GoldenDeterminism, PointerForwardingClosedLoop) {
  for (int seed = 0; seed < kForwardLoopCases; ++seed)
    EXPECT_EQ(forwarding_loop_case_hash(seed), kForwardLoopGolden[seed])
        << "forwarding-loop seed " << seed;
}

// The closed-loop forwarding driver at one request per node with free local
// processing is exactly the one-shot burst: same request count, same number
// of pointer-chase hops (the property property_arrow_test.cpp pins for the
// arrow closed loop). The replies ride outside the find dynamics, so they
// must not perturb the chase.
TEST(GoldenDeterminism, ForwardingClosedLoopOneRoundMatchesOneShot) {
  for (int seed = 0; seed < 10; ++seed) {
    auto inst = testutil::make_instance(seed);
    const NodeId n = inst.graph.node_count();
    const NodeId owner = inst.requests.root();
    AllPairs apsp(inst.graph);
    auto dist = apsp_dist_fn(apsp);
    for (auto mode : {ForwardingMode::kCompressToRequester, ForwardingMode::kReverseToSender}) {
      PointerForwardingConfig cfg;
      cfg.mode = mode;
      cfg.initial_owner = owner;
      ForwardingLoopResult loop = run_pointer_forwarding_closed_loop(n, 1, dist, cfg);

      RequestSet burst = one_shot_all(n, owner);
      QueuingOutcome out = run_pointer_forwarding(n, burst, dist, cfg);

      EXPECT_EQ(loop.total_requests, static_cast<std::int64_t>(n)) << "seed " << seed;
      EXPECT_EQ(loop.find_messages, static_cast<std::uint64_t>(out.total_hops()))
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(GoldenDeterminism, DISABLED_PrintActualHashes) {
  std::printf("kArrowGolden:\n");
  for (int s = 0; s < kArrowCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)arrow_case_hash(s));
  std::printf("kLoopGolden:\n");
  for (int s = 0; s < kLoopCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)closed_loop_case_hash(s));
  std::printf("kBaselineGolden:\n");
  for (int s = 0; s < kBaselineCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)baseline_case_hash(s));
  std::printf("kForwardLoopGolden:\n");
  for (int s = 0; s < kForwardLoopCases; ++s) std::printf("0x%016llxULL,\n", (unsigned long long)forwarding_loop_case_hash(s));
}

}  // namespace
}  // namespace arrowdq
