// The shared-memory runtime (src/rt/) under test.
//
// Runtime runs are not bit-reproducible — real-thread interleavings differ
// per run — so these tests pin the things that must hold on *every* run:
//
//  * mailbox contract — per-producer FIFO through the bounded ring and its
//    overflow path, single-threaded, with a producer held mid-publish, and
//    under a genuine MPSC thread stress;
//  * ownership — the preorder-chunk map owns every node once, balances
//    chunk sizes to within one, clamps T to n, and cuts few tree edges;
//  * checker soundness on real runs — 60 randomized runtime executions
//    (5 topology families x T in {1, 2, 3, 4} x 3 round/capacity variants)
//    all produce histories that rt::check_history accepts, with exact op and
//    token counts; the star family sends almost every post across workers,
//    so the capacity-2 variant drives the mailbox overflow path;
//  * the two delivery channels — no post crosses workers at T = 1, at
//    least one does at T >= 2, and a worker busy with its own nodes still
//    reads cross-worker mail, so the other worker's clients are not starved,
//    and thousands of short remote-heavy runs all finish (no lost wakeup);
//  * app semantics — the counter app's values match chain positions (the
//    checker's rule 5), the directory app accounts positive travel;
//  * checker completeness — seeded corruptions of a genuinely valid history
//    (dropped release, overlapping critical sections, reordered acquires,
//    forked predecessor chain, counter skew, wrong-node event) are each
//    REJECTED: a checker that cannot fail proves nothing;
//  * the Experiment bridge — run_rt_cross_validated runs the sim twin and
//    reports a positive hop ratio with a passing check.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "rt/history.hpp"
#include "rt/mailbox.hpp"
#include "rt/runtime.hpp"
#include "rt/service.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

using rt::CheckResult;
using rt::CheckSpec;
using rt::Event;
using rt::EventKind;
using rt::History;
using rt::RtApp;
using rt::RtConfig;
using rt::RtResult;

// --- mailbox -------------------------------------------------------------

TEST(RtMailbox, RingIsFifoAndBounded) {
  rt::RingMailbox<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99)) << "ring must refuse pushes past capacity";
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  // Wraparound: indices keep working past one full cycle.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(ring.try_push(10 * round + i));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, 10 * round + i);
    }
  }
}

TEST(RtMailbox, OverflowPathPreservesFifo) {
  // Tiny ring so most pushes take the overflow path; interleave pops so the
  // batch / ring / overflow handoff points are all crossed.
  rt::Mailbox<int> mbox(2);
  int next_push = 0, next_pop = 0, out = -1;
  auto push_n = [&](int n) {
    for (int i = 0; i < n; ++i) mbox.push(next_push++);
  };
  auto pop_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(mbox.try_pop(out));
      EXPECT_EQ(out, next_pop++);
    }
  };
  push_n(7);  // 2 in the ring, 5 overflowed
  pop_n(3);   // drains the ring, takes the overflow batch
  push_n(6);  // mid-batch pushes: ring again (overflow was swapped out)
  pop_n(7);
  EXPECT_TRUE(mbox.maybe_nonempty());
  pop_n(3);
  EXPECT_FALSE(mbox.try_pop(out));
  EXPECT_FALSE(mbox.maybe_nonempty());
}

/// Mailbox element whose copy-assignment can block: the ring copies a pushed
/// value into its slot after reserving the slot and before publishing it, so
/// a gated value holds its producer exactly mid-publish.
struct GatedMsg {
  int producer = 0;
  int seq = 0;
  bool gated = false;
  static inline std::atomic<bool> entered{false};
  static inline std::atomic<bool> open{false};

  GatedMsg() = default;
  GatedMsg(int p, int s, bool g = false) : producer(p), seq(s), gated(g) {}
  GatedMsg(const GatedMsg&) = default;
  GatedMsg& operator=(const GatedMsg& o) {
    if (o.gated) {
      entered.store(true);
      while (!open.load()) std::this_thread::yield();
    }
    producer = o.producer;
    seq = o.seq;
    gated = false;  // only the producer's copy into the slot waits
    return *this;
  }
};

TEST(RtMailbox, OverflowWaitsForRingSlotStillBeingPublished) {
  // Producer 0 reserves ring slot 0 and stalls before publishing it. This
  // thread, as producer 1, fills the rest of the ring and overflows. The
  // consumer must not hand out producer 1's overflow messages ahead of its
  // ring messages just because the ring's head slot is not ready yet.
#if defined(ARROWDQ_RT_LOCKING_MAILBOX)
  // The locking mailbox copies under its mutex, so no slot is ever reserved
  // but unpublished, and the gated copy would block every other push.
  GTEST_SKIP() << "ring-mailbox publish race; the locking mailbox has none";
#endif
  GatedMsg::entered.store(false);
  GatedMsg::open.store(false);
  rt::Mailbox<GatedMsg> mbox(4);
  std::thread stalled([&mbox] { mbox.push(GatedMsg{0, 0, true}); });
  while (!GatedMsg::entered.load()) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) mbox.push(GatedMsg{1, i});  // 3 in the ring, 2 overflow
  GatedMsg out;
  EXPECT_FALSE(mbox.try_pop(out)) << "popped producer " << out.producer << " seq " << out.seq
                                  << " ahead of the ring slot still being published";
  GatedMsg::open.store(true);
  stalled.join();
  int next_seq = 0, got = 0;
  while (mbox.try_pop(out)) {
    ++got;
    if (out.producer == 1) {
      EXPECT_EQ(out.seq, next_seq) << "producer 1 reordered";
      ++next_seq;
    }
  }
  EXPECT_EQ(got, 6);
  EXPECT_EQ(next_seq, 5);
}

TEST(RtMailbox, MpscStressKeepsPerProducerOrder) {
  // 4 producer threads x 4000 messages through a 8-slot ring: the overflow
  // path runs constantly. The consumer checks every producer's sequence
  // numbers come out strictly ascending — the FIFO contract the arrow
  // protocol needs from its links.
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  rt::Mailbox<std::uint64_t> mbox(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::uint64_t p = 0; p < kProducers; ++p)
    producers.emplace_back([&mbox, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) mbox.push((p << 32) | i);
    });
  std::uint64_t received = 0;
  std::uint64_t next_seq[kProducers] = {0, 0, 0, 0};
  while (received < kProducers * kPerProducer) {
    std::uint64_t v;
    if (!mbox.try_pop(v)) {
      std::this_thread::yield();
      continue;
    }
    const auto p = static_cast<std::size_t>(v >> 32);
    const std::uint64_t seq = v & 0xffffffffu;
    ASSERT_LT(p, static_cast<std::size_t>(kProducers));
    ASSERT_EQ(seq, next_seq[p]) << "producer " << p << " reordered";
    ++next_seq[p];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  std::uint64_t v;
  EXPECT_FALSE(mbox.try_pop(v));
}

// --- randomized runtime runs through the checker -------------------------

constexpr int kFamilies = 5;
constexpr int kBinaryFamily = 0;
constexpr int kPathFamily = 1;

Tree make_family_tree(int family, Rng& rng) {
  switch (family) {
    case kBinaryFamily: return balanced_binary_overlay(make_complete(24));
    case kPathFamily: return testutil::path_tree(17);
    case 2: return testutil::grid_tree(4, 5);
    case 3: return testutil::random_tree(23, rng);
    default: {
      // Star rooted at its centre: every leaf after the first chunk hangs off
      // a node of worker 0, so almost every edge crosses workers.
      std::vector<NodeId> parent(19, 0);
      parent[0] = kNoNode;
      return Tree::from_parents(std::move(parent), 0);
    }
  }
}

// --- ownership -------------------------------------------------------------

int ceil_log2(NodeId n) {
  int k = 0;
  while ((NodeId{1} << k) < n) ++k;
  return k;
}

TEST(RtOwnership, PreorderChunksOwnEveryNodeOnceInBalancedChunks) {
  for (int family = 0; family < kFamilies; ++family) {
    Rng rng = testutil::seeded_rng(family);
    const Tree tree = make_family_tree(family, rng);
    const NodeId n = tree.node_count();
    for (int threads = 1; threads <= 4; ++threads) {
      SCOPED_TRACE(testing::Message() << "family=" << family << " T=" << threads);
      const rt::Ownership own = rt::preorder_ownership(tree, threads);
      ASSERT_EQ(own.workers(), threads);
      ASSERT_EQ(own.owner.size(), static_cast<std::size_t>(n));
      std::vector<int> seen(static_cast<std::size_t>(n), 0);
      std::size_t min_size = own.nodes[0].size(), max_size = 0;
      for (int w = 0; w < own.workers(); ++w) {
        const auto& mine = own.nodes[static_cast<std::size_t>(w)];
        min_size = std::min(min_size, mine.size());
        max_size = std::max(max_size, mine.size());
        for (NodeId v : mine) {
          ++seen[static_cast<std::size_t>(v)];
          EXPECT_EQ(own.owner[static_cast<std::size_t>(v)], w);
        }
      }
      for (NodeId v = 0; v < n; ++v)
        EXPECT_EQ(seen[static_cast<std::size_t>(v)], 1) << "node " << v;
      EXPECT_LE(max_size - min_size, 1u);
      // The root opens the first chunk, so worker 0 is the root's owner.
      EXPECT_EQ(own.owner[static_cast<std::size_t>(tree.root())], 0);
    }
  }
}

TEST(RtOwnership, MoreWorkersThanNodesClampToOnePerNode) {
  const Tree path = testutil::path_tree(3);
  const rt::Ownership own = rt::preorder_ownership(path, 8);
  ASSERT_EQ(own.workers(), 3);
  for (const auto& mine : own.nodes) EXPECT_EQ(mine.size(), 1u);
  const Tree single{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  EXPECT_EQ(rt::preorder_ownership(single, 4).workers(), 1);
  EXPECT_EQ(rt::preorder_ownership(path, 0).workers(), 1) << "T < 1 clamps to one worker";
}

TEST(RtOwnership, FewTreeEdgesCrossWorkersOnPathAndBinaryTrees) {
  Rng rng = testutil::seeded_rng(0);
  for (const Tree& tree : {make_family_tree(kPathFamily, rng),
                           make_family_tree(kBinaryFamily, rng),
                           balanced_binary_overlay(make_complete(1024))}) {
    const NodeId n = tree.node_count();
    for (int threads = 1; threads <= 4; ++threads) {
      const rt::Ownership own = rt::preorder_ownership(tree, threads);
      int cut = 0;
      for (NodeId v = 0; v < n; ++v)
        if (v != tree.root() && own.owner[static_cast<std::size_t>(v)] !=
                                    own.owner[static_cast<std::size_t>(tree.parent(v))])
          ++cut;
      EXPECT_LE(cut, threads * ceil_log2(n)) << "n=" << n << " T=" << threads;
      if (threads == 1) {
        EXPECT_EQ(cut, 0);
      }
    }
  }
}

// --- randomized runtime runs through the checker -------------------------

TEST(RtRuntime, RandomizedRunsPassChecker) {
  // 5 families x 4 thread counts x 3 variants = 60 independent runs, each
  // judged by the history checker — the runtime's replacement for goldens.
  const std::int64_t rounds_of[3] = {5, 9, 20};
  const int capacity_of[3] = {2, 8, 64};  // 2 forces the mailbox overflow path
  int runs = 0;
  for (int family = 0; family < kFamilies; ++family) {
    for (int threads : {1, 2, 3, 4}) {
      for (int variant = 0; variant < 3; ++variant) {
        Rng rng = testutil::seeded_rng(family * 100 + threads * 10 + variant);
        const Tree tree = make_family_tree(family, rng);
        RtConfig cfg;
        cfg.threads = threads;
        cfg.rounds_per_node = rounds_of[variant];
        cfg.mailbox_capacity = capacity_of[variant];
        cfg.app = RtApp::kMutex;
        const RtResult res = run_runtime(tree, cfg);
        const std::int64_t expect_ops =
            static_cast<std::int64_t>(tree.node_count()) * rounds_of[variant];
        EXPECT_EQ(res.ops, expect_ops);
        EXPECT_EQ(static_cast<std::int64_t>(res.token_messages), expect_ops)
            << "every op is granted by exactly one token transfer";
        EXPECT_EQ(res.history.events.size(), static_cast<std::size_t>(4 * expect_ops));
        CheckSpec spec;
        spec.nodes = tree.node_count();
        spec.rounds = rounds_of[variant];
        const CheckResult check = rt::check_history(res.history, spec);
        EXPECT_TRUE(check.ok) << "family=" << family << " T=" << threads
                              << " variant=" << variant << ": " << check.error;
        if (threads == 1)
          EXPECT_EQ(res.remote_messages, 0u);
        else
          EXPECT_GE(res.remote_messages, 1u);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 60);
}

TEST(RtRuntime, RemoteMessagesCountOnlyCrossWorkerPosts) {
  // At T = 1 every post stays on the worker's private FIFO. At T >= 2 the
  // first node of a non-root chunk has its parent in an earlier chunk, and
  // its first issue posts queue() to that parent: at least one remote post
  // on every tree with n >= 2, even with a single round.
  for (int family = 0; family < kFamilies; ++family) {
    Rng rng = testutil::seeded_rng(family);
    const Tree tree = make_family_tree(family, rng);
    for (int threads = 1; threads <= 4; ++threads) {
      RtConfig cfg;
      cfg.threads = threads;
      cfg.rounds_per_node = 1;
      cfg.record_history = false;
      const RtResult res = run_runtime(tree, cfg);
      if (threads == 1)
        EXPECT_EQ(res.remote_messages, 0u) << "family=" << family;
      else
        EXPECT_GE(res.remote_messages, 1u) << "family=" << family << " T=" << threads;
      EXPECT_LE(res.remote_messages, res.queue_messages + res.token_messages);
    }
  }
  const Tree pair = testutil::path_tree(2);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 1;
  EXPECT_GE(run_runtime(pair, cfg).remote_messages, 1u);
}

TEST(RtRuntime, CrossWorkerMailIsNotStarvedByLocalWork) {
  // The benchmark's tree (balanced binary on K_1024) at T = 2: every path
  // from a worker-1 node to the root runs through worker 0, and worker 0's
  // own nodes keep its private FIFO busy for the whole run. A worker that
  // emptied its FIFO before reading any cross-worker mail would let no
  // worker-1 request in until worker 0 had finished all of its own. Batched
  // delivery lets one lap of the queue (at most n requests) pass first.
  const Tree tree = balanced_binary_overlay(make_complete(1024));
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 16;
  const RtResult res = run_runtime(tree, cfg);
  CheckSpec spec{tree.node_count(), cfg.rounds_per_node, RtApp::kMutex};
  const CheckResult check = rt::check_history(res.history, spec);
  ASSERT_TRUE(check.ok) << check.error;
  const rt::Ownership own = rt::preorder_ownership(tree, 2);
  std::int64_t w0_total = 0, w0_before_w1 = 0;
  bool w1_seen = false;
  for (const Event& e : res.history.events) {
    if (e.kind != EventKind::kAcquire) continue;
    if (own.owner[static_cast<std::size_t>(e.node)] == 1) {
      w1_seen = true;
    } else {
      ++w0_total;
      if (!w1_seen) ++w0_before_w1;
    }
  }
  ASSERT_TRUE(w1_seen);
  EXPECT_EQ(w0_total, static_cast<std::int64_t>(own.nodes[0].size()) * cfg.rounds_per_node);
  EXPECT_LT(w0_before_w1, w0_total / 2)
      << "worker 0 ran " << w0_before_w1 << " of its " << w0_total
      << " acquires before worker 1's first";
}

TEST(RtRuntime, ManyShortCrossWorkerRunsAllFinish) {
  // Lost-wakeup regression. Every post on a star crosses workers, so the
  // scheduled-flag handshake between a sender and a draining owner runs
  // thousands of times per run. When the owner cleared the flag with a plain
  // store, the store could wait in the store buffer while the owner read an
  // empty mailbox and the sender read the old flag: the message was never
  // delivered and the run spun forever, usually within the first thousand
  // runs on a 4-core host. The hung workers cannot be joined, so a watchdog
  // ends the process.
  std::vector<NodeId> parent(32, 0);
  parent[0] = kNoNode;
  const Tree star = Tree::from_parents(std::move(parent), 0);
  RtConfig cfg;
  cfg.threads = 4;
  cfg.rounds_per_node = 20;
  cfg.record_history = false;
  auto runs = std::async(std::launch::async, [&] {
    for (int i = 0; i < 2000; ++i)
      if (run_runtime(star, cfg).ops != 32 * 20) return false;
    return true;
  });
  if (runs.wait_for(std::chrono::seconds(300)) == std::future_status::timeout) {
    std::fprintf(stderr, "runtime runs did not finish: a wakeup was lost\n");
    std::_Exit(1);
  }
  EXPECT_TRUE(runs.get());
}

TEST(RtRuntime, CounterAppMatchesChainPositions) {
  const Tree tree = testutil::grid_tree(3, 4);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 7;
  cfg.app = RtApp::kCounter;
  const RtResult res = run_runtime(tree, cfg);
  CheckSpec spec{tree.node_count(), 7, RtApp::kCounter};
  const CheckResult check = rt::check_history(res.history, spec);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(RtRuntime, DirectoryAppAccountsTravel) {
  const Tree tree = testutil::path_tree(9);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 6;
  cfg.app = RtApp::kDirectory;
  const RtResult res = run_runtime(tree, cfg);
  // 9 nodes taking 6 turns each on a path: the object must move.
  EXPECT_GT(res.token_travel_units, 0);
  CheckSpec spec{tree.node_count(), 6, RtApp::kDirectory};
  const CheckResult check = rt::check_history(res.history, spec);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(RtRuntime, SingleNodeDegenerateRun) {
  // n = 1: every request self-queues behind the previous one; no queue
  // messages ever cross an edge.
  Tree tree{std::vector<NodeId>{kNoNode}, std::vector<Weight>{1}, 0};
  RtConfig cfg;
  cfg.threads = 2;  // clamped to 1 owned range
  cfg.rounds_per_node = 5;
  const RtResult res = run_runtime(tree, cfg);
  EXPECT_EQ(res.ops, 5);
  EXPECT_EQ(res.queue_messages, 0u);
  CheckSpec spec{1, 5, RtApp::kMutex};
  EXPECT_TRUE(rt::check_history(res.history, spec).ok);
}

// --- checker completeness: corrupted histories must be rejected ----------

struct ValidRun {
  History history;
  CheckSpec spec;
};

ValidRun make_valid_run(RtApp app) {
  const Tree tree = testutil::path_tree(6);
  RtConfig cfg;
  cfg.threads = 2;
  cfg.rounds_per_node = 3;
  cfg.app = app;
  RtResult res = run_runtime(tree, cfg);
  ValidRun run;
  run.history = std::move(res.history);
  run.spec = CheckSpec{tree.node_count(), 3, app};
  // Precondition for every corruption test: the pristine history passes.
  EXPECT_TRUE(rt::check_history(run.history, run.spec).ok);
  return run;
}

/// Index of the i-th event (in stamp order — merge sorts) of `kind`.
std::size_t nth_of_kind(const History& h, EventKind kind, int i) {
  for (std::size_t j = 0; j < h.events.size(); ++j)
    if (h.events[j].kind == kind && i-- == 0) return j;
  ADD_FAILURE() << "history has too few events of the requested kind";
  return 0;
}

TEST(RtChecker, RejectsDroppedRelease) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  const std::size_t i = nth_of_kind(run.history, EventKind::kRelease, 0);
  run.history.events.erase(run.history.events.begin() + static_cast<std::ptrdiff_t>(i));
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("missing release"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsOverlappingCriticalSections) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Push the chain-first release (smallest release stamp — releases ascend
  // along the chain) past everything: its successor now acquires before the
  // predecessor released.
  Event& rel = run.history.events[nth_of_kind(run.history, EventKind::kRelease, 0)];
  rel.stamp = run.history.events.back().stamp + 1000;
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("critical sections overlap"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsReorderedAcquires) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Swap the stamps of the two chain-first acquires: the first request now
  // acquires after its own release.
  Event& a0 = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  Event& a1 = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 1)];
  std::swap(a0.stamp, a1.stamp);
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok) << "swapped acquire stamps must not pass";
  EXPECT_FALSE(check.error.empty());
}

TEST(RtChecker, RejectsForkedPredecessorChain) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  // Two requests recorded behind the same predecessor: the total order
  // forks, which a single queue can never produce.
  const Event& e0 = run.history.events[nth_of_kind(run.history, EventKind::kEnqueue, 0)];
  Event& e1 = run.history.events[nth_of_kind(run.history, EventKind::kEnqueue, 1)];
  e1.aux = e0.aux;
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("same predecessor"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsCounterSkew) {
  ValidRun run = make_valid_run(RtApp::kCounter);
  Event& acq = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  acq.aux += 7;  // a lost or doubled increment
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("counter value"), std::string::npos) << check.error;
}

TEST(RtChecker, RejectsWrongNodeEvent) {
  ValidRun run = make_valid_run(RtApp::kMutex);
  Event& acq = run.history.events[nth_of_kind(run.history, EventKind::kAcquire, 0)];
  acq.node = static_cast<NodeId>((acq.node + 1) % run.spec.nodes);
  const CheckResult check = rt::check_history(run.history, run.spec);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("wrong node"), std::string::npos) << check.error;
}

// --- the Experiment bridge -----------------------------------------------

TEST(RtService, CrossValidatesAgainstTheSim) {
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
  e.topology = TopologySpec::complete(16);
  e.rounds = 5;
  e = e.with_seed(11);
  RtConfig cfg;
  cfg.threads = 2;
  const rt::RtCrossValidation cv = rt::run_rt_cross_validated(e, cfg);
  EXPECT_TRUE(cv.check.ok) << cv.check.error;
  EXPECT_EQ(cv.rt.ops, 16 * 5);
  EXPECT_EQ(cv.sim.total_requests, 16 * 5);
  EXPECT_GT(cv.rt_hops_per_op, 0.0);
  EXPECT_GT(cv.sim_hops_per_op, 0.0);
  // The loops differ (the sim re-issues on queuing completion, the runtime
  // on release), so the ratio is an O(1) sanity band, not an identity.
  EXPECT_GT(cv.hops_ratio, 0.05);
  EXPECT_LT(cv.hops_ratio, 20.0);
}

}  // namespace
}  // namespace arrowdq
