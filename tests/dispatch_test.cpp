// Coverage for the statically dispatched hot path, the same-tick batch
// drain, and the parallel sweep runner.
//
//  * with_static_latency must hand back samplers that share state with the
//    model (same draw sequence), and refuse unknown subclasses;
//    with_static_dist must refuse a DistTicksFn that holds no known oracle.
//  * Batch draining must preserve exact (time, seq) FIFO order under heavy
//    same-instant load, including events scheduled mid-batch, on the
//    bucketed queue and the binary-heap reference.
//  * SweepRunner results must not depend on the thread count (including 1)
//    and map() must return results in index order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "arrow/arrow.hpp"
#include "arrow/closed_loop.hpp"
#include "baseline/centralized.hpp"
#include "baseline/dist.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "testutil.hpp"

namespace arrowdq {
namespace {

TEST(StaticDispatch, SamplersShareStateWithModels) {
  // Stateful models: the dispatched sampler must draw from the *same*
  // stream as the model (not a reseeded copy) — sampling alternately
  // through both views must equal one straight virtual sequence.
  UniformAsyncLatency reference(99, 0.1);
  UniformAsyncLatency dispatched(99, 0.1);
  with_static_latency(dispatched, [&](auto sampler) {
    for (int i = 0; i < 50; ++i) {
      Time want_a = reference.sample(0, 1, 3);
      Time want_b = reference.sample(1, 2, 2);
      EXPECT_EQ(sampler(0, 1, 3), want_a) << i;
      EXPECT_EQ(dispatched.sample(1, 2, 2), want_b) << i;
    }
  });

  TruncatedExpLatency exp_ref(42, 0.3);
  TruncatedExpLatency exp_disp(42, 0.3);
  with_static_latency(exp_disp, [&](auto sampler) {
    for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler(0, 1, 2), exp_ref.sample(0, 1, 2)) << i;
  });
}

// There is no per-message virtual fallback: an unknown LatencyModel subclass
// or a DistTicksFn holding a caller's own closure is refused once, at
// dispatch, with a diagnostic.
struct CustomLatency final : LatencyModel {
  Time sample(NodeId, NodeId, Weight weight) override { return units_to_ticks(weight) + 1; }
  const char* name() const override { return "custom"; }
};

TEST(StaticDispatchDeathTest, UnknownLatencyModelIsRefused) {
  CustomLatency custom;
  EXPECT_DEATH(with_static_latency(custom, [](auto sampler) { return sampler(0, 1, 2); }),
               "unknown LatencyModel subclass");
  // The same refusal through a public entry point.
  auto inst = testutil::make_tree_instance(3);
  ArrowEngine engine(inst.tree, custom);
  EXPECT_DEATH(engine.run(inst.requests), "unknown LatencyModel subclass");
}

TEST(StaticDispatchDeathTest, BareLambdaDistIsRefused) {
  const DistTicksFn bare = [](NodeId u, NodeId v) { return u == v ? Time{0} : kTicksPerUnit; };
  EXPECT_DEATH(with_static_dist(bare, [](auto oracle) { return oracle(0, 1); }),
               "no known distance oracle");
  const RequestSet rs = RequestSet::from_units(0, {{1, 0}});
  EXPECT_DEATH(run_centralized(4, rs, bare, CentralizedConfig{}), "no known distance oracle");
}

// --- batch drain ----------------------------------------------------------

/// Heavy same-instant load with nested same-tick scheduling: execution
/// order must equal schedule order within each instant, instants in time
/// order, children after all parents of their instant.
template <typename Sim>
void drive_batch_fifo() {
  Sim sim;
  std::vector<int> log;
  // Three instants, interleaved scheduling across them.
  for (int i = 0; i < 30; ++i) {
    const Time t = 10 + 10 * (i % 3);  // 10, 20, 30, 10, 20, ...
    sim.at(t, [&log, &sim, i, t] {
      log.push_back(i);
      if (i % 4 == 0) {
        // Same-instant child: must run after every already-scheduled event
        // of this instant.
        sim.at(t, [&log, i] { log.push_back(1000 + i); });
      }
    });
  }
  sim.run();
  ASSERT_EQ(log.size(), 38u);
  // Expected: per instant, parents i≡instant (mod 3) ascending, then their
  // children in parent order.
  std::vector<int> want;
  for (int instant = 0; instant < 3; ++instant) {
    for (int i = instant; i < 30; i += 3) want.push_back(i);
    for (int i = instant; i < 30; i += 3)
      if (i % 4 == 0) want.push_back(1000 + i);
  }
  EXPECT_EQ(log, want);
}

TEST(BatchDrain, FifoUnderManySameInstantEvents) {
  drive_batch_fifo<BasicSimulator<BucketedEventQueue>>();
  drive_batch_fifo<BasicSimulator<BinaryEventQueue>>();
}

TEST(BatchDrain, RandomizedOrderAgreesAcrossQueues) {
  // Property: the bucketed queue realizes the identical total order as the
  // binary heap on a random schedule with heavy duplicate times, including
  // nested scheduling from inside handlers.
  auto drive = [](auto sim_tag, int seed) {
    using Sim = decltype(sim_tag);
    Sim sim;
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    std::vector<std::pair<Time, int>> log;
    int next_tag = 0;
    for (int i = 0; i < 400; ++i) {
      const Time t = static_cast<Time>(rng.next_below(40));
      const int tag = next_tag++;
      sim.at(t, [&log, &sim, &rng, &next_tag, t, tag] {
        log.emplace_back(t, tag);
        if (rng.next_bool(0.25)) {
          const Time t2 = t + static_cast<Time>(rng.next_below(3));  // may tie with t
          const int tag2 = next_tag++;
          sim.at(t2, [&log, t2, tag2] { log.emplace_back(t2, tag2); });
        }
      });
    }
    sim.run();
    return log;
  };
  for (int seed = 0; seed < 6; ++seed) {
    auto bucketed = drive(BasicSimulator<BucketedEventQueue>{}, seed);
    auto binary = drive(BasicSimulator<BinaryEventQueue>{}, seed);
    EXPECT_EQ(bucketed, binary) << "seed " << seed;
    // Sanity: within every instant, tags are strictly increasing (schedule
    // order), and instants are non-decreasing in time.
    for (std::size_t i = 1; i < bucketed.size(); ++i) {
      EXPECT_LE(bucketed[i - 1].first, bucketed[i].first) << "seed " << seed;
      if (bucketed[i - 1].first == bucketed[i].first) {
        EXPECT_LT(bucketed[i - 1].second, bucketed[i].second) << "seed " << seed;
      }
    }
  }
}

TEST(BatchDrain, StepAndRunUntilInteroperate) {
  BasicSimulator<BucketedEventQueue> sim;
  std::vector<int> log;
  for (int i = 0; i < 5; ++i) sim.at(10, [&log, i] { log.push_back(i); });
  for (int i = 5; i < 8; ++i) sim.at(20, [&log, i] { log.push_back(i); });
  // Single-step through part of the first batch.
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.now(), 10);
  EXPECT_EQ(sim.events_pending(), 6u);
  // run_until must finish the batch but not cross t=20.
  sim.run_until(15);
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 15);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(log.size(), 8u);
  EXPECT_EQ(sim.now(), 20);
}

// --- sweep runner ---------------------------------------------------------

std::vector<SweepScenario> test_scenarios() {
  std::vector<SweepScenario> scenarios;
  int i = 0;
  for (NodeId n : {13, 32, 61}) {
    Graph g = make_complete(n);
    Tree t = balanced_binary_overlay(g);
    for (LatencySpec spec : {LatencySpec::synchronous(),
                             LatencySpec::uniform_async(100 + static_cast<std::uint64_t>(i), 0.1),
                             LatencySpec::truncated_exp(200 + static_cast<std::uint64_t>(i), 0.4)}) {
      ClosedLoopConfig cfg;
      cfg.requests_per_node = 8 + i;
      cfg.service_time = i % 2 ? kTicksPerUnit / 16 : 0;
      scenarios.push_back(SweepScenario{"s" + std::to_string(i), t, spec, cfg});
      ++i;
    }
  }
  return scenarios;
}

TEST(SweepRunner, ResultsIndependentOfThreadCount) {
  auto scenarios = test_scenarios();
  auto r1 = SweepRunner(1).run(scenarios);
  auto r2 = SweepRunner(2).run(scenarios);
  auto r4 = SweepRunner(4).run(scenarios);
  auto r7 = SweepRunner(7).run(scenarios);
  ASSERT_EQ(r1.size(), scenarios.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].label, scenarios[i].label) << i;
    for (const auto* r : {&r2, &r4, &r7}) {
      EXPECT_EQ(r1[i].result.makespan, (*r)[i].result.makespan) << i;
      EXPECT_EQ(r1[i].result.total_requests, (*r)[i].result.total_requests) << i;
      EXPECT_EQ(r1[i].result.tree_messages, (*r)[i].result.tree_messages) << i;
      EXPECT_EQ(r1[i].result.notify_messages, (*r)[i].result.notify_messages) << i;
      EXPECT_EQ(r1[i].label, (*r)[i].label) << i;
    }
  }
}

TEST(SweepRunner, MatchesSerialExecution) {
  auto scenarios = test_scenarios();
  auto parallel = SweepRunner(4).run(scenarios);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    auto model = scenarios[i].latency.make();
    ClosedLoopResult serial = run_arrow_closed_loop(scenarios[i].tree, *model,
                                                    scenarios[i].config);
    EXPECT_EQ(parallel[i].result.makespan, serial.makespan) << i;
    EXPECT_EQ(parallel[i].result.tree_messages, serial.tree_messages) << i;
  }
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner(4);
  auto out = runner.map<std::uint64_t>(100, [](std::size_t i) { return mix64(i); });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], mix64(i)) << i;
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(SweepRunner, LatencySpecFactoriesMatchModels) {
  // Spec-built models must reproduce the directly constructed ones.
  auto spec = LatencySpec::uniform_async(555, 0.2).make();
  UniformAsyncLatency direct(555, 0.2);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(spec->sample(0, 1, 2), direct.sample(0, 1, 2));
  EXPECT_STREQ(spec->name(), "uniform-async");
  EXPECT_STREQ(LatencySpec::synchronous().make()->name(), "synchronous");
  EXPECT_STREQ(LatencySpec::scaled(0.5).make()->name(), "scaled");
  EXPECT_STREQ(LatencySpec::truncated_exp(1, 0.3).make()->name(), "trunc-exp");
}

}  // namespace
}  // namespace arrowdq
