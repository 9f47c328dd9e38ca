// Event-core and end-to-end throughput benchmark with JSON output.
//
// Measures every layer the PR-2/PR-3 rewrites touched, each before/after in
// one binary (the "before" is the verbatim legacy core in legacy_sim.hpp):
//
//  1. event_core      — schedule N events at pseudo-random times, drain the
//                       queue. Legacy priority_queue+std::function vs the
//                       pooled arena over each queue implementation
//                       (bucketed calendar, binary heap, 4-ary heap,
//                       pairing heap).
//  2. network         — sustained ping-pong message streams over star edges
//                       with a serial service time, at three dispatch
//                       levels: legacy, dynamic (std::function handler +
//                       virtual sampler on the pooled core), and static
//                       (typed handler + value sampler).
//  3. closed_loop     — the Figure 10 macro workload at n=1024 processors:
//                       legacy driver replica, the dynamic-dispatch driver,
//                       and the statically dispatched default. All three
//                       must agree tick-for-tick on makespan and message
//                       counts (asserted).
//  4. sweep_scaling   — a fixed scenario set through SweepRunner at 1, 2
//                       and 4 threads; per-thread-count wall time and
//                       speedup, plus the determinism cross-check.
//  5. fig10_scale     — the Figure 10 workload on the implicit scale tier
//                       (closed-form hypercube, CompactSimulator's 32-byte
//                       slots, no Graph/Tree/APSP) at n = 2^20 / 2^22 /
//                       2^24, with peak-RSS and bytes-per-node readings
//                       against a recorded memory budget. Runs FIRST and in
//                       ascending n: ru_maxrss is a process-wide high-water
//                       mark, so a cell's reading is attributable only while
//                       it is the largest allocation so far.
//  6. fig10_parallel  — the same implicit Figure 10 macro at n = 2^20 on the
//                       sharded conservative engine (sim/parallel/) at
//                       K = 1 / 2 / 4 lanes: events/s plus the safe-window
//                       barrier counters (windows, merged entries) that
//                       quantify the cost K must amortize. Bit-identity
//                       across K is asserted in-process; the recorded
//                       hardware_concurrency tells the gate whether a K=2
//                       speedup is meaningful (a 1-core box runs lanes
//                       time-sliced and can only lose).
//  7. bench_runtime   — the real-thread arrow runtime (src/rt/) driving the
//                       mutex app on a balanced-binary tree at T = 1 / 2 / 4
//                       workers: measured ops/s (history recording off — the
//                       seq_cst stamp counter would serialize the hot path),
//                       plus a second recorded run whose merged history goes
//                       through rt::check_history — the checker verdict, not
//                       a golden, is the correctness signal (thread
//                       interleavings are not reproducible). The sim twin's
//                       predicted hops/op is recorded next to the measured
//                       one; their ratio is the cross-validation number.
//                       Each row also prints the share of posts that crossed
//                       workers through a mailbox (printed only, not gated).
//
// Usage: bench_throughput [--quick] [--out FILE.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "arrow/closed_loop.hpp"
#include "graph/generators.hpp"
#include "graph/spanning_tree.hpp"
#include "legacy_sim.hpp"
#include "rt/history.hpp"
#include "rt/runtime.hpp"
#include "sim/parallel/parallel.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace arrowdq {
namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-reps wall time of fn().
template <typename F>
double time_best(int reps, F&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    double t0 = now_sec();
    fn();
    best = std::min(best, now_sec() - t0);
  }
  return best;
}

/// Process-wide high-water resident set in bytes (0 where unavailable).
std::uint64_t peak_rss_bytes_now() {
#if defined(__APPLE__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::uint64_t>(u.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024;  // kilobytes on Linux
#else
  return 0;
#endif
}

// --- 1. event core -------------------------------------------------------

/// Tiny 8-byte capture: fits std::function's inline buffer, so the legacy
/// core pays no allocation — this isolates pure queue mechanics.
template <typename Sim>
std::uint64_t schedule_run_tiny(std::size_t n_events) {
  Sim sim;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < n_events; ++i)
    sim.at(static_cast<Time>(mix64(i) % 100000), [&sink] { ++sink; });
  sim.run();
  return sink;
}

/// Protocol-sized 40-byte capture, the size of ArrowEngine's issue closure:
/// exceeds std::function's inline buffer, so the legacy core heap-allocates
/// per event exactly as it does in the real protocol; the pooled core stays
/// on the inline arena path.
template <typename Sim>
std::uint64_t schedule_run_protocol(std::size_t n_events) {
  struct ProtocolEvent {
    std::uint64_t a, b, c, d;
    std::uint64_t* sink;
    void operator()() const { *sink += a; }
  };
  Sim sim;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < n_events; ++i)
    sim.at(static_cast<Time>(mix64(i) % 100000), ProtocolEvent{i, i, i, i, &sink});
  sim.run();
  return sink;
}

/// Exactly DeliveryEvent-shaped 16-byte capture (pointer + index): the event
/// the Network schedules for every in-flight message. Drives the arena
/// slot-density probe — a 16-byte inline budget packs these two-per-cache-
/// line (32-byte slots) instead of one-per-line (64-byte slots).
template <typename Sim>
std::uint64_t schedule_run_net_sized(std::size_t n_events) {
  struct NetSizedEvent {
    std::uint64_t* sink;
    std::uint32_t slot;
    void operator()() const { *sink += slot; }
  };
  static_assert(sizeof(NetSizedEvent) == 16);
  static_assert(Sim::template fits_inline_v<NetSizedEvent>);
  Sim sim;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < n_events; ++i)
    sim.at(static_cast<Time>(mix64(i) % 100000),
           NetSizedEvent{&sink, static_cast<std::uint32_t>(i)});
  sim.run();
  return sink;
}

// --- 2. network message streams ------------------------------------------

struct Ping {
  int remaining;
};

/// `chains` concurrent ping-pong streams between a star center and its
/// leaves, `hops` messages per stream, with serial service time. Legacy
/// core or pooled core with a std::function handler.
template <typename Sim, template <typename> class NetT>
std::uint64_t ping_pong_fn(NodeId chains, int hops) {
  Graph g = make_star(chains + 1);  // center 0, leaves 1..chains
  Sim sim;
  SynchronousLatency lat;
  NetT<Ping> net(g, sim, lat);
  net.set_service_time(kTicksPerUnit / 16);
  std::uint64_t handled = 0;
  net.set_handler([&](NodeId from, NodeId to, const Ping& p) {
    ++handled;
    if (p.remaining > 0) net.send(to, from, Ping{p.remaining - 1});
  });
  for (NodeId leaf = 1; leaf <= chains; ++leaf) net.send(leaf, 0, Ping{hops - 1});
  sim.run();
  return handled;
}

/// The statically dispatched variant: value sampler + typed handler.
struct PingPongDriver;
struct PingHandler {
  PingPongDriver* d = nullptr;
  inline void operator()(NodeId from, NodeId to, const Ping& p) const;
};
struct PingPongDriver {
  Graph g;
  Simulator sim;
  Network<Ping, SyncSampler, PingHandler> net;
  std::uint64_t handled = 0;
  explicit PingPongDriver(NodeId chains) : g(make_star(chains + 1)), net(g, sim, SyncSampler{}) {
    sim.reserve(2 * static_cast<std::size_t>(chains) + 2);
    net.reserve_messages(static_cast<std::size_t>(chains) + 1);
    net.set_service_time(kTicksPerUnit / 16);
  }
};
inline void PingHandler::operator()(NodeId from, NodeId to, const Ping& p) const {
  ++d->handled;
  if (p.remaining > 0) d->net.send(to, from, Ping{p.remaining - 1});
}

std::uint64_t ping_pong_static(NodeId chains, int hops) {
  PingPongDriver d(chains);
  d.net.set_handler(PingHandler{&d});
  for (NodeId leaf = 1; leaf <= chains; ++leaf) d.net.send(leaf, 0, Ping{hops - 1});
  d.sim.run();
  return d.handled;
}

// --- 3. Figure 10 closed loop at n=1024 ----------------------------------

/// Verbatim replica of the closed-loop driver against the legacy core, so
/// the macro benchmark has an honest "before".
ClosedLoopResult run_closed_loop_legacy(const Tree& tree, LatencyModel& latency,
                                        const ClosedLoopConfig& config) {
  struct LoopMsg {
    bool notify = false;
    RequestId req = kNoRequest;
    NodeId requester = kNoNode;
  };
  const auto n = static_cast<std::size_t>(tree.node_count());
  Graph graph = tree.as_graph();
  legacy::Simulator sim;
  legacy::Network<LoopMsg> net(graph, sim, latency);
  net.set_service_time(config.service_time);
  std::vector<NodeId> link(n);
  std::vector<RequestId> last_req(n, kNoRequest);
  std::vector<std::int64_t> issued(n, 0);
  RequestId next_id = kRootRequest;
  NodeId root = tree.root();
  for (NodeId v = 0; v < tree.node_count(); ++v)
    link[static_cast<std::size_t>(v)] = v == root ? v : tree.parent(v);
  last_req[static_cast<std::size_t>(root)] = kRootRequest;

  std::function<void(NodeId)> issue;
  auto round_done = [&](NodeId v) { sim.in(config.service_time, [&issue, v]() { issue(v); }); };
  issue = [&](NodeId v) {
    auto vi = static_cast<std::size_t>(v);
    if (issued[vi] >= config.requests_per_node) return;
    ++issued[vi];
    RequestId a = ++next_id;
    if (link[vi] == v) {
      last_req[vi] = a;
      round_done(v);
      return;
    }
    NodeId target = link[vi];
    last_req[vi] = a;
    link[vi] = v;
    net.send(v, target, LoopMsg{false, a, v});
  };
  net.set_handler([&](NodeId from, NodeId at, const LoopMsg& m) {
    if (m.notify) {
      round_done(at);
      return;
    }
    auto ui = static_cast<std::size_t>(at);
    NodeId next = link[ui];
    link[ui] = from;
    if (next != at) {
      net.send(at, next, LoopMsg{false, m.req, m.requester});
      return;
    }
    if (m.requester == at) {
      round_done(at);
    } else {
      net.send_with_latency(at, m.requester, kTicksPerUnit,
                            LoopMsg{true, m.req, m.requester});
    }
  });
  for (NodeId v = 0; v < tree.node_count(); ++v) sim.at(0, [&issue, v]() { issue(v); });
  sim.run();
  ClosedLoopResult res;
  res.makespan = sim.now();
  res.total_requests = static_cast<std::int64_t>(tree.node_count()) * config.requests_per_node;
  res.tree_messages = net.stats().edge_messages;
  res.notify_messages = net.stats().direct_messages;
  return res;
}

// --- 4. sweep scaling ------------------------------------------------------

std::vector<SweepScenario> sweep_scenarios(std::int64_t reqs_per_node) {
  std::vector<SweepScenario> scenarios;
  Graph g = make_complete(512);
  Tree t = balanced_binary_overlay(g);
  int i = 0;
  for (LatencySpec spec :
       {LatencySpec::synchronous(), LatencySpec::scaled(0.5),
        LatencySpec::uniform_async(11, 0.1), LatencySpec::uniform_async(12, 0.05),
        LatencySpec::truncated_exp(13, 0.3), LatencySpec::truncated_exp(14, 0.5),
        LatencySpec::synchronous(), LatencySpec::scaled(0.25)}) {
    ClosedLoopConfig cfg;
    cfg.requests_per_node = reqs_per_node;
    cfg.service_time = i % 2 ? kTicksPerUnit / 16 : kTicksPerUnit / 8;
    scenarios.push_back(SweepScenario{"s" + std::to_string(i++), t, spec, cfg});
  }
  return scenarios;
}

bool sweep_results_equal(const std::vector<SweepResult>& a, const std::vector<SweepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].result.makespan != b[i].result.makespan ||
        a[i].result.tree_messages != b[i].result.tree_messages ||
        a[i].result.notify_messages != b[i].result.notify_messages)
      return false;
  }
  return true;
}

// --- driver ---------------------------------------------------------------

struct Rate {
  double seconds = 0;
  double per_sec = 0;
  double ns_per_item = 0;
};

Rate rate(double seconds, double items) {
  return {seconds, items / seconds, seconds / items * 1e9};
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) quick = true;
    else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) out_path = argv[++i];
    else {
      std::fprintf(stderr, "usage: bench_throughput [--quick] [--out FILE.json]\n");
      return 2;
    }
  }
  const int reps = quick ? 2 : 3;

  // 0. Figure 10 at scale on the implicit tier. Single-shot timings (no
  // best-of-reps): a repetition would re-allocate under an already-raised
  // RSS high-water mark and destroy the per-cell memory attribution.
  struct ScaleCell {
    int dims;
    std::int64_t rounds;
  };
  const std::vector<ScaleCell> scale_cells =
      quick ? std::vector<ScaleCell>{{20, 2}}
            : std::vector<ScaleCell>{{20, 4}, {22, 2}, {24, 1}};
  struct ScaleRow {
    std::int64_t nodes = 0;
    std::int64_t rounds = 0;
    double seconds = 0;
    double rps = 0;
    std::uint64_t rss = 0;
    double bytes_per_node = 0;
  };
  // Recorded budget for the compact path: ~150 B/node of driver state plus
  // process baseline; the gate fails any run whose measured bytes/node
  // exceeds this.
  constexpr double kMemoryBudgetBytesPerNode = 320.0;
  std::vector<ScaleRow> scale_rows;
  std::printf("fig10_scale     implicit hypercube, compact arrow closed loop\n");
  for (const ScaleCell& cell : scale_cells) {
    ImplicitTopology topo;
    topo.family = ImplicitFamily::kHypercube;
    topo.n = NodeId{1} << cell.dims;
    SynchronousLatency lat;
    ClosedLoopConfig cfg;
    cfg.requests_per_node = cell.rounds;
    cfg.service_time = kTicksPerUnit / 16;
    const double t0 = now_sec();
    const ClosedLoopResult res = run_arrow_closed_loop_implicit(topo, lat, cfg);
    const double sec = now_sec() - t0;
    ARROWDQ_ASSERT_MSG(
        res.total_requests == static_cast<std::int64_t>(topo.n) * cell.rounds,
        "scale run lost requests");
    ScaleRow row;
    row.nodes = topo.n;
    row.rounds = cell.rounds;
    row.seconds = sec;
    row.rps = static_cast<double>(res.total_requests) / sec;
    row.rss = peak_rss_bytes_now();
    row.bytes_per_node = static_cast<double>(row.rss) / static_cast<double>(topo.n);
    std::printf("  n=2^%-2d %9lld nodes   %7.3f s   %11.0f reqs/s  rss %7.0f MB  %6.1f B/node\n",
                cell.dims, static_cast<long long>(row.nodes), row.seconds, row.rps,
                static_cast<double>(row.rss) / 1048576.0, row.bytes_per_node);
    scale_rows.push_back(row);
  }

  // 0b. The same implicit Figure 10 macro on the sharded conservative
  // engine at K = 1 / 2 / 4. Single-shot timings like fig10_scale (the run
  // is seconds long; rep noise is small against the K-to-K ratios that
  // matter). K = 1 runs the identical window/merge machinery inline, so
  // K1-vs-serial is the barrier overhead and K2/K4-vs-K1 is the parallel
  // payoff. Results are asserted bit-identical across K.
  const unsigned hw = std::thread::hardware_concurrency();
  struct ParallelRow {
    int shards = 0;
    double seconds = 0;
    double eps = 0;  // engine events per second
    ClosedLoopResult res;
    ParallelStats stats;
  };
  const int par_dims = quick ? 16 : 20;
  const std::int64_t par_rounds = quick ? 2 : 4;
  std::vector<ParallelRow> par_rows;
  {
    ImplicitTopology topo;
    topo.family = ImplicitFamily::kHypercube;
    topo.n = NodeId{1} << par_dims;
    ClosedLoopConfig cfg;
    cfg.requests_per_node = par_rounds;
    cfg.service_time = kTicksPerUnit / 16;
    std::printf("fig10_parallel  implicit hypercube n=2^%d, sharded engine, hw_concurrency=%u\n",
                par_dims, hw);
    for (int k : {1, 2, 4}) {
      SynchronousLatency lat;
      ShardSpec spec;
      spec.shards = k;
      ParallelRow row;
      row.shards = k;
      const double t0 = now_sec();
      row.res = run_arrow_closed_loop_implicit_sharded(topo, lat, cfg, spec, &row.stats);
      row.seconds = now_sec() - t0;
      row.eps = static_cast<double>(row.stats.events_executed) / row.seconds;
      if (!par_rows.empty()) {
        ARROWDQ_ASSERT_MSG(row.res.makespan == par_rows.front().res.makespan &&
                               row.res.tree_messages == par_rows.front().res.tree_messages &&
                               row.res.notify_messages == par_rows.front().res.notify_messages,
                           "sharded engine results differ across K");
      }
      std::printf("  K=%d                  %8.3f s   %11.0f events/s  %8llu windows  "
                  "%10llu merged",
                  k, row.seconds, row.eps,
                  static_cast<unsigned long long>(row.stats.windows),
                  static_cast<unsigned long long>(row.stats.merged_entries));
      if (k > 1) std::printf("  (%.2fx vs K=1)", par_rows.front().seconds / row.seconds);
      std::printf("\n");
      par_rows.push_back(row);
    }
  }

  // 1. Event core, protocol-sized (40-byte) events — the realistic case.
  const std::size_t n_events = quick ? (1u << 16) : (1u << 20);
  std::uint64_t sink = 0;
  double s_legacy =
      time_best(reps, [&] { sink += schedule_run_protocol<legacy::Simulator>(n_events); });
  double s_bucket = time_best(
      reps, [&] { sink += schedule_run_protocol<BasicSimulator<BucketedEventQueue>>(n_events); });
  double s_bin = time_best(
      reps, [&] { sink += schedule_run_protocol<BasicSimulator<BinaryEventQueue>>(n_events); });
  double s_four = time_best(
      reps, [&] { sink += schedule_run_protocol<BasicSimulator<FourAryEventQueue>>(n_events); });
  double s_pair = time_best(
      reps, [&] { sink += schedule_run_protocol<BasicSimulator<PairingEventQueue>>(n_events); });
  Rate ev_legacy = rate(s_legacy, static_cast<double>(n_events));
  Rate ev_bucket = rate(s_bucket, static_cast<double>(n_events));
  Rate ev_bin = rate(s_bin, static_cast<double>(n_events));
  Rate ev_four = rate(s_four, static_cast<double>(n_events));
  Rate ev_pair = rate(s_pair, static_cast<double>(n_events));
  std::printf("event_core      n=%zu protocol-sized (40B captures)\n", n_events);
  std::printf("  legacy pq+function   %8.1f ns/event  %12.0f events/s\n", ev_legacy.ns_per_item,
              ev_legacy.per_sec);
  std::printf("  pooled bucketed      %8.1f ns/event  %12.0f events/s  (%.2fx)  [default]\n",
              ev_bucket.ns_per_item, ev_bucket.per_sec, s_legacy / s_bucket);
  std::printf("  pooled binary heap   %8.1f ns/event  %12.0f events/s  (%.2fx)\n",
              ev_bin.ns_per_item, ev_bin.per_sec, s_legacy / s_bin);
  std::printf("  pooled 4-ary heap    %8.1f ns/event  %12.0f events/s  (%.2fx)\n",
              ev_four.ns_per_item, ev_four.per_sec, s_legacy / s_four);
  std::printf("  pooled pairing heap  %8.1f ns/event  %12.0f events/s  (%.2fx)\n",
              ev_pair.ns_per_item, ev_pair.per_sec, s_legacy / s_pair);

  // 1b. Event core, tiny (8-byte) events — isolates queue mechanics (the
  // legacy std::function stays on its inline buffer here).
  double st_legacy =
      time_best(reps, [&] { sink += schedule_run_tiny<legacy::Simulator>(n_events); });
  double st_bucket = time_best(
      reps, [&] { sink += schedule_run_tiny<BasicSimulator<BucketedEventQueue>>(n_events); });
  double st_bin = time_best(
      reps, [&] { sink += schedule_run_tiny<BasicSimulator<BinaryEventQueue>>(n_events); });
  Rate evt_legacy = rate(st_legacy, static_cast<double>(n_events));
  Rate evt_bucket = rate(st_bucket, static_cast<double>(n_events));
  Rate evt_bin = rate(st_bin, static_cast<double>(n_events));
  std::printf("event_core_tiny n=%zu (8B captures, no legacy allocation)\n", n_events);
  std::printf("  legacy pq+function   %8.1f ns/event  %12.0f events/s\n", evt_legacy.ns_per_item,
              evt_legacy.per_sec);
  std::printf("  pooled bucketed      %8.1f ns/event  %12.0f events/s  (%.2fx)  [default]\n",
              evt_bucket.ns_per_item, evt_bucket.per_sec, st_legacy / st_bucket);
  std::printf("  pooled binary heap   %8.1f ns/event  %12.0f events/s  (%.2fx)\n",
              evt_bin.ns_per_item, evt_bin.per_sec, st_legacy / st_bin);

  // 1c. Arena slot density: 16-byte (network DeliveryEvent-sized) captures
  // through the default 64-byte-slot arena vs the 32-byte-slot compact
  // arena (InlineBytes 48 vs 16, same bucketed queue).
  double sc_default = time_best(
      reps, [&] { sink += schedule_run_net_sized<Simulator>(n_events); });
  double sc_compact = time_best(
      reps, [&] { sink += schedule_run_net_sized<CompactSimulator>(n_events); });
  Rate evc_default = rate(sc_default, static_cast<double>(n_events));
  Rate evc_compact = rate(sc_compact, static_cast<double>(n_events));
  std::printf("event_core_compact n=%zu (16B network-sized captures)\n", n_events);
  std::printf("  64B slots (default)  %8.1f ns/event  %12.0f events/s\n",
              evc_default.ns_per_item, evc_default.per_sec);
  std::printf("  32B slots (compact)  %8.1f ns/event  %12.0f events/s  (%.2fx)\n",
              evc_compact.ns_per_item, evc_compact.per_sec, sc_default / sc_compact);

  // 2. Network streams at the three dispatch levels.
  const NodeId chains = 32;
  const int hops = quick ? 2000 : 20000;
  const double n_msgs = static_cast<double>(chains) * hops;
  std::uint64_t handled = 0;
  double m_legacy = time_best(
      reps, [&] { handled += ping_pong_fn<legacy::Simulator, legacy::Network>(chains, hops); });
  double m_dynamic =
      time_best(reps, [&] { handled += ping_pong_fn<Simulator, Network>(chains, hops); });
  double m_static = time_best(reps, [&] { handled += ping_pong_static(chains, hops); });
  Rate net_legacy = rate(m_legacy, n_msgs);
  Rate net_dynamic = rate(m_dynamic, n_msgs);
  Rate net_static = rate(m_static, n_msgs);
  std::printf("network         n=%.0f messages, 32 serviced ping-pong streams\n", n_msgs);
  std::printf("  legacy               %8.1f ns/msg    %12.0f msgs/s\n", net_legacy.ns_per_item,
              net_legacy.per_sec);
  std::printf("  pooled dynamic       %8.1f ns/msg    %12.0f msgs/s  (%.2fx)\n",
              net_dynamic.ns_per_item, net_dynamic.per_sec, m_legacy / m_dynamic);
  std::printf("  pooled static        %8.1f ns/msg    %12.0f msgs/s  (%.2fx)  [default]\n",
              net_static.ns_per_item, net_static.per_sec, m_legacy / m_static);

  // 3. Figure 10 macro at n=1024: legacy vs dynamic dispatch vs static.
  const NodeId n_nodes = 1024;
  const std::int64_t reqs_per_node = quick ? 20 : 100;
  Graph g = make_complete(n_nodes);
  Tree t = balanced_binary_overlay(g);
  SynchronousLatency sync;
  ClosedLoopConfig cfg;
  cfg.requests_per_node = reqs_per_node;
  cfg.service_time = kTicksPerUnit / 16;
  ClosedLoopResult res_legacy{}, res_dynamic{}, res_static{};
  double c_legacy = time_best(reps, [&] { res_legacy = run_closed_loop_legacy(t, sync, cfg); });
  double c_dynamic =
      time_best(reps, [&] { res_dynamic = run_arrow_closed_loop_dynamic(t, sync, cfg); });
  double c_static = time_best(reps, [&] { res_static = run_arrow_closed_loop(t, sync, cfg); });
  // The rewrites are supposed to be behavior-identical; the macro bench
  // doubles as an end-to-end determinism check across all three cores.
  ARROWDQ_ASSERT_MSG(res_legacy.makespan == res_dynamic.makespan &&
                         res_legacy.makespan == res_static.makespan,
                     "cores disagree on makespan");
  ARROWDQ_ASSERT_MSG(res_legacy.tree_messages == res_dynamic.tree_messages &&
                         res_legacy.tree_messages == res_static.tree_messages,
                     "cores disagree on tree messages");
  ARROWDQ_ASSERT_MSG(res_legacy.notify_messages == res_dynamic.notify_messages &&
                         res_legacy.notify_messages == res_static.notify_messages,
                     "cores disagree on notify messages");
  const double n_reqs = static_cast<double>(res_static.total_requests);
  std::printf("closed_loop     n=%d procs, %lld reqs/proc (Figure 10 workload)\n", n_nodes,
              static_cast<long long>(reqs_per_node));
  std::printf("  legacy               %8.3f s        %12.0f reqs/s\n", c_legacy,
              n_reqs / c_legacy);
  std::printf("  pooled dynamic       %8.3f s        %12.0f reqs/s  (%.2fx)\n", c_dynamic,
              n_reqs / c_dynamic, c_legacy / c_dynamic);
  std::printf("  pooled static        %8.3f s        %12.0f reqs/s  (%.2fx)  [default]\n",
              c_static, n_reqs / c_static, c_legacy / c_static);

  // 4. Sweep scaling: the same scenario set at 1/2/4 threads.
  const std::int64_t sweep_reqs = quick ? 40 : 150;
  std::vector<SweepScenario> scenarios = sweep_scenarios(sweep_reqs);
  std::vector<SweepResult> ref;
  double w1 = time_best(reps, [&] { ref = SweepRunner(1).run(scenarios); });
  std::vector<SweepResult> r2, r4;
  double w2 = time_best(reps, [&] { r2 = SweepRunner(2).run(scenarios); });
  double w4 = time_best(reps, [&] { r4 = SweepRunner(4).run(scenarios); });
  ARROWDQ_ASSERT_MSG(sweep_results_equal(ref, r2) && sweep_results_equal(ref, r4),
                     "sweep results depend on thread count");
  std::int64_t sweep_total = 0;
  for (const SweepResult& r : ref) sweep_total += r.result.total_requests;
  std::printf("sweep_scaling   %zu scenarios, %lld reqs total, hw_concurrency=%u\n",
              scenarios.size(), static_cast<long long>(sweep_total), hw);
  std::printf("  1 thread             %8.3f s        %12.0f reqs/s\n", w1,
              static_cast<double>(sweep_total) / w1);
  std::printf("  2 threads            %8.3f s        %12.0f reqs/s  (%.2fx)\n", w2,
              static_cast<double>(sweep_total) / w2, w1 / w2);
  std::printf("  4 threads            %8.3f s        %12.0f reqs/s  (%.2fx)\n", w4,
              static_cast<double>(sweep_total) / w4, w1 / w4);

  // 7. Real-thread arrow runtime at T = 1 / 2 / 4 workers, mutex app.
  // Two runs per T: a throughput run with history recording off (the
  // seq_cst stamp counter is a global serialization point the ops/s number
  // must not pay), and a recorded run whose merged history is checked —
  // linearizability via rt::check_history replaces bit-identity here.
  struct RuntimeRow {
    int threads = 0;
    double seconds = 0;
    double ops_per_sec = 0;
    std::uint64_t queue_messages = 0;
    double hops_per_op = 0;
    bool checker_passed = false;
  };
  const NodeId rt_nodes = quick ? 256 : 1024;
  const std::int64_t rt_rounds = quick ? 4 : 16;
  Graph rt_g = make_complete(rt_nodes);
  Tree rt_tree = balanced_binary_overlay(rt_g);
  // Sim twin for the predicted hop count (same tree, same rounds; the sim's
  // closed loop re-issues on queuing completion rather than token release,
  // so the ratio is an O(1) consistency check, not an identity).
  SynchronousLatency rt_lat;
  ClosedLoopConfig rt_sim_cfg;
  rt_sim_cfg.requests_per_node = rt_rounds;
  rt_sim_cfg.service_time = kTicksPerUnit / 16;
  const ClosedLoopResult rt_sim = run_arrow_closed_loop(rt_tree, rt_lat, rt_sim_cfg);
  const double rt_sim_hops =
      rt_sim.total_requests > 0
          ? static_cast<double>(rt_sim.tree_messages) / static_cast<double>(rt_sim.total_requests)
          : 0.0;
  std::vector<RuntimeRow> rt_rows;
  std::printf("bench_runtime   balanced-binary n=%d, %lld rounds/node, mutex app, "
              "hw_concurrency=%u\n",
              rt_nodes, static_cast<long long>(rt_rounds), hw);
  for (int t_count : {1, 2, 4}) {
    rt::RtConfig rc;
    rc.threads = t_count;
    rc.rounds_per_node = rt_rounds;
    rc.app = rt::RtApp::kMutex;
    rc.record_history = false;
    rt::RtResult best{};
    double best_sec = 1e100;
    for (int r = 0; r < reps; ++r) {
      rt::RtResult res = run_runtime(rt_tree, rc);
      if (res.wall_seconds < best_sec) {
        best_sec = res.wall_seconds;
        best = std::move(res);
      }
    }
    rc.record_history = true;
    rt::RtResult recorded = run_runtime(rt_tree, rc);
    rt::CheckSpec spec;
    spec.nodes = rt_nodes;
    spec.rounds = rt_rounds;
    spec.app = rc.app;
    const rt::CheckResult check = rt::check_history(recorded.history, spec);
    ARROWDQ_ASSERT_MSG(check.ok, "runtime history failed the linearizability check");
    RuntimeRow row;
    row.threads = t_count;
    row.seconds = best.wall_seconds;
    row.ops_per_sec = best.ops_per_sec;
    row.queue_messages = best.queue_messages;
    row.hops_per_op = best.hops_per_op();
    row.checker_passed = check.ok;
    const std::uint64_t posts = best.queue_messages + best.token_messages;
    const double remote_share =
        posts > 0 ? static_cast<double>(best.remote_messages) / static_cast<double>(posts) : 0.0;
    std::printf("  T=%d                  %8.3f s   %11.0f ops/s      hops/op %.2f (sim %.2f)  "
                "remote %5.1f%%  checker %s",
                t_count, row.seconds, row.ops_per_sec, row.hops_per_op, rt_sim_hops,
                100.0 * remote_share, row.checker_passed ? "PASS" : "FAIL");
    if (t_count > 1 && !rt_rows.empty())
      std::printf("  (%.2fx vs T=1)", rt_rows.front().seconds / row.seconds);
    std::printf("\n");
    rt_rows.push_back(row);
  }

  // JSON.
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"throughput\",\n  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f,
               "  \"fig10_scale\": {\n"
               "    \"memory_budget_bytes_per_node\": %.0f",
               kMemoryBudgetBytesPerNode);
  for (const ScaleRow& row : scale_rows) {
    std::fprintf(f,
                 ",\n    \"n_%lld\": {\"nodes\": %lld, \"rounds\": %lld, "
                 "\"seconds\": %.6f, \"requests_per_sec\": %.0f, "
                 "\"peak_rss_bytes\": %llu, \"bytes_per_node\": %.1f}",
                 static_cast<long long>(row.nodes), static_cast<long long>(row.nodes),
                 static_cast<long long>(row.rounds), row.seconds, row.rps,
                 static_cast<unsigned long long>(row.rss), row.bytes_per_node);
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f,
               "  \"fig10_parallel\": {\n"
               "    \"nodes\": %lld,\n"
               "    \"rounds\": %lld,\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"lookahead_ticks\": %lld,\n"
               "    \"results_identical_across_k\": true",
               static_cast<long long>(NodeId{1} << par_dims), static_cast<long long>(par_rounds),
               hw, static_cast<long long>(par_rows.front().stats.lookahead));
  for (const ParallelRow& row : par_rows) {
    std::fprintf(f,
                 ",\n    \"k_%d\": {\"shards\": %d, \"seconds\": %.6f, "
                 "\"events_per_sec\": %.0f, \"windows\": %llu, \"merged_entries\": %llu, "
                 "\"speedup_vs_k1\": %.3f}",
                 row.shards, row.shards, row.seconds, row.eps,
                 static_cast<unsigned long long>(row.stats.windows),
                 static_cast<unsigned long long>(row.stats.merged_entries),
                 par_rows.front().seconds / row.seconds);
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f,
               "  \"event_core\": {\n"
               "    \"n_events\": %zu,\n"
               "    \"event_capture_bytes\": 40,\n"
               "    \"legacy_priority_queue\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_bucketed\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_binary_heap\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_four_ary_heap\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_pairing_heap\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"speedup_bucketed_vs_legacy\": %.3f,\n"
               "    \"speedup_binary_vs_legacy\": %.3f,\n"
               "    \"speedup_four_ary_vs_legacy\": %.3f,\n"
               "    \"speedup_pairing_vs_legacy\": %.3f\n  },\n",
               n_events, ev_legacy.seconds, ev_legacy.per_sec, ev_legacy.ns_per_item,
               ev_bucket.seconds, ev_bucket.per_sec, ev_bucket.ns_per_item, ev_bin.seconds,
               ev_bin.per_sec, ev_bin.ns_per_item, ev_four.seconds, ev_four.per_sec,
               ev_four.ns_per_item, ev_pair.seconds, ev_pair.per_sec, ev_pair.ns_per_item,
               s_legacy / s_bucket, s_legacy / s_bin, s_legacy / s_four, s_legacy / s_pair);
  std::fprintf(f,
               "  \"event_core_tiny\": {\n"
               "    \"n_events\": %zu,\n"
               "    \"event_capture_bytes\": 8,\n"
               "    \"legacy_priority_queue\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_bucketed\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"pooled_binary_heap\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"speedup_bucketed_vs_legacy\": %.3f,\n"
               "    \"speedup_binary_vs_legacy\": %.3f\n  },\n",
               n_events, evt_legacy.seconds, evt_legacy.per_sec, evt_legacy.ns_per_item,
               evt_bucket.seconds, evt_bucket.per_sec, evt_bucket.ns_per_item, evt_bin.seconds,
               evt_bin.per_sec, evt_bin.ns_per_item, st_legacy / st_bucket, st_legacy / st_bin);
  std::fprintf(f,
               "  \"event_core_compact\": {\n"
               "    \"n_events\": %zu,\n"
               "    \"event_capture_bytes\": 16,\n"
               "    \"slot_64b_default\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"slot_32b_compact\": {\"seconds\": %.6f, \"events_per_sec\": %.0f, "
               "\"ns_per_event\": %.2f},\n"
               "    \"speedup_compact_vs_default\": %.3f\n  },\n",
               n_events, evc_default.seconds, evc_default.per_sec, evc_default.ns_per_item,
               evc_compact.seconds, evc_compact.per_sec, evc_compact.ns_per_item,
               sc_default / sc_compact);
  std::fprintf(f,
               "  \"network\": {\n"
               "    \"n_messages\": %.0f,\n"
               "    \"legacy\": {\"seconds\": %.6f, \"messages_per_sec\": %.0f, \"ns_per_message\": "
               "%.2f},\n"
               "    \"dynamic\": {\"seconds\": %.6f, \"messages_per_sec\": %.0f, "
               "\"ns_per_message\": %.2f},\n"
               "    \"static\": {\"seconds\": %.6f, \"messages_per_sec\": %.0f, "
               "\"ns_per_message\": %.2f},\n"
               "    \"speedup_dynamic_vs_legacy\": %.3f,\n"
               "    \"speedup_static_vs_legacy\": %.3f,\n"
               "    \"speedup_static_vs_dynamic\": %.3f\n  },\n",
               n_msgs, net_legacy.seconds, net_legacy.per_sec, net_legacy.ns_per_item,
               net_dynamic.seconds, net_dynamic.per_sec, net_dynamic.ns_per_item,
               net_static.seconds, net_static.per_sec, net_static.ns_per_item,
               m_legacy / m_dynamic, m_legacy / m_static, m_dynamic / m_static);
  std::fprintf(f,
               "  \"closed_loop_fig10\": {\n"
               "    \"nodes\": %d,\n"
               "    \"requests_per_node\": %lld,\n"
               "    \"legacy\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"dynamic\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"static\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"speedup_dynamic_vs_legacy\": %.3f,\n"
               "    \"speedup_static_vs_legacy\": %.3f,\n"
               "    \"speedup_static_vs_dynamic\": %.3f,\n"
               "    \"results_identical\": true\n  },\n",
               n_nodes, static_cast<long long>(reqs_per_node), c_legacy, n_reqs / c_legacy,
               c_dynamic, n_reqs / c_dynamic, c_static, n_reqs / c_static, c_legacy / c_dynamic,
               c_legacy / c_static, c_dynamic / c_static);
  std::fprintf(f,
               "  \"bench_runtime\": {\n"
               "    \"nodes\": %d,\n"
               "    \"rounds\": %lld,\n"
               "    \"app\": \"mutex\",\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"sim_hops_per_op\": %.4f,\n"
               "    \"sim_hops_zero\": %s",
               rt_nodes, static_cast<long long>(rt_rounds), hw, rt_sim_hops,
               rt_sim_hops > 0 ? "false" : "true");
  for (const RuntimeRow& row : rt_rows) {
    std::fprintf(f,
                 ",\n    \"t_%d\": {\"threads\": %d, \"seconds\": %.6f, \"ops_per_sec\": %.0f, "
                 "\"queue_messages\": %llu, \"checker_passed\": %s, \"rt_hops_per_op\": %.4f, "
                 "\"hops_ratio\": %.4f, \"speedup_vs_t1\": %.3f}",
                 row.threads, row.threads, row.seconds, row.ops_per_sec,
                 static_cast<unsigned long long>(row.queue_messages),
                 row.checker_passed ? "true" : "false", row.hops_per_op,
                 rt_sim_hops > 0 ? row.hops_per_op / rt_sim_hops : 0.0,
                 rt_rows.front().seconds / row.seconds);
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f,
               "  \"sweep_scaling\": {\n"
               "    \"scenarios\": %zu,\n"
               "    \"total_requests\": %lld,\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"threads_1\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"threads_2\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"threads_4\": {\"seconds\": %.6f, \"requests_per_sec\": %.0f},\n"
               "    \"speedup_2_threads\": %.3f,\n"
               "    \"speedup_4_threads\": %.3f,\n"
               "    \"results_thread_count_invariant\": true\n  }\n}\n",
               scenarios.size(), static_cast<long long>(sweep_total), hw, w1,
               static_cast<double>(sweep_total) / w1, w2, static_cast<double>(sweep_total) / w2,
               w4, static_cast<double>(sweep_total) / w4, w1 / w2, w1 / w4);
  std::fclose(f);
  std::printf("wrote %s  (sink=%llu handled=%llu)\n", out_path.c_str(),
              static_cast<unsigned long long>(sink), static_cast<unsigned long long>(handled));
  return 0;
}

}  // namespace
}  // namespace arrowdq

int main(int argc, char** argv) { return arrowdq::run(argc, argv); }
