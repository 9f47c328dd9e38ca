// arrowbench — runs one workload of the arrowdq benchmark and prints its raw
// measurements as one JSON object on stdout. perfbench/run.py builds this
// program, runs it, turns the raw samples into metrics and checks them.
//
//   arrowbench --workload NAME --seed S --seconds X [--trace 0|1] [--spans FILE]
//
// Workloads (perfbench/README.md says why each was chosen):
//   fig10_serial   Figure-10 closed loop, implicit hypercube n = 2^20, serial core
//   fig10_sharded  the same cell on the sharded engine at K = 2 lanes
//   sweep_mixed    144-cell cross-protocol grid through run_experiments
//   rt_mutex       the real-thread runtime, mutex app, n = 1024, T = 2
//
// Every workload runs its set-up, then calls the library in a loop for
// --seconds, one sample per call, repeating the set-up after each call (the
// median of the set-up samples is setup_s). With --trace 1 the first half of
// the time runs untraced and the second half records a span around every
// call into a layer's public function; the spans go to --spans when the run
// ends. All timings are host time
// (std::chrono::steady_clock); simulated statistics are checked for
// identity, never timed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/competitive.hpp"
#include "arrow/closed_loop.hpp"
#include "exp/experiment.hpp"
#include "graph/implicit.hpp"
#include "graph/shortest_paths.hpp"
#include "rt/history.hpp"
#include "rt/runtime.hpp"
#include "rt/service.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/parallel/parallel.hpp"
#include "support/random.hpp"

namespace {

using namespace arrowdq;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_anchor = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - g_anchor).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------------
// Spans: one per call into a layer's public function, kept in per-thread
// buffers and written out after the run.
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the same thread's buffer, -1 = top level
  std::int64_t id;      // call, cell or run id
};

class Tracer {
 public:
  std::int32_t begin(const char* name, std::int64_t id) {
    Buffer& b = local();
    const std::int32_t parent = b.open.empty() ? -1 : b.open.back();
    b.spans.push_back(Span{name, now_ns(), 0, parent, id});
    const auto idx = static_cast<std::int32_t>(b.spans.size() - 1);
    b.open.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx) {
    Buffer& b = local();
    b.spans[static_cast<std::size_t>(idx)].end_ns = now_ns();
    b.open.pop_back();
  }
  /// Only after every recording thread has been joined.
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"buffers\": [";
    for (std::size_t b = 0; b < buffers_.size(); ++b) {
      out << (b ? ",\n[" : "\n[");
      const auto& spans = buffers_[b]->spans;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i ? "," : "") << "[\"" << s.name << "\"," << s.start_ns << "," << s.end_ns << ","
            << s.parent << "," << s.id << "]";
      }
      out << "]";
    }
    out << "]}\n";
  }

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
  };
  // One Tracer per process, so a single thread_local slot suffices. Sweep
  // pool threads are created per call; each registers a fresh buffer, which
  // the Tracer owns past the thread's exit.
  Buffer& local() {
    thread_local Buffer* tl = nullptr;
    if (tl == nullptr) {
      std::lock_guard<std::mutex> lk(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      tl = buffers_.back().get();
    }
    return *tl;
  }
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::int64_t id)
      : t_(t), idx_(t ? t->begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  std::int32_t idx_;
};

// ---------------------------------------------------------------------------
// Output: a flat JSON object assembled from pre-rendered values.
// ---------------------------------------------------------------------------

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string jarr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + jnum(v[i]);
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& put(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  JsonObject& num(const std::string& key, double v) { return put(key, jnum(v)); }
  JsonObject& str(const std::string& key, const std::string& v) { return put(key, jstr(v)); }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? ", " : "") + jstr(fields_[i].first) + ": " + fields_[i].second;
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------------

int nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(ARROWBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::uint64_t peak_rss_bytes() {
  rusage u{};
  if (getrusage(RUSAGE_SELF, &u) != 0) return 0;
  return static_cast<std::uint64_t>(u.ru_maxrss) * 1024u;  // Linux reports KiB
}

// ---------------------------------------------------------------------------
// Shared workload scaffolding
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

/// Correctness accounting: one attempted operation per checked call, cell
/// or run; failed ones keep their first few diagnostics.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (notes.size() < 8) notes.push_back(what);
  }
};

/// Simulated statistics a run must reproduce exactly.
struct Digest {
  std::int64_t makespan = 0;
  std::int64_t total_requests = 0;
  std::uint64_t messages = 0;
  std::int64_t hops = 0;
  bool operator==(const Digest&) const = default;
};

Digest digest_of(const ClosedLoopResult& r) {
  return {r.makespan, r.total_requests, r.tree_messages + r.notify_messages,
          static_cast<std::int64_t>(r.tree_messages)};
}

Digest digest_of(const RunResult& r) {
  return {r.makespan, r.total_requests, r.messages, r.total_hops};
}

std::string render(const Digest& d) {
  return JsonObject()
      .num("makespan", static_cast<double>(d.makespan))
      .num("total_requests", static_cast<double>(d.total_requests))
      .num("messages", static_cast<double>(d.messages))
      .num("hops", static_cast<double>(d.hops))
      .render();
}

/// What a workload reports; main() renders it.
struct Report {
  std::vector<double> setup_s;      // one sample per set-up repetition
  double first_call_s = 0;          // main() entry to the first timed call
  std::string unit;                 // what one timed sample covers
  std::vector<double> unit_s;       // timed samples (the traced half under --trace 1)
  std::vector<double> untraced_unit_s;  // --trace 1: the untraced half
  double reqs_per_unit = 0;
  double cells_per_unit = 0;
  std::vector<double> cell_s;       // per-cell seconds (= unit_s for one-cell units)
  double layer_units_per_unit = 1;  // per-layer metrics are per call / per grid pass
  double nodes = 0;
  std::uint64_t peak_rss = 0;
  int threads = 1;                  // threads the traced spans were recorded on
  std::int64_t section_start_ns = 0, section_end_ns = 0;  // traced section
  Checks checks;
  std::vector<std::pair<std::string, std::string>> extra;  // rendered JSON values
  JsonObject layer;                 // counts and side-run ratios (--trace 1)
};

/// One set-up repetition, recorded as a setup_s sample.
template <typename Fn>
void time_setup(Report& rep, Fn&& setup) {
  const auto t0 = Clock::now();
  setup();
  rep.setup_s.push_back(seconds_since(t0));
}

/// Call `unit` until `seconds` have passed (and at least `min_units`
/// times); one wall-time sample per call. The set-up runs again after every
/// call, outside its sample, so the setup_s samples span the run the way the
/// timed samples do and a drift in host speed moves both alike.
template <typename Setup, typename Fn>
std::vector<double> timed_loop(Report& rep, double seconds, std::size_t min_units,
                               Setup& setup, Fn&& unit) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < min_units || seconds_since(t0) < seconds) {
    const auto u0 = Clock::now();
    unit(samples.size());
    samples.push_back(seconds_since(u0));
    time_setup(rep, setup);
  }
  return samples;
}

/// The timed section, entered after the workload's first set-up: untraced
/// for the whole time, or with --trace 1 an untraced half followed by a
/// traced half (spans on, section bounds kept).
template <typename Setup, typename Fn>
void timed_section(const Args& a, Report& rep, Tracer* tracer, std::size_t min_units,
                   Setup& setup, Fn&& unit) {
  rep.first_call_s = seconds_since(g_anchor);
  auto untraced = [&](std::size_t i) { unit(i, nullptr); };
  if (!a.trace) {
    rep.unit_s = timed_loop(rep, a.seconds, min_units, setup, untraced);
    return;
  }
  rep.untraced_unit_s = timed_loop(rep, a.seconds / 2, min_units, setup, untraced);
  rep.section_start_ns = now_ns();
  rep.unit_s = timed_loop(rep, a.seconds / 2, min_units, setup,
                          [&](std::size_t i) { unit(i, tracer); });
  rep.section_end_ns = now_ns();
}

// ---------------------------------------------------------------------------
// fig10_serial / fig10_sharded
// ---------------------------------------------------------------------------

constexpr int kFig10Dims = 20;
constexpr int kFig10WarmDims = 14;
constexpr std::int64_t kFig10Rounds = 4;

/// The seed picks the tree root among nodes 0..255; the hypercube, size and
/// rounds are fixed. The call's host time depends strongly on the root's
/// high bits (rooted at n - 1 it takes about 4x as long as rooted at 0, for
/// an isomorphic instance), so roots drawn from all n nodes would make runs
/// on different seeds incomparable. The traced run reports that skew as
/// sim.root_skew.
ImplicitTopology fig10_topology(std::uint64_t seed, int dims) {
  ImplicitTopology t;
  t.family = ImplicitFamily::kHypercube;
  t.n = NodeId{1} << dims;
  t.root = static_cast<NodeId>(mix64(seed) & 0xff);
  return t;
}

/// lanes == 0: the serial core; otherwise the sharded engine at K = lanes.
ClosedLoopResult run_fig10(const ImplicitTopology& topo, int lanes, ParallelStats* stats) {
  ClosedLoopConfig cfg;
  cfg.requests_per_node = kFig10Rounds;
  cfg.service_time = kTicksPerUnit / 16;
  SynchronousLatency lat;
  if (lanes == 0) return run_arrow_closed_loop_implicit(topo, lat, cfg);
  ShardSpec spec;
  spec.shards = lanes;
  return run_arrow_closed_loop_implicit_sharded(topo, lat, cfg, spec, stats);
}

void fig10(const Args& a, Report& rep, Tracer* tracer) {
  const bool sharded = a.workload == "fig10_sharded";
  const int lanes = sharded ? std::min(2, nproc()) : 0;
  const char* span = sharded ? "parallel.run" : "sim.run";

  // Set-up: the topology, plus a warm-up call on a 2^14-node instance of
  // the same cell so first-touch allocation and thread start-up land here
  // rather than in the first timed call.
  ImplicitTopology topo;
  auto setup = [&] {
    topo = fig10_topology(a.seed, kFig10Dims);
    run_fig10(fig10_topology(a.seed, kFig10WarmDims), lanes, nullptr);
  };
  time_setup(rep, setup);
  const std::int64_t expected = static_cast<std::int64_t>(topo.n) * kFig10Rounds;

  std::optional<Digest> first;
  ParallelStats stats;
  timed_section(a, rep, tracer, 3, setup, [&](std::size_t i, Tracer* tr) {
    ParallelStats st;
    ClosedLoopResult r;
    {
      ScopedSpan s(tr, span, static_cast<std::int64_t>(i));
      r = run_fig10(topo, lanes, sharded ? &st : nullptr);
    }
    const Digest d = digest_of(r);
    rep.checks.record(d.total_requests == expected && (!first || d == *first),
                      "fig10 call " + std::to_string(i) + " lost requests or changed its digest");
    if (!first) first = d;
    stats = st;
  });
  rep.peak_rss = peak_rss_bytes();

  rep.unit = "call";
  rep.reqs_per_unit = static_cast<double>(expected);
  rep.cells_per_unit = 1;
  rep.cell_s = rep.unit_s;
  rep.nodes = static_cast<double>(topo.n);
  rep.extra.emplace_back("digest", render(*first));
  rep.extra.emplace_back("root", jnum(topo.root));
  rep.extra.emplace_back("lanes", jnum(lanes));

  double serial_s = 0;
  if (sharded) {
    // Cross-tier check: the sharded engine must reproduce the serial core.
    const auto t0 = Clock::now();
    const Digest serial = digest_of(run_fig10(topo, 0, nullptr));
    serial_s = seconds_since(t0);
    rep.checks.record(serial == *first, "fig10_sharded digest differs from the serial core");
    rep.extra.emplace_back("serial_call_s", jnum(serial_s));
  }
  if (!a.trace) return;

  rep.layer.num("sim.messages", static_cast<double>(first->messages))
      .num("sim.messages_per_req",
           static_cast<double>(first->messages) / static_cast<double>(first->total_requests));
  if (!sharded) {
    ImplicitTopology skewed = topo;
    double root_s[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      skewed.root = k == 0 ? 0 : topo.n - 1;
      const auto t0 = Clock::now();
      run_fig10(skewed, 0, nullptr);
      root_s[k] = seconds_since(t0);
    }
    rep.layer.num("sim.root_skew", root_s[1] / root_s[0]);
  } else {
    const auto t0 = Clock::now();
    run_fig10(topo, 1, nullptr);
    const double k1_s = seconds_since(t0);
    rep.layer.num("parallel.windows", static_cast<double>(stats.windows))
        .num("parallel.merged_entries", static_cast<double>(stats.merged_entries))
        .num("parallel.events", static_cast<double>(stats.events_executed))
        .num("parallel.merged_per_event", static_cast<double>(stats.merged_entries) /
                                              static_cast<double>(stats.events_executed))
        .num("parallel.k1_over_serial", k1_s / serial_s)
        .num("parallel.k2_over_k1", median(rep.untraced_unit_s) / k1_s);
  }
}

// ---------------------------------------------------------------------------
// sweep_mixed
// ---------------------------------------------------------------------------

constexpr NodeId kSweepNodes = 256;
constexpr int kSweepPoisson = 512;
constexpr std::int64_t kSweepRounds = 16;
constexpr int kSweepPassesPerChunk = 4;

struct SweepCell {
  Experiment e;
  const char* fault;      // fault token
  const char* exp_span;   // "exp.run.<protocol>"
  std::string twin;       // protocol, topology, latency, pass: joins a cell to its fault-free twin
  bool materializes;      // run_experiment builds a Graph (irregular family or analysis)
  bool apsp;              // baseline on an irregular family: per-run APSP table
  std::int64_t expected_requests;
};

/// `passes` copies of the grid protocol x topology x latency x fault,
/// 6 x 4 x 2 x 3 = 144 cells less the 8 arrow one-shot crash cells. Every
/// cell of every pass gets its own scenario seed, derived from --seed
/// through Experiment::with_seed (as sweep_main does), so one chunk averages
/// over `passes` draws of the random graphs, requests and latencies.
std::vector<SweepCell> sweep_grid(std::uint64_t seed, int passes) {
  struct Proto {
    const char* token;
    const char* span;
    ProtocolSpec spec;
    bool loop;
  };
  const Time service = kTicksPerUnit / 16;
  const Proto protos[] = {
      {"arrow", "exp.run.arrow", ProtocolSpec::arrow_one_shot(service), false},
      {"arrow-loop", "exp.run.arrow-loop", ProtocolSpec::arrow_closed_loop(service), true},
      {"centralized", "exp.run.centralized", ProtocolSpec::centralized(0, service), true},
      {"forwarding", "exp.run.forwarding",
       ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, service), false},
      {"forwarding-loop", "exp.run.forwarding-loop",
       ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, service), true},
      {"token", "exp.run.token", ProtocolSpec::token_passing(service), false},
  };
  const std::pair<const char*, TopologySpec> topos[] = {
      {"complete", TopologySpec::complete(kSweepNodes)},
      {"randtree", TopologySpec::random_tree(kSweepNodes, 0)},
      {"grid:16x16", TopologySpec::grid(16, 16)},
      {"geometric:0.3", TopologySpec::geometric(kSweepNodes, 0, 0.3)},
  };
  const std::pair<const char*, LatencySpec> lats[] = {
      {"sync", LatencySpec::synchronous()},
      {"exp:0.3", LatencySpec::truncated_exp(0, 0.3)},
  };
  const char* faults[] = {"none", "loss:0.05", "crash:2"};

  std::vector<SweepCell> cells;
  std::uint64_t scenario = mix64(seed);
  for (int pass = 0; pass < passes; ++pass) {
    for (const Proto& p : protos)
      for (const auto& [topo_name, topo] : topos)
        for (const auto& [lat_name, lat] : lats)
          for (const char* fault : faults) {
            // Known defect: arrow one-shot under crash faults can livelock
            // (seen on geometric and random-tree graphs at n = 256, a few
            // percent of seeds), so a crash cell could stall the whole
            // benchmark. Those cells stay out until the livelock is fixed;
            // README.md records the reproducer.
            if (p.spec.kind == Protocol::kArrowOneShot && std::strcmp(fault, "crash:2") == 0)
              continue;
            Experiment e;
            e.protocol = p.spec;
            e.topology = topo;
            e.latency = lat;
            e.fault = *parse_fault_spec(fault);
            if (p.loop) {
              e.rounds = kSweepRounds;
            } else {
              e.workload = WorkloadSpec::poisson(kSweepPoisson, 1.0, 0);
            }
            if (p.spec.kind == Protocol::kArrowOneShot) e.keep_outcome = e.analyze = true;
            e = e.with_seed(++scenario);
            e.label = std::string(p.token) + " " + topo_name + " " + lat_name + " " + fault;
            const bool irregular = topo.family == TopologySpec::Family::kRandomTree ||
                                   topo.family == TopologySpec::Family::kGeometric;
            const bool baseline = p.spec.kind == Protocol::kCentralized ||
                                  p.spec.kind == Protocol::kPointerForwarding;
            SweepCell c{std::move(e),
                        fault,
                        p.span,
                        std::string(p.token) + "|" + topo_name + "|" + lat_name + "|" +
                            std::to_string(pass),
                        irregular || p.spec.kind == Protocol::kArrowOneShot,
                        irregular && baseline,
                        p.loop ? static_cast<std::int64_t>(kSweepNodes) * kSweepRounds
                               : kSweepPoisson};
            cells.push_back(std::move(c));
          }
  }
  return cells;
}

/// One traced cell: the layer calls run_experiment makes internally
/// (graph, tree, requests, APSP) are repeated on the side on identical
/// inputs and timed, then the cell itself runs with the competitive
/// analysis split out into its own call.
RunResult traced_cell(const SweepCell& c, std::int64_t id, Tracer* tr, double& edges,
                      double& requests) {
  ScopedSpan cell_span(tr, "sweep.cell", id);
  std::optional<Graph> g;
  std::optional<Tree> t;
  std::optional<RequestSet> reqs;
  if (c.materializes) {
    {
      ScopedSpan s(tr, "graph.build_graph", id);
      g = c.e.topology.build_graph();
    }
    {
      ScopedSpan s(tr, "graph.build_tree", id);
      t = c.e.topology.build_tree(*g);
    }
    edges = static_cast<double>(g->edge_count());
  }
  if (c.e.rounds == 0) {
    ScopedSpan s(tr, "workload.build", id);
    reqs = c.e.workload.build(c.e.topology.nodes, t ? t->root() : c.e.topology.root);
    requests = reqs->size();
  }
  if (c.apsp) {
    ScopedSpan s(tr, "graph.apsp", id);
    const AllPairs table(*g);  // built out of line, so the call cannot be elided
  }
  Experiment e = c.e;
  e.analyze = false;
  RunResult r;
  {
    ScopedSpan s(tr, c.exp_span, id);
    r = run_experiment(e);
  }
  if (c.e.analyze) {
    ScopedSpan s(tr, "analysis.competitive", id);
    r.competitive = analyze_competitive(*g, *t, *reqs, *r.outcome);
  }
  return r;
}

void sweep_mixed(const Args& a, Report& rep, Tracer* tracer) {
  const unsigned threads = static_cast<unsigned>(std::min(4, nproc()));
  const SweepRunner runner(threads);

  // Set-up: generate and validate the cells of one timed chunk (one
  // run_experiments call); every timed chunk reruns the same cells. A cell
  // validate_experiment refuses counts as failed and is not run
  // (run_experiment would abort on it).
  std::vector<SweepCell> grid;
  std::vector<Experiment> chunk;
  std::vector<std::string> invalid;
  auto setup = [&] {
    std::vector<SweepCell> all = sweep_grid(a.seed, kSweepPassesPerChunk);
    grid.clear();
    chunk.clear();
    invalid.clear();
    for (SweepCell& c : all) {
      if (auto err = validate_experiment(c.e)) {
        invalid.push_back(c.e.label + ": " + *err);
        continue;
      }
      chunk.push_back(c.e);
      grid.push_back(std::move(c));
    }
  };
  time_setup(rep, setup);
  for (const std::string& why : invalid) rep.checks.record(false, why);
  const std::size_t g = grid.size();

  // Per-cell references: the first run of every cell fixes its digest (and
  // competitive ratio); every later run of that cell must reproduce it.
  std::vector<std::optional<Digest>> ref(g);
  std::vector<double> ref_ratio(g, 0.0);
  double reqs_per_chunk = 0;
  std::vector<double> untraced_cells;  // ExperimentResult::seconds, untraced
  double untraced_busy_s = 0, untraced_wall_s = 0, max_cell_s = 0;
  double edges_per_pass = 0, requests_per_pass = 0;

  auto check = [&](std::size_t i, const RunResult& r) {
    const SweepCell& c = grid[i];
    const Digest d = digest_of(r);
    bool ok = d.total_requests == c.expected_requests && (!ref[i] || d == *ref[i]);
    if (c.e.analyze) {
      ok = ok && r.competitive.has_value();
      if (ok && ref[i]) ok = r.competitive->ratio == ref_ratio[i];
    }
    rep.checks.record(ok, c.e.label + " lost requests or changed its digest");
    if (!ref[i]) {
      ref[i] = d;
      reqs_per_chunk += static_cast<double>(d.total_requests);
      if (r.competitive) ref_ratio[i] = r.competitive->ratio;
    }
  };

  std::int64_t chunk_no = 0;
  timed_section(a, rep, tracer, 3, setup, [&](std::size_t, Tracer* tr) {
    const std::int64_t base = chunk_no++ * static_cast<std::int64_t>(chunk.size());
    if (tr == nullptr) {
      const auto t0 = Clock::now();
      const std::vector<ExperimentResult> res = run_experiments(chunk, runner);
      untraced_wall_s += seconds_since(t0);
      for (std::size_t i = 0; i < res.size(); ++i) {
        check(i, res[i].result);
        untraced_cells.push_back(res[i].seconds);
        untraced_busy_s += res[i].seconds;
        max_cell_s = std::max(max_cell_s, res[i].seconds);
      }
      return;
    }
    std::vector<RunResult> res(chunk.size());
    std::vector<double> edges(chunk.size(), 0.0), requests(chunk.size(), 0.0);
    runner.for_indices(chunk.size(), [&](std::size_t i) {
      res[i] = traced_cell(grid[i], base + static_cast<std::int64_t>(i), tr, edges[i],
                           requests[i]);
    });
    for (std::size_t i = 0; i < res.size(); ++i) check(i, res[i]);
    edges_per_pass = requests_per_pass = 0;
    for (std::size_t i = 0; i < g; ++i) {
      edges_per_pass += edges[i] / kSweepPassesPerChunk;
      requests_per_pass += requests[i] / kSweepPassesPerChunk;
    }
  });
  rep.peak_rss = peak_rss_bytes();

  rep.unit = "chunk";
  rep.reqs_per_unit = reqs_per_chunk;
  rep.cells_per_unit = static_cast<double>(chunk.size());
  rep.cell_s = untraced_cells;
  rep.layer_units_per_unit = kSweepPassesPerChunk;
  rep.nodes = kSweepNodes;
  rep.threads = static_cast<int>(threads);

  // Order-sensitive hash of every cell's digest: one number that names the
  // whole grid's simulated output for the reference check.
  std::uint64_t h = 1469598103934665603ULL;
  auto fold = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& d : ref) {
    fold(static_cast<std::uint64_t>(d->makespan));
    fold(static_cast<std::uint64_t>(d->total_requests));
    fold(d->messages);
    fold(static_cast<std::uint64_t>(d->hops));
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  rep.extra.emplace_back("digest_fnv", jstr(hex));
  rep.extra.emplace_back("grid_cells", jnum(static_cast<double>(g)));
  if (!a.trace) return;

  std::string cells = "[";
  for (std::size_t i = 0; i < g; ++i)
    cells += (i ? "," : "") + JsonObject()
                                  .str("fault", grid[i].fault)
                                  .str("twin", grid[i].twin)
                                  .render();
  rep.extra.emplace_back("cells", cells + "]");
  rep.layer.num("graph.edges", edges_per_pass)
      .num("workload.requests", requests_per_pass)
      .num("sweep.busy_frac", untraced_busy_s / (threads * untraced_wall_s))
      .num("sweep.max_cell_s", max_cell_s);
}

// ---------------------------------------------------------------------------
// rt_mutex
// ---------------------------------------------------------------------------

constexpr NodeId kRtNodes = 1024;
constexpr std::int64_t kRtRounds = 512;

void rt_mutex(const Args& a, Report& rep, Tracer* tracer) {
  rt::RtConfig cfg;
  cfg.threads = std::min(2, nproc());
  cfg.rounds_per_node = kRtRounds;
  cfg.app = rt::RtApp::kMutex;
  cfg.record_history = false;
  const std::int64_t expected = static_cast<std::int64_t>(kRtNodes) * kRtRounds;
  // The same cell as an Experiment, for the tree and the sim cross-check.
  Experiment e;
  e.protocol = ProtocolSpec::arrow_closed_loop(kTicksPerUnit / 16);
  e.topology = TopologySpec::complete(kRtNodes);
  e.latency = LatencySpec::synchronous();
  e.rounds = kRtRounds;

  // Set-up: the runtime's tree, the balanced-binary overlay of K_1024, as
  // the service layer builds it. The runtime has no randomized input; the
  // seed is only recorded.
  std::optional<Tree> tree;
  auto setup = [&] { tree = rt::rt_tree_for(e); };
  time_setup(rep, setup);

  rt::RtResult last;
  timed_section(a, rep, tracer, 3, setup, [&](std::size_t i, Tracer* tr) {
    {
      ScopedSpan s(tr, "rt.run", static_cast<std::int64_t>(i));
      last = rt::run_runtime(*tree, cfg);
    }
    const bool ok = last.ops == expected &&
                    last.token_messages == static_cast<std::uint64_t>(expected);
    rep.checks.record(ok, "runtime run " + std::to_string(i) + " completed the wrong op count");
  });
  rep.peak_rss = peak_rss_bytes();

  // One recorded run per benchmark run, judged by the history checker.
  rt::RtConfig rec = cfg;
  rec.record_history = true;
  auto t0 = Clock::now();
  const rt::RtResult recorded = rt::run_runtime(*tree, rec);
  const double recorded_s = seconds_since(t0);
  rt::CheckSpec spec;
  spec.nodes = kRtNodes;
  spec.rounds = kRtRounds;
  spec.app = rt::RtApp::kMutex;
  t0 = Clock::now();
  const rt::CheckResult verdict = rt::check_history(recorded.history, spec);
  const double check_s = seconds_since(t0);
  rep.checks.record(verdict.ok && recorded.ops == expected,
                    "runtime history check failed: " + verdict.error);

  rep.unit = "call";
  rep.reqs_per_unit = static_cast<double>(expected);
  rep.cells_per_unit = 1;
  rep.cell_s = rep.unit_s;
  rep.nodes = kRtNodes;
  rep.extra.emplace_back("workers", jnum(cfg.threads));
  if (!a.trace) return;

  const double untraced = median(rep.untraced_unit_s);
  rt::RtConfig one = cfg;
  one.threads = 1;
  t0 = Clock::now();
  rt::run_runtime(*tree, one);
  const double t1_s = seconds_since(t0);
  const rt::RtCrossValidation xv = rt::run_rt_cross_validated(e, cfg);

  rep.layer.num("rt.queue_messages", static_cast<double>(last.queue_messages))
      .num("rt.token_messages", static_cast<double>(last.token_messages))
      .num("rt.hops_per_op", last.hops_per_op())
      .num("rt.check_s", check_s)
      .num("rt.record_overhead", recorded_s / untraced)
      .num("rt.hops_ratio_vs_sim", xv.hops_ratio)
      .num("rt.t2_over_t1", untraced / t1_s);
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: arrowbench --workload fig10_serial|fig10_sharded|sweep_mixed|rt_mutex\n"
               "                  --seed S --seconds X [--trace 0|1] [--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else {
      return usage();
    }
  }
  if (!release_build()) {
    std::fprintf(stderr,
                 "arrowbench: built as '%s' or without NDEBUG; its numbers would measure a "
                 "different program, so it refuses to run\n",
                 ARROWBENCH_BUILD_TYPE);
    return 3;
  }

  void (*workload)(const Args&, Report&, Tracer*) = nullptr;
  if (a.workload == "fig10_serial" || a.workload == "fig10_sharded")
    workload = fig10;
  else if (a.workload == "sweep_mixed")
    workload = sweep_mixed;
  else if (a.workload == "rt_mutex")
    workload = rt_mutex;
  else
    return usage();

  Tracer tracer;
  Report rep;
  workload(a, rep, a.trace ? &tracer : nullptr);
  if (a.trace && !a.spans_path.empty()) tracer.write(a.spans_path);

  std::string failures = "[";
  for (std::size_t i = 0; i < rep.checks.notes.size(); ++i)
    failures += (i ? "," : "") + jstr(rep.checks.notes[i]);
  JsonObject host;
  host.num("nproc", nproc())
      .num("hardware_concurrency", std::thread::hardware_concurrency())
      .str("compiler", compiler())
      .str("build_type", ARROWBENCH_BUILD_TYPE)
      .put("release", release_build() ? "true" : "false");
  JsonObject out;
  out.str("workload", a.workload)
      .num("seed", static_cast<double>(a.seed))
      .put("trace", a.trace ? "true" : "false")
      .put("host", host.render())
      .put("setup_s", jarr(rep.setup_s))
      .num("first_call_s", rep.first_call_s)
      .str("unit", rep.unit)
      .put("unit_s", jarr(rep.unit_s))
      .put("untraced_unit_s", jarr(rep.untraced_unit_s))
      .num("reqs_per_unit", rep.reqs_per_unit)
      .num("cells_per_unit", rep.cells_per_unit)
      .put("cell_s", jarr(rep.cell_s))
      .num("layer_units_per_unit", rep.layer_units_per_unit)
      .num("nodes", rep.nodes)
      .num("peak_rss_bytes", static_cast<double>(rep.peak_rss))
      .num("threads", rep.threads)
      .put("section_ns", jarr({static_cast<double>(rep.section_start_ns),
                               static_cast<double>(rep.section_end_ns)}))
      .num("attempted", static_cast<double>(rep.checks.attempted))
      .num("failed", static_cast<double>(rep.checks.failed))
      .put("failures", failures + "]")
      .put("layer", rep.layer.render());
  for (const auto& [k, v] : rep.extra) out.put(k, v);
  std::printf("%s\n", out.render().c_str());
  return 0;
}
