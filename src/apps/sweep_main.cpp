// sweep_main — parallel experiment sweep CLI over the unified Experiment API.
//
// Builds the full cross-product protocol × topology × node count × latency
// (× repeat) as a list of declarative Experiment values, runs each cell
// --replicas times (decorrelated per-replica seeds, statistics folded into
// mean/stddev/min/max + confidence intervals), shards everything across
// SweepRunner's thread pool, and prints one row per cell plus aggregate
// throughput. Results are deterministic: per-scenario seeds derived from
// --seed, fixed output order, identical numbers for any --threads value.
//
// Examples:
//   sweep_main                                          # default grid, all cores
//   sweep_main --protocol arrow-loop,centralized --nodes 64,256 --reqs 200
//   sweep_main --protocol arrow,forwarding,token --workload poisson:24:0.5
//   sweep_main --topology complete,randtree --latency sync,exp:0.3 --json out.json
//   sweep_main --topology torus:8x8,hypercube,geometric:0.3 --replicas 5
//   sweep_main --protocol forwarding-loop --nodes 64 --reqs 100   # closed loop
//   sweep_main --smoke --json sweep_smoke.json          # CI cross-protocol smoke
//
// Axes
//   --protocol  arrow | arrow-loop | centralized | forwarding |
//               forwarding-loop | token
//   --topology  complete | path | ring | randtree | wtree | grid:RxC |
//               torus:RxC | hypercube | geometric[:RADIUS]
//   --nodes     N1,N2,...      (applied to every topology without a fixed
//               size; hypercube rounds each N down to a power of two)
//   --latency   sync | scaled:F | uniform:MIN | exp:MEAN
//   --workload  oneshot | poisson:COUNT:RATE[:hot=P[@NODE]] |
//               bursty:B:SIZE:GAP | sequential:COUNT:GAP
//               (one-shot protocols only; hot= routes fraction P of the
//               poisson arrivals to one hot node — request skew)
//   --reqs      closed-loop rounds per node (arrow-loop, centralized,
//               forwarding-loop)
//   --fault     none | loss:P | dup:P | jitter:P[:MAXU] | spike:P[:F] |
//               crash:N[:DOWNU[:PERIODU]] | chaos     (crossed like any axis;
//               fault != none adds fault metrics + recovery delta per row)
//   --replicas  statistical replicas per cell (default 1); R >= 2 adds a
//               "replication" block per scenario row with mean/stddev/
//               min/max/ci_lo/ci_hi per metric at 95% confidence
//               (Student-t intervals at R-1 degrees of freedom)
//   --shards    intra-run shard count for the conservative parallel engine
//               (sim/parallel/): every cell with a sharded entry — arrow and
//               forwarding in both modes — runs on K lanes with bit-identical
//               results; token passing, closed-loop centralized and
//               topology-fault cells stay serial. Default 0 runs serial.
//   --rt        real-thread runtime pass (src/rt/): re-run each fault-free
//               arrow-loop cell on T worker threads (0 = all cores), check
//               the recorded history for linearizability, and attach a
//               "runtime" JSON block (ops/s, sim-vs-runtime hop ratio).
//               --rt-app picks the payload app: mutex | counter | directory.
//
// JSON: --json FILE emits the cross-product with uniform metrics per
// scenario (schema validated by scripts/bench_gate.py --validate-sweep).
//
// CSV: --csv FILE emits the same sweep in long format — one row per
// cell x replica x metric (label,protocol,topology,nodes,latency,fault,
// rounds,replica,metric,value) — ready for dataframe tooling with no
// unpivoting. Unlike the JSON point sample, every replica's raw runs are
// dumped, so cross-replica statistics can be recomputed downstream.
//
// Every cell is validated before any run starts: structurally inconsistent
// or absurdly large requests (a complete graph at n = 10^6 is ~5 * 10^11
// edges) are refused with a diagnostic and exit code 2 instead of an OOM
// kill hours in.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/replication.hpp"
#include "rt/service.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

using namespace arrowdq;

namespace {

struct Options {
  std::vector<std::string> protocols = {"arrow-loop"};
  std::vector<std::string> topologies = {"complete"};
  std::vector<NodeId> nodes = {64, 128, 256, 512};
  std::vector<std::string> latencies = {"sync"};
  std::vector<std::string> faults = {"none"};
  std::string workload = "oneshot";
  std::int64_t reqs_per_node = 100;
  Time service_divisor = 16;  // service = kTicksPerUnit / divisor (0 = free)
  unsigned threads = 0;       // 0 = hardware concurrency
  std::uint64_t seed = 1;
  int repeat = 1;             // separately-reported rows per grid point
  int replicas = 1;           // statistically folded replicas per cell
  int shards = 0;             // intra-run lanes; <= 1 runs serial
  int rt_threads = -1;        // -1 = no runtime pass; 0 = hardware concurrency
  std::string rt_app = "mutex";  // runtime app: mutex | counter | directory
  std::string json_path;      // empty = no JSON
  std::string csv_path;       // empty = no CSV (long format, all replicas)
  bool smoke = false;
};

/// Per-cell result of the optional --rt pass (rt/service.hpp cross-
/// validation). `present` only on fault-free arrow-loop cells — the runtime
/// serves exactly the protocol it implements.
struct RtRow {
  bool present = false;
  int threads = 0;
  long long ops = 0;
  double ops_per_sec = 0.0;
  unsigned long long queue_messages = 0;
  bool checker_passed = false;
  double rt_hops_per_op = 0.0;
  double sim_hops_per_op = 0.0;
  double hops_ratio = 0.0;
  // True when the sim twin recorded zero hops per op (every request was
  // self-absorbed), making hops_ratio 0/x noise rather than a comparison.
  bool sim_hops_zero = false;
};

bool parse_rt_app(const std::string& s, rt::RtApp& out) {
  if (s == "mutex") {
    out = rt::RtApp::kMutex;
  } else if (s == "counter") {
    out = rt::RtApp::kCounter;
  } else if (s == "directory") {
    out = rt::RtApp::kDirectory;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> split_csv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

bool parse_protocol(const std::string& s, ProtocolSpec& out, Time service) {
  if (s == "arrow") {
    out = ProtocolSpec::arrow_one_shot(service);
  } else if (s == "arrow-loop") {
    out = ProtocolSpec::arrow_closed_loop(service);
  } else if (s == "centralized") {
    out = ProtocolSpec::centralized(0, service);
  } else if (s == "forwarding" || s == "forwarding-loop") {
    out = ProtocolSpec::pointer_forwarding(ForwardingMode::kCompressToRequester, service);
  } else if (s == "token") {
    out = ProtocolSpec::token_passing(service);
  } else {
    return false;
  }
  return true;
}

/// Protocol tokens that run closed-loop (get --reqs rounds instead of the
/// one-shot workload). "forwarding" vs "forwarding-loop" pick the mode of
/// the same ProtocolSpec.
bool is_loop_token(const std::string& s) {
  return s == "arrow-loop" || s == "centralized" || s == "forwarding-loop";
}

bool parse_topology(const std::string& s, NodeId nodes, TopologySpec& out) {
  if (s == "complete") {
    out = TopologySpec::complete(nodes);
  } else if (s == "path") {
    out = TopologySpec::path(nodes);
  } else if (s == "ring") {
    out = TopologySpec::ring(nodes);
  } else if (s == "randtree") {
    out = TopologySpec::random_tree(nodes, /*seed=*/0);  // seeded per scenario
  } else if (s == "wtree") {
    out = TopologySpec::weighted_tree(nodes, /*seed=*/0);
  } else if (s.rfind("grid:", 0) == 0) {
    auto x = s.find('x', 5);
    if (x == std::string::npos) return false;
    auto rows = parse_positive_i64(s.substr(5, x - 5));
    auto cols = parse_positive_i64(s.substr(x + 1));
    if (!rows || !cols) return false;
    out = TopologySpec::grid(static_cast<NodeId>(*rows), static_cast<NodeId>(*cols));
  } else if (s.rfind("torus:", 0) == 0) {
    auto x = s.find('x', 6);
    if (x == std::string::npos) return false;
    auto rows = parse_positive_i64(s.substr(6, x - 6));
    auto cols = parse_positive_i64(s.substr(x + 1));
    if (!rows || !cols) return false;
    out = TopologySpec::torus(static_cast<NodeId>(*rows), static_cast<NodeId>(*cols));
  } else if (s == "hypercube") {
    // 2^dims = largest power <= nodes. 64-bit shift and a hard dims cap:
    // the old `NodeId{2} << dims` comparison overflowed int32 (UB) for
    // nodes >= 2^30 instead of refusing them.
    int dims = 0;
    while (dims < 28 && (std::int64_t{1} << (dims + 1)) <= nodes) ++dims;
    out = TopologySpec::hypercube(dims);
  } else if (s == "geometric" || s.rfind("geometric:", 0) == 0) {
    double radius = 0.35;
    if (s.size() > 10 && s[9] == ':') {
      auto r = parse_positive_f64(s.substr(10));
      if (!r) return false;
      radius = *r;
    }
    out = TopologySpec::geometric(nodes, /*seed=*/0, radius);  // seeded per scenario
  } else {
    return false;
  }
  return true;
}

bool parse_latency(const std::string& s, LatencySpec& out) {
  auto colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  // No parameter falls back to the kind's default; a present-but-malformed
  // or non-positive parameter is a usage error, not a silent default.
  double param = -1.0;
  if (colon != std::string::npos) {
    auto p = parse_positive_f64(s.substr(colon + 1));
    if (!p) return false;
    param = *p;
  }
  if (kind == "sync") {
    if (colon != std::string::npos) return false;  // sync takes no parameter
    out = LatencySpec::synchronous();
  } else if (kind == "scaled") {
    out = LatencySpec::scaled(param > 0 ? param : 0.5);
  } else if (kind == "uniform") {
    out = LatencySpec::uniform_async(/*seed=*/0, param > 0 ? param : 0.05);
  } else if (kind == "exp") {
    out = LatencySpec::truncated_exp(/*seed=*/0, param > 0 ? param : 0.3);
  } else {
    return false;
  }
  return true;
}

bool parse_workload(const std::string& s, WorkloadSpec& out) {
  // Optional request-skew suffix on poisson specs: `poisson:C:R:hot=P[@NODE]`
  // routes fraction P of arrivals to one hot node (default node 0). Stripped
  // here because `hot=P` is non-numeric and would poison the field() parser.
  std::string body = s;
  double hot_p = 0.0;
  NodeId hot_node = 0;
  if (s.rfind("poisson:", 0) == 0) {
    const auto hpos = s.find(":hot=");
    if (hpos != std::string::npos) {
      body = s.substr(0, hpos);
      std::string tail = s.substr(hpos + 5);
      const auto at = tail.find('@');
      if (at != std::string::npos) {
        auto nd = parse_nonneg_i64(tail.substr(at + 1));
        if (!nd) return false;
        hot_node = static_cast<NodeId>(*nd);
        tail.resize(at);
      }
      auto p = parse_positive_f64(tail);
      if (!p || *p > 1.0) return false;  // P must land in (0, 1]
      hot_p = *p;
    }
  }
  // Missing or malformed fields surface as -1 so bad specs fail parsing here
  // (usage error) instead of aborting later on a generator invariant.
  auto field = [&body](int idx) -> double {
    std::size_t pos = 0;
    for (int i = 0; i < idx; ++i) {
      pos = body.find(':', pos);
      if (pos == std::string::npos) return -1.0;
      ++pos;
    }
    auto end = body.find(':', pos);
    auto v = parse_f64(body.substr(pos, end == std::string::npos ? end : end - pos));
    return v ? *v : -1.0;
  };
  if (body == "oneshot") {
    out = WorkloadSpec::one_shot_all();
  } else if (body.rfind("poisson:", 0) == 0) {
    if (field(1) <= 0 || field(2) <= 0) return false;
    if (hot_p > 0.0)
      out = WorkloadSpec::poisson_skewed(static_cast<int>(field(1)), field(2), hot_node, hot_p,
                                         /*seed=*/0);
    else
      out = WorkloadSpec::poisson(static_cast<int>(field(1)), field(2), /*seed=*/0);
  } else if (body.rfind("bursty:", 0) == 0) {
    if (field(1) <= 0 || field(2) <= 0 || field(3) < 0) return false;
    out = WorkloadSpec::bursty_load(static_cast<int>(field(1)), static_cast<int>(field(2)),
                                    static_cast<Weight>(field(3)), /*seed=*/0);
  } else if (s.rfind("sequential:", 0) == 0) {
    if (field(1) <= 0 || field(2) < 0) return false;
    out = WorkloadSpec::sequential(static_cast<int>(field(1)),
                                   static_cast<Weight>(field(2)), /*seed=*/0);
  } else {
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: sweep_main [--protocol P1,P2,..] [--topology T1,T2,..]\n"
               "                  [--nodes N1,N2,..] [--latency SPEC1,SPEC2,..]\n"
               "                  [--fault F1,F2,..] [--workload W] [--reqs N]\n"
               "                  [--service-frac D] [--threads T] [--seed S]\n"
               "                  [--repeat R] [--replicas R] [--shards K]\n"
               "                  [--rt T] [--rt-app A] [--json FILE] [--csv FILE] [--smoke]\n"
               "  P: arrow | arrow-loop | centralized | forwarding | forwarding-loop | token\n"
               "  T: complete | path | ring | randtree | wtree | grid:RxC | torus:RxC |\n"
               "     hypercube | geometric[:RADIUS]\n"
               "  SPEC: sync | scaled:F | uniform:MIN | exp:MEAN\n"
               "  F: none | loss:P | dup:P | jitter:P[:MAXU] | spike:P[:F] |\n"
               "     crash:N[:DOWNU[:PERIODU]] | partition:CUTS:DOWNU[:PERIODU] |\n"
               "     churn:RATE[:leaf|any] | chaos\n"
               "  W: oneshot | poisson:COUNT:RATE[:hot=P[@NODE]] | bursty:B:SIZE:GAP |\n"
               "     sequential:COUNT:GAP   (hot= skews fraction P of arrivals to one node)\n"
               "  A: mutex | counter | directory   (app driven by the --rt runtime pass)\n"
               "  service time = one unit / D ticks (0 = free local processing)\n"
               "  numeric flags take checked values: garbage or out-of-range input is\n"
               "  rejected with exit code 2, never silently coerced\n"
               "  --replicas >= 2 folds per-cell statistics (mean/stddev/CI) into the JSON\n"
               "  --shards K runs every cell with a sharded entry on K lanes (arrow and\n"
               "  forwarding, both modes; bit-identical results; topology-fault cells\n"
               "  (crash/partition/churn), token passing and closed-loop centralized stay\n"
               "  serial)\n"
               "  --rt T re-runs each fault-free arrow-loop cell on the real-thread runtime\n"
               "  (T workers, 0 = all cores), checks the recorded history, and attaches a\n"
               "  \"runtime\" block with measured ops/s + sim-vs-runtime hop ratio\n"
               "  --csv dumps long format: one row per cell x replica x metric\n");
  return 2;
}

/// A spec token its parser rejected: name the flag and the token, then print
/// the usage text (exit code 2).
int invalid_spec(const char* flag, const std::string& token) {
  std::fprintf(stderr, "%s: invalid spec '%s'\n", flag, token.c_str());
  return usage();
}

/// Checked numeric flag value: parse failure prints the offending token and
/// the usage text, then exits 2 — std::atoi's silent garbage-to-zero is
/// exactly the bug class this replaces.
std::int64_t require_i64(const char* flag, const char* v,
                         std::optional<std::int64_t> (*parse)(const std::string&)) {
  auto r = parse(std::string(v));
  if (!r) {
    std::fprintf(stderr, "%s: invalid value '%s'\n", flag, v);
    std::exit(usage());
  }
  return *r;
}

/// JSON string escaping is overkill for our generated labels, but keep the
/// output well-formed even if a topology token sneaks in a backslash.
void json_escaped(std::FILE* f, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

void json_metric_stats(std::FILE* f, const char* name, const MetricStats& m, const char* tail) {
  std::fprintf(f,
               "       \"%s\": {\"mean\": %.6f, \"stddev\": %.6f, \"min\": %.6f, "
               "\"max\": %.6f, \"ci_lo\": %.6f, \"ci_hi\": %.6f}%s\n",
               name, m.mean, m.stddev, m.min, m.max, m.ci_lo, m.ci_hi, tail);
}

int emit_json(const std::string& path, const Options& opt, unsigned threads,
              const std::vector<Experiment>& exps,
              const std::vector<ReplicatedExperimentResult>& results,
              const std::vector<RtRow>& rt_rows, double wall) {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::int64_t total_reqs = 0;
  for (const ReplicatedExperimentResult& r : results)
    for (const RunResult& run : r.result.runs) total_reqs += run.total_requests;
  std::fprintf(f, "{\n  \"bench\": \"experiment_sweep\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", opt.smoke ? "smoke" : "full");
  std::fprintf(f, "  \"threads\": %u,\n  \"seed\": %llu,\n  \"replicas\": %d,\n", threads,
               static_cast<unsigned long long>(opt.seed), opt.replicas);
  std::fprintf(f, "  \"shards\": %d,\n", opt.shards);
  std::fprintf(f, "  \"scenario_count\": %zu,\n  \"total_requests\": %lld,\n",
               results.size(), static_cast<long long>(total_reqs));
  std::fprintf(f, "  \"wall_seconds\": %.6f,\n  \"scenarios\": [\n", wall);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ReplicatedExperimentResult& r = results[i];
    const Experiment& e = exps[i];
    // Scalar metrics are replica 0's run — the cell exactly as seeded, i.e.
    // the point sample an unreplicated sweep would have reported; the
    // replication block carries the cross-replica statistics.
    const RunResult& point = r.result.runs.front();
    std::fprintf(f, "    {\"label\": \"");
    json_escaped(f, r.label);
    std::fprintf(f, "\", \"protocol\": \"%s\", \"topology\": \"%s\", \"nodes\": %d, ",
                 e.protocol.name(), e.topology.family_name(), e.topology.nodes);
    std::fprintf(f, "\"latency\": \"%s\", \"workload\": \"%s\", \"rounds\": %lld,\n",
                 e.latency.name(), e.rounds > 0 ? "closed-loop" : e.workload.name(),
                 static_cast<long long>(e.rounds));
    if (e.fault.active()) {
      // Fault block: present exactly when the cell injects faults, so the
      // schema can require it conditionally. recovery_delta_units compares
      // against the cell's fault-free twin and can be negative (faults
      // reshuffle interleavings).
      std::fprintf(f,
                   "     \"fault\": \"%s\", \"messages_dropped\": %llu, "
                   "\"messages_duplicated\": %llu, \"crashes\": %d,\n"
                   "     \"stabilize_rounds\": %d, \"recovery_delta_units\": %.3f,\n",
                   e.fault.name(),
                   static_cast<unsigned long long>(point.messages_dropped),
                   static_cast<unsigned long long>(point.messages_duplicated), point.crashes,
                   point.stabilize_rounds, point.recovery_delta_units);
      if (e.fault.has_partition() || e.fault.has_churn()) {
        // Partition/churn sub-block: present exactly when the cell schedules
        // topology faults beyond crashes, so the schema can require it
        // conditionally alongside the fault block.
        std::fprintf(f,
                     "     \"partitions\": %d, \"partition_backlog_drained\": %llu,\n"
                     "     \"partition_delta_units\": %.3f, \"reselections\": %d,\n",
                     point.partitions,
                     static_cast<unsigned long long>(point.partition_backlog_drained),
                     point.partition_delta_units, point.reselections);
      }
    }
    if (i < rt_rows.size() && rt_rows[i].present) {
      // Runtime block: present exactly when --rt ran this cell (fault-free
      // arrow-loop), so the schema can require it conditionally. The checker
      // verdict — not any golden — is the correctness signal; hops_ratio is
      // the sim-predicted vs runtime-measured cross-validation number.
      const RtRow& rt = rt_rows[i];
      std::fprintf(f,
                   "     \"runtime\": {\"threads\": %d, \"ops\": %lld, \"ops_per_sec\": %.1f,\n"
                   "      \"queue_messages\": %llu, \"checker_passed\": %s, "
                   "\"rt_hops_per_op\": %.4f,\n"
                   "      \"sim_hops_per_op\": %.4f, \"hops_ratio\": %.4f, "
                   "\"sim_hops_zero\": %s},\n",
                   rt.threads, rt.ops, rt.ops_per_sec, rt.queue_messages,
                   rt.checker_passed ? "true" : "false", rt.rt_hops_per_op, rt.sim_hops_per_op,
                   rt.hops_ratio, rt.sim_hops_zero ? "true" : "false");
    }
    std::fprintf(f,
                 "     \"makespan_units\": %.3f, \"total_requests\": %lld, "
                 "\"messages\": %llu, \"total_hops\": %lld,\n",
                 ticks_to_units_d(point.makespan),
                 static_cast<long long>(point.total_requests),
                 static_cast<unsigned long long>(point.messages),
                 static_cast<long long>(point.total_hops));
    std::fprintf(f,
                 "     \"avg_hops_per_request\": %.4f, \"avg_round_latency_units\": %.4f, "
                 "\"total_latency_units\": %.3f, \"seconds\": %.6f%s\n",
                 point.avg_hops_per_request, point.avg_round_latency_units,
                 ticks_to_units_d(point.total_latency), r.seconds,
                 opt.replicas > 1 ? "," : "");
    if (opt.replicas > 1) {
      const ReplicatedResult& rep = r.result;
      std::fprintf(f, "     \"replication\": {\"replicas\": %d, \"confidence\": %.4f,\n",
                   rep.replicas, rep.confidence);
      json_metric_stats(f, "makespan_units", rep.makespan_units, ",");
      json_metric_stats(f, "total_requests", rep.total_requests, ",");
      json_metric_stats(f, "messages", rep.messages, ",");
      json_metric_stats(f, "total_hops", rep.total_hops, ",");
      json_metric_stats(f, "avg_hops_per_request", rep.avg_hops_per_request, ",");
      json_metric_stats(f, "avg_round_latency_units", rep.avg_round_latency_units, ",");
      json_metric_stats(f, "total_latency_units", rep.total_latency_units, "}");
    }
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (f != stdout) std::fclose(f);
  return 0;
}

/// Long-format dump: one row per cell x replica x metric. Labels and axis
/// names never contain commas (they are generated from fixed token sets), so
/// no quoting is needed. Fault metrics are emitted only for fault cells,
/// mirroring the JSON schema's conditional block.
int emit_csv(const std::string& path, const std::vector<Experiment>& exps,
             const std::vector<ReplicatedExperimentResult>& results) {
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "label,protocol,topology,nodes,latency,fault,rounds,replica,metric,value\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ReplicatedExperimentResult& r = results[i];
    const Experiment& e = exps[i];
    for (std::size_t rep = 0; rep < r.result.runs.size(); ++rep) {
      const RunResult& run = r.result.runs[rep];
      auto row = [&](const char* metric, double value) {
        std::fprintf(f, "%s,%s,%s,%d,%s,%s,%lld,%zu,%s,%.6f\n", r.label.c_str(),
                     e.protocol.name(), e.topology.family_name(), e.topology.nodes,
                     e.latency.name(), e.fault.active() ? e.fault.name() : "none",
                     static_cast<long long>(e.rounds), rep, metric, value);
      };
      row("makespan_units", ticks_to_units_d(run.makespan));
      row("total_requests", static_cast<double>(run.total_requests));
      row("messages", static_cast<double>(run.messages));
      row("total_hops", static_cast<double>(run.total_hops));
      row("avg_hops_per_request", run.avg_hops_per_request);
      row("avg_round_latency_units", run.avg_round_latency_units);
      row("total_latency_units", ticks_to_units_d(run.total_latency));
      if (e.fault.active()) {
        row("messages_dropped", static_cast<double>(run.messages_dropped));
        row("messages_duplicated", static_cast<double>(run.messages_duplicated));
        row("crashes", static_cast<double>(run.crashes));
        row("recovery_delta_units", run.recovery_delta_units);
        if (e.fault.has_partition() || e.fault.has_churn()) {
          row("partitions", static_cast<double>(run.partitions));
          row("partition_backlog_drained",
              static_cast<double>(run.partition_backlog_drained));
          row("partition_delta_units", run.partition_delta_units);
          row("reselections", static_cast<double>(run.reselections));
        }
      }
    }
  }
  if (f != stdout) std::fclose(f);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--protocol")) {
      opt.protocols = split_csv(next("--protocol"));
    } else if (!std::strcmp(argv[i], "--topology")) {
      opt.topologies = split_csv(next("--topology"));
    } else if (!std::strcmp(argv[i], "--nodes")) {
      opt.nodes.clear();
      for (const auto& tok : split_csv(next("--nodes"))) {
        const std::int64_t n = require_i64("--nodes", tok.c_str(), parse_positive_i64);
        // Checked before the NodeId narrowing: 5e9 must be refused, not
        // silently wrapped into a small plausible-looking instance.
        if (n > (std::int64_t{1} << 28)) {
          std::fprintf(stderr, "--nodes: %lld exceeds the 2^28 scale cap\n",
                       static_cast<long long>(n));
          return 2;
        }
        opt.nodes.push_back(static_cast<NodeId>(n));
      }
    } else if (!std::strcmp(argv[i], "--latency")) {
      opt.latencies = split_csv(next("--latency"));
    } else if (!std::strcmp(argv[i], "--fault")) {
      opt.faults = split_csv(next("--fault"));
    } else if (!std::strcmp(argv[i], "--workload")) {
      opt.workload = next("--workload");
    } else if (!std::strcmp(argv[i], "--reqs")) {
      opt.reqs_per_node = require_i64("--reqs", next("--reqs"), parse_positive_i64);
    } else if (!std::strcmp(argv[i], "--threads")) {
      opt.threads =
          static_cast<unsigned>(require_i64("--threads", next("--threads"), parse_nonneg_i64));
    } else if (!std::strcmp(argv[i], "--service-frac")) {
      opt.service_divisor = require_i64("--service-frac", next("--service-frac"), parse_nonneg_i64);
    } else if (!std::strcmp(argv[i], "--seed")) {
      opt.seed =
          static_cast<std::uint64_t>(require_i64("--seed", next("--seed"), parse_nonneg_i64));
    } else if (!std::strcmp(argv[i], "--repeat")) {
      opt.repeat = static_cast<int>(require_i64("--repeat", next("--repeat"), parse_positive_i64));
    } else if (!std::strcmp(argv[i], "--replicas")) {
      opt.replicas =
          static_cast<int>(require_i64("--replicas", next("--replicas"), parse_positive_i64));
    } else if (!std::strcmp(argv[i], "--shards")) {
      opt.shards = static_cast<int>(require_i64("--shards", next("--shards"), parse_positive_i64));
    } else if (!std::strcmp(argv[i], "--rt")) {
      opt.rt_threads = static_cast<int>(require_i64("--rt", next("--rt"), parse_nonneg_i64));
    } else if (!std::strcmp(argv[i], "--rt-app")) {
      opt.rt_app = next("--rt-app");
    } else if (!std::strcmp(argv[i], "--json")) {
      opt.json_path = next("--json");
    } else if (!std::strcmp(argv[i], "--csv")) {
      opt.csv_path = next("--csv");
    } else if (!std::strcmp(argv[i], "--smoke")) {
      opt.smoke = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return usage();
    }
  }
  if (opt.smoke) {
    // CI cross-protocol smoke: every protocol in both its modes, three
    // topology families (incl. a torus), two latency regimes, R=2
    // replication so the statistics path is schema-gated — still finishes
    // in well under a second at these sizes.
    opt.protocols = {"arrow",      "arrow-loop",      "centralized",
                     "forwarding", "forwarding-loop", "token"};
    opt.topologies = {"complete", "randtree", "torus:4x4"};
    opt.nodes = {16, 32};
    opt.latencies = {"sync", "uniform:0.1"};
    opt.workload = "poisson:24:0.5";
    opt.reqs_per_node = 20;
    opt.repeat = 1;
    opt.replicas = 2;
    if (opt.json_path.empty()) opt.json_path = "sweep_smoke.json";
  }
  if (opt.nodes.empty() || opt.latencies.empty() || opt.protocols.empty() ||
      opt.topologies.empty() || opt.faults.empty() || opt.repeat < 1 || opt.replicas < 1)
    return usage();

  const Time service = opt.service_divisor == 0 ? 0 : kTicksPerUnit / opt.service_divisor;

  WorkloadSpec workload;
  if (!parse_workload(opt.workload, workload)) return invalid_spec("--workload", opt.workload);

  rt::RtApp rt_app = rt::RtApp::kMutex;
  if (!parse_rt_app(opt.rt_app, rt_app)) {
    std::fprintf(stderr, "--rt-app: invalid value '%s'\n", opt.rt_app.c_str());
    return usage();
  }

  // The fault axis crosses like any other, so parse it up front.
  std::vector<FaultSpec> fault_specs;
  for (const std::string& f : opt.faults) {
    auto spec = parse_fault_spec(f);
    if (!spec) return invalid_spec("--fault", f);
    fault_specs.push_back(*spec);
  }

  // The cross-product: protocol x topology x nodes x latency x fault x
  // repeat, each cell seeded independently through Experiment::with_seed.
  std::vector<Experiment> exps;
  std::uint64_t scenario_seed = opt.seed;
  for (const std::string& proto_str : opt.protocols) {
    ProtocolSpec proto;
    if (!parse_protocol(proto_str, proto, service)) return invalid_spec("--protocol", proto_str);
    for (const std::string& topo_str : opt.topologies) {
      // grid:RxC / torus:RxC carry their own size; crossing them with
      // --nodes would just emit identical duplicate scenarios.
      const bool fixed_size =
          topo_str.rfind("grid:", 0) == 0 || topo_str.rfind("torus:", 0) == 0;
      std::vector<NodeId> sizes = fixed_size ? std::vector<NodeId>{0} : opt.nodes;
      if (topo_str == "hypercube") {
        // Hypercube rounds each N down to a power of two; drop sizes that
        // collapse onto an earlier one so the grid has no duplicate cells.
        std::vector<NodeId> rounded;
        for (NodeId n : sizes) {
          TopologySpec probe;
          if (!parse_topology(topo_str, n, probe)) return invalid_spec("--topology", topo_str);
          if (std::find(rounded.begin(), rounded.end(), probe.nodes) == rounded.end())
            rounded.push_back(probe.nodes);
        }
        sizes = std::move(rounded);
      }
      for (NodeId n : sizes) {
        TopologySpec topo;
        if (!parse_topology(topo_str, n, topo)) return invalid_spec("--topology", topo_str);
        for (const std::string& lat_str : opt.latencies) {
          LatencySpec lat;
          if (!parse_latency(lat_str, lat)) return invalid_spec("--latency", lat_str);
          for (const FaultSpec& fault : fault_specs) {
            for (int r = 0; r < opt.repeat; ++r) {
              Experiment e;
              e.protocol = proto;
              e.topology = topo;
              e.latency = lat;
              e.fault = fault;
              if (is_loop_token(proto_str))
                e.rounds = opt.reqs_per_node;
              else
                e.workload = workload;
              // Shard every cell the sharded engine can run; the rest stay
              // serial rather than failing validation.
              if (shardable(e)) e.shards = opt.shards;
              e = e.with_seed(++scenario_seed);
              e.label = e.default_label();
              if (is_loop_token(proto_str) && proto.kind == Protocol::kPointerForwarding)
                e.label.insert(e.label.find(' '), "-loop");
              if (opt.repeat > 1) e.label += "#" + std::to_string(r);
              exps.push_back(std::move(e));
            }
          }
        }
      }
    }
  }

  if (opt.smoke) {
    // Dedicated fault cells: crossing faults into the whole smoke grid would
    // blow it up, so pin the machinery with eight targeted cells instead —
    // message loss, crash + recovery, a partition window (cut + heal + FIFO
    // backlog drain) and churn re-selection, each on the protocol with full
    // pointer recovery (arrow) and on the closed-loop baseline with graceful
    // degradation (forwarding-loop).
    struct SmokeFaultCell {
      const char* proto;
      const char* fault;
    };
    constexpr SmokeFaultCell kFaultCells[] = {
        {"arrow", "loss:0.1"},
        {"arrow", "crash:2"},
        {"arrow", "partition:2:4:8"},
        {"arrow", "churn:8"},
        {"forwarding-loop", "loss:0.1"},
        {"forwarding-loop", "crash:2"},
        {"forwarding-loop", "partition:2:4:8"},
        {"forwarding-loop", "churn:8"},
    };
    for (const SmokeFaultCell& cell : kFaultCells) {
      ProtocolSpec proto;
      TopologySpec topo;
      LatencySpec lat;
      if (!parse_protocol(cell.proto, proto, service) || !parse_topology("randtree", 24, topo) ||
          !parse_latency("sync", lat))
        return usage();
      Experiment e;
      e.protocol = proto;
      e.topology = topo;
      e.latency = lat;
      e.fault = *parse_fault_spec(cell.fault);
      if (is_loop_token(cell.proto))
        e.rounds = opt.reqs_per_node;
      else
        e.workload = workload;
      if (shardable(e)) e.shards = opt.shards;
      e = e.with_seed(++scenario_seed);
      e.label = e.default_label();
      if (is_loop_token(cell.proto) && proto.kind == Protocol::kPointerForwarding)
        e.label.insert(e.label.find(' '), "-loop");
      exps.push_back(std::move(e));
    }
  }

  // Refuse inconsistent or absurd cells before any simulation starts:
  // structural errors (grid dims vs nodes, hypercube id budget) and
  // materialization blowups (complete at n = 10^6 is ~5 * 10^11 edges) exit
  // 2 with a checked diagnostic instead of dying in the allocator.
  for (const Experiment& e : exps) {
    if (auto err = validate_experiment(e)) {
      std::fprintf(stderr, "%s: %s\n", e.label.c_str(), err->c_str());
      return 2;
    }
  }

  SweepRunner runner(opt.threads);
  // --json - / --csv - own stdout: the human-readable table would corrupt
  // the piped document, so suppress it there.
  const bool quiet = opt.json_path == "-" || opt.csv_path == "-";
  if (!quiet)
    std::printf("=== experiment sweep: %zu cells (%zu protocols x %zu topologies x %zu sizes "
                "x %zu latencies x %zu faults x %d) x %d replicas, %u threads ===\n\n",
                exps.size(), opt.protocols.size(), opt.topologies.size(), opt.nodes.size(),
                opt.latencies.size(), opt.faults.size(), opt.repeat, opt.replicas,
                runner.threads());

  const ReplicationSpec rep{opt.replicas, opt.seed, 0.95};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ReplicatedExperimentResult> results = run_replicated(exps, rep, runner);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0).count();

  const bool replicated = opt.replicas > 1;
  std::vector<std::string> columns = {"scenario", "makespan(units)", "reqs", "msgs",
                                      "hops/req", "avg_lat(units)",  "secs"};
  if (replicated) {
    // Dispersion columns: cross-replica stddev of the two headline metrics.
    columns.insert(columns.begin() + 2, "mk_sd");
    columns.push_back("lat_sd");
  }
  Table table(columns);
  std::int64_t total_reqs = 0;
  for (const ReplicatedExperimentResult& r : results) {
    for (const RunResult& run : r.result.runs) total_reqs += run.total_requests;
    const RunResult& point = r.result.runs.front();
    auto& row = table.row()
                    .cell(r.label)
                    .cell(ticks_to_units_d(point.makespan), 1);
    if (replicated) row.cell(r.result.makespan_units.stddev, 2);
    row.cell(point.total_requests)
        .cell(static_cast<std::int64_t>(point.messages))
        .cell(point.avg_hops_per_request, 3)
        .cell(point.avg_round_latency_units, 3)
        .cell(r.seconds, 4);
    if (replicated) row.cell(r.result.avg_round_latency_units.stddev, 3);
  }
  if (!quiet) {
    emit_table(table, "sweep");
    std::printf("\n%zu cells x %d replicas, %lld simulated requests in %.3f s wall  "
                "(%.0f reqs/s, %.1f runs/s)\n",
                results.size(), opt.replicas, static_cast<long long>(total_reqs), wall,
                static_cast<double>(total_reqs) / wall,
                static_cast<double>(results.size() * static_cast<std::size_t>(opt.replicas)) /
                    wall);
  }

  // Optional runtime tier pass: every fault-free arrow-loop cell gets one
  // real-thread run cross-validated against its own sim twin. This happens
  // after the sweep so the sweep's wall/throughput numbers stay pure sim.
  std::vector<RtRow> rt_rows;
  if (opt.rt_threads >= 0) {
    rt_rows.resize(exps.size());
    const int rt_t = opt.rt_threads == 0
                         ? static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))
                         : opt.rt_threads;
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const Experiment& e = exps[i];
      if (e.protocol.kind != Protocol::kArrowClosedLoop || e.rounds <= 0 || e.fault.active())
        continue;
      rt::RtConfig rc;
      rc.threads = rt_t;
      rc.app = rt_app;
      const rt::RtCrossValidation cv = rt::run_rt_cross_validated(e, rc);
      RtRow& row = rt_rows[i];
      row.present = true;
      row.threads = cv.rt.threads;
      row.ops = static_cast<long long>(cv.rt.ops);
      row.ops_per_sec = cv.rt.ops_per_sec;
      row.queue_messages = static_cast<unsigned long long>(cv.rt.queue_messages);
      row.checker_passed = cv.check.ok;
      row.rt_hops_per_op = cv.rt_hops_per_op;
      row.sim_hops_per_op = cv.sim_hops_per_op;
      row.hops_ratio = cv.hops_ratio;
      row.sim_hops_zero = cv.sim_hops_zero;
      if (!quiet)
        std::printf("runtime %-44s T=%d ops/s=%.0f hops rt/sim=%.2f/%.2f ratio=%.2f checker=%s\n",
                    e.label.c_str(), row.threads, row.ops_per_sec, row.rt_hops_per_op,
                    row.sim_hops_per_op, row.hops_ratio, row.checker_passed ? "PASS" : "FAIL");
      if (!row.checker_passed) {
        std::fprintf(stderr, "runtime history check FAILED for %s: %s\n", e.label.c_str(),
                     cv.check.error.c_str());
        return 1;
      }
    }
  }

  if (!opt.json_path.empty()) {
    if (int rc = emit_json(opt.json_path, opt, runner.threads(), exps, results, rt_rows, wall))
      return rc;
    if (opt.json_path != "-") std::printf("wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.csv_path.empty()) {
    if (int rc = emit_csv(opt.csv_path, exps, results)) return rc;
    if (opt.csv_path != "-") std::printf("wrote %s\n", opt.csv_path.c_str());
  }
  return 0;
}
