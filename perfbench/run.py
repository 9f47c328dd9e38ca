#!/usr/bin/env python3
"""The arrowdq benchmark: build, run one workload, check it, print metrics.

    python3 perfbench/run.py --workload fig10_serial --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call builds the arrowbench
program (perfbench/CMakeLists.txt, Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to <build>/spans/). Human-readable
lines come first; the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
perfbench/README.md defines every metric.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Span name -> per-layer metric holding that span's self time per unit.
SPAN_METRICS = {
    "graph.build_graph": "graph.build_graph_s",
    "graph.build_tree": "graph.build_tree_s",
    "graph.apsp": "graph.apsp_s",
    "workload.build": "workload.build_s",
    "sim.run": "sim.run_s",
    "parallel.run": "parallel.run_s",
    "analysis.competitive": "analysis.competitive_s",
    "rt.run": "rt.run_s",
}
EXP_SPAN = "exp.run."  # exp.run.<protocol> -> exp.run_s.<protocol>


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure once, then build arrowbench; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the arrowdq sources (CMakeLists.txt, src/) are not in this checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per directory
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "arrowbench", "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(cmd)}")
            if r.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "arrowbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw):
    units = raw["unit_s"]
    med_unit = benchlib.summary(units)["median"]
    rss = raw["peak_rss_bytes"]
    return {
        "setup_s": metric(benchlib.summary(raw["setup_s"])["median"], "s"),
        "reqs_per_s": metric(raw["reqs_per_unit"] / med_unit, "1/s"),
        "cells_per_s": metric(raw["cells_per_unit"] / med_unit, "1/s"),
        "cell_s_p50": metric(benchlib.percentile(raw["cell_s"], 50), "s"),
        "cell_s_p90": metric(benchlib.tail_value(raw["cell_s"])[1], "s"),
        "peak_rss_mb": metric(rss / 2**20, "MB"),
        "bytes_per_node": metric(rss / raw["nodes"], "B"),
    }


def per_layer(raw, buffers, declared):
    """Per-layer metrics; 0 for a layer this workload does not call."""
    values = {m["name"]: 0.0 for m in declared}
    values.update(raw["layer"])
    per_unit = len(raw["unit_s"]) * raw["layer_units_per_unit"]

    exp_by_cell = {}
    for spans in benchlib.self_times(buffers):
        for name, self_ns, ident in spans:
            key = SPAN_METRICS.get(name)
            if name.startswith(EXP_SPAN):
                key = "exp.run_s." + name[len(EXP_SPAN):]
                cell = ident % len(raw["cells"])
                exp_by_cell[cell] = exp_by_cell.get(cell, 0) + self_ns
            if key:
                values[key] += self_ns / 1e9 / per_unit

    if exp_by_cell:
        cells = raw["cells"]
        none_time = {c["twin"]: exp_by_cell.get(i, 0)
                     for i, c in enumerate(cells) if c["fault"] == "none"}
        faulty = [i for i, c in enumerate(cells) if c["fault"] != "none"]
        twins = sum(none_time.get(cells[i]["twin"], 0) for i in faulty)
        if twins:
            values["exp.fault_cost_ratio"] = sum(exp_by_cell.get(i, 0) for i in faulty) / twins
    if values["sim.messages"] and values["sim.run_s"]:
        values["sim.ns_per_message"] = values["sim.run_s"] * 1e9 / values["sim.messages"]
    if values["parallel.events"]:
        values["parallel.ns_per_event"] = values["parallel.run_s"] * 1e9 / values["parallel.events"]
    values["trace.overhead_frac"] = (benchlib.summary(raw["unit_s"])["median"]
                                     / benchlib.summary(raw["untraced_unit_s"])["median"] - 1)
    values["trace.coverage_frac"] = benchlib.coverage(buffers, raw["section_ns"], raw["threads"])
    units = {m["name"]: m["unit"] for m in declared}
    return {name: metric(values[name], units[name]) for name in values}


def reference_check(raw):
    """(attempted, failed) of the recorded-reference comparison, if any."""
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    seed = str(raw["seed"])
    if raw["workload"].startswith("fig10_"):
        want = refs["fig10"].get(seed)
        got = raw["digest"]
    elif raw["workload"] == "sweep_mixed":
        want = refs["sweep_mixed"].get(seed)
        got = raw["digest_fnv"]
    else:
        return 0, 0
    if want is None:
        return 0, 0
    if got != want:
        print(f"  reference mismatch for seed {seed}: got {got}, recorded {want}")
    return 1, int(got != want)


def print_summary(raw, metrics, attempted, failed, commit):
    host = raw["host"]
    print(f"arrowdq benchmark: workload {raw['workload']}, seed {raw['seed']}, "
          f"trace {int(raw['trace'])}")
    print(f"  host: nproc {host['nproc']}, hardware_concurrency {host['hardware_concurrency']}, "
          f"{host['compiler']}, build {host['build_type']}, commit {commit}")
    setup = benchlib.summary(raw["setup_s"])
    print(f"  set-up: median {setup['median']:.6f} s over {setup['n']} repetitions; "
          f"main() to the first timed call {raw['first_call_s']:.4f} s")
    units = raw["unit_s"]
    s = benchlib.summary(units)
    print(f"  timed: {s['n']} {raw['unit']}s, median {s['median']:.4f} s "
          f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, min {s['min']:.4f}, max {s['max']:.4f})")
    if raw["cell_s"] and not raw["trace"]:
        p, v = benchlib.tail_value(raw["cell_s"])
        print(f"  cell seconds: {len(raw['cell_s'])} samples; cell_s_p90 reports p{p} = {v:.6f} s "
              f"(the highest percentile up to p90 with >= 10 samples beyond)")
    if "serial_call_s" in raw and not raw["trace"]:
        print(f"  sharded vs serial: {raw['serial_call_s'] / s['median']:.3f}x "
              f"(serial call {raw['serial_call_s']:.4f} s, K={raw['lanes']} median "
              f"{s['median']:.4f} s)")
    print(f"  error_rate {benchlib.error_rate(attempted, failed):.6g} "
          f"({failed} failed / {attempted} attempted)")
    for note in raw["failures"]:
        print(f"  FAILED: {note}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    spans_path = None
    if args.trace:
        spans_path = os.path.join(build_dir(), "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        cmd += ["--spans", spans_path]
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        fail(f"arrowbench exited with code {r.returncode}")
    raw = json.loads(r.stdout.strip().splitlines()[-1])

    attempted, failed = benchlib.merge_checks((raw["attempted"], raw["failed"]),
                                              reference_check(raw))
    if args.trace:
        declared = spec["per_layer"]
        with open(spans_path) as f:
            buffers = json.load(f)["buffers"]
        metrics = per_layer(raw, buffers, declared)
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end(raw)
    problems = benchlib.check_names(metrics, declared)
    if problems:
        fail("emitted metrics do not match BENCHMARK.json: " + "; ".join(problems))

    print_summary(raw, metrics, attempted, failed, git_commit())
    print(f"  wall {time.monotonic() - started:.1f} s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
