"""Arithmetic for the arrowdq benchmark: summaries, percentiles, error
accounting, span self times and the metric-name check.

run.py feeds it the raw JSON that the arrowbench program prints; nothing
here touches the filesystem or runs a process, so test_benchlib.py can
check every helper on hand-made inputs.
"""

import re
import statistics

# A metric or workload name: starts with a letter or digit, at most 64 of
# letters, digits, '_', '.' and '-'.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def summary(values):
    """Median, first and third quartile, min, max and count of `values`.

    Quartiles follow statistics.quantiles(values, n=4); with one sample
    all three read that sample.
    """
    if not values:
        raise ValueError("summary of no samples")
    if len(values) == 1:
        q1 = med = q3 = float(values[0])
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def percentile(values, p):
    """The p-th percentile (1..99), linear interpolation between samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(values, min_beyond=10):
    """The highest whole percentile with at least `min_beyond` samples above it.

    Returns (p, value, beyond, n). When even the median has fewer samples
    beyond it, p is None and value is the median: the sample is too small
    to name a tail.
    """
    n = len(values)
    for p in range(99, 0, -1):
        v = percentile(values, p)
        beyond = sum(1 for x in values if x > v)
        if beyond >= min_beyond:
            return p, v, beyond, n
    return None, percentile(values, 50), 0, n


def tail_value(values, p_max=90, min_beyond=10):
    """The p_max-th percentile, or a lower one when fewer samples back it.

    Follows tail_percentile: the highest percentile up to p_max with at
    least `min_beyond` samples above it, but never below the median (which
    is what too small a sample reports). Returns (p, value).
    """
    p, v, _beyond, _n = tail_percentile(values, min_beyond)
    if p is None or p <= 50:
        return 50, percentile(values, 50)
    if p >= p_max:
        return p_max, percentile(values, p_max)
    return p, v


def error_rate(attempted, failed):
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted


def merge_checks(*checks):
    """Sum (attempted, failed) pairs from independent checks."""
    return (sum(a for a, _ in checks), sum(f for _, f in checks))


def union_length(intervals, lo=None, hi=None):
    """Total length covered by [start, end) intervals, clipped to [lo, hi)."""
    clipped = []
    for s, e in intervals:
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            e = min(e, hi)
        if e > s:
            clipped.append((s, e))
    clipped.sort()
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(buffers):
    """Per span: its duration minus the part its child spans cover.

    `buffers` is a list (one per thread) of spans
    [name, start_ns, end_ns, parent_index, id]; parent_index points into the
    same buffer, -1 for a top-level span. Returns one list per buffer of
    (name, self_ns, id), in buffer order.
    """
    out = []
    for spans in buffers:
        children = [[] for _ in spans]
        for span in spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out.append([(name, (end - start) - union_length(children[i], start, end), ident)
                    for i, (name, start, end, _parent, ident) in enumerate(spans)])
    return out


def coverage(buffers, section, threads):
    """Share of threads x section wall time covered by top-level spans."""
    lo, hi = section
    if hi <= lo or threads < 1:
        return 0.0
    covered = sum(union_length([(s[1], s[2]) for s in spans if s[3] < 0], lo, hi)
                  for spans in buffers)
    return covered / (threads * (hi - lo))


def check_names(metrics, declared):
    """Problems with emitted metrics against their BENCHMARK.json list.

    `metrics` maps name -> {"value", "unit"}; `declared` is the list of
    {"name", "unit", ...} entries. Every declared metric must be emitted
    with its unit, nothing else may be, and every name must match NAME_RE.
    """
    problems = []
    units = {m["name"]: m["unit"] for m in declared}
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            problems.append(f"bad metric name {name!r}")
        if name not in units:
            problems.append(f"{name} is not declared in BENCHMARK.json")
        elif m.get("unit") != units[name]:
            problems.append(f"{name} has unit {m.get('unit')!r}, declared {units[name]!r}")
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{name} has a non-numeric value")
    for name in units:
        if name not in metrics:
            problems.append(f"{name} is declared but not emitted")
    return problems
