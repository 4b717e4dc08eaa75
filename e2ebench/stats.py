"""Pure arithmetic behind the benchmark's figures (tested by test_stats.py)."""

import math
import statistics

# Percentiles the benchmark may report, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def median(values):
    return statistics.median(values)


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule (1-based rank ceil(p*n))."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def highest_percentile(values):
    """(p, value) for the highest percentile with at least ten samples
    beyond it, or None when even the median lacks that support."""
    ordered = sorted(values)
    best = None
    for p in PERCENTILES:
        if beyond(len(ordered), p) >= 10:
            best = (p, nearest_rank(ordered, p))
    return best


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. `spans` are dicts with id, parent,
    start_ns, end_ns; returns {id: self_ns}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], cursor), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def span_problems(spans):
    """What makes one run's spans unfit for self-time arithmetic: a span
    never closed, a parent that is not in the run, a child that starts
    before or ends after its parent, or siblings that overlap. With none
    of these, the self times of a root and all its descendants add up to
    the root's duration."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    problems = []
    for s in spans:
        if s["end_ns"] < s["start_ns"]:
            problems.append(f"span {s['name']} was never closed")
        if s["parent"] == -1:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['name']} has no parent in its run")
            continue
        children.setdefault(s["parent"], []).append(s)
        if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
            problems.append(f"span {s['name']} is not inside {parent['name']}")
    for siblings in children.values():
        siblings.sort(key=lambda c: c["start_ns"])
        for a, b in zip(siblings, siblings[1:]):
            if b["start_ns"] < a["end_ns"]:
                problems.append(f"spans {a['name']} and {b['name']} overlap")
    return problems


def server_cpu_seconds(process_s, generator_s, client_s, main_s):
    """Process CPU over a serve pass minus the benchmark's own threads: the
    replay generator, the query client and the waiting main thread."""
    return process_s - generator_s - client_s - main_s
