"""Arithmetic behind the benchmark's reported numbers.

Pure functions, so test_metrics.py can pin them down: percentile selection
with the ten-beyond rule, failure accounting, span self time, and the FNV
fingerprint over a workload's exact counts.
"""

import math
from fractions import Fraction

MIN_BEYOND = 10


class MetricError(ValueError):
    """A reported number would break one of the benchmark's own rules."""


def percentile(samples, q):
    """Nearest-rank percentile of `samples` at quantile `q` in (0, 1].

    Returns (value, beyond, count): `beyond` is how many samples lie above
    the selected rank. The rank is computed in exact arithmetic, so
    q = 0.9 over 100 samples selects rank 90 and leaves 10 beyond.
    """
    if not samples:
        raise MetricError("percentile of no samples")
    q = Fraction(q).limit_denominator(10**6)
    if not 0 < q <= 1:
        raise MetricError("quantile %s outside (0, 1]" % q)
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    return ordered[rank - 1], n - rank, n


def tail_percentile(samples, q, min_beyond=MIN_BEYOND):
    """percentile(), refusing a tail that fewer than `min_beyond` samples
    lie beyond."""
    value, beyond, count = percentile(samples, q)
    if beyond < min_beyond:
        raise MetricError(
            "p%g over %d samples leaves %d beyond it; at least %d needed"
            % (float(q) * 100, count, beyond, min_beyond))
    return value, beyond, count


def median(values):
    """Median of `values` (mean of the middle two for an even count)."""
    if not values:
        raise MetricError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def failed_frac(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing
    counts as wholly failed."""
    if attempted < 0 or failed < 0:
        raise MetricError("negative operation count")
    if failed > attempted:
        raise MetricError("failed %d > attempted %d" % (failed, attempted))
    if attempted == 0:
        return 1.0
    return failed / attempted


def covered_length(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`, each a
    (start, end) pair; overlaps are counted once, parts outside are cut."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals)
    covered = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return covered


def self_time(span, children):
    """A span's duration minus the part of it its children cover. Spans
    are dicts with start_ns and end_ns; children may nest or overlap (pool
    threads run sibling spans at the same time)."""
    covered = covered_length(span["start_ns"], span["end_ns"],
                             [(c["start_ns"], c["end_ns"]) for c in children])
    return span["end_ns"] - span["start_ns"] - covered


def duration_s(span):
    return (span["end_ns"] - span["start_ns"]) * 1e-9


def children_by_parent(spans):
    out = {}
    for s in spans:
        out.setdefault(s["parent"], []).append(s)
    return out


def span_summary(spans):
    """Per span name: count, total seconds and self seconds."""
    kids = children_by_parent(spans)
    summary = {}
    for s in spans:
        row = summary.setdefault(s["name"],
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration_s(s)
        row["self_s"] += self_time(s, kids.get(s["id"], [])) * 1e-9
    return summary


def batch_stats(spans, batch_name, op_name, ops_per_batch, threads):
    """Pool accounting over complete batches (an exhibit of sweep tasks, or
    a pass of serial jobs or slices on one thread).

    For each batch with all its ops: busy = sum of op durations, idle =
    threads * wall - busy, longest op, and the lower bound on the batch's
    wall time, max(longest op, busy / threads). Returns medians over the
    batches, or None when no batch is complete.
    """
    kids = children_by_parent(spans)
    rows = []
    for b in spans:
        if b["name"] != batch_name:
            continue
        ops = [duration_s(c) for c in kids.get(b["id"], [])
               if c["name"] == op_name]
        if len(ops) != ops_per_batch:
            continue
        wall = duration_s(b)
        busy = sum(ops)
        merge = sum(duration_s(c) for c in kids.get(b["id"], [])
                    if c["name"] == "stats.merge")
        rows.append({
            "busy_frac": busy / (threads * wall),
            "idle_s": threads * wall - busy,
            "longest_task_s": max(ops),
            "lower_bound_s": max(max(ops), busy / threads),
            "merge_s": merge,
            "wall_s": wall,
        })
    if not rows:
        return None
    return {k: median([r[k] for r in rows]) for k in rows[0]}


def fnv1a64(counts):
    """FNV-1a over "name=value" lines of `counts`, sorted by name, so two
    runs that did the same work print the same fingerprint."""
    h = 0xcbf29ce484222325
    for name in sorted(counts):
        for byte in ("%s=%r\n" % (name, counts[name])).encode():
            h ^= byte
            h = (h * 0x100000001b3) & 0xffffffffffffffff
    return "%016x" % h
