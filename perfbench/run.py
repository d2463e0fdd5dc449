#!/usr/bin/env python3
"""dctcpp benchmark: one command, four workloads, host time only.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench_harness (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. Each run
checks the harness's outputs, prints a report line with the full envelope
and then, as the last line, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the spans go to
<build>/out/spans-<workload>-<seed>.jsonl. The exit code is 0 only when
every correctness gate held. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("incast_n40", "incast_n1400_plus", "churn_k8", "fig07_sweep")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Span names read back from the span file.
SPAN_MEDIANS = {
    "workload.churn.build_s": "workload.churn.build",
    "workload.churn.prewarm_s": "workload.churn.prewarm",
    "sim.checkpoint.save_s": "sim.checkpoint.save",
    "sim.checkpoint.restore_s": "sim.checkpoint.restore",
    "sim.checkpoint.fingerprint_s": "sim.checkpoint.fingerprint",
}

# Exact counts reported as per-layer metrics (0 where the workload does
# not exercise the layer).
COUNT_METRICS = (
    "sim.events", "net.pkt_hops", "net.drops", "net.ecn_marks",
    "tcp.timeouts", "tcp.floss_timeouts", "tcp.lack_timeouts",
    "tcp.fast_retx", "core.at_min_ece_rounds", "workload.rounds",
    "workload.churn.flows_completed", "workload.churn.peak_live",
)


def fail_setup(message):
    """Exit without a result: the benchmark cannot run here."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_selftests(verbosity=0):
    suite = unittest.defaultTestLoader.loadTestsFromName("test_metrics")
    result = unittest.TextTestRunner(stream=sys.stderr,
                                     verbosity=verbosity).run(suite)
    return result.wasSuccessful()


def build_harness(root):
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    build = target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build), "-j", jobs,
                  "--target", "perfbench_harness"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            fail_setup("build step failed: " + " ".join(cmd))
    return build


def source_digest(root):
    """sha256 over the library and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_state(root):
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None, None
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return head.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_harness(build, args, spans_path):
    cmd = [str(build / "perfbench_harness"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=HARNESS_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return None, "harness exceeded %d s" % HARNESS_TIMEOUT_S
    if done.returncode != 0:
        return None, "harness exited with %d" % done.returncode
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "harness printed no JSON result"


def end_to_end(raw, failures):
    """The end-to-end metrics, from the untraced phase."""
    u = raw["untraced"]
    out = {}
    try:
        p50, _, n = metrics.percentile(u["op_ms"], 0.5)
        p90, beyond, _ = metrics.tail_percentile(u["op_ms"], 0.9)
    except metrics.MetricError as e:
        failures.append(str(e))
        return None, {}
    if u["timed_s"] <= 0 or not u["setup_s"]:
        failures.append("nothing was timed")
        return None, {}
    out["setup_s"] = (metrics.median(u["setup_s"]), "s")
    out["pkt_hops_per_s"] = (u["pkt_hops"] / u["timed_s"], "1/s")
    out["op_ms_p50"] = (p50, "ms")
    out["op_ms_p90"] = (p90, "ms")
    out["peak_rss_mib"] = (raw["peak_rss_kib"] / 1024.0, "MiB")
    detail = {"op_count": n, "op_beyond_p90": beyond}
    # The same numbers under the names each workload's operation goes by.
    w = raw["workload"]
    if w.startswith("incast"):
        detail.update(job_ms_p50=p50, job_ms_p90=p90)
    elif w == "churn_k8":
        detail.update(slice_ms_p50=p50, slice_ms_p90=p90)
        if u["checkpoint_s"]:
            detail["checkpoint_s"] = metrics.median(u["checkpoint_s"])
    elif w == "fig07_sweep":
        detail["exhibit_s"] = p50 / 1e3
    return out, detail


def per_layer(raw, spans, failures):
    """The per-layer metrics: exact counts, probes and span times."""
    u, t = raw["untraced"], raw["traced"]
    if u["counts"] != t["counts"]:
        failures.append("traced exact counts differ from untraced: %s vs %s"
                        % (t["counts"], u["counts"]))
    c = u["counts"]
    out = {}
    for name in COUNT_METRICS:
        out[name] = (c.get(name, 0), "count")
    hops = c.get("net.pkt_hops", 0)
    out["sim.events_per_hop"] = (c.get("sim.events", 0) / hops if hops else 0,
                                 "ratio")
    out["workload.churn.bytes_per_flow"] = (
        c.get("workload.churn.bytes_per_flow", 0), "B")
    out["sim.checkpoint.mib"] = (c.get("sim.checkpoint.bytes", 0) / 2**20,
                                 "MiB")
    for name, value in raw["probes"].items():
        out[name] = (value, "ns")
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(metrics.duration_s(s))
    for metric, span_name in SPAN_MEDIANS.items():
        values = by_name.get(span_name)
        out[metric] = (metrics.median(values) if values else 0.0, "s")
    pool = metrics.batch_stats(spans, raw["batch_span"], raw["op_span"],
                               raw["ops_per_batch"], raw["workers"])
    if pool is None:
        failures.append("no complete traced batch of %s spans"
                        % raw["batch_span"])
        pool = {"busy_frac": 0.0, "idle_s": 0.0, "longest_task_s": 0.0,
                "lower_bound_s": 0.0, "merge_s": 0.0}
    out["util.pool.busy_frac"] = (pool["busy_frac"], "frac")
    out["util.pool.idle_s"] = (pool["idle_s"], "s")
    out["workload.sweep.longest_task_s"] = (pool["longest_task_s"], "s")
    out["workload.sweep.lower_bound_s"] = (pool["lower_bound_s"], "s")
    out["stats.merge_s"] = (pool["merge_s"], "s")
    out["trace.overhead_frac"] = (
        statistics.fmean(t["op_ms"]) / statistics.fmean(u["op_ms"]) - 1.0,
        "frac")
    return out


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the arithmetic self-tests and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return 0 if run_selftests(verbosity=2) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail_setup("no dctcpp sources at %s; run from a full checkout"
                   % (root / "src"))
    if not run_selftests():
        fail_setup("self-tests of the benchmark's arithmetic failed")

    build = build_harness(root)
    out_dir = build / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / ("spans-%s-%d.jsonl" % (args.workload, args.seed))
    raw, error = run_harness(build, args, spans_path)
    if raw is None:
        fail_setup(error)

    failures = list(raw["untraced"]["failures"])
    attempted = raw["untraced"]["attempted"]
    failed = raw["untraced"]["failed"]
    if args.trace:
        failures += raw["traced"]["failures"]
        attempted += raw["traced"]["attempted"]
        failed += raw["traced"]["failed"]
    harness_failures = len(failures)

    e2e, detail = end_to_end(raw, failures)
    spans = []
    if args.trace:
        spans = read_spans(spans_path)
        chosen = per_layer(raw, spans, failures)
    else:
        chosen = e2e
    # A failed gate of the benchmark itself counts as one failed operation.
    if len(failures) > harness_failures:
        failed += len(failures) - harness_failures
        attempted += len(failures) - harness_failures
    attempted = max(attempted, failed, 1)
    correct = not failures and failed == 0 and chosen is not None
    if chosen is None:
        chosen = {}

    commit, dirty = git_state(root)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": commit,
        "dirty": dirty,
        "source_sha256": source_digest(root),
        "build": raw["build"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pool_threads": raw["pool_threads"],
        "workers": raw["workers"],
        "fingerprint": metrics.fnv1a64(raw["untraced"]["counts"]),
        "counts": raw["untraced"]["counts"],
        "failed_frac": metrics.failed_frac(attempted, failed),
        "failures": failures,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in (e2e or {}).items()},
        "detail": detail,
    }
    if args.trace:
        report["spans_file"] = str(spans_path.relative_to(root)) \
            if spans_path.is_relative_to(root) else str(spans_path)
        report["span_summary"] = metrics.span_summary(spans)
        report["probe_shape"] = raw["probe_shape"]
    report_path = out_dir / ("report-%s-%d-trace%d.json"
                             % (args.workload, args.seed, args.trace))
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
