#!/usr/bin/env bash
# Builds and runs the fixed-workload harnesses, one BENCH file each:
#   - datapath_regression -> BENCH_datapath.json (N=40 repeatability gate,
#                                                 per-phase profile)
#   - soak_impairment     -> BENCH_soak.json     (fault-profile sweep)
#   - fabric_scale        -> BENCH_fabric.json   (topologies+partitioning)
#   - soak_churn          -> BENCH_churn.json    (flow churn + checkpoint)
#   - scale_large_n       -> BENCH_scale.json    (incast up to N=12,000)
#   - exhibits            -> BENCH_exhibits.json (every paper exhibit: wall
#                                                 time, per-claim verdicts)
# and records one manifest row per bench (wall-clock seconds, peak RSS,
# commit) in BENCH_manifest.json, stamped with the hardware it ran on.
# Every harness exits nonzero when one of its gates fails, which fails
# this script too; nothing is retried. Wall time between commits is
# compared by interleaved perfbench runs (DESIGN.md Sec. 7), not by
# diffing these files.
#
# A manifest recorded from a tree with uncommitted changes is not a
# baseline — its rows can't be reproduced from any commit — so a dirty
# tree aborts the run unless --allow-dirty is given explicitly (the rows
# then carry "dirty": true for downstream tooling to discount).
#
# Usage: scripts/perf_regression.sh [--allow-dirty] [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
allow_dirty=false
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --allow-dirty) allow_dirty=true ;;
    *) build_dir="$arg" ;;
  esac
done
[ -n "$build_dir" ] || build_dir="$repo_root/build"

# Code identity for the manifest rows: which commit produced these numbers,
# and whether the tree carried uncommitted changes on top of it.
git_commit="$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty=false
if [ -n "$(git -C "$repo_root" status --porcelain 2>/dev/null)" ]; then
  git_dirty=true
fi
if [ "$git_dirty" = true ] && [ "$allow_dirty" != true ]; then
  echo "perf_regression: working tree is dirty — a baseline must be" >&2
  echo "reproducible from a commit. Commit first, or pass --allow-dirty" >&2
  echo "to record anyway (rows will be marked \"dirty\": true)." >&2
  exit 1
fi

# No explicit build type: the top-level CMakeLists defaults to
# RelWithDebInfo, and an existing build dir keeps its configuration.
benches=(datapath_regression soak_impairment fabric_scale soak_churn
  scale_large_n exhibits)
outputs=(BENCH_datapath.json BENCH_soak.json BENCH_fabric.json
  BENCH_churn.json BENCH_scale.json BENCH_exhibits.json)
cmake -S "$repo_root" -B "$build_dir" >/dev/null
cmake --build "$build_dir" --target "${benches[@]}" -j >/dev/null

# Runs each bench in a python3 parent that records the child's wall clock
# and peak RSS (ru_maxrss, KiB) as one manifest row. Every harness writes
# its JSON to the path it is given, except the exhibits driver, which
# prints its report to stdout (kept in the build dir and converted below).
manifest_rows=()
hw_counters="unavailable"
for i in "${!benches[@]}"; do
  name="${benches[$i]}"
  out="$repo_root/${outputs[$i]}"
  cmd=("$build_dir/bench/$name" "$out")
  log=-
  if [ "$name" = exhibits ]; then
    cmd=("$build_dir/bench/$name")
    log="$build_dir/exhibits.log"
  fi
  read -r wall rss < <(python3 - "$log" "${cmd[@]}" <<'EOF'
import resource, subprocess, sys, time
t0 = time.monotonic()
log = sys.stderr if sys.argv[1] == "-" else open(sys.argv[1], "w")
rc = subprocess.call(sys.argv[2:], stdout=log)
wall = time.monotonic() - t0
rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(f"{wall:.3f} {rss_kib}" if rc == 0 else "fail fail")
EOF
  )
  if [ "$wall" = fail ]; then
    echo "perf_regression: $name failed its gates" >&2
    exit 1
  fi
  if [ "$name" = datapath_regression ]; then
    # Hardware-counter availability: read back what the datapath harness
    # probed (perf_event_open succeeds or degrades per container), so a
    # manifest diff shows whether two runs had the same observability.
    # "unavailable" is normal in unprivileged containers and in
    # non-profile builds.
    hw_counters="$(python3 - "$out" <<'EOF'
import json, sys
hw = json.load(open(sys.argv[1]))["hw_counters"]
if hw["available"]:
    print("per_phase" if hw["per_phase"] else "totals_only")
else:
    print("unavailable")
EOF
)"
  fi
  if [ "$name" = exhibits ]; then
    # One entry per claim line "PASS|FAIL <exhibit>.<claim>: <lhs> vs <rhs>"
    # and per timing line "[<exhibit>] <s> s". The 17 per-exhibit binaries
    # the driver replaced took 21.05 s run one after another at their own
    # defaults (1-3 seeds) on the 4-vCPU Xeon VM at commit b1666b6; that
    # figure stays in the file as the reference for the driver's wall time.
    python3 - "$log" "$out" "$wall" <<'EOF'
import json, re, sys
claims, exhibit_seconds, seeds = [], {}, None
for line in open(sys.argv[1]):
    m = re.match(r"(PASS|FAIL) ([^.\s]+)\.(\S+): (.+) vs (.+)$", line)
    if m:
        claims.append({"exhibit": m[2], "claim": m[3], "verdict": m[1],
                       "lhs": m[4], "rhs": m[5]})
    m = re.match(r"\[(\S+)\] ([\d.]+) s$", line)
    if m:
        exhibit_seconds[m[1]] = float(m[2])
    m = re.match(r"exhibits: .* (\d+) seeds each", line)
    if m:
        seeds = int(m[1])
json.dump({"seeds": seeds, "wall_seconds": float(sys.argv[3]),
           "replaced_binaries_wall_seconds": 21.05,
           "exhibit_seconds": exhibit_seconds,
           "claims_failed": sum(c["verdict"] == "FAIL" for c in claims),
           "claims": claims}, open(sys.argv[2], "w"), indent=2)
EOF
  fi
  manifest_rows+=("    {\"bench\": \"$name\", \"output\": \"${outputs[$i]}\", \"wall_seconds\": $wall, \"peak_rss_kib\": $rss, \"commit\": \"$git_commit\", \"dirty\": $git_dirty}")
  echo "[$name] wall=${wall}s peak_rss=${rss}KiB -> ${outputs[$i]}"
done
echo "hw counters: $hw_counters"

# Machine identity for honest cross-run comparison: a timing diff between
# two manifests only means something when cores, CPU model, and frequency
# governor match. Both probes are best-effort (containers often hide
# cpufreq; non-x86 may lack "model name").
cpu_model="$(awk -F': ' '/model name/{print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$cpu_model" ] || cpu_model="unknown"
governor="$(cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_governor 2>/dev/null || true)"
[ -n "$governor" ] || governor="unknown"

manifest="$repo_root/BENCH_manifest.json"
{
  echo "{"
  echo "  \"hardware_threads\": $(nproc),"
  echo "  \"cpu_model\": \"$cpu_model\","
  echo "  \"cpu_governor\": \"$governor\","
  echo "  \"hw_counters\": \"$hw_counters\","
  echo "  \"commit\": \"$git_commit\","
  echo "  \"dirty\": $git_dirty,"
  echo "  \"benches\": ["
  last=$((${#manifest_rows[@]} - 1))
  for i in "${!manifest_rows[@]}"; do
    if [ "$i" -lt "$last" ]; then
      echo "${manifest_rows[$i]},"
    else
      echo "${manifest_rows[$i]}"
    fi
  done
  echo "  ]"
  echo "}"
} >"$manifest"
echo "Wrote $manifest"
