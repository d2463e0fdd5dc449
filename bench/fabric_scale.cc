// Fabric-scale harness: topology subsystem + shard-aware partitioning,
// measured and gated. Produces BENCH_fabric.json (scripts/
// perf_regression.sh wires it into BENCH_manifest.json).
//
// Sections and gates (every gate exits nonzero on failure):
//
//  1. Strategy x shard matrix — one fat-tree permutation (k = 16 full,
//     k = 4 smoke) run under every partition strategy {random, pod,
//     min_cut} x shards {1, 2, 4, 8}, plus a pooled run and a pruning-off
//     run. Gate: ONE fingerprint across the whole matrix (partitioning
//     may only change scheduling, never results) and zero invariant
//     violations. Sync-round gate: the pod S = 4 run, inline and pooled,
//     crosses exactly 138 barriers (smoke: 95) — the fixed-W count the
//     one window rule reproduces on uniform link delays. Parallelism
//     gate: the pod S = 4 run's available parallelism, events / the sum
//     over windows of the busiest shard's events (exact, so free of host
//     noise), is >= 3.7 (smoke: 2.5); it measured 3.778 (2.503). The
//     matrix rows with S > 1 run inline with no pool, so their wall column
//     measures sharding overhead, not speedup.
//  1b. Multicore speedup (full mode only) — the k = 16 matrix run at S = 1
//     inline vs S = 4 on a 3-thread pool, interleaved, median of 5 each,
//     timing RunUntil alone (FabricRunResult::run_seconds; setup is
//     excluded). Gate: >= 1.5x when the machine has >= 4 hardware
//     threads; on fewer the JSON reports "speedup": null rather than a
//     core-starved ratio. The JSON also splits the median pooled run's
//     RunUntil per shard into busy, barrier-wait and merge seconds (and
//     the median serial run's busy seconds), so a low reading shows
//     whether the shards ran slowly or waited on the gang.
//  2. Cross-shard fraction gate — at S = 4, pod or min-cut must carry a
//     >= 3x (smoke: 1.2x) smaller fraction of calendar deliveries across
//     shards than random. This is the point of topology-aware
//     partitioning: conservative sync cost scales with cross traffic.
//  3. Pruning showcase — incast rows aligned with pods under the pod
//     strategy: every off-diagonal shard pair must be pruned (12 of 12
//     at S = 4), cross_shard_handoffs must be exactly zero, and the run
//     must be exactly 1 sync round.
//  4. Dragonfly determinism — minimal and Valiant routing, shards
//     {1, 2, 4}: one fingerprint per mode, zero violations.
//  5. 50k-host scale (full mode only) — k = 32 fat-tree with 98 hosts
//     per edge (50,176 hosts). Gates: compact routing tables stay under
//     64 bytes/node (a dense route vector would be ~200 KB per switch,
//     ~260 MB fabric-wide), and both the permutation and the
//     2048-fan-in incast-row sweep complete with zero violations.
//     DCTCP+ vs DCTCP FCT/goodput is recorded for both workloads.
//
// Usage: fabric_scale [--smoke] [output.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/connection_matrix.h"

namespace dctcpp {
namespace {

double Now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

unsigned long long Ull(std::uint64_t v) {
  return static_cast<unsigned long long>(v);
}

// --- sections --------------------------------------------------------------

struct MatrixPoint {
  const char* strategy;
  int shards;
  double wall_s = 0.0;
  double cross_fraction = 0.0;
  std::uint64_t cross_handoffs = 0;
  std::uint64_t sync_rounds = 0;
  /// events / critical_events: exact available parallelism.
  double parallelism = 0.0;
  int pruned_pairs = 0;
  std::uint64_t fingerprint = 0;
};

/// The run with the median RunUntil time (an odd count of runs).
FabricRunResult MedianRun(std::vector<FabricRunResult> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const FabricRunResult& a, const FabricRunResult& b) {
              return a.run_seconds < b.run_seconds;
            });
  return runs[runs.size() / 2];
}

bool CheckRun(const char* what, const FabricRunResult& r, bool* ok) {
  bool good = true;
  if (r.invariant_violations != 0) {
    std::fprintf(stderr, "fabric_scale: GATE FAIL %s: %llu violations\n",
                 what, Ull(r.invariant_violations));
    good = false;
  }
  if (r.flows_completed != r.flows) {
    std::fprintf(stderr,
                 "fabric_scale: GATE FAIL %s: %d/%d flows completed\n", what,
                 r.flows_completed, r.flows);
    good = false;
  }
  if (!good) *ok = false;
  return good;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  bool ok = true;

  // ---- 1. strategy x shard matrix ----------------------------------------
  const int k = smoke ? 4 : 16;
  FabricRunConfig base;
  base.topo = FabricRunConfig::Topo::kFatTree;
  base.fat_tree.k = k;
  base.pattern = TrafficPattern::kPermutation;
  base.bytes_per_flow = 16 * kKiB;
  base.seed = 1;

  const PartitionStrategy strategies[] = {PartitionStrategy::kRandom,
                                          PartitionStrategy::kPod,
                                          PartitionStrategy::kMinCut};
  std::printf("strategy x shard matrix: fat-tree k=%d permutation...\n", k);
  std::vector<MatrixPoint> points;
  std::uint64_t expected_fp = 0;
  bool have_fp = false;
  for (const PartitionStrategy strategy : strategies) {
    for (const int shards : {1, 2, 4, 8}) {
      FabricRunConfig config = base;
      config.strategy = strategy;
      config.shards = shards;
      const double t0 = Now();
      const FabricRunResult r = RunFabricWorkload(config);
      MatrixPoint p;
      p.strategy = ToString(strategy);
      p.shards = shards;
      p.wall_s = Now() - t0;
      p.cross_fraction = r.cross_shard_fraction;
      p.cross_handoffs = r.cross_shard_handoffs;
      p.sync_rounds = r.sync_rounds;
      p.parallelism = static_cast<double>(r.events) /
                      static_cast<double>(r.critical_events);
      p.pruned_pairs = r.pruned_pairs;
      p.fingerprint = Fingerprint(r);
      points.push_back(p);
      CheckRun(p.strategy, r, &ok);
      if (!have_fp) {
        expected_fp = p.fingerprint;
        have_fp = true;
      }
      if (p.fingerprint != expected_fp) {
        std::fprintf(stderr,
                     "fabric_scale: GATE FAIL %s S=%d: fingerprint "
                     "diverged from matrix\n",
                     p.strategy, shards);
        ok = false;
      }
      std::printf("  %-7s S=%d: cross=%.3f sync_rounds=%llu "
                  "parallelism=%.3f (%.2fs)\n",
                  p.strategy, shards, p.cross_fraction, Ull(p.sync_rounds),
                  p.parallelism, p.wall_s);
    }
  }
  // Same run, different engine knobs: pool, no pruning. The pod S = 4
  // run must cross exactly the recorded number of barriers in each.
  ThreadPool pool(3);
  const std::uint64_t expected_rounds = smoke ? 95 : 138;
  const double min_parallelism = smoke ? 2.5 : 3.7;
  std::uint64_t rounds_inline = 0;
  double parallelism = 0.0;
  for (const MatrixPoint& p : points) {
    if (p.shards == 4 && std::strcmp(p.strategy, "pod") == 0) {
      rounds_inline = p.sync_rounds;
      parallelism = p.parallelism;
    }
  }
  std::printf("available parallelism pod S=4: %.3f (need >= %.1f)\n",
              parallelism, min_parallelism);
  if (parallelism < min_parallelism) {
    std::fprintf(stderr,
                 "fabric_scale: GATE FAIL: pod S=4 available parallelism "
                 "%.3f < %.1f\n",
                 parallelism, min_parallelism);
    ok = false;
  }
  std::uint64_t rounds_pooled = 0;
  std::uint64_t rounds_unpruned = 0;
  {
    FabricRunConfig config = base;
    config.strategy = PartitionStrategy::kPod;
    config.shards = 4;
    config.shard_pool = &pool;
    const FabricRunResult pooled = RunFabricWorkload(config);
    config.shard_pool = nullptr;
    config.prune_channels = false;
    const FabricRunResult unpruned = RunFabricWorkload(config);
    if (Fingerprint(pooled) != expected_fp ||
        Fingerprint(unpruned) != expected_fp) {
      std::fprintf(stderr,
                   "fabric_scale: GATE FAIL: pooled/unpruned run diverged "
                   "from matrix\n");
      ok = false;
    }
    rounds_pooled = pooled.sync_rounds;
    rounds_unpruned = unpruned.sync_rounds;
  }
  std::printf("sync rounds pod S=4: inline %llu, pooled %llu, unpruned %llu "
              "(need exactly %llu)\n",
              Ull(rounds_inline), Ull(rounds_pooled), Ull(rounds_unpruned),
              Ull(expected_rounds));
  if (rounds_inline != expected_rounds || rounds_pooled != expected_rounds ||
      rounds_unpruned != expected_rounds) {
    std::fprintf(stderr,
                 "fabric_scale: GATE FAIL: pod S=4 sync rounds differ from "
                 "%llu\n",
                 Ull(expected_rounds));
    ok = false;
  }

  // ---- 1b. multicore speedup (full mode only) ----------------------------
  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const double min_speedup = 1.5;
  double serial_s = 0.0;
  double pooled_s = 0.0;
  double serial_busy_s = 0.0;
  std::vector<ShardTimes> pooled_split;
  bool speedup_measured = false;
  if (!smoke) {
    constexpr int kReps = 5;
    std::vector<FabricRunResult> serial_runs;
    std::vector<FabricRunResult> pooled_runs;
    FabricRunConfig config = base;
    config.strategy = PartitionStrategy::kPod;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const int shards : {1, 4}) {
        config.shards = shards;
        config.shard_pool = shards > 1 ? &pool : nullptr;
        const FabricRunResult r = RunFabricWorkload(config);
        (shards > 1 ? pooled_runs : serial_runs).push_back(r);
        if (Fingerprint(r) != expected_fp) {
          std::fprintf(stderr,
                       "fabric_scale: GATE FAIL: timed S=%d run diverged "
                       "from matrix\n",
                       shards);
          ok = false;
        }
      }
    }
    const FabricRunResult serial = MedianRun(std::move(serial_runs));
    const FabricRunResult pooled = MedianRun(std::move(pooled_runs));
    serial_s = serial.run_seconds;
    pooled_s = pooled.run_seconds;
    serial_busy_s = serial.shard_times[0].busy_s;
    pooled_split = pooled.shard_times;
    speedup_measured = hardware_threads >= 4;
    std::printf("speedup k=%d (RunUntil): S=1 inline %.3fs, S=4 on 3 "
                "threads %.3fs (%.2fx, %u hardware threads, need >= "
                "%.1fx)\n",
                k, serial_s, pooled_s, serial_s / pooled_s, hardware_threads,
                min_speedup);
    std::printf("  S=1 busy %.3fs\n", serial_busy_s);
    for (std::size_t i = 0; i < pooled_split.size(); ++i) {
      std::printf("  S=4 shard %zu: busy %.3fs, barrier wait %.3fs, "
                  "merge %.3fs\n",
                  i, pooled_split[i].busy_s, pooled_split[i].wait_s,
                  pooled_split[i].merge_s);
    }
    if (speedup_measured && serial_s < min_speedup * pooled_s) {
      std::fprintf(stderr,
                   "fabric_scale: GATE FAIL: pooled S=4 speedup %.2fx < "
                   "%.1fx\n",
                   serial_s / pooled_s, min_speedup);
      ok = false;
    }
  }

  // ---- 2. cross-shard fraction gate at S = 4 -----------------------------
  double cross_random = 0.0, cross_pod = 0.0, cross_mincut = 0.0;
  for (const MatrixPoint& p : points) {
    if (p.shards != 4) continue;
    if (std::strcmp(p.strategy, "random") == 0) cross_random = p.cross_fraction;
    if (std::strcmp(p.strategy, "pod") == 0) cross_pod = p.cross_fraction;
    if (std::strcmp(p.strategy, "min_cut") == 0) cross_mincut = p.cross_fraction;
  }
  const double best_cross = std::min(cross_pod, cross_mincut);
  // A structured strategy sending NOTHING across shards would be a ratio
  // of infinity; report it as random/epsilon-clamped instead.
  const double best_ratio = cross_random / std::max(best_cross, 1e-9);
  const double min_ratio = smoke ? 1.2 : 3.0;
  std::printf(
      "cross-shard fraction S=4: random=%.3f pod=%.3f min_cut=%.3f "
      "(best %.1fx vs random, need >= %.1fx)\n",
      cross_random, cross_pod, cross_mincut, best_ratio, min_ratio);
  if (best_ratio < min_ratio) {
    std::fprintf(stderr,
                 "fabric_scale: GATE FAIL: best cross-fraction ratio "
                 "%.2fx < %.2fx\n",
                 best_ratio, min_ratio);
    ok = false;
  }

  // ---- 3. pruning showcase: pod-aligned incast rows ----------------------
  FabricRunConfig rows_config = base;
  rows_config.pattern = TrafficPattern::kIncastRows;
  rows_config.row_size = (k / 2) * (k / 2);  // = hosts_per_pod
  rows_config.fan_in = std::max(1, rows_config.row_size / 2);
  rows_config.strategy = PartitionStrategy::kPod;
  rows_config.shards = 4;
  const FabricRunResult rows = RunFabricWorkload(rows_config);
  CheckRun("incast_rows", rows, &ok);
  std::printf(
      "pruning showcase (pod-aligned rows, S=4): pruned_pairs=%d "
      "cross_handoffs=%llu sync_rounds=%llu\n",
      rows.pruned_pairs, Ull(rows.cross_shard_handoffs),
      Ull(rows.sync_rounds));
  if (rows.pruned_pairs != 12 || rows.cross_shard_handoffs != 0 ||
      rows.sync_rounds != 1) {
    std::fprintf(stderr,
                 "fabric_scale: GATE FAIL: expected 12 pruned pairs, 0 "
                 "cross handoffs and 1 sync round, got %d, %llu and %llu\n",
                 rows.pruned_pairs, Ull(rows.cross_shard_handoffs),
                 Ull(rows.sync_rounds));
    ok = false;
  }

  // ---- 4. dragonfly determinism ------------------------------------------
  std::uint64_t dfly_fp[2] = {0, 0};
  for (const bool valiant : {false, true}) {
    FabricRunConfig config;
    config.topo = FabricRunConfig::Topo::kDragonfly;
    if (smoke) {
      config.dragonfly.routers_per_group = 2;
      config.dragonfly.hosts_per_router = 2;
      config.dragonfly.global_links_per_router = 1;  // g = 3, 12 hosts
    } else {
      config.dragonfly.routers_per_group = 4;
      config.dragonfly.hosts_per_router = 2;
      config.dragonfly.global_links_per_router = 2;  // g = 9, 72 hosts
    }
    config.dragonfly.valiant = valiant;
    config.pattern = TrafficPattern::kPermutation;
    config.bytes_per_flow = 16 * kKiB;
    std::uint64_t fp = 0;
    bool have = false;
    for (const int shards : {1, 2, 4}) {
      FabricRunConfig c = config;
      c.shards = shards;
      const FabricRunResult r = RunFabricWorkload(c);
      CheckRun(valiant ? "dragonfly_valiant" : "dragonfly_minimal", r, &ok);
      if (!have) {
        fp = Fingerprint(r);
        have = true;
      } else if (Fingerprint(r) != fp) {
        std::fprintf(stderr,
                     "fabric_scale: GATE FAIL dragonfly %s S=%d: "
                     "fingerprint diverged\n",
                     valiant ? "valiant" : "minimal", shards);
        ok = false;
      }
    }
    dfly_fp[valiant ? 1 : 0] = fp;
    std::printf("dragonfly %s: shards {1,2,4} identical\n",
                valiant ? "valiant" : "minimal");
  }

  // ---- 5. 50k-host scale (full mode only) --------------------------------
  struct ScaleRow {
    const char* workload;
    const char* protocol;
    double wall_s = 0.0;
    double fct_p50 = 0.0;
    double fct_p99 = 0.0;
    double goodput_mbps = 0.0;
    std::uint64_t events = 0;
  };
  std::vector<ScaleRow> scale_rows;
  int scale_hosts = 0;
  double route_bytes_per_node = 0.0;
  const double max_route_bytes = 64.0;
  if (!smoke) {
    FabricRunConfig big;
    big.topo = FabricRunConfig::Topo::kFatTree;
    big.fat_tree.k = 32;
    big.fat_tree.hosts_per_edge = 98;  // 32 pods x 16 edges x 98 = 50,176
    big.strategy = PartitionStrategy::kPod;
    big.shards = 4;
    big.shard_pool = &pool;
    struct Job {
      const char* workload;
      TrafficPattern pattern;
      Protocol protocol;
    };
    const Job jobs[] = {
        {"permutation", TrafficPattern::kPermutation, Protocol::kDctcpPlus},
        {"permutation", TrafficPattern::kPermutation, Protocol::kDctcp},
        {"incast_2048", TrafficPattern::kIncastRows, Protocol::kDctcpPlus},
        {"incast_2048", TrafficPattern::kIncastRows, Protocol::kDctcp},
    };
    for (const Job& job : jobs) {
      FabricRunConfig config = big;
      config.pattern = job.pattern;
      config.protocol = job.protocol;
      if (job.pattern == TrafficPattern::kIncastRows) {
        // The paper's massive-concurrent-flow regime: 2048 senders per
        // aggregator (rows of 2 pods), small responses, 10 ms min RTO.
        config.row_size = 2 * 16 * 98;  // 3136 = two pods per row
        config.fan_in = 2048;
        config.bytes_per_flow = 2 * kKiB;
        config.min_rto = 10 * kMillisecond;
      }
      const double t0 = Now();
      const FabricRunResult r = RunFabricWorkload(config);
      ScaleRow row;
      row.workload = job.workload;
      row.protocol = ToString(job.protocol);
      row.wall_s = Now() - t0;
      row.fct_p50 = r.fct_ms.Quantile(0.50);
      row.fct_p99 = r.fct_ms.Quantile(0.99);
      row.goodput_mbps = r.goodput_mbps;
      row.events = r.events;
      scale_rows.push_back(row);
      scale_hosts = r.hosts;
      route_bytes_per_node = r.route_bytes_per_node;
      char what[64];
      std::snprintf(what, sizeof what, "50k %s %s", row.workload,
                    row.protocol);
      CheckRun(what, r, &ok);
      std::printf(
          "  50k %-11s %-10s: fct p50=%.2fms p99=%.2fms goodput=%.0f "
          "Mbps (%.1fs wall, %llu events)\n",
          row.workload, row.protocol, row.fct_p50, row.fct_p99,
          row.goodput_mbps, row.wall_s, Ull(row.events));
    }
    std::printf("  50k routing: %.1f bytes/node (gate <= %.0f)\n",
                route_bytes_per_node, max_route_bytes);
    if (route_bytes_per_node > max_route_bytes) {
      std::fprintf(stderr,
                   "fabric_scale: GATE FAIL: %.1f route bytes/node > %.0f "
                   "(compact routing regressed to dense tables?)\n",
                   route_bytes_per_node, max_route_bytes);
      ok = false;
    }
  }

  std::printf("fabric gates: %s\n", ok ? "pass" : "FAIL");

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (!out) {
      std::perror("fabric_scale: fopen");
      return 1;
    }
    std::fprintf(out, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"fabric_gate\": \"%s\",\n", ok ? "pass" : "FAIL");
    std::fprintf(out, "  \"fat_tree_k\": %d,\n", k);
    std::fprintf(out, "  \"matrix\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const MatrixPoint& p = points[i];
      std::fprintf(out,
                   "    {\"strategy\": \"%s\", \"shards\": %d, "
                   "\"cross_shard_fraction\": %.4f, "
                   "\"cross_shard_handoffs\": %llu, \"sync_rounds\": %llu, "
                   "\"parallelism\": %.4f, "
                   "\"pruned_pairs\": %d, \"wall_seconds\": %.3f}%s\n",
                   p.strategy, p.shards, p.cross_fraction,
                   Ull(p.cross_handoffs), Ull(p.sync_rounds), p.parallelism,
                   p.pruned_pairs, p.wall_s,
                   i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"matrix_note\": \"S>1 rows run inline with no pool: "
                 "wall_seconds is sharding overhead, not a speedup\",\n");
    std::fprintf(out,
                 "  \"sync_rounds_pod_s4\": {\"inline\": %llu, "
                 "\"pooled\": %llu, \"unpruned\": %llu, "
                 "\"expected\": %llu},\n",
                 Ull(rounds_inline), Ull(rounds_pooled),
                 Ull(rounds_unpruned), Ull(expected_rounds));
    std::fprintf(out,
                 "  \"parallelism_pod_s4\": {\"parallelism\": %.4f, "
                 "\"min_parallelism\": %.1f},\n",
                 parallelism, min_parallelism);
    if (speedup_measured) {
      std::fprintf(out,
                   "  \"speedup_s4\": {\"timed\": \"RunUntil\", "
                   "\"hardware_threads\": %u, "
                   "\"serial_seconds\": %.3f, \"pooled_seconds\": %.3f, "
                   "\"speedup\": %.2f, \"min_speedup\": %.1f, "
                   "\"serial_busy_seconds\": %.4f, \"pooled_shards\": [",
                   hardware_threads, serial_s, pooled_s, serial_s / pooled_s,
                   min_speedup, serial_busy_s);
      for (std::size_t i = 0; i < pooled_split.size(); ++i) {
        std::fprintf(out,
                     "%s{\"busy_s\": %.4f, \"wait_s\": %.4f, "
                     "\"merge_s\": %.4f}",
                     i > 0 ? ", " : "", pooled_split[i].busy_s,
                     pooled_split[i].wait_s, pooled_split[i].merge_s);
      }
      std::fprintf(out, "]},\n");
    } else {
      std::fprintf(out,
                   "  \"speedup_s4\": {\"hardware_threads\": %u, "
                   "\"speedup\": null, \"min_speedup\": %.1f},\n",
                   hardware_threads, min_speedup);
    }
    std::fprintf(out,
                 "  \"cross_fraction_s4\": {\"random\": %.4f, \"pod\": "
                 "%.4f, \"min_cut\": %.4f, \"best_ratio\": %.2f, "
                 "\"min_ratio\": %.2f},\n",
                 cross_random, cross_pod, cross_mincut, best_ratio,
                 min_ratio);
    std::fprintf(out,
                 "  \"pruning_showcase\": {\"pruned_pairs\": %d, "
                 "\"cross_shard_handoffs\": %llu, \"sync_rounds\": %llu},\n",
                 rows.pruned_pairs, Ull(rows.cross_shard_handoffs),
                 Ull(rows.sync_rounds));
    std::fprintf(out,
                 "  \"dragonfly\": {\"minimal_fingerprint\": \"%016llx\", "
                 "\"valiant_fingerprint\": \"%016llx\"},\n",
                 Ull(dfly_fp[0]), Ull(dfly_fp[1]));
    if (!smoke) {
      std::fprintf(out,
                   "  \"scale_50k\": {\"hosts\": %d, "
                   "\"route_bytes_per_node\": %.2f, \"rows\": [\n",
                   scale_hosts, route_bytes_per_node);
      for (std::size_t i = 0; i < scale_rows.size(); ++i) {
        const ScaleRow& r = scale_rows[i];
        std::fprintf(out,
                     "    {\"workload\": \"%s\", \"protocol\": \"%s\", "
                     "\"fct_p50_ms\": %.3f, \"fct_p99_ms\": %.3f, "
                     "\"goodput_mbps\": %.1f, \"events\": %llu, "
                     "\"wall_seconds\": %.2f}%s\n",
                     r.workload, r.protocol, r.fct_p50, r.fct_p99,
                     r.goodput_mbps, Ull(r.events), r.wall_s,
                     i + 1 < scale_rows.size() ? "," : "");
      }
      std::fprintf(out, "  ]},\n");
    }
    std::fprintf(out, "  \"matrix_fingerprint\": \"%016llx\"\n}\n",
                 Ull(expected_fp));
    std::fclose(out);
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
