// Churn soak: an M/G/inf flow population (workload/churn.h) sustained at
// up to 10^6 concurrent flows, with every correctness gate the
// checkpoint/flight-recorder stack promises armed:
//
//  - Checkpoint matrix: shards {1,2,4,8} x >=2 impairment profiles, plus
//    thread pools {1,2,8} — a run saved mid-soak and resumed on a fresh
//    world must fingerprint bit-identical to the uninterrupted reference.
//  - Mid-soak save/restore on the soak run itself (in-process), and a
//    cross-process kill/restore cycle via `--save` / `--restore`: one
//    invocation checkpoints to a file and exits (the "kill"), a second
//    invocation restores from that file, resumes, and gates the final
//    fingerprint against an uninterrupted in-process reference.
//  - Bounded footprint: MeasureFootprint's bytes-per-flow (materialized
//    socket slots + timer-wheel node and action pools + arenas + host
//    port tables over peak live flows)
//    is gated, so a per-flow allocation regression fails the soak rather
//    than an OOM three hours into a nightly run. The JSON also records the
//    process's peak RSS (getrusage), which covers what the footprint
//    leaves out: per-socket heap, the fabric, and checkpoint blobs.
//  - Zero invariant violations, and peak live >= 80% of the target (the
//    soak actually reached the concurrency it claims to test).
//
// Exit is nonzero if any gate fails. `--inject-violation` is a demo mode:
// it attaches per-shard flight recorders, forges one violation, dumps the
// ring to churn_violation.frbin, and decodes it to stdout — the workflow
// EXPERIMENTS.md prescribes for debugging a real soak failure.
//
// Usage: soak_churn [--smoke|--million] [--inject-violation]
//                   [--save ckpt.bin | --restore ckpt.bin] [output.json]
//   default:  128-host fat-tree, 100k live flows  (perf_regression.sh)
//   --smoke:  16-host fat-tree, 2k live flows     (tier-1 soak ctest)
//   --million: 1024-host fat-tree, 10^6 live flows (nightly)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "dctcpp/util/flight_recorder.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"

namespace dctcpp {
namespace {

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- checkpoint matrix --------------------------------------------------

struct Profile {
  const char* name;
  ImpairmentConfig impairment;
};

std::vector<Profile> MatrixProfiles() {
  ImpairmentConfig lossy;
  lossy.random_loss = 0.005;
  ImpairmentConfig chaos;
  chaos.random_loss = 0.002;
  chaos.reorder_prob = 0.01;
  chaos.duplicate_prob = 0.002;
  chaos.corrupt_prob = 0.001;
  return {{"lossy", lossy}, {"chaos", chaos}};
}

/// Small, fast world for the restore-fidelity matrix (the big soak run
/// has its own save/restore gate below).
ChurnConfig MatrixConfig(int shards, const Profile& profile) {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;  // 16 hosts
  cfg.link.propagation_delay = 2 * kMicrosecond;
  cfg.link.impairment = profile.impairment;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.target_live_flows = 200;
  cfg.mean_lifetime = 2 * kMillisecond;
  cfg.bytes_per_flow = 4 * kKiB;
  cfg.prewarm = 1 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  return cfg;
}

std::vector<Tick> EvenStops(Tick end, int n) {
  std::vector<Tick> stops;
  for (int i = 1; i <= n; ++i) stops.push_back(end * i / n);
  return stops;
}

/// Checkpoint at stops[cut], restore onto a fresh world, resume through
/// the remaining stops; true iff the restored blob round-trips and the
/// final fingerprint matches the uninterrupted reference.
bool ResumeIdentical(const ChurnConfig& cfg, const std::vector<Tick>& stops,
                     std::size_t cut, ThreadPool* pool = nullptr) {
  ChurnWorkload ref(cfg);
  ref.Start();
  for (Tick t : stops) ref.RunTo(t, pool);
  const std::uint64_t want = ref.Fingerprint();

  ChurnWorkload saver(cfg);
  saver.Start();
  for (std::size_t i = 0; i <= cut; ++i) saver.RunTo(stops[i], pool);
  const std::vector<std::uint8_t> blob = saver.SaveCheckpoint();

  ChurnWorkload resumed(cfg);
  resumed.RestoreCheckpoint(blob);
  if (resumed.SaveCheckpoint() != blob) return false;
  for (std::size_t i = cut + 1; i < stops.size(); ++i) {
    resumed.RunTo(stops[i], pool);
  }
  return resumed.Fingerprint() == want;
}

/// Shards x impairment-profiles restore matrix.
bool CheckpointMatrix(bool smoke) {
  const std::vector<Profile> profiles = MatrixProfiles();
  const std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  const std::vector<Tick> stops = EvenStops(6 * kMillisecond, 3);
  bool ok = true;
  for (const int shards : shard_counts) {
    for (std::size_t p = 0; p < profiles.size(); ++p) {
      if (smoke && p > 0) continue;
      const bool cell =
          ResumeIdentical(MatrixConfig(shards, profiles[p]), stops, 1);
      std::fprintf(stderr, "checkpoint matrix [shards=%d %s]: %s\n", shards,
                   profiles[p].name,
                   cell ? "restore bit-identical" : "DIVERGED");
      ok = ok && cell;
    }
  }
  return ok;
}

/// Thread pools {1,2,8} on the sharded world: equal fingerprints across
/// pool sizes, and the restore gate holds under a real pool.
bool PoolGate(bool smoke) {
  const ChurnConfig cfg = MatrixConfig(4, MatrixProfiles()[0]);
  const std::vector<Tick> stops = EvenStops(6 * kMillisecond, 3);
  const std::vector<int> pool_sizes =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 8};

  std::uint64_t want = 0;
  bool have_want = false;
  bool ok = true;
  for (const int threads : pool_sizes) {
    ThreadPool pool(threads);
    ChurnWorkload w(cfg);
    w.Start();
    for (Tick t : stops) w.RunTo(t, &pool);
    if (!have_want) {
      want = w.Fingerprint();
      have_want = true;
    } else if (w.Fingerprint() != want) {
      std::fprintf(stderr, "pool gate: pool=%d DIVERGED\n", threads);
      ok = false;
    }
  }
  {
    ThreadPool pool(pool_sizes.back());
    if (!ResumeIdentical(cfg, stops, 1, &pool)) {
      std::fprintf(stderr, "pool gate: restore under pool DIVERGED\n");
      ok = false;
    }
  }
  std::fprintf(stderr, "pool gate [shards=4 lossy]: %s\n",
               ok ? "bit-identical across pools" : "DIVERGED");
  return ok;
}

// --- the soak itself ----------------------------------------------------

struct SoakScale {
  const char* name;
  ChurnConfig cfg;
  std::vector<Tick> stops;
  std::size_t save_cut;        ///< mid-soak checkpoint barrier index
  bool resume_gate;            ///< full restore-and-resume comparison
  double bytes_per_flow_limit; ///< footprint gate (0 = record only)
};

SoakScale MakeScale(bool smoke, bool million) {
  SoakScale s;
  if (million) {
    // The headline: 1024 hosts, 10^6 live flows. The resume gate would
    // re-run half the soak, so this scale gates the (cheap) blob
    // round-trip instead; full resume fidelity is covered by the matrix
    // above and the default scale.
    s.name = "million";
    s.cfg.fat_tree.k = 16;  // 1024 hosts
    s.cfg.shards = 8;
    s.cfg.target_live_flows = 1000000;
    s.cfg.mean_lifetime = 100 * kMillisecond;
    s.cfg.prewarm = 50 * kMillisecond;
    s.stops = EvenStops(140 * kMillisecond, 7);
    s.save_cut = 3;
    s.resume_gate = false;
    s.bytes_per_flow_limit = 16.0 * 1024;
  } else if (smoke) {
    s.name = "smoke";
    s.cfg.fat_tree.k = 4;  // 16 hosts
    s.cfg.shards = 2;
    s.cfg.target_live_flows = 2000;
    s.cfg.mean_lifetime = 4 * kMillisecond;
    s.cfg.prewarm = 2 * kMillisecond;
    s.cfg.min_rto = 1 * kMillisecond;
    s.stops = EvenStops(12 * kMillisecond, 4);
    s.save_cut = 1;
    s.resume_gate = true;
    s.bytes_per_flow_limit = 0;  // fixed per-shard costs dominate at 2k
  } else {
    s.name = "default";
    s.cfg.fat_tree.k = 8;  // 128 hosts
    s.cfg.shards = 4;
    s.cfg.target_live_flows = 100000;
    // Lifetimes well above the RTO-bound completion tail (min_rto 10ms is
    // the regime's dominant FCT term at this fan-in), so the live
    // population tracks the target instead of pinning at pool capacity.
    s.cfg.mean_lifetime = 50 * kMillisecond;
    s.cfg.prewarm = 25 * kMillisecond;
    s.stops = EvenStops(125 * kMillisecond, 5);
    s.save_cut = 2;
    s.resume_gate = true;
    // 1.5x the 2,295.9 B measured with 48-byte wheel nodes, 840-byte
    // sockets and sparse port tables, so a per-connection regression of
    // half that size fails here.
    s.bytes_per_flow_limit = 3440;
  }
  s.cfg.seed = 1;
  s.cfg.bytes_per_flow = 4 * kKiB;
  s.cfg.link.impairment.random_loss = 0.0005;  // soak under light loss
  // Flows live max(FCT, Exp(L)): under fan-in the live population runs a
  // little above target, so size the pools at 1.6x the per-host mean
  // rather than the default mean + 5 sigma.
  const int hosts =
      (s.cfg.fat_tree.k * s.cfg.fat_tree.k * s.cfg.fat_tree.k) / 4;
  s.cfg.max_live_per_host =
      static_cast<int>((s.cfg.target_live_flows / hosts) * 8 / 5) + 16;
  return s;
}

struct SoakOutcome {
  ChurnStats stats;
  ChurnFootprint footprint;
  double wall_s = 0.0;
  std::size_t blob_bytes = 0;
  bool restore_identical = false;
  bool footprint_pass = true;
  bool peak_pass = true;
};

SoakOutcome RunSoak(const SoakScale& scale) {
  SoakOutcome out;
  const auto t0 = std::chrono::steady_clock::now();

  ChurnWorkload w(scale.cfg);
  w.Start();
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i < scale.stops.size(); ++i) {
    w.RunTo(scale.stops[i]);
    if (i == scale.save_cut) blob = w.SaveCheckpoint();
  }
  out.wall_s = Seconds(t0);
  out.stats = w.Stats();
  out.footprint = w.MeasureFootprint();
  out.blob_bytes = blob.size();

  // Mid-soak save / kill / restore: the saved world is gone (we only kept
  // the blob); a fresh world must pick up where it left off.
  {
    ChurnWorkload resumed(scale.cfg);
    resumed.RestoreCheckpoint(blob);
    if (scale.resume_gate) {
      for (std::size_t i = scale.save_cut + 1; i < scale.stops.size(); ++i) {
        resumed.RunTo(scale.stops[i]);
      }
      out.restore_identical = resumed.Fingerprint() == w.Fingerprint();
    } else {
      out.restore_identical = resumed.SaveCheckpoint() == blob;
    }
  }

  out.peak_pass =
      out.stats.peak_live >= (scale.cfg.target_live_flows * 8) / 10;
  if (scale.bytes_per_flow_limit > 0) {
    out.footprint_pass =
        out.footprint.bytes_per_flow <= scale.bytes_per_flow_limit;
  }
  return out;
}

// --- cross-process kill/restore (`--save` / `--restore`) ----------------

// Both processes bake in the same config and stop schedule; the save-side
// process exits after writing the blob (the "kill"), and the restore-side
// process resumes from the file and gates against an uninterrupted
// reference it runs itself.
ChurnConfig KillRestoreConfig() {
  ChurnConfig cfg = MatrixConfig(2, MatrixProfiles()[0]);
  cfg.seed = 13;
  cfg.target_live_flows = 400;
  return cfg;
}

std::vector<Tick> KillRestoreStops() { return EvenStops(8 * kMillisecond, 8); }
constexpr std::size_t kKillRestoreCut = 3;

int DoSave(const char* path) {
  ChurnWorkload w(KillRestoreConfig());
  w.Start();
  const std::vector<Tick> stops = KillRestoreStops();
  for (std::size_t i = 0; i <= kKillRestoreCut; ++i) w.RunTo(stops[i]);
  const std::vector<std::uint8_t> blob = w.SaveCheckpoint();

  std::FILE* f = std::fopen(path, "wb");
  if (!f || std::fwrite(blob.data(), 1, blob.size(), f) != blob.size()) {
    std::perror("soak_churn: checkpoint write");
    if (f) std::fclose(f);
    return 1;
  }
  std::fclose(f);
  std::fprintf(stderr,
               "soak_churn: saved %zu-byte checkpoint at t=%lld to %s "
               "(live=%lld)\n",
               blob.size(),
               static_cast<long long>(stops[kKillRestoreCut]), path,
               static_cast<long long>(w.live_flows()));
  return 0;
}

int DoRestore(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) {
    std::perror("soak_churn: checkpoint read");
    return 1;
  }
  std::vector<std::uint8_t> blob;
  std::uint8_t buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    blob.insert(blob.end(), buf, buf + n);
  }
  std::fclose(f);

  const std::vector<Tick> stops = KillRestoreStops();
  ChurnWorkload resumed(KillRestoreConfig());
  resumed.RestoreCheckpoint(blob);
  for (std::size_t i = kKillRestoreCut + 1; i < stops.size(); ++i) {
    resumed.RunTo(stops[i]);
  }

  ChurnWorkload ref(KillRestoreConfig());
  ref.Start();
  for (Tick t : stops) ref.RunTo(t);

  const bool ok = resumed.Fingerprint() == ref.Fingerprint();
  std::fprintf(stderr,
               "soak_churn: cross-process restore %s (resumed %016llx, "
               "reference %016llx)\n",
               ok ? "bit-identical" : "DIVERGED",
               static_cast<unsigned long long>(resumed.Fingerprint()),
               static_cast<unsigned long long>(ref.Fingerprint()));
  return ok ? 0 : 1;
}

// --- flight-recorder demo (`--inject-violation`) ------------------------

int InjectViolation() {
  SoakScale scale = MakeScale(/*smoke=*/true, /*million=*/false);
  ChurnWorkload w(scale.cfg);
  std::vector<std::unique_ptr<FlightRecorder>> recorders;
  std::vector<const FlightRecorder*> rings;
  for (int i = 0; i < scale.cfg.shards; ++i) {
    recorders.push_back(std::make_unique<FlightRecorder>(1 << 10));
    w.psim().shard(i).set_flight_recorder(recorders.back().get());
    rings.push_back(recorders.back().get());
  }
  w.Start();
  for (Tick t : scale.stops) w.RunTo(t);

  // Forge the violation a real soak failure would record, then dump the
  // rings exactly as the nightly harness would on a nonzero gate.
  w.psim().shard(0).invariants().Violate(
      "injected", "soak_churn --inject-violation demo");

  const std::string dump = "churn_violation.frbin";
  if (!FlightRecorder::DumpTo(dump, rings)) {
    std::fprintf(stderr, "soak_churn: flight-recorder dump failed\n");
    return 1;
  }
  std::ostringstream decoded;
  if (!FlightRecorder::DecodeFile(dump, decoded) ||
      decoded.str().find("VIOLATION") == std::string::npos) {
    std::fprintf(stderr, "soak_churn: dump did not decode a VIOLATION\n");
    return 1;
  }
  std::fputs(decoded.str().c_str(), stdout);
  std::fprintf(stderr,
               "soak_churn: injected violation; decodable trace at %s "
               "(decode with tools/fr_decode)\n",
               dump.c_str());
  return 0;
}

// --- driver -------------------------------------------------------------

int Main(int argc, char** argv) {
  bool smoke = false;
  bool million = false;
  bool inject = false;
  const char* save_path = nullptr;
  const char* restore_path = nullptr;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--million") == 0) {
      million = true;
    } else if (std::strcmp(argv[i], "--inject-violation") == 0) {
      inject = true;
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_path = argv[++i];
    } else if (std::strcmp(argv[i], "--restore") == 0 && i + 1 < argc) {
      restore_path = argv[++i];
    } else {
      out_path = argv[i];
    }
  }
  if (inject) return InjectViolation();
  if (save_path != nullptr) return DoSave(save_path);
  if (restore_path != nullptr) return DoRestore(restore_path);

  const bool matrix_ok = CheckpointMatrix(smoke);
  const bool pools_ok = PoolGate(smoke);

  const SoakScale scale = MakeScale(smoke, million);
  std::fprintf(stderr, "soak [%s]: target=%lld hosts=%d shards=%d ...\n",
               scale.name,
               static_cast<long long>(scale.cfg.target_live_flows),
               (scale.cfg.fat_tree.k * scale.cfg.fat_tree.k *
                scale.cfg.fat_tree.k) / 4,
               scale.cfg.shards);
  const SoakOutcome soak = RunSoak(scale);

  const ChurnStats& st = soak.stats;
  std::fprintf(
      stderr,
      "soak [%s]: peak_live=%lld started=%llu completed=%llu "
      "dropped=%llu+%llu violations=%llu wall=%.1fs "
      "(%.2fM events/s) bytes/flow=%.0f (scheduler=%zuB ports=%zuB) "
      "peak_rss=%.1fMiB ckpt=%zuB restore=%s\n",
      scale.name, static_cast<long long>(st.peak_live),
      static_cast<unsigned long long>(st.flows_started),
      static_cast<unsigned long long>(st.flows_completed),
      static_cast<unsigned long long>(st.arrivals_dropped),
      static_cast<unsigned long long>(st.accepts_dropped),
      static_cast<unsigned long long>(st.violations), soak.wall_s,
      static_cast<double>(st.events_executed) / soak.wall_s / 1e6,
      soak.footprint.bytes_per_flow, soak.footprint.scheduler_bytes,
      soak.footprint.port_table_bytes, PeakRssMib(), soak.blob_bytes,
      soak.restore_identical ? "bit-identical" : "DIVERGED");

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (!out) {
      std::perror("soak_churn: fopen");
      return 1;
    }
    std::fprintf(out, "{\n  \"scale\": \"%s\",\n", scale.name);
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"target_live_flows\": %lld,\n",
                 static_cast<long long>(scale.cfg.target_live_flows));
    std::fprintf(out, "  \"peak_live\": %lld,\n",
                 static_cast<long long>(st.peak_live));
    std::fprintf(out, "  \"flows_started\": %llu,\n",
                 static_cast<unsigned long long>(st.flows_started));
    std::fprintf(out, "  \"flows_completed\": %llu,\n",
                 static_cast<unsigned long long>(st.flows_completed));
    std::fprintf(out, "  \"arrivals_dropped\": %llu,\n",
                 static_cast<unsigned long long>(st.arrivals_dropped));
    std::fprintf(out, "  \"accepts_dropped\": %llu,\n",
                 static_cast<unsigned long long>(st.accepts_dropped));
    std::fprintf(out, "  \"bytes_received\": %llu,\n",
                 static_cast<unsigned long long>(st.bytes_received));
    std::fprintf(out, "  \"violations\": %llu,\n",
                 static_cast<unsigned long long>(st.violations));
    std::fprintf(out, "  \"events_executed\": %llu,\n",
                 static_cast<unsigned long long>(st.events_executed));
    std::fprintf(out, "  \"packets_forwarded\": %llu,\n",
                 static_cast<unsigned long long>(st.packets_forwarded));
    std::fprintf(out, "  \"soak_wall_s\": %.3f,\n", soak.wall_s);
    std::fprintf(out, "  \"events_per_sec\": %.0f,\n",
                 static_cast<double>(st.events_executed) / soak.wall_s);
    std::fprintf(out, "  \"checkpoint_bytes\": %zu,\n", soak.blob_bytes);
    std::fprintf(out,
                 "  \"footprint\": {\"materialized_slots\": %zu, "
                 "\"pool_bytes\": %zu, "
                 "\"scheduler_bytes\": %zu, \"arena_bytes\": %zu, "
                 "\"port_table_bytes\": %zu, "
                 "\"bytes_per_flow\": %.1f, \"peak_rss_mib\": %.1f, "
                 "\"limit\": %.0f},\n",
                 soak.footprint.materialized_slots, soak.footprint.pool_bytes,
                 soak.footprint.scheduler_bytes, soak.footprint.arena_bytes,
                 soak.footprint.port_table_bytes,
                 soak.footprint.bytes_per_flow, PeakRssMib(),
                 scale.bytes_per_flow_limit);
    std::fprintf(out, "  \"checkpoint_matrix_identical\": %s,\n",
                 matrix_ok ? "true" : "false");
    std::fprintf(out, "  \"pools_identical\": %s,\n",
                 pools_ok ? "true" : "false");
    std::fprintf(out, "  \"soak_restore_identical\": %s,\n",
                 soak.restore_identical ? "true" : "false");
    std::fprintf(out, "  \"footprint_pass\": %s,\n",
                 soak.footprint_pass ? "true" : "false");
    std::fprintf(out, "  \"peak_live_pass\": %s\n}\n",
                 soak.peak_pass ? "true" : "false");
    std::fclose(out);
  }

  bool ok = true;
  if (st.violations != 0) {
    std::fprintf(stderr, "soak_churn: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(st.violations));
    ok = false;
  }
  if (!matrix_ok) {
    std::fprintf(stderr, "soak_churn: checkpoint matrix gate FAILED\n");
    ok = false;
  }
  if (!pools_ok) {
    std::fprintf(stderr, "soak_churn: thread-pool gate FAILED\n");
    ok = false;
  }
  if (!soak.restore_identical) {
    std::fprintf(stderr, "soak_churn: mid-soak restore gate FAILED\n");
    ok = false;
  }
  if (!soak.footprint_pass) {
    std::fprintf(stderr,
                 "soak_churn: bytes-per-flow gate FAILED (%.1f > %.0f)\n",
                 soak.footprint.bytes_per_flow, scale.bytes_per_flow_limit);
    ok = false;
  }
  if (!soak.peak_pass) {
    std::fprintf(stderr,
                 "soak_churn: peak-live gate FAILED (%lld < 80%% of %lld)\n",
                 static_cast<long long>(st.peak_live),
                 static_cast<long long>(scale.cfg.target_live_flows));
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
