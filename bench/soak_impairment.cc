// Impairment soak: sweeps the incast workload across a matrix of network
// fault profiles (Gilbert–Elliott burst loss at ~0.1% and ~1%, reordering,
// corruption, duplication, link flaps, and everything at once) x flow
// counts x {DCTCP, DCTCP+}, with the always-on invariant checker armed.
// The harness fails (exit 1) if any run reports an invariant violation, or
// if the thread-pool determinism gate finds a single bit of divergence
// between pool sizes 1, 2, and 8 on the same seed.
//
// Alongside the correctness gates it records the protocol story: how much
// goodput DCTCP and DCTCP+ each give back as the fault rate grows (the
// EXPERIMENTS.md "impairment appendix" numbers come from this binary).
//
// Usage: soak_impairment [--smoke] [output.json]   (default table: stdout,
// JSON only when a path is given). --smoke trims the profile and flow-count
// matrix so the soak ctest finishes in seconds.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dctcpp/stats/table.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/experiment.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

struct Profile {
  const char* name;
  ImpairmentConfig impairment;
};

/// The fault matrix. Burst profiles hold mean burst length ~3 packets
/// (p_bad_to_good = 0.33) and set p_good_to_bad for a stationary loss rate
/// of ~0.1% and ~1%.
std::vector<Profile> Profiles(bool smoke) {
  std::vector<Profile> profiles;
  profiles.push_back({"clean", {}});

  ImpairmentConfig burst01;
  burst01.ge_p_good_to_bad = 0.00033;
  burst01.ge_p_bad_to_good = 0.33;
  profiles.push_back({"burst01", burst01});

  ImpairmentConfig burst1;
  burst1.ge_p_good_to_bad = 0.0033;
  burst1.ge_p_bad_to_good = 0.33;
  profiles.push_back({"burst1", burst1});

  ImpairmentConfig reorder;
  reorder.reorder_prob = 0.02;
  reorder.reorder_delay_min = 50 * kMicrosecond;
  reorder.reorder_delay_max = 500 * kMicrosecond;
  profiles.push_back({"reorder", reorder});

  ImpairmentConfig corrupt;
  corrupt.corrupt_prob = 0.005;
  profiles.push_back({"corrupt", corrupt});

  ImpairmentConfig duplicate;
  duplicate.duplicate_prob = 0.01;
  profiles.push_back({"dup", duplicate});

  ImpairmentConfig flap;
  flap.flaps = {{10 * kMillisecond, 12 * kMillisecond},
                {40 * kMillisecond, 41 * kMillisecond}};
  profiles.push_back({"flap", flap});

  ImpairmentConfig hostile;
  hostile.ge_p_good_to_bad = 0.001;
  hostile.ge_p_bad_to_good = 0.3;
  hostile.random_loss = 0.001;
  hostile.reorder_prob = 0.005;
  hostile.duplicate_prob = 0.002;
  hostile.corrupt_prob = 0.002;
  profiles.push_back({"hostile", hostile});

  if (smoke) {
    // Keep the endpoints of the severity range plus the structurally
    // distinct faults; drop the middle of the matrix.
    std::vector<Profile> trimmed;
    for (const Profile& p : profiles) {
      if (std::strcmp(p.name, "clean") == 0 ||
          std::strcmp(p.name, "burst1") == 0 ||
          std::strcmp(p.name, "flap") == 0 ||
          std::strcmp(p.name, "hostile") == 0) {
        trimmed.push_back(p);
      }
    }
    return trimmed;
  }
  return profiles;
}

IncastConfig SoakConfig(Protocol protocol, int n, const Profile& profile,
                        int rounds) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = n;
  config.per_flow_bytes = 8 * 1024;  // fixed SRU: burst grows with N
  config.rounds = rounds;
  config.min_rto = 10 * kMillisecond;
  config.seed = 1;
  config.time_limit = 120 * kSecond;
  config.link.impairment = profile.impairment;
  return config;
}

struct SoakPoint {
  std::string profile;
  Protocol protocol{};
  int num_flows = 0;
  double goodput_mbps = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t floss_timeouts = 0;
  std::uint64_t lack_timeouts = 0;
  std::uint64_t violations = 0;
  std::uint64_t originated = 0;
  std::uint64_t dropped = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t checksum_discards = 0;
  bool hit_time_limit = false;
};

/// Bitwise equality over every aggregate the sweep merge produces —
/// EXPECT-free twin of ExpectPointsIdentical in tests/experiment_test.cc.
bool PointsIdentical(const IncastSweepPoint& a, const IncastSweepPoint& b) {
  return a.goodput_mbps.count() == b.goodput_mbps.count() &&
         a.goodput_mbps.sum() == b.goodput_mbps.sum() &&
         a.goodput_mbps.min() == b.goodput_mbps.min() &&
         a.goodput_mbps.max() == b.goodput_mbps.max() &&
         a.rounds == b.rounds && a.timeouts == b.timeouts &&
         a.floss_timeouts == b.floss_timeouts &&
         a.lack_timeouts == b.lack_timeouts && a.events == b.events &&
         a.packets_forwarded == b.packets_forwarded &&
         a.invariant_violations == b.invariant_violations &&
         a.packets_originated == b.packets_originated &&
         a.packets_dropped == b.packets_dropped &&
         a.packets_duplicated == b.packets_duplicated &&
         a.checksum_discards == b.checksum_discards &&
         a.hit_time_limit == b.hit_time_limit;
}

/// Runs the same impaired point on 1-, 2-, and 8-thread pools and demands
/// bit-identical merged results (including exact event and packet counts).
bool DeterminismGate(const IncastConfig& config, const char* label) {
  constexpr int kReps = 3;
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  const IncastSweepPoint serial = RunIncastPoint(config, kReps, pool1);
  const IncastSweepPoint two = RunIncastPoint(config, kReps, pool2);
  const IncastSweepPoint eight = RunIncastPoint(config, kReps, pool8);
  const bool ok =
      PointsIdentical(serial, two) && PointsIdentical(serial, eight);
  std::fprintf(stderr, "determinism gate [%s]: %s\n", label,
               ok ? "bit-identical across pools 1/2/8" : "DIVERGED");
  return ok;
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

  const std::vector<Profile> profiles = Profiles(smoke);
  const std::vector<int> flow_counts =
      smoke ? std::vector<int>{40, 200} : std::vector<int>{40, 200, 1400};
  const int rounds = smoke ? 2 : 3;
  const std::vector<Protocol> protocols = {Protocol::kDctcp,
                                           Protocol::kDctcpPlus};

  std::vector<SoakPoint> points;
  std::uint64_t total_violations = 0;
  Table table({"profile", "protocol", "N", "goodput_mbps", "rounds",
               "timeouts", "floss", "lack", "drops", "cksum", "violations"});
  for (const Profile& profile : profiles) {
    for (const Protocol protocol : protocols) {
      for (const int n : flow_counts) {
        const IncastResult r =
            RunIncast(SoakConfig(protocol, n, profile, rounds));
        SoakPoint p;
        p.profile = profile.name;
        p.protocol = protocol;
        p.num_flows = n;
        p.goodput_mbps = r.goodput_mbps;
        p.rounds = r.rounds_completed;
        p.timeouts = r.timeouts;
        p.floss_timeouts = r.floss_timeouts;
        p.lack_timeouts = r.lack_timeouts;
        p.violations = r.invariant_violations;
        p.originated = r.packets_originated;
        p.dropped = r.packets_dropped;
        p.duplicated = r.packets_duplicated;
        p.checksum_discards = r.checksum_discards;
        p.hit_time_limit = r.hit_time_limit;
        points.push_back(p);
        total_violations += p.violations;
        table.AddRow({p.profile, ToString(protocol), std::to_string(n),
                      Table::Num(p.goodput_mbps, 1), std::to_string(p.rounds),
                      std::to_string(p.timeouts),
                      std::to_string(p.floss_timeouts),
                      std::to_string(p.lack_timeouts),
                      std::to_string(p.dropped),
                      std::to_string(p.checksum_discards),
                      std::to_string(p.violations)});
      }
    }
  }
  table.Print();

  // Thread-pool determinism on the nastiest profile (every fault class
  // active); the full run also gates the mid-severity burst profile.
  bool deterministic = DeterminismGate(
      SoakConfig(Protocol::kDctcp, 40, profiles.back(), rounds),
      "hostile N=40");
  if (!smoke) {
    deterministic =
        DeterminismGate(SoakConfig(Protocol::kDctcpPlus, 200,
                                   profiles[2], rounds),
                        "burst1 N=200") &&
        deterministic;
  }

  if (out_path != nullptr) {
    std::FILE* out = std::fopen(out_path, "w");
    if (!out) {
      std::perror("soak_impairment: fopen");
      return 1;
    }
    std::fprintf(out, "{\n  \"per_flow_bytes\": 8192,\n");
    std::fprintf(out, "  \"rounds\": %d,\n", rounds);
    std::fprintf(out, "  \"determinism_pools_1_2_8\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(out, "  \"points\": [\n");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const SoakPoint& p = points[i];
      std::fprintf(
          out,
          "    {\"profile\": \"%s\", \"protocol\": \"%s\", \"n\": %d, "
          "\"goodput_mbps\": %.1f, \"rounds\": %llu, \"timeouts\": %llu, "
          "\"floss_timeouts\": %llu, \"lack_timeouts\": %llu, "
          "\"violations\": %llu, \"originated\": %llu, \"dropped\": %llu, "
          "\"duplicated\": %llu, \"checksum_discards\": %llu, "
          "\"hit_time_limit\": %s}%s\n",
          p.profile.c_str(), ToString(p.protocol), p.num_flows,
          p.goodput_mbps, static_cast<unsigned long long>(p.rounds),
          static_cast<unsigned long long>(p.timeouts),
          static_cast<unsigned long long>(p.floss_timeouts),
          static_cast<unsigned long long>(p.lack_timeouts),
          static_cast<unsigned long long>(p.violations),
          static_cast<unsigned long long>(p.originated),
          static_cast<unsigned long long>(p.dropped),
          static_cast<unsigned long long>(p.duplicated),
          static_cast<unsigned long long>(p.checksum_discards),
          p.hit_time_limit ? "true" : "false",
          i + 1 < points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n  \"smoke\": %s\n}\n", smoke ? "true" : "false");
    std::fclose(out);
  }

  if (total_violations != 0) {
    std::fprintf(stderr,
                 "soak_impairment: %llu invariant violation(s) detected\n",
                 static_cast<unsigned long long>(total_violations));
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "soak_impairment: pool-size determinism gate FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dctcpp

int main(int argc, char** argv) { return dctcpp::Main(argc, argv); }
