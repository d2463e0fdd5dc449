// Golden fingerprints: the repo's one end-to-end oracle.
//
// Each row runs one canonical (scenario, seed) and hashes its result or
// stats struct with the repo's FNV-1a fingerprints (counts, FCT samples,
// doubles by bit pattern) — never a checkpoint blob, so the checkpoint
// format may change freely. Every datapath mechanism has exactly one code
// path; a mechanism change (a faster wheel, a new queue layout, a demux
// rewrite) must reproduce this table bit for bit. A deliberate behaviour
// change updates the affected rows in the same change: on a mismatch the
// test prints the actual value to paste in.
//
// Rows that must reproduce one another share a named constant, so the
// table also pins shard-count and checkpoint invariance: the lossy
// incast-rows fabric run at 1 and 4 shards shares one value, and the
// checkpoint row's restored run must equal its uninterrupted run. The
// incast_*, lossy_*, chaos_* and burst* rows run on a single Simulator,
// the fabric and churn rows on ParallelSimulation; both use one run loop
// and one equal-tick delivery order (sim/arrival_calendar.h).
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"
#include "dctcpp/workload/connection_matrix.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

// --- scenarios -------------------------------------------------------------

/// The paper's incast on clean links: 1 MiB per round split over N flows,
/// 200 ms RTO floor.
IncastConfig CleanIncast(Protocol protocol, int n) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = n;
  config.total_bytes = 1 * kMiB;
  config.rounds = n <= 40 ? 20 : 5;
  config.min_rto = 200 * kMillisecond;
  config.seed = 1;
  return config;
}

ImpairmentConfig Lossy() {
  ImpairmentConfig lossy;
  lossy.ge_p_good_to_bad = 0.01;
  lossy.ge_p_bad_to_good = 0.3;
  lossy.ge_loss_bad = 0.5;
  lossy.reorder_prob = 0.02;
  return lossy;
}

ImpairmentConfig Chaos() {
  ImpairmentConfig chaos;
  chaos.random_loss = 0.005;
  chaos.duplicate_prob = 0.01;
  chaos.corrupt_prob = 0.005;
  chaos.reorder_prob = 0.01;
  return chaos;
}

/// Impaired incast in the shape of the burst-pipeline tests: 256 KiB per
/// round, 4 rounds, 10 ms RTO floor, seed 3.
IncastConfig ImpairedIncast(Protocol protocol, int n,
                            const ImpairmentConfig& impairment) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = n;
  config.rounds = 4;
  config.total_bytes = 256 * kKiB;
  config.min_rto = 10 * kMillisecond;
  config.seed = 3;
  config.link.impairment = impairment;
  return config;
}

/// Gilbert-Elliott burst loss at a stationary ~0.1% (`burst01`) or ~1%
/// (`burst1`), mean burst ~3 packets, as in bench/soak_impairment.cc.
ImpairmentConfig BurstLoss(double p_good_to_bad) {
  ImpairmentConfig burst;
  burst.ge_p_good_to_bad = p_good_to_bad;
  burst.ge_p_bad_to_good = 0.33;
  return burst;
}
constexpr double kBurst01 = 0.00033;
constexpr double kBurst1 = 0.0033;

/// soak_impairment's point: fixed 8 KiB per flow, 3 rounds, 10 ms floor.
IncastConfig SoakIncast(Protocol protocol, int n, double p_good_to_bad) {
  IncastConfig config;
  config.protocol = protocol;
  config.num_flows = n;
  config.per_flow_bytes = 8 * 1024;
  config.rounds = 3;
  config.min_rto = 10 * kMillisecond;
  config.seed = 1;
  config.time_limit = 120 * kSecond;
  config.link.impairment = BurstLoss(p_good_to_bad);
  return config;
}

std::uint64_t RunIncastRow(const IncastConfig& config) {
  const IncastResult r = RunIncast(config);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_FALSE(r.hit_time_limit);
  return Fingerprint(r);
}

/// fabric_scale's strategy x shard matrix run (every cell of the matrix
/// shares this fingerprint), its 72-host dragonfly runs, and the lossy
/// incast rows below.
std::uint64_t RunFabricRow(const FabricRunConfig& config) {
  const FabricRunResult r = RunFabricWorkload(config);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_EQ(r.flows_completed, r.flows);
  return Fingerprint(r);
}

/// The paper's fan-in tiled over a k = 4 fat-tree (two rows of 8 hosts,
/// 7 senders of 12 KiB each, DCTCP+, 10 ms RTO floor, seed 7) with
/// Lossy() on every link, on the sharded engine with a 2-thread pool.
std::uint64_t FabricIncastRowsLossy(int shards) {
  ThreadPool pool(2);
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kFatTree;
  config.fat_tree.k = 4;
  config.pattern = TrafficPattern::kIncastRows;
  config.row_size = 8;
  config.fan_in = 7;
  config.bytes_per_flow = 12 * kKiB;
  config.protocol = Protocol::kDctcpPlus;
  config.min_rto = 10 * kMillisecond;
  config.seed = 7;
  config.link.impairment = Lossy();
  config.shards = shards;
  config.shard_pool = &pool;
  return RunFabricRow(config);
}

FabricRunConfig FatTreeMatrix() {
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kFatTree;
  config.fat_tree.k = 16;
  config.pattern = TrafficPattern::kPermutation;
  config.bytes_per_flow = 16 * kKiB;
  config.seed = 1;
  return config;
}

FabricRunConfig Dragonfly(bool valiant) {
  FabricRunConfig config;
  config.topo = FabricRunConfig::Topo::kDragonfly;
  config.dragonfly.routers_per_group = 4;
  config.dragonfly.hosts_per_router = 2;
  config.dragonfly.global_links_per_router = 2;  // g = 9, 72 hosts
  config.dragonfly.valiant = valiant;
  config.pattern = TrafficPattern::kPermutation;
  config.bytes_per_flow = 16 * kKiB;
  return config;
}

std::vector<Tick> EvenStops(Tick end, int n) {
  std::vector<Tick> stops;
  for (int i = 1; i <= n; ++i) stops.push_back(end * i / n);
  return stops;
}

std::uint64_t ChurnStatsRow(ChurnWorkload& w) {
  const ChurnStats s = w.Stats();
  EXPECT_EQ(s.violations, 0u);
  return Fingerprint(s);
}

/// soak_churn --smoke's world: 16 hosts, 2 shards, 2k live flows, light
/// loss, four 3 ms slices.
std::uint64_t ChurnSmoke() {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;
  cfg.shards = 2;
  cfg.target_live_flows = 2000;
  cfg.mean_lifetime = 4 * kMillisecond;
  cfg.prewarm = 2 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  cfg.seed = 1;
  cfg.bytes_per_flow = 4 * kKiB;
  cfg.link.impairment.random_loss = 0.0005;
  cfg.max_live_per_host = (2000 / 16) * 8 / 5 + 16;
  ChurnWorkload w(cfg);
  w.Start();
  for (Tick t : EvenStops(12 * kMillisecond, 4)) w.RunTo(t);
  return ChurnStatsRow(w);
}

/// soak_churn's checkpoint-matrix world (200 live flows, `lossy`), two
/// shards.
ChurnConfig CheckpointWorld() {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;
  cfg.link.propagation_delay = 2 * kMicrosecond;
  cfg.link.impairment.random_loss = 0.005;
  cfg.shards = 2;
  cfg.seed = 7;
  cfg.target_live_flows = 200;
  cfg.mean_lifetime = 2 * kMillisecond;
  cfg.bytes_per_flow = 4 * kKiB;
  cfg.prewarm = 1 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  return cfg;
}

/// Saved after the first of three slices, restored into a fresh world
/// and continued. Both the uninterrupted run and the resumed run must
/// equal the row's constant; returns the resumed run's fingerprint.
std::uint64_t CheckpointRoundTrip() {
  const ChurnConfig cfg = CheckpointWorld();
  const std::vector<Tick> stops = EvenStops(6 * kMillisecond, 3);
  ChurnWorkload saver(cfg);
  saver.Start();
  saver.RunTo(stops[0]);
  const std::vector<std::uint8_t> blob = saver.SaveCheckpoint();
  for (std::size_t i = 1; i < stops.size(); ++i) saver.RunTo(stops[i]);
  const std::uint64_t uninterrupted = ChurnStatsRow(saver);

  ChurnWorkload resumed(cfg);
  resumed.RestoreCheckpoint(blob);
  for (std::size_t i = 1; i < stops.size(); ++i) resumed.RunTo(stops[i]);
  const std::uint64_t after_restore = ChurnStatsRow(resumed);
  EXPECT_EQ(after_restore, uninterrupted);
  return after_restore;
}

// --- the table -------------------------------------------------------------

struct GoldenRow {
  const char* name;
  std::uint64_t (*run)();
  std::uint64_t expected;
};

constexpr std::uint64_t kFabricIncastRowsLossy = 0x0a846a4e69848b85ull;
constexpr std::uint64_t kFatTreeK16 = 0xa2c835ddc8e61c18ull;
constexpr std::uint64_t kDragonflyMinimal = 0xdceacaf92f3c0645ull;
constexpr std::uint64_t kDragonflyValiant = 0xe924a47a0fe81306ull;
constexpr std::uint64_t kChurnCheckpointLossy = 0x5ff60890db9398a6ull;

const GoldenRow kRows[] = {
    {"incast_dctcp_n40",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcp, 40)); },
     0x176d9ac1b6d1e440ull},
    {"incast_dctcp_n200",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcp, 200)); },
     0x496cad786ff5b253ull},
    {"incast_dctcp_n1400",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcp, 1400)); },
     0x9c4664e8a6bc6fbfull},
    {"incast_dctcpplus_n40",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcpPlus, 40)); },
     0xff98c2145571467dull},
    {"incast_dctcpplus_n200",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcpPlus, 200)); },
     0x3187bed11c5d5b5aull},
    {"incast_dctcpplus_n1400",
     [] { return RunIncastRow(CleanIncast(Protocol::kDctcpPlus, 1400)); },
     0x6fcf7c71780b8a66ull},
    {"incast_newreno_n40",
     [] { return RunIncastRow(CleanIncast(Protocol::kTcp, 40)); },
     0x5d58e70b6d9ca1f5ull},
    {"lossy_dctcp_n40",
     [] {
       return RunIncastRow(ImpairedIncast(Protocol::kDctcp, 40, Lossy()));
     },
     0xd55ac34ab31bd6f1ull},
    {"chaos_dctcp_n40",
     [] {
       return RunIncastRow(ImpairedIncast(Protocol::kDctcp, 40, Chaos()));
     },
     0x08f08f49a703dbe0ull},
    {"burst1_dctcp_n40",
     [] { return RunIncastRow(SoakIncast(Protocol::kDctcp, 40, kBurst1)); },
     0xe559161492b410b5ull},
    {"burst1_dctcpplus_n40",
     [] {
       return RunIncastRow(SoakIncast(Protocol::kDctcpPlus, 40, kBurst1));
     },
     0xf80f90997523b509ull},
    {"burst01_dctcpplus_n200",
     [] {
       return RunIncastRow(SoakIncast(Protocol::kDctcpPlus, 200, kBurst01));
     },
     0xfaa1e1055fadb925ull},
    {"lossy_dctcpplus_n200",
     [] {
       return RunIncastRow(
           ImpairedIncast(Protocol::kDctcpPlus, 200, Lossy()));
     },
     0x93e93925a252e4b6ull},
    {"fabric_incastrows_lossy_shards1",
     [] { return FabricIncastRowsLossy(1); }, kFabricIncastRowsLossy},
    {"fabric_incastrows_lossy_shards4",
     [] { return FabricIncastRowsLossy(4); }, kFabricIncastRowsLossy},
    {"fattree_k16_matrix", [] { return RunFabricRow(FatTreeMatrix()); },
     kFatTreeK16},
    {"dragonfly_minimal", [] { return RunFabricRow(Dragonfly(false)); },
     kDragonflyMinimal},
    {"dragonfly_valiant", [] { return RunFabricRow(Dragonfly(true)); },
     kDragonflyValiant},
    {"churn_smoke", &ChurnSmoke, 0x830465f186ee41d4ull},
    {"churn_checkpoint_lossy", &CheckpointRoundTrip, kChurnCheckpointLossy},
};

// Names the row in test listings (the default would print raw bytes,
// including the function pointer, which differs from run to run).
void PrintTo(const GoldenRow& row, std::ostream* os) { *os << row.name; }

class GoldenTest : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenTest, MatchesTable) {
  const GoldenRow& row = GetParam();
  const std::uint64_t actual = row.run();
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxull",
                static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, row.expected) << row.name << ": actual " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Rows, GoldenTest, ::testing::ValuesIn(kRows),
    [](const ::testing::TestParamInfo<GoldenRow>& row) {
      return std::string(row.param.name);
    });

// --- pinned findings -------------------------------------------------------

/// DCTCP+ is fragile under non-congestive loss (EXPERIMENTS.md, impairment
/// appendix; BENCH_soak.json: 11.3 vs 81.1 Mbps at N=40 `burst1`). A
/// random drop of a small window costs a retransmission timeout, and
/// DctcpPlusCc::OnRetransmissionTimeout reads every timeout as congestion:
/// it engages slow_time pacing, which delays the flow's later sends until
/// loss-free windows decay the regulator. This pins the finding; it does
/// not fix it.
TEST(GoldenFinding, DctcpPlusTrailsDctcpUnderBurstLossAtN40) {
  const IncastResult dctcp =
      RunIncast(SoakIncast(Protocol::kDctcp, 40, kBurst1));
  const IncastResult plus =
      RunIncast(SoakIncast(Protocol::kDctcpPlus, 40, kBurst1));
  EXPECT_LT(plus.goodput_mbps, dctcp.goodput_mbps);
}

}  // namespace
}  // namespace dctcpp
