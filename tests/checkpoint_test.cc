// Checkpoint/restore fidelity: a churn soak checkpointed at tick T and
// resumed must be bit-identical (equal state fingerprint) to the same run
// left uninterrupted — across shard counts, thread pools, and impairment
// profiles. A blob of any other format version must not restore.
//
// Protocol (see workload/churn.h): the reference run and the restored run
// must stop at the same RunTo boundaries, because the coordinator's window
// sequence is part of the serialized state. Every comparison below drives
// both worlds through an identical ascending stop schedule.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dctcpp/util/fnv.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"

namespace dctcpp {
namespace {

// Impairment profiles the matrix cycles through.
enum class Profile { kClean, kLossy, kChaos };

ChurnConfig SmallConfig(int shards, Profile profile,
                        std::int64_t target_live = 200) {
  ChurnConfig cfg;
  cfg.fat_tree.k = 4;  // 16 hosts
  cfg.link.propagation_delay = 2 * kMicrosecond;
  cfg.shards = shards;
  cfg.seed = 7;
  cfg.target_live_flows = target_live;
  cfg.mean_lifetime = 2 * kMillisecond;
  cfg.bytes_per_flow = 4 * kKiB;
  cfg.prewarm = 1 * kMillisecond;
  cfg.min_rto = 1 * kMillisecond;
  switch (profile) {
    case Profile::kClean:
      break;
    case Profile::kLossy:
      cfg.link.impairment.random_loss = 0.005;
      break;
    case Profile::kChaos:
      cfg.link.impairment.random_loss = 0.002;
      cfg.link.impairment.reorder_prob = 0.01;
      cfg.link.impairment.duplicate_prob = 0.002;
      cfg.link.impairment.corrupt_prob = 0.001;
      break;
  }
  return cfg;
}

// Runs `w` through every stop in `stops` (ascending absolute ticks).
void RunSchedule(ChurnWorkload& w, const std::vector<Tick>& stops,
                 ThreadPool* pool = nullptr) {
  for (Tick t : stops) w.RunTo(t, pool);
}

// Core gate: checkpoint at stops[cut], restore onto a fresh world, resume
// through the remaining stops, and compare against the uninterrupted
// reference driven through the identical schedule.
void ExpectBitIdenticalResume(const ChurnConfig& cfg,
                              const std::vector<Tick>& stops,
                              std::size_t cut, ThreadPool* pool = nullptr) {
  ChurnWorkload ref(cfg);
  ref.Start();
  RunSchedule(ref, stops, pool);
  const std::uint64_t want = ref.Fingerprint();

  ChurnWorkload first(cfg);
  first.Start();
  std::vector<std::uint8_t> blob;
  for (std::size_t i = 0; i <= cut; ++i) first.RunTo(stops[i], pool);
  blob = first.SaveCheckpoint();

  ChurnWorkload resumed(cfg);
  resumed.RestoreCheckpoint(blob);
  // The restored world serializes back to the exact blob it came from.
  EXPECT_EQ(resumed.SaveCheckpoint(), blob);
  for (std::size_t i = cut + 1; i < stops.size(); ++i) {
    resumed.RunTo(stops[i], pool);
  }
  EXPECT_EQ(resumed.Fingerprint(), want)
      << "restore at t=" << stops[cut] << " diverged";
}

std::vector<Tick> EvenStops(Tick end, int n) {
  std::vector<Tick> stops;
  for (int i = 1; i <= n; ++i) stops.push_back(end * i / n);
  return stops;
}

TEST(CheckpointTest, RestoredBlobRoundTripsSingleShard) {
  ChurnWorkload w(SmallConfig(1, Profile::kClean));
  w.Start();
  w.RunTo(4 * kMillisecond);
  const std::vector<std::uint8_t> blob = w.SaveCheckpoint();

  ChurnWorkload restored(SmallConfig(1, Profile::kClean));
  restored.RestoreCheckpoint(blob);
  EXPECT_EQ(restored.SaveCheckpoint(), blob);
  EXPECT_EQ(restored.live_flows(), w.live_flows());
  EXPECT_EQ(restored.Stats().flows_completed, w.Stats().flows_completed);
}

TEST(CheckpointTest, ResumeMatchesUninterruptedSingleShard) {
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kClean),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/1);
}

TEST(CheckpointTest, ResumeMatchesUnderImpairments) {
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kLossy),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/2);
  ExpectBitIdenticalResume(SmallConfig(1, Profile::kChaos),
                           EvenStops(8 * kMillisecond, 4), /*cut=*/1);
}

TEST(CheckpointTest, ResumeMatchesAcrossShardCounts) {
  for (int shards : {2, 4, 8}) {
    for (Profile p : {Profile::kLossy, Profile::kChaos}) {
      ExpectBitIdenticalResume(SmallConfig(shards, p),
                               EvenStops(6 * kMillisecond, 3), /*cut=*/1);
    }
  }
}

TEST(CheckpointTest, ResumeMatchesWithThreadPools) {
  // The same checkpoint gate with real parallelism: shard execution order
  // inside a window must not leak into the serialized state.
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    ExpectBitIdenticalResume(SmallConfig(4, Profile::kLossy),
                             EvenStops(6 * kMillisecond, 3), /*cut=*/1,
                             &pool);
  }
}

// A HashOnly writer folds exactly the bytes a buffering writer appends.
TEST(CheckpointTest, HashOnlyWriterHashesTheBlobBytes) {
  CheckpointWriter blob;
  CheckpointWriter hash = CheckpointWriter::HashOnly();
  for (CheckpointWriter* w : {&blob, &hash}) {
    w->Tag(0x54455354);
    w->U8(7);
    w->Bool(true);
    w->U32(0xdeadbeef);
    w->U64(~0ull);
    w->I64(-3);
    w->F64(0.1);
    w->Str("churn");
  }
  EXPECT_EQ(hash.hash(),
            FnvBytes(kFnvOffset, blob.blob().data(), blob.blob().size()));
}

// Fingerprint streams the SaveCheckpoint bytes through FNV-1a without
// building the blob, so it equals the hash of the blob at every barrier,
// on the saving world and on a restored one.
TEST(CheckpointTest, FingerprintEqualsHashOfSavedBlob) {
  const ChurnConfig cfg = SmallConfig(2, Profile::kLossy);
  const auto hash = [](const std::vector<std::uint8_t>& blob) {
    return FnvBytes(kFnvOffset, blob.data(), blob.size());
  };
  ChurnWorkload w(cfg);
  w.Start();
  std::vector<std::uint8_t> blob;
  for (Tick t : EvenStops(6 * kMillisecond, 3)) {
    w.RunTo(t);
    blob = w.SaveCheckpoint();
    EXPECT_EQ(w.Fingerprint(), hash(blob)) << "t=" << t;
  }

  ChurnWorkload restored(cfg);
  restored.RestoreCheckpoint(blob);
  EXPECT_EQ(restored.Fingerprint(), hash(blob));
  restored.RunTo(8 * kMillisecond);
  EXPECT_EQ(restored.Fingerprint(), hash(restored.SaveCheckpoint()));
}

// soak_churn --smoke's world. A restored world allocates only the slots
// that hold a socket, so it reports fewer materialized slots than its
// saver, whose pools still hold the slots of its ramp-up peak. Slot
// allocation is not state: the restored world re-serializes to the exact
// saved blob and runs on bit-identically to the saver.
TEST(CheckpointTest, RestoredWorldMaterializesOnlyOccupiedSlots) {
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
  const std::vector<Tick> stops = EvenStops(12 * kMillisecond, 4);

  ChurnWorkload saver(cfg);
  saver.Start();
  saver.RunTo(stops[0]);
  saver.RunTo(stops[1]);
  const std::vector<std::uint8_t> blob = saver.SaveCheckpoint();

  ChurnWorkload restored(cfg);
  restored.RestoreCheckpoint(blob);
  EXPECT_LT(restored.MeasureFootprint().materialized_slots,
            saver.MeasureFootprint().materialized_slots);
  EXPECT_EQ(restored.SaveCheckpoint(), blob);

  for (std::size_t i = 2; i < stops.size(); ++i) {
    saver.RunTo(stops[i]);
    restored.RunTo(stops[i]);
    EXPECT_EQ(restored.Fingerprint(), saver.Fingerprint())
        << "t=" << stops[i];
  }
  EXPECT_EQ(restored.Stats().violations, 0u);
}

// The version word follows the magic at the head of every blob. A blob
// written under another layout must abort the restore, not misparse.
TEST(CheckpointDeathTest, RestoreRejectsOtherFormatVersion) {
  ChurnWorkload w(SmallConfig(1, Profile::kClean));
  w.Start();
  w.RunTo(2 * kMillisecond);
  std::vector<std::uint8_t> blob = w.SaveCheckpoint();
  std::uint32_t version = 0;
  std::memcpy(&version, blob.data() + 4, sizeof version);
  ASSERT_EQ(version, CheckpointWriter::kVersion);
  version = CheckpointWriter::kVersion - 1;
  std::memcpy(blob.data() + 4, &version, sizeof version);
  EXPECT_DEATH_IF_SUPPORTED(
      {
        ChurnWorkload restored(SmallConfig(1, Profile::kClean));
        restored.RestoreCheckpoint(blob);
      },
      "kVersion");
}

// The headline satellite: an impaired N=1400 churn run saved at 50
// pseudo-random barrier ticks; every save restores and resumes to a final
// state bit-identical to the uninterrupted reference.
TEST(CheckpointTest, FiftyRandomSavePointsN1400) {
  const ChurnConfig cfg = SmallConfig(2, Profile::kLossy, /*target=*/1400);
  constexpr Tick kEnd = 10 * kMillisecond;
  constexpr int kSaves = 50;

  // 50 distinct random ticks in (0, kEnd), sorted: they double as the
  // shared stop schedule, so every save lands on a barrier both runs hit.
  Rng rng(0x51ee9);
  std::vector<Tick> stops;
  while (stops.size() < kSaves) {
    const Tick t = 1 + rng.UniformTick(kEnd - 1);
    bool dup = false;
    for (Tick s : stops) dup |= (s == t);
    if (!dup) stops.push_back(t);
  }
  std::sort(stops.begin(), stops.end());
  stops.push_back(kEnd);

  ChurnWorkload ref(cfg);
  ref.Start();
  RunSchedule(ref, stops);
  const std::uint64_t want = ref.Fingerprint();
  ASSERT_GT(ref.Stats().flows_completed, 100u);

  // One saving run captures all 50 blobs in a single pass.
  ChurnWorkload saver(cfg);
  saver.Start();
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i + 1 < stops.size(); ++i) {
    saver.RunTo(stops[i]);
    blobs.push_back(saver.SaveCheckpoint());
  }

  for (std::size_t cut = 0; cut < blobs.size(); ++cut) {
    ChurnWorkload resumed(cfg);
    resumed.RestoreCheckpoint(blobs[cut]);
    for (std::size_t i = cut + 1; i < stops.size(); ++i) {
      resumed.RunTo(stops[i]);
    }
    ASSERT_EQ(resumed.Fingerprint(), want)
        << "save #" << cut << " at t=" << stops[cut] << " diverged";
  }
}

}  // namespace
}  // namespace dctcpp
