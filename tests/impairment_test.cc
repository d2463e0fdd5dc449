// Deterministic impairment layer: reorder-buffer property tests, packet
// conservation under the full hostile fault pipeline, checksum discard
// end-to-end, per-link RNG stream isolation, Gilbert–Elliott burst
// statistics, and link flap windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "dctcpp/net/impairment.h"
#include "dctcpp/net/link.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/util/rng.h"

namespace dctcpp {
namespace {

using namespace time_literals;

// ---------------------------------------------------------------------------
// ReorderBuffer property test

// Randomized schedule against an oracle: every packet held must come out
// exactly once, never before its release tick, and in (release tick,
// submission order) within each drain.
TEST(ReorderBufferTest, PropertyExactlyOnceNeverEarlyFifoWithinTick) {
  Rng rng(0xfeedULL);
  ReorderBuffer buf;

  struct Expected {
    Tick release_at;
    std::uint64_t order;
  };
  std::map<std::uint64_t, Expected> outstanding;  // uid -> oracle entry
  std::uint64_t next_uid = 1;
  std::uint64_t next_order = 0;
  std::uint64_t delivered = 0;

  Tick now = 0;
  constexpr int kIterations = 10000;
  for (int it = 0; it < kIterations; ++it) {
    // Hold a small burst with random future release ticks.
    const int burst = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < burst; ++i) {
      Packet pkt;
      pkt.uid = next_uid++;
      const Tick release = now + rng.UniformTick(50);
      buf.Hold(pkt, release);
      outstanding.emplace(pkt.uid, Expected{release, next_order++});
    }
    now += rng.UniformTick(20);

    Tick last_release = -1;
    std::uint64_t last_order = 0;
    buf.ReleaseDue(now, [&](const Packet& pkt) {
      auto it2 = outstanding.find(pkt.uid);
      ASSERT_NE(it2, outstanding.end()) << "released twice or never held";
      EXPECT_LE(it2->second.release_at, now) << "released early";
      // Nondecreasing (release, order) within one drain.
      if (last_release >= 0) {
        EXPECT_TRUE(it2->second.release_at > last_release ||
                    (it2->second.release_at == last_release &&
                     it2->second.order > last_order))
            << "drain order violated";
      }
      last_release = it2->second.release_at;
      last_order = it2->second.order;
      outstanding.erase(it2);
      ++delivered;
    });
    if (!buf.Empty()) {
      EXPECT_GT(buf.NextRelease(), now);  // nothing due is ever left behind
    }
  }

  // Final drain: everything still held comes out exactly once.
  buf.ReleaseDue(kTickMax, [&](const Packet& pkt) {
    auto it2 = outstanding.find(pkt.uid);
    ASSERT_NE(it2, outstanding.end());
    outstanding.erase(it2);
    ++delivered;
  });
  EXPECT_TRUE(buf.Empty());
  EXPECT_TRUE(outstanding.empty()) << outstanding.size() << " packets lost";
  EXPECT_EQ(delivered, next_uid - 1);
}

// ---------------------------------------------------------------------------
// Direct-port fixtures

class CountingSink : public PacketSink {
 public:
  void Deliver(const Packet& pkt) override {
    ++count_;
    uids_.push_back(pkt.uid);
    if (pkt.corrupted) ++corrupted_;
  }
  std::uint64_t count() const { return count_; }
  std::uint64_t corrupted() const { return corrupted_; }
  const std::vector<std::uint64_t>& uids() const { return uids_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t corrupted_ = 0;
  std::vector<std::uint64_t> uids_;
};

Packet TestPacket(std::uint64_t uid) {
  Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  pkt.payload = kMss;
  pkt.uid = uid;
  return pkt;
}

TEST(ImpairmentTest, GilbertElliottLossMatchesStationaryRate) {
  // p_gb = 0.01, p_bg = 0.5 -> stationary Bad fraction ~1.96%, mean burst
  // length 2. Over 50k packets the observed loss rate must land near the
  // stationary rate.
  Simulator sim(123);
  CountingSink sink;
  LinkConfig config;
  config.impairment.ge_p_good_to_bad = 0.01;
  config.impairment.ge_p_bad_to_good = 0.5;
  EgressPort port(sim, config, sink);

  constexpr std::uint64_t kPackets = 50000;
  std::uint64_t sent = 0;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    sim.Schedule(static_cast<Tick>(i) * 15 * kMicrosecond,
                 [&] { port.Send(TestPacket(++sent)); });
  }
  sim.Run();

  const auto& stats = port.impairment()->stats();
  EXPECT_EQ(stats.submitted, kPackets);
  const double rate =
      static_cast<double>(stats.burst_losses) / static_cast<double>(kPackets);
  EXPECT_GT(rate, 0.010);
  EXPECT_LT(rate, 0.032);
  EXPECT_EQ(sink.count() + stats.burst_losses, kPackets);
  EXPECT_EQ(sim.invariants().violations(), 0u);
}

TEST(ImpairmentTest, FlapDropsExactlyTheWindow) {
  Simulator sim(5);
  CountingSink sink;
  LinkConfig config;
  config.impairment.flaps = {{1 * kMillisecond, 2 * kMillisecond}};
  EgressPort port(sim, config, sink);

  // One packet before, two inside [down, up), one at the up edge, one
  // after: only the two inside the window die.
  for (Tick at : {500 * kMicrosecond, 1100 * kMicrosecond,
                  1900 * kMicrosecond, 2 * kMillisecond, 2500 * kMicrosecond}) {
    sim.ScheduleAt(at, [&] { port.Send(TestPacket(1)); });
  }
  sim.Run();

  EXPECT_EQ(port.impairment()->stats().link_down_losses, 2u);
  EXPECT_EQ(sink.count(), 3u);
}

TEST(ImpairmentTest, ReorderDeliversEveryPacketExactlyOnce) {
  Simulator sim(77);
  CountingSink sink;
  LinkConfig config;
  config.impairment.reorder_prob = 0.5;
  config.impairment.reorder_delay_min = 50 * kMicrosecond;
  config.impairment.reorder_delay_max = 500 * kMicrosecond;
  EgressPort port(sim, config, sink);

  constexpr std::uint64_t kPackets = 2000;
  for (std::uint64_t i = 1; i <= kPackets; ++i) {
    sim.Schedule(static_cast<Tick>(i) * 20 * kMicrosecond,
                 [&, i] { port.Send(TestPacket(i)); });
  }
  sim.Run();

  // Exactly once each: no loss, no duplication — just permuted.
  ASSERT_EQ(sink.count(), kPackets);
  std::vector<std::uint64_t> sorted = sink.uids();
  EXPECT_FALSE(std::is_sorted(sorted.begin(), sorted.end()))
      << "reordering never displaced a packet";
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 1; i <= kPackets; ++i) {
    ASSERT_EQ(sorted[i - 1], i);
  }
  EXPECT_GT(port.impairment()->stats().reordered, 0u);
  EXPECT_EQ(port.impairment()->stats().reordered,
            port.impairment()->stats().released);
  EXPECT_EQ(sim.invariants().violations(), 0u);
}

// ---------------------------------------------------------------------------
// Host-level (ledger) tests

struct HostRig {
  Simulator sim;
  Network net{sim};
  Switch* sw = nullptr;
  Host* a = nullptr;
  Host* b = nullptr;

  HostRig(std::uint64_t seed, const ImpairmentConfig& a_nic,
          const ImpairmentConfig& b_nic = {})
      : sim(seed) {
    sw = &net.AddSwitch("sw");
    a = &net.AddHost("a");
    b = &net.AddHost("b");
    LinkConfig clean;
    LinkConfig a_cfg = Network::NicConfig(clean);
    a_cfg.impairment = a_nic;
    LinkConfig b_cfg = Network::NicConfig(clean);
    b_cfg.impairment = b_nic;
    net.ConnectHost(*a, *sw, clean, a_cfg);
    net.ConnectHost(*b, *sw, clean, b_cfg);
    net.InstallRoutes();
  }
};

TEST(ImpairmentTest, LedgerConservedUnderHostileProfile) {
  // Everything at once: burst loss, i.i.d. loss, reordering, duplication,
  // corruption, and a flap in the middle of the run. After the network
  // drains, the ledger must balance to the packet: originated + duplicated
  // == delivered + dropped.
  ImpairmentConfig hostile;
  hostile.ge_p_good_to_bad = 0.01;
  hostile.ge_p_bad_to_good = 0.3;
  hostile.random_loss = 0.02;
  hostile.reorder_prob = 0.05;
  hostile.duplicate_prob = 0.03;
  hostile.corrupt_prob = 0.02;
  hostile.flaps = {{20 * kMillisecond, 25 * kMillisecond}};
  HostRig rig(31, hostile);

  constexpr std::uint64_t kPackets = 20000;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    rig.sim.Schedule(static_cast<Tick>(i) * 5 * kMicrosecond, [&] {
      Packet pkt;
      pkt.src = rig.a->id();
      pkt.dst = rig.b->id();
      pkt.payload = kMss;
      rig.a->Send(pkt);
    });
  }
  rig.sim.Run();

  NetworkInvariants& inv = rig.sim.invariants();
  inv.CheckDrained();  // fully drained: the population must be zero
  EXPECT_EQ(inv.violations(), 0u) << inv.first_violation();
  const auto& ledger = inv.ledger();
  EXPECT_EQ(ledger.originated, kPackets);
  EXPECT_EQ(ledger.originated + ledger.duplicated,
            ledger.delivered + ledger.dropped);
  // Every fault class actually fired.
  const auto& stats = rig.a->uplink().impairment()->stats();
  EXPECT_GT(stats.burst_losses, 0u);
  EXPECT_GT(stats.random_losses, 0u);
  EXPECT_GT(stats.reordered, 0u);
  EXPECT_GT(stats.duplicates, 0u);
  EXPECT_GT(stats.corruptions, 0u);
  EXPECT_GT(stats.link_down_losses, 0u);
  EXPECT_EQ(rig.b->checksum_drops(), ledger.checksum_discards);
}

TEST(ImpairmentTest, CorruptedPacketsDiscardedByReceiverChecksum) {
  ImpairmentConfig corrupting;
  corrupting.corrupt_prob = 1.0;
  HostRig rig(9, corrupting);

  constexpr std::uint64_t kPackets = 50;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    rig.sim.Schedule(static_cast<Tick>(i) * 100 * kMicrosecond, [&] {
      Packet pkt;
      pkt.src = rig.a->id();
      pkt.dst = rig.b->id();
      pkt.payload = 256;
      rig.a->Send(pkt);
    });
  }
  rig.sim.Run();

  // Switches forward corrupted packets; the destination host discards
  // every one at checksum verification, before demux.
  EXPECT_EQ(rig.sw->corrupted_forwarded(), kPackets);
  EXPECT_EQ(rig.b->checksum_drops(), kPackets);
  EXPECT_EQ(rig.b->unmatched_packets(), 0u);
  EXPECT_EQ(rig.sim.invariants().ledger().checksum_discards, kPackets);
  rig.sim.invariants().CheckDrained();
  EXPECT_EQ(rig.sim.invariants().violations(), 0u);
}

TEST(ImpairmentTest, DuplicationDeliversExtraCopies) {
  ImpairmentConfig duplicating;
  duplicating.duplicate_prob = 1.0;
  HostRig rig(13, duplicating);

  constexpr std::uint64_t kPackets = 40;
  for (std::uint64_t i = 0; i < kPackets; ++i) {
    rig.sim.Schedule(static_cast<Tick>(i) * 100 * kMicrosecond, [&] {
      Packet pkt;
      pkt.src = rig.a->id();
      pkt.dst = rig.b->id();
      pkt.payload = 256;
      rig.a->Send(pkt);
    });
  }
  rig.sim.Run();

  EXPECT_EQ(rig.b->unmatched_packets(), 2 * kPackets);
  EXPECT_EQ(rig.sim.invariants().ledger().duplicated, kPackets);
  rig.sim.invariants().CheckDrained();
  EXPECT_EQ(rig.sim.invariants().violations(), 0u);
}

// Impairing one link must not change another link's fault pattern: each
// stage draws from a private stream keyed by (seed, link id), not from the
// shared run RNG whose draw order depends on unrelated traffic.
TEST(ImpairmentTest, PerLinkStreamsAreIndependent) {
  ImpairmentConfig lossy;
  lossy.random_loss = 0.3;

  // Run 1: only a->b traffic, loss on a's NIC.
  // Run 2: identical a->b traffic, plus b->a traffic over b's now-lossy
  // NIC. The set of a->b packets surviving a's NIC must be identical.
  auto run = [&](bool impair_b) {
    HostRig rig(42, lossy, impair_b ? lossy : ImpairmentConfig{});
    constexpr std::uint64_t kPackets = 500;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      rig.sim.Schedule(static_cast<Tick>(i) * 50 * kMicrosecond, [&] {
        Packet pkt;
        pkt.src = rig.a->id();
        pkt.dst = rig.b->id();
        pkt.tcp.dst_port = 80;
        pkt.payload = 512;
        rig.a->Send(pkt);
      });
      if (impair_b) {
        rig.sim.Schedule(static_cast<Tick>(i) * 50 * kMicrosecond + 7, [&] {
          Packet pkt;
          pkt.src = rig.b->id();
          pkt.dst = rig.a->id();
          pkt.payload = 512;
          rig.b->Send(pkt);
        });
      }
    }
    std::vector<std::uint64_t> uids;
    rig.b->Listen(80, [&uids](const Packet& pkt) { uids.push_back(pkt.uid); });
    rig.sim.Run();
    EXPECT_EQ(rig.sim.invariants().violations(), 0u);
    return uids;
  };

  const auto baseline = run(/*impair_b=*/false);
  const auto with_b = run(/*impair_b=*/true);
  EXPECT_GT(baseline.size(), 0u);
  EXPECT_LT(baseline.size(), 500u);  // loss actually bit
  EXPECT_EQ(baseline, with_b);
}

// Random loss draws from the link's private stream, so draining the run
// RNG elsewhere does not change which packets die.
TEST(ImpairmentTest, RandomLossUsesPrivateStream) {
  auto run = [](bool burn_main_rng) {
    Simulator sim(7);
    Network net(sim);
    Switch& sw = net.AddSwitch("sw");
    Host& a = net.AddHost("a");
    Host& b = net.AddHost("b");
    LinkConfig lossy;
    lossy.impairment.random_loss = 0.4;
    net.ConnectHost(a, sw, lossy, Network::NicConfig(lossy));
    net.ConnectHost(b, sw, LinkConfig{});
    net.InstallRoutes();
    if (burn_main_rng) {
      for (int i = 0; i < 1000; ++i) sim.rng().Next();
    }
    for (int i = 0; i < 200; ++i) {
      sim.Schedule(static_cast<Tick>(i) * 30 * kMicrosecond, [&] {
        Packet pkt;
        pkt.src = a.id();
        pkt.dst = b.id();
        pkt.tcp.dst_port = 80;
        pkt.payload = 100;
        a.Send(pkt);
      });
    }
    std::vector<std::uint64_t> uids;
    b.Listen(80, [&uids](const Packet& pkt) { uids.push_back(pkt.uid); });
    sim.Run();
    return uids;
  };

  const auto clean = run(false);
  const auto burned = run(true);
  EXPECT_GT(clean.size(), 0u);
  EXPECT_LT(clean.size(), 200u);
  EXPECT_EQ(clean, burned);
}

}  // namespace
}  // namespace dctcpp
