// Failure-injection robustness: every protocol must deliver reliably over
// paths with random (non-congestive) packet corruption, in both
// directions, including on the incast workload. Parameterized across
// protocol x loss rate.
#include <gtest/gtest.h>

#include <memory>

#include "dctcpp/core/protocol.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/tcp/probe.h"
#include "dctcpp/tcp/socket.h"
#include "dctcpp/workload/incast.h"

namespace dctcpp {
namespace {

using namespace time_literals;

struct LossCase {
  Protocol protocol;
  double loss;
};

std::string CaseName(const ::testing::TestParamInfo<LossCase>& info) {
  std::string name = ToString(info.param.protocol);
  for (char& c : name) {
    if (c == '+') c = 'P';
  }
  return name + "_loss" +
         std::to_string(static_cast<int>(info.param.loss * 1000));
}

class LossyPathTest : public ::testing::TestWithParam<LossCase> {};

TEST_P(LossyPathTest, TransferSurvivesRandomLoss) {
  const LossCase param = GetParam();
  Simulator sim(7);
  Network net(sim);
  Switch& sw = net.AddSwitch("sw");
  Host& a = net.AddHost("a");
  Host& b = net.AddHost("b");
  LinkConfig lossy;
  lossy.impairment.random_loss = param.loss;
  // Loss on both directions (data and ACK path).
  net.ConnectHost(a, sw, lossy, Network::NicConfig(lossy));
  net.ConnectHost(b, sw, lossy, Network::NicConfig(lossy));
  net.InstallRoutes();

  TcpSocket::Config socket_config;
  socket_config.rto.min_rto = 10_ms;

  Bytes received = 0;
  TcpSocket::Ptr server;
  TcpListener listener(
      b, 5000,
      [&param] { return MakeCongestionOps(param.protocol); }, socket_config,
      [&](TcpSocket::Ptr s) {
        server = std::move(s);
        server->set_on_data([&](Bytes n) { received += n; });
      });
  TcpSocket client(a, MakeCongestionOps(param.protocol), socket_config);
  bool connected = false;
  client.set_on_connected([&] {
    connected = true;
    client.Send(512 * 1024);
  });
  client.Connect(b.id(), 5000);
  sim.RunUntil(120 * kSecond);
  EXPECT_TRUE(connected);
  EXPECT_EQ(received, 512 * 1024) << "protocol=" << ToString(param.protocol)
                                  << " loss=" << param.loss;
  EXPECT_EQ(client.StreamAcked(), 512 * 1024);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, LossyPathTest,
    ::testing::Values(LossCase{Protocol::kTcp, 0.01},
                      LossCase{Protocol::kTcp, 0.05},
                      LossCase{Protocol::kDctcp, 0.01},
                      LossCase{Protocol::kDctcp, 0.05},
                      LossCase{Protocol::kDctcpPlus, 0.01},
                      LossCase{Protocol::kDctcpPlus, 0.05},
                      LossCase{Protocol::kTcpPlus, 0.01},
                      LossCase{Protocol::kDctcpPlusPartial, 0.01}),
    CaseName);

class LossyIncastTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(LossyIncastTest, IncastCompletesOverLossyFabric) {
  IncastConfig config;
  config.protocol = GetParam();
  config.num_flows = 8;
  config.rounds = 3;
  config.total_bytes = 128 * 1024;
  config.link.impairment.random_loss = 0.005;
  config.min_rto = 10 * kMillisecond;
  config.time_limit = 120 * kSecond;
  const IncastResult r = RunIncast(config);
  EXPECT_EQ(r.rounds_completed, 3u);
  EXPECT_FALSE(r.hit_time_limit);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, LossyIncastTest,
    ::testing::Values(Protocol::kTcp, Protocol::kDctcp,
                      Protocol::kDctcpPlus, Protocol::kTcpPlus),
    [](const ::testing::TestParamInfo<Protocol>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '+') c = 'P';
      }
      return name;
    });

// --- timeout taxonomy under forced, surgical drops -------------------------
//
// The impairment layer's ordinal drop hooks make the two timeout classes of
// the paper's Table I reproducible on demand: dropping the entire initial
// window produces an FLoss-TO (zero feedback), while dropping one data
// segment plus the third duplicate ACK leaves the sender two dupacks short
// of fast retransmit — an LAck-TO.

struct TaxonomyRig {
  Simulator sim{11};
  Network net{sim};
  Switch* sw = nullptr;
  Host* a = nullptr;
  Host* b = nullptr;

  /// Wires a -- sw -- b with the given impairments on the host NICs.
  TaxonomyRig(const ImpairmentConfig& a_nic_impairment,
              const ImpairmentConfig& b_nic_impairment) {
    sw = &net.AddSwitch("sw");
    a = &net.AddHost("a");
    b = &net.AddHost("b");
    LinkConfig clean;
    LinkConfig a_nic = Network::NicConfig(clean);
    a_nic.impairment = a_nic_impairment;
    LinkConfig b_nic = Network::NicConfig(clean);
    b_nic.impairment = b_nic_impairment;
    net.ConnectHost(*a, *sw, clean, a_nic);
    net.ConnectHost(*b, *sw, clean, b_nic);
    net.InstallRoutes();
  }
};

TEST(TimeoutTaxonomyTest, FullWindowDropClassifiesAsFLoss) {
  // Drop data segments 1 and 2 leaving the sender's NIC: with
  // initial_cwnd = 2 that is the whole outstanding window, so the sender
  // hears nothing until RTO.
  ImpairmentConfig a_imp;
  a_imp.drop_data_nth = {1, 2};
  TaxonomyRig rig(a_imp, ImpairmentConfig{});

  TcpSocket::Config socket_config;
  socket_config.rto.min_rto = 10_ms;
  socket_config.initial_cwnd = 2;

  Bytes received = 0;
  TcpSocket::Ptr server;
  TcpListener listener(
      *rig.b, 5000, [] { return MakeCongestionOps(Protocol::kTcp); },
      socket_config, [&](TcpSocket::Ptr s) {
        server = std::move(s);
        server->set_on_data([&](Bytes n) { received += n; });
      });
  RecordingProbe probe;
  TcpSocket client(*rig.a, MakeCongestionOps(Protocol::kTcp), socket_config);
  client.set_probe(&probe);
  client.set_on_connected([&] { client.Send(2 * kMss); });
  client.Connect(rig.b->id(), 5000);
  rig.sim.RunUntil(30 * kSecond);

  EXPECT_EQ(received, 2 * kMss);  // recovered after the timeout
  EXPECT_EQ(probe.floss_timeouts(), 1u);
  EXPECT_EQ(probe.lack_timeouts(), 0u);
  EXPECT_EQ(rig.a->uplink().impairment()->stats().forced_losses, 2u);
  EXPECT_EQ(rig.sim.invariants().violations(), 0u);
}

TEST(TimeoutTaxonomyTest, AckPathDropClassifiesAsLAck) {
  // Drop the first data segment; the receiver dup-ACKs segments 2..4, but
  // the third duplicate is dropped on the receiver's ACK path — two
  // dupacks is feedback, yet not enough for fast retransmit.
  ImpairmentConfig a_imp;
  a_imp.drop_data_nth = {1};
  ImpairmentConfig b_imp;
  b_imp.drop_ack_nth = {3};
  TaxonomyRig rig(a_imp, b_imp);

  TcpSocket::Config socket_config;
  socket_config.rto.min_rto = 10_ms;
  socket_config.initial_cwnd = 4;

  Bytes received = 0;
  TcpSocket::Ptr server;
  TcpListener listener(
      *rig.b, 5000, [] { return MakeCongestionOps(Protocol::kTcp); },
      socket_config, [&](TcpSocket::Ptr s) {
        server = std::move(s);
        server->set_on_data([&](Bytes n) { received += n; });
      });
  RecordingProbe probe;
  TcpSocket client(*rig.a, MakeCongestionOps(Protocol::kTcp), socket_config);
  client.set_probe(&probe);
  client.set_on_connected([&] { client.Send(4 * kMss); });
  client.Connect(rig.b->id(), 5000);
  rig.sim.RunUntil(30 * kSecond);

  EXPECT_EQ(received, 4 * kMss);
  EXPECT_EQ(probe.lack_timeouts(), 1u);
  EXPECT_EQ(probe.floss_timeouts(), 0u);
  EXPECT_EQ(probe.fast_retransmits(), 0u);
  EXPECT_EQ(rig.sim.invariants().violations(), 0u);
}

TEST(LossInjectionTest, CounterTracksDrops) {
  Simulator sim(3);
  Network net(sim);
  Switch& sw = net.AddSwitch("sw");
  Host& a = net.AddHost("a");
  Host& b = net.AddHost("b");
  LinkConfig always_lose;
  always_lose.impairment.random_loss = 1.0;
  net.ConnectHost(a, sw, always_lose, always_lose);
  net.ConnectHost(b, sw, LinkConfig{});
  net.InstallRoutes();
  Packet pkt;
  pkt.src = a.id();
  pkt.dst = b.id();
  pkt.payload = 100;
  a.Send(pkt);
  sim.Run();
  EXPECT_EQ(a.uplink().random_losses(), 1u);
  EXPECT_EQ(b.unmatched_packets(), 0u);  // never arrived
}

}  // namespace
}  // namespace dctcpp
