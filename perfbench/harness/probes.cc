#include "probes.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "dctcpp/core/protocol.h"
#include "dctcpp/net/queue.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/simulator.h"
#include "dctcpp/sim/timer_wheel.h"
#include "dctcpp/util/arena.h"
#include "dctcpp/util/flow_table.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/workload/apps.h"

namespace perfbench {
namespace {

using dctcpp::Tick;

constexpr int kReps = 5;

/// Median ns per operation over kReps timed repetitions of `rep()`, which
/// returns the operations it ran; one untimed warm-up comes first.
template <typename Rep>
double MedianNsPerOp(Tracer* tracer, const char* span_name, Rep rep) {
  rep();
  std::vector<double> ns;
  for (int i = 0; i < kReps; ++i) {
    Scope scope(tracer, span_name);
    const std::uint64_t ops = rep();
    ns.push_back(scope.Close() * 1e9 / static_cast<double>(ops));
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Keeps a computed value alive, so the timed loop producing it is not
/// optimised away.
void KeepLive(std::uint64_t v) { asm volatile("" : : "r"(v)); }

// --- congestion control, timed inside the rebuilt incast job ---------------

/// A fenced cycle-counter read (steady-clock nanoseconds where there is no
/// x86 time-stamp counter). One CongestionOps call takes tens of
/// nanoseconds, about what a steady_clock read costs, so the calls are
/// timed with the cheaper counter and converted to nanoseconds once.
inline std::uint64_t Stamp() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  const std::uint64_t t = __rdtsc();
  _mm_lfence();
  return t;
#else
  return static_cast<std::uint64_t>(NowNs());
#endif
}

/// A timed call longer than this many ticks was interrupted or preempted;
/// it is left out of the sums.
constexpr std::uint64_t kMaxTicksPerCall = 50'000;

/// What the decorators of one run add up.
struct CcTally {
  std::uint64_t ticks = 0;  ///< inside timed CongestionOps calls
  std::uint64_t calls = 0;  ///< timed calls that were kept
  /// Empty Stamp() pairs, one per ACK beside the timed calls, so the
  /// counter's own cost is measured under the same conditions.
  std::uint64_t empty_ticks = 0;
  std::uint64_t empty_calls = 0;
  std::uint64_t acks = 0;
  std::uint64_t ece_acks = 0;
  std::uint64_t pending_sum = 0;  ///< wheel PendingCount summed per ACK

  void Add(std::uint64_t t0) {
    const std::uint64_t d = Stamp() - t0;
    if (d < kMaxTicksPerCall) {
      ticks += d;
      ++calls;
    }
  }
  void AddEmpty() {
    const std::uint64_t t0 = Stamp();
    const std::uint64_t d = Stamp() - t0;
    if (d < kMaxTicksPerCall) {
      empty_ticks += d;
      ++empty_calls;
    }
  }
  /// Ticks inside the timed calls, net of the counter's mean cost.
  double NetTicks() const {
    if (empty_calls == 0) return static_cast<double>(ticks);
    return static_cast<double>(ticks) -
           static_cast<double>(calls) * static_cast<double>(empty_ticks) /
               static_cast<double>(empty_calls);
  }
};

/// Forwards every CongestionOps call to the protocol's own object and times
/// the ones that do work per ACK or per segment (the cheap MayPace query is
/// forwarded untimed). Simulated behaviour is unchanged; the rebuilt job
/// checks that against RunIncast.
class TimedCc final : public dctcpp::CongestionOps {
 public:
  TimedCc(std::unique_ptr<dctcpp::CongestionOps> inner, CcTally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  const char* Name() const override { return inner_->Name(); }
  bool EcnCapable() const override { return inner_->EcnCapable(); }
  bool DctcpStyleReceiver() const override {
    return inner_->DctcpStyleReceiver();
  }
  int InitialCwnd() const override { return inner_->InitialCwnd(); }
  int MinCwnd() const override { return inner_->MinCwnd(); }
  void OnEstablished(dctcpp::TcpSocket& sk) override {
    inner_->OnEstablished(sk);
  }
  void OnAck(dctcpp::TcpSocket& sk, const dctcpp::AckContext& ctx) override {
    ++tally_->acks;
    tally_->ece_acks += ctx.ece ? 1 : 0;
    tally_->pending_sum += sk.sim().scheduler().PendingCount();
    const std::uint64_t t0 = Stamp();
    inner_->OnAck(sk, ctx);
    tally_->Add(t0);
    tally_->AddEmpty();
  }
  int SsthreshAfterLoss(const dctcpp::TcpSocket& sk) const override {
    const std::uint64_t t0 = Stamp();
    const int r = inner_->SsthreshAfterLoss(sk);
    tally_->Add(t0);
    return r;
  }
  void OnRetransmissionTimeout(dctcpp::TcpSocket& sk) override {
    const std::uint64_t t0 = Stamp();
    inner_->OnRetransmissionTimeout(sk);
    tally_->Add(t0);
  }
  void OnFastRetransmit(dctcpp::TcpSocket& sk) override {
    const std::uint64_t t0 = Stamp();
    inner_->OnFastRetransmit(sk);
    tally_->Add(t0);
  }
  Tick PacingDelay(dctcpp::TcpSocket& sk, dctcpp::Rng& rng) override {
    const std::uint64_t t0 = Stamp();
    const Tick r = inner_->PacingDelay(sk, rng);
    tally_->Add(t0);
    return r;
  }
  bool MayPace(const dctcpp::TcpSocket& sk) const override {
    return inner_->MayPace(sk);
  }
  void SaveState(dctcpp::CheckpointWriter& w) const override {
    inner_->SaveState(w);
  }
  void LoadState(dctcpp::CheckpointReader& r) override { inner_->LoadState(r); }

 private:
  std::unique_ptr<dctcpp::CongestionOps> inner_;
  CcTally* tally_;
};

struct RebuiltJob {
  std::uint64_t events = 0;
  std::uint64_t pkt_hops = 0;
  std::uint64_t marks = 0;
  std::uint64_t rounds = 0;
  std::uint64_t violations = 0;
};

/// RunIncast's classic single-simulator path, rebuilt from the public
/// building blocks it uses, with the worker (sender) sockets' congestion
/// control wrapped in TimedCc. Background flows, queue sampling, request
/// stagger and shards are not rebuilt; the workloads use none of them.
RebuiltJob RunRebuiltIncast(const dctcpp::IncastConfig& config,
                            CcTally* tally) {
  using namespace dctcpp;
  constexpr PortNum kWorkerPort = 5000;
  Simulator sim(config.seed);
  Network net(sim);
  TwoTierTopology topo =
      TwoTierTopology::Build(net, config.num_workers, config.link);

  TcpSocket::Config socket_config = config.socket;
  socket_config.rto.min_rto = config.min_rto;
  socket_config.rto.initial_rto =
      std::max(config.min_rto, 10 * kMillisecond);
  const Bytes per_flow =
      config.per_flow_bytes > 0
          ? config.per_flow_bytes
          : std::max<Bytes>(1, config.total_bytes / config.num_flows);
  auto cc_factory = [&config] {
    return MakeCongestionOps(config.protocol, config.options);
  };
  auto timed_factory = [&config, tally]() -> std::unique_ptr<CongestionOps> {
    return std::make_unique<TimedCc>(
        MakeCongestionOps(config.protocol, config.options), tally);
  };

  Arena& arena = sim.arena();
  std::vector<ArenaPtr<WorkerServer>> servers;
  for (int w = 0; w < config.num_workers; ++w) {
    WorkerServer::Config wc;
    wc.port = kWorkerPort;
    wc.request_size = config.request_size;
    wc.response_size = [per_flow] { return per_flow; };
    servers.push_back(MakeArena<WorkerServer>(
        arena, *topo.workers[w], timed_factory, socket_config,
        std::move(wc)));
  }
  std::vector<ArenaPtr<AggregatorClient>> clients;
  for (int i = 0; i < config.num_flows; ++i) {
    Host* worker = topo.workers[i % config.num_workers];
    clients.push_back(MakeArena<AggregatorClient>(
        arena, *topo.aggregator, cc_factory(), socket_config, worker->id(),
        kWorkerPort, config.request_size));
  }

  RebuiltJob job;
  int connected = 0;
  int completed_in_round = 0;
  std::function<void()> start_round = [&] {
    completed_in_round = 0;
    for (auto& client : clients) {
      client->Request(per_flow, [&] {
        if (++completed_in_round < config.num_flows) return;
        if (++job.rounds >= static_cast<std::uint64_t>(config.rounds)) {
          sim.Stop();
        } else {
          start_round();
        }
      });
    }
  };
  for (int i = 0; i < config.num_flows; ++i) {
    sim.Schedule(static_cast<Tick>(i) * 100 * kMicrosecond, [&, i] {
      clients[i]->Connect([&] {
        if (++connected == config.num_flows) start_round();
      });
    });
  }
  sim.RunUntil(config.time_limit);

  job.events = sim.events_executed();
  job.pkt_hops = sim.packets_forwarded();
  job.marks = topo.bottleneck->queue().stats().marked;
  job.violations = sim.invariants().violations();
  return job;
}

/// Runs the job with `protocol` until the senders have seen kMinAcks ACKs
/// (at least kMinJobs jobs, seeds seed, seed+1, ...) and reports the median
/// per-job CongestionOps time per ACK. The first job must reproduce
/// RunIncast's events, packet-hops and marks.
CcRun CcProbe(dctcpp::IncastConfig config, dctcpp::Protocol protocol,
              const char* span_name, Tracer* tracer,
              std::vector<std::string>& failures) {
  constexpr std::uint64_t kMinAcks = 40'000;
  constexpr int kMinJobs = 3;
  constexpr int kMaxJobs = 12;
  config.protocol = protocol;
  const std::string label = std::string(dctcpp::ToString(protocol)) +
                            " N=" + std::to_string(config.num_flows);
  const dctcpp::IncastResult want = dctcpp::RunIncast(config);
  const std::int64_t ns0 = NowNs();
  const std::uint64_t ticks0 = Stamp();

  CcRun run;
  std::vector<double> ticks_per_ack;
  std::uint64_t ece = 0, pending = 0;
  for (int k = 0; k < kMaxJobs && (k < kMinJobs || run.acks < kMinAcks);
       ++k) {
    CcTally tally;
    RebuiltJob got;
    {
      Scope scope(tracer, span_name);
      got = RunRebuiltIncast(config, &tally);
    }
    if (k == 0) {
      run.events = static_cast<double>(got.events);
      run.pkt_hops = static_cast<double>(got.pkt_hops);
      if (got.events != want.events ||
          got.pkt_hops != want.packets_forwarded ||
          got.marks != want.bottleneck_marks) {
        failures.push_back("rebuilt " + label +
                           " job did not reproduce RunIncast");
      }
    }
    if (got.rounds < static_cast<std::uint64_t>(config.rounds) ||
        got.violations > 0 || tally.acks == 0) {
      failures.push_back("rebuilt " + label +
                         " job missed its rounds or saw violations");
      break;
    }
    ticks_per_ack.push_back(tally.NetTicks() /
                            static_cast<double>(tally.acks));
    run.acks += tally.acks;
    ece += tally.ece_acks;
    pending += tally.pending_sum;
    ++config.seed;
  }
  if (ticks_per_ack.empty()) return run;

  // Ticks to nanoseconds, from the counter's rate over the whole probe.
  const double ns_per_tick =
      static_cast<double>(NowNs() - ns0) /
      static_cast<double>(std::max<std::uint64_t>(1, Stamp() - ticks0));
  std::sort(ticks_per_ack.begin(), ticks_per_ack.end());
  run.ns_per_ack = ticks_per_ack[ticks_per_ack.size() / 2] * ns_per_tick;
  run.ece_frac = static_cast<double>(ece) / static_cast<double>(run.acks);
  run.mean_pending =
      static_cast<double>(pending) / static_cast<double>(run.acks);
  return run;
}

// --- timer wheel ------------------------------------------------------------

/// The wheel probe's delay mix: per-packet delays (one MSS serialization
/// up to that plus the link's propagation delay) and, for the share of
/// events that are not packet-hops, socket timer delays (delayed-ACK
/// timeout up to the RTO floor).
struct WheelShape {
  int pending = 1;
  double timer_frac = 0.0;
  Tick short_lo = 1, short_hi = 1, long_lo = 1, long_hi = 1;
};

Tick DrawDelay(const WheelShape& shape, dctcpp::Rng& rng) {
  if (rng.NextDouble() < shape.timer_frac) {
    return rng.UniformInt(shape.long_lo, shape.long_hi);
  }
  return rng.UniformInt(shape.short_lo, shape.short_hi);
}

/// Every fired event schedules its successor at a delay drawn from the
/// shape, so the wheel holds `pending` events throughout.
double WheelProbe(const WheelShape& shape, std::uint64_t seed,
                  Tracer* tracer) {
  struct State {
    dctcpp::TimerWheelScheduler wheel;
    dctcpp::Rng rng;
    WheelShape shape;
    Tick now = 0;
    std::uint64_t fired = 0;
    std::uint64_t target = 0;
    bool stop = false;
  };
  struct Rearm {
    State* st;
    void operator()() const {
      if (++st->fired >= st->target) st->stop = true;
      st->wheel.ScheduleAt(st->now + DrawDelay(st->shape, st->rng),
                           Rearm{st});
    }
  };
  constexpr std::uint64_t kEvents = 400'000;
  auto st = std::make_unique<State>();
  st->rng = dctcpp::Rng(seed);
  st->shape = shape;
  for (int i = 0; i < shape.pending; ++i) {
    st->wheel.ScheduleAt(DrawDelay(shape, st->rng), Rearm{st.get()});
  }
  return MedianNsPerOp(tracer, "probe.sim.wheel", [&st] {
    st->fired = 0;
    st->target = kEvents;
    st->stop = false;
    return st->wheel.RunLoop(dctcpp::kTickMax, &st->stop, &st->now);
  });
}

// --- queue and flow table ---------------------------------------------------

/// A fan-in burst of `flows` full-size ECN-capable packets arrives at one
/// port with the bottleneck's buffer and marking threshold, then drains.
double QueueProbe(const dctcpp::IncastConfig& job, Tracer* tracer) {
  constexpr std::uint64_t kPackets = 1'000'000;
  dctcpp::DropTailEcnQueue queue(job.link.buffer_bytes,
                                 job.link.ecn_threshold);
  dctcpp::Packet pkt;
  pkt.payload = dctcpp::kMss;
  pkt.ecn = dctcpp::Ecn::kEct;
  std::uint64_t drained = 0;
  const double ns = MedianNsPerOp(tracer, "probe.net.queue", [&] {
    std::uint64_t done = 0;
    while (done < kPackets) {
      for (int i = 0; i < job.num_flows; ++i) {
        pkt.uid = done + static_cast<std::uint64_t>(i);
        queue.Enqueue(pkt);
      }
      while (auto head = queue.Dequeue()) drained += head->uid & 1;
      done += static_cast<std::uint64_t>(job.num_flows);
    }
    return done;
  });
  KeepLive(drained);
  return ns;
}

/// Demux at the aggregator, which holds one connection per flow: lookups
/// cycle over every connection's key.
double FlowTableProbe(const dctcpp::IncastConfig& job, Tracer* tracer) {
  constexpr std::uint64_t kLookups = 2'000'000;
  dctcpp::FlatFlowTable<std::uint32_t> table;
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < job.num_flows; ++i) {
    const std::uint64_t key = dctcpp::PackFlowKey(
        static_cast<std::uint16_t>(10000 + i),
        static_cast<std::int32_t>(1 + i % job.num_workers),
        static_cast<std::uint16_t>(5000));
    table.Insert(key, static_cast<std::uint32_t>(i));
    keys.push_back(key);
  }
  std::uint64_t hits = 0;
  const double ns = MedianNsPerOp(tracer, "probe.util.flow_table", [&] {
    std::size_t k = 0;
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      if (const std::uint32_t* v = table.Find(keys[k])) hits += *v & 1u;
      if (++k == keys.size()) k = 0;
    }
    return kLookups;
  });
  KeepLive(hits);
  return ns;
}

}  // namespace

ProbeResults RunProbes(const dctcpp::IncastConfig& job, Tracer* tracer) {
  ProbeResults r;
  r.dctcp = CcProbe(job, dctcpp::Protocol::kDctcp, "probe.dctcp", tracer,
                    r.failures);
  r.core = CcProbe(job, dctcpp::Protocol::kDctcpPlus, "probe.core", tracer,
                   r.failures);

  // The wheel's shape comes from the run of the job's own protocol.
  const CcRun& own = job.protocol == dctcpp::Protocol::kDctcp ? r.dctcp
                                                              : r.core;
  WheelShape shape;
  shape.pending = std::max(1, static_cast<int>(own.mean_pending + 0.5));
  shape.timer_frac =
      own.events > 0 ? std::clamp(1.0 - own.pkt_hops / own.events, 0.0, 1.0)
                     : 0.0;
  shape.short_lo =
      job.link.rate.TransmissionTime(dctcpp::kMss + dctcpp::kHeaderBytes);
  shape.short_hi = shape.short_lo + job.link.propagation_delay;
  shape.long_lo = job.socket.delayed_ack_timeout;
  shape.long_hi = std::max(shape.long_lo, job.min_rto);
  r.wheel_pending = shape.pending;
  r.wheel_timer_frac = shape.timer_frac;

  r.wheel_ns_per_event = WheelProbe(shape, job.seed, tracer);
  r.queue_ns_per_pkt = QueueProbe(job, tracer);
  r.flow_table_ns_per_lookup = FlowTableProbe(job, tracer);
  return r;
}

}  // namespace perfbench
