#include "dctcpp/workload/churn.h"

#include <algorithm>
#include <cmath>

#include "dctcpp/util/assert.h"
#include "dctcpp/util/fnv.h"

namespace dctcpp {

namespace {

// Section tags (see sim/checkpoint.h for the convention).
constexpr std::uint32_t kTagChurnWorld = 0x4348524e;  // "CHRN" world header
constexpr std::uint32_t kTagChurnShard = 0x43485348;  // "CHSH" per-shard hook

Tick ExpTicks(Rng& rng, double mean) {
  return std::max<Tick>(
      1, static_cast<Tick>(rng.Exponential(mean) + 0.5));
}

void WriteIndexList(CheckpointWriter& w,
                    const std::vector<std::uint32_t>& v) {
  w.U64(v.size());
  for (std::uint32_t i : v) w.U32(i);
}

void ReadIndexList(CheckpointReader& r, std::vector<std::uint32_t>& v) {
  DCTCPP_ASSERT(v.empty());
  const std::uint64_t n = r.U64();
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.U32());
}

}  // namespace

void ChurnListener::Accept(TcpSocket& socket, const Packet& syn) {
  socket.AcceptFrom(syn);
}

ChurnWorkload::HostChurn::HostChurn(ChurnWorkload* w,
                                    std::uint32_t host_index, Host& h)
    : owner(w),
      index(host_index),
      host(&h),
      rng(h.sim().StreamRng(kChurnStreamBase | host_index)),
      arrival(
          h.sim(),
          [](void* p) {
            auto* hc = static_cast<HostChurn*>(p);
            hc->owner->OnArrival(hc->index);
          },
          this) {}

ChurnWorkload::ChurnWorkload(const ChurnConfig& config) : config_(config) {
  DCTCPP_ASSERT(config_.shards >= 1);
  DCTCPP_ASSERT(config_.target_live_flows > 0);
  DCTCPP_ASSERT(config_.mean_lifetime > 0);
  DCTCPP_ASSERT(config_.bytes_per_flow > 0);

  FatTreeConfig ft = config_.fat_tree;
  ft.link = config_.link;
  fabric_ = std::make_unique<FatTreeFabric>(ft);
  const int n = fabric_->num_hosts();
  DCTCPP_ASSERT(n >= 2);

  const std::vector<int> shard_of = ShardPartitioner::Assign(
      *fabric_, config_.shards, config_.strategy, {}, config_.seed);
  psim_ = std::make_unique<ParallelSimulation>(config_.seed, config_.shards);
  net_ = std::make_unique<Network>(*psim_);
  fabric_->Build(*net_, shard_of);

  socket_config_ = config_.socket;
  socket_config_.rto.min_rto = config_.min_rto;
  socket_config_.rto.initial_rto =
      std::max(config_.min_rto, 10 * kMillisecond);

  if (config_.max_live_per_host > 0) {
    pool_capacity_ = config_.max_live_per_host;
  } else {
    // Poisson occupancy: mean + 5 sigma + fixed headroom for the ramp.
    const double mean_per_host =
        static_cast<double>(config_.target_live_flows) / n;
    pool_capacity_ = static_cast<int>(
        mean_per_host + 5.0 * std::sqrt(std::max(1.0, mean_per_host)) + 16);
  }

  hosts_.reserve(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) {
    Host& host = fabric_->host(h);
    hosts_.push_back(std::make_unique<HostChurn>(
        this, static_cast<std::uint32_t>(h), host));
    HostChurn& hc = *hosts_.back();
    hc.client.resize(static_cast<std::size_t>(pool_capacity_));
    hc.server.resize(static_cast<std::size_t>(pool_capacity_));
    hc.client_free.reserve(static_cast<std::size_t>(pool_capacity_));
    hc.server_free.reserve(static_cast<std::size_t>(pool_capacity_));
    // Retired lists are bounded by pool capacity; reserving up front means
    // only slots, never lists, grow after construction (the no-growth
    // gate).
    hc.client_retired.reserve(static_cast<std::size_t>(pool_capacity_));
    hc.server_retired.reserve(static_cast<std::size_t>(pool_capacity_));
    for (int i = pool_capacity_ - 1; i >= 0; --i) {
      hc.client_free.push_back(static_cast<std::uint32_t>(i));
      hc.server_free.push_back(static_cast<std::uint32_t>(i));
    }
    host.Listen(kChurnPort,
                [this, hh = static_cast<std::uint32_t>(h)](const Packet& p) {
                  OnListenPacket(hh, p);
                });
  }
}

ChurnWorkload::~ChurnWorkload() = default;

double ChurnWorkload::SteadyMean() const {
  return static_cast<double>(config_.mean_lifetime) * hosts() /
         static_cast<double>(config_.target_live_flows);
}

std::unique_ptr<CongestionOps> ChurnWorkload::MakeCc() const {
  return MakeCongestionOps(config_.protocol, config_.options);
}

void ChurnWorkload::Start() {
  DCTCPP_ASSERT(!started_);
  started_ = true;
  const int n = hosts();
  const std::int64_t target = config_.target_live_flows;
  for (int h = 0; h < n; ++h) {
    HostChurn& hc = *hosts_[static_cast<std::size_t>(h)];
    const int share = static_cast<int>(target / n + (h < target % n ? 1 : 0));
    hc.seed_remaining = share;
    hc.seed_mean = share > 0
                       ? static_cast<double>(config_.prewarm) / share
                       : SteadyMean();
    hc.arrival.ArmIn(
        ExpTicks(hc.rng, share > 0 ? hc.seed_mean : SteadyMean()));
  }
}

void ChurnWorkload::RunTo(Tick deadline, ThreadPool* pool) {
  DCTCPP_ASSERT(started_);
  psim_->RunUntil(deadline, pool);
  peak_live_ = std::max(peak_live_, live_flows());
}

void ChurnWorkload::OnArrival(std::uint32_t h) {
  HostChurn& hc = *hosts_[h];
  DrainRetired(hc);

  // Fixed draw order (dst, lifetime, inter-arrival) regardless of pool
  // occupancy, so the per-host stream advances identically whether or not
  // this arrival found a free slot.
  const int n = hosts();
  int dst = static_cast<int>(hc.rng.NextDouble() * (n - 1));
  if (dst >= static_cast<int>(h)) ++dst;
  const Tick lifetime =
      ExpTicks(hc.rng, static_cast<double>(config_.mean_lifetime));
  if (hc.seed_remaining > 0) --hc.seed_remaining;
  const Tick dt = ExpTicks(
      hc.rng, hc.seed_remaining > 0 ? hc.seed_mean : SteadyMean());

  if (hc.client_free.empty()) {
    ++hc.dropped;
  } else {
    const std::uint32_t idx = hc.client_free.back();
    hc.client_free.pop_back();
    ClientSlot& slot = MaterializeClient(hc, idx);
    TcpSocket& sock =
        slot.socket.emplace(*hc.host, MakeCc(), socket_config_);
    sock.set_on_closed([this, h, idx] { RetireClient(h, idx); });
    sock.Connect(fabric_->host(dst).id(), kChurnPort);
    sock.Send(config_.bytes_per_flow);
    slot.departure.Schedule(lifetime);
    ++hc.started;
    ++hc.live_clients;
  }
  hc.arrival.ArmIn(dt);
}

void ChurnWorkload::OnDeparture(std::uint32_t h, std::uint32_t idx) {
  ClientSlot& slot = *hosts_[h]->client[idx];
  DCTCPP_ASSERT(slot.socket.has_value());
  slot.socket->Close();
}

void ChurnWorkload::RetireClient(std::uint32_t h, std::uint32_t idx) {
  HostChurn& hc = *hosts_[h];
  // The departure timer normally initiated this close (already fired);
  // Cancel is then a no-op. An eager cancel here keeps the slot safe for
  // reuse in every path.
  hc.client[idx]->departure.Cancel();
  hc.client_retired.push_back(idx);
  ++hc.completed;
  --hc.live_clients;
}

void ChurnWorkload::RetireServer(std::uint32_t h, std::uint32_t idx) {
  HostChurn& hc = *hosts_[h];
  hc.server_retired.push_back(idx);
  --hc.live_servers;
}

void ChurnWorkload::OnListenPacket(std::uint32_t h, const Packet& pkt) {
  if (!pkt.tcp.syn || pkt.tcp.ack_flag) return;  // only fresh SYNs
  HostChurn& hc = *hosts_[h];
  DrainRetired(hc);
  if (hc.server_free.empty()) {
    // SYN ignored; the client's handshake RTO retries until a slot frees.
    ++hc.accept_dropped;
    return;
  }
  const std::uint32_t idx = hc.server_free.back();
  hc.server_free.pop_back();
  TcpSocket& sock = MaterializeServer(hc, idx).socket.emplace(
      *hc.host, MakeCc(), socket_config_);
  AttachServerCallbacks(sock, h, idx);
  ChurnListener::Accept(sock, pkt);
  ++hc.live_servers;
}

void ChurnWorkload::AttachServerCallbacks(TcpSocket& s, std::uint32_t h,
                                          std::uint32_t idx) {
  s.set_on_data([this, h](Bytes n) { hosts_[h]->bytes_received += n; });
  s.set_on_remote_close(
      [this, h, idx] { hosts_[h]->server[idx]->socket->Close(); });
  s.set_on_closed([this, h, idx] { RetireServer(h, idx); });
}

void ChurnWorkload::DrainRetired(HostChurn& hc) {
  for (std::uint32_t idx : hc.client_retired) {
    hc.client[idx]->socket.reset();
    hc.client_free.push_back(idx);
  }
  hc.client_retired.clear();
  for (std::uint32_t idx : hc.server_retired) {
    hc.server[idx]->socket.reset();
    hc.server_free.push_back(idx);
  }
  hc.server_retired.clear();
}

ChurnWorkload::ClientSlot& ChurnWorkload::MaterializeClient(
    HostChurn& hc, std::uint32_t idx) {
  std::unique_ptr<ClientSlot>& slot = hc.client[idx];
  if (!slot) {
    slot = std::make_unique<ClientSlot>(this, hc.index, idx,
                                        hc.host->sim());
  }
  return *slot;
}

ChurnWorkload::ServerSlot& ChurnWorkload::MaterializeServer(
    HostChurn& hc, std::uint32_t idx) {
  std::unique_ptr<ServerSlot>& slot = hc.server[idx];
  if (!slot) slot = std::make_unique<ServerSlot>();
  return *slot;
}

std::int64_t ChurnWorkload::live_flows() const {
  std::int64_t live = 0;
  for (const auto& hc : hosts_) live += hc->live_clients;
  return live;
}

ChurnStats ChurnWorkload::Stats() const {
  ChurnStats s;
  for (const auto& hc : hosts_) {
    s.flows_started += hc->started;
    s.flows_completed += hc->completed;
    s.arrivals_dropped += hc->dropped;
    s.accepts_dropped += hc->accept_dropped;
    s.live_flows += hc->live_clients;
    s.bytes_received += hc->bytes_received;
  }
  s.peak_live = peak_live_;
  s.violations = psim_->invariant_violations();
  s.events_executed = psim_->events_executed();
  s.packets_forwarded = psim_->packets_forwarded();
  return s;
}

std::uint64_t Fingerprint(const ChurnStats& s) {
  std::uint64_t h = kFnvOffset;
  h = FnvWord(h, s.flows_started);
  h = FnvWord(h, s.flows_completed);
  h = FnvWord(h, s.arrivals_dropped);
  h = FnvWord(h, s.accepts_dropped);
  h = FnvWord(h, static_cast<std::uint64_t>(s.live_flows));
  h = FnvWord(h, static_cast<std::uint64_t>(s.peak_live));
  h = FnvWord(h, static_cast<std::uint64_t>(s.bytes_received));
  h = FnvWord(h, s.violations);
  h = FnvWord(h, s.events_executed);
  h = FnvWord(h, s.packets_forwarded);
  return h;
}

ChurnFootprint ChurnWorkload::MeasureFootprint() {
  const auto allocated = [](const auto& slots) {
    return static_cast<std::size_t>(
        std::count_if(slots.begin(), slots.end(),
                      [](const auto& slot) { return slot != nullptr; }));
  };
  ChurnFootprint f;
  for (const auto& hc : hosts_) {
    const std::size_t clients = allocated(hc->client);
    const std::size_t servers = allocated(hc->server);
    f.materialized_slots += clients + servers;
    f.pool_bytes += clients * sizeof(ClientSlot) +
                    servers * sizeof(ServerSlot);
    f.pool_bytes += (hc->client.capacity() + hc->server.capacity()) *
                    sizeof(void*);
    f.pool_bytes += (hc->client_free.capacity() +
                     hc->client_retired.capacity() +
                     hc->server_free.capacity() +
                     hc->server_retired.capacity()) *
                    sizeof(std::uint32_t);
    f.port_table_bytes += hc->host->PortTableBytes();
    f.demux_table_bytes += hc->host->DemuxTableBytes();
  }
  f.calendar_bytes = psim_->CalendarBytes();
  for (int i = 0; i < config_.shards; ++i) {
    Simulator& sim = psim_->shard(i);
    f.scheduler_bytes += sim.scheduler().PoolBytes();
    f.arena_bytes += sim.arena().bytes_reserved();
  }
  f.peak_live = peak_live_;
  f.bytes_per_flow =
      static_cast<double>(f.pool_bytes + f.scheduler_bytes + f.arena_bytes +
                          f.port_table_bytes) /
      static_cast<double>(std::max<std::int64_t>(1, peak_live_));
  return f;
}

std::vector<std::uint8_t> ChurnWorkload::SaveCheckpoint() const {
  CheckpointWriter w;
  WriteCheckpoint(w);
  return w.TakeBlob();
}

std::uint64_t ChurnWorkload::Fingerprint() const {
  CheckpointWriter w = CheckpointWriter::HashOnly();
  WriteCheckpoint(w);
  return w.hash();
}

void ChurnWorkload::WriteCheckpoint(CheckpointWriter& w) const {
  DCTCPP_ASSERT(started_);
  w.U32(CheckpointWriter::kMagic);
  w.U32(CheckpointWriter::kVersion);
  w.Tag(kTagChurnWorld);
  // Config audit: a blob only restores onto an identically shaped world.
  w.U64(config_.seed);
  w.U64(static_cast<std::uint64_t>(config_.shards));
  w.I64(config_.target_live_flows);
  w.I64(config_.mean_lifetime);
  w.I64(config_.bytes_per_flow);
  w.U64(static_cast<std::uint64_t>(hosts()));
  w.U64(static_cast<std::uint64_t>(pool_capacity_));
  w.I64(peak_live_);
  psim_->SaveCheckpoint(w, this);
}

void ChurnWorkload::RestoreCheckpoint(
    const std::vector<std::uint8_t>& blob) {
  DCTCPP_ASSERT(!started_);
  CheckpointReader r(blob);
  DCTCPP_ASSERT(r.U32() == CheckpointWriter::kMagic);
  DCTCPP_ASSERT(r.U32() == CheckpointWriter::kVersion);
  r.ExpectTag(kTagChurnWorld);
  DCTCPP_ASSERT(r.U64() == config_.seed);
  DCTCPP_ASSERT(r.U64() == static_cast<std::uint64_t>(config_.shards));
  DCTCPP_ASSERT(r.I64() == config_.target_live_flows);
  DCTCPP_ASSERT(r.I64() == config_.mean_lifetime);
  DCTCPP_ASSERT(r.I64() == config_.bytes_per_flow);
  DCTCPP_ASSERT(r.U64() == static_cast<std::uint64_t>(hosts()));
  DCTCPP_ASSERT(r.U64() == static_cast<std::uint64_t>(pool_capacity_));
  peak_live_ = r.I64();
  psim_->RestoreCheckpoint(r, this);
  DCTCPP_ASSERT(r.AtEnd());
  started_ = true;
}

void ChurnWorkload::SaveWorkload(CheckpointWriter& w, int shard) const {
  w.Tag(kTagChurnShard);
  std::uint64_t count = 0;
  for (const auto& hc : hosts_) {
    if (hc->host->sim().shard_id() == shard) ++count;
  }
  w.U64(count);
  for (const auto& hcp : hosts_) {
    const HostChurn& hc = *hcp;
    if (hc.host->sim().shard_id() != shard) continue;
    w.U64(hc.index);

    const bool armed = hc.arrival.armed();
    w.Bool(armed);
    if (armed) {
      Tick at = 0;
      std::uint64_t seq = 0;
      hc.arrival.Arming(&at, &seq);
      w.I64(at);
      w.U64(seq);
    }

    std::uint64_t rng_state[4];
    hc.rng.SaveState(rng_state);
    for (std::uint64_t s : rng_state) w.U64(s);

    w.U64(static_cast<std::uint64_t>(hc.seed_remaining));
    w.F64(hc.seed_mean);
    w.U64(hc.started);
    w.U64(hc.completed);
    w.U64(hc.dropped);
    w.U64(hc.accept_dropped);
    w.I64(hc.bytes_received);
    w.I64(hc.live_clients);
    w.I64(hc.live_servers);

    WriteIndexList(w, hc.client_free);
    WriteIndexList(w, hc.client_retired);
    WriteIndexList(w, hc.server_free);
    WriteIndexList(w, hc.server_retired);

    // Retired (closed) sockets are saved too: a lazily cancelled delayed-
    // ACK timer can leave a stale wheel arming whose eventual no-op pop is
    // part of the event sequence.
    w.U64(hc.client.size());
    for (const auto& slot : hc.client) {
      const bool live = slot && slot->socket;
      w.Bool(live);
      if (live) {
        slot->socket->SaveState(w);
        slot->departure.SaveState(w);
      }
    }
    w.U64(hc.server.size());
    for (const auto& slot : hc.server) {
      const bool live = slot && slot->socket;
      w.Bool(live);
      if (live) slot->socket->SaveState(w);
    }
  }
}

void ChurnWorkload::RestoreWorkload(CheckpointReader& r, int shard) {
  r.ExpectTag(kTagChurnShard);
  const std::uint64_t count = r.U64();
  std::uint64_t seen = 0;
  for (auto& hcp : hosts_) {
    HostChurn& hc = *hcp;
    if (hc.host->sim().shard_id() != shard) continue;
    ++seen;
    DCTCPP_ASSERT(r.U64() == hc.index);

    if (r.Bool()) {
      const Tick at = r.I64();
      const std::uint64_t seq = r.U64();
      hc.arrival.ArmAtWithSeq(at, seq);
    }

    std::uint64_t rng_state[4];
    for (std::uint64_t& s : rng_state) s = r.U64();
    hc.rng.LoadState(rng_state);

    hc.seed_remaining = static_cast<int>(r.U64());
    hc.seed_mean = r.F64();
    hc.started = r.U64();
    hc.completed = r.U64();
    hc.dropped = r.U64();
    hc.accept_dropped = r.U64();
    hc.bytes_received = r.I64();
    hc.live_clients = r.I64();
    hc.live_servers = r.I64();

    hc.client_free.clear();
    hc.server_free.clear();
    ReadIndexList(r, hc.client_free);
    ReadIndexList(r, hc.client_retired);
    ReadIndexList(r, hc.server_free);
    ReadIndexList(r, hc.server_retired);

    DCTCPP_ASSERT(r.U64() == hc.client.size());
    for (std::uint32_t idx = 0; idx < hc.client.size(); ++idx) {
      if (!r.Bool()) continue;
      ClientSlot& slot = MaterializeClient(hc, idx);
      DCTCPP_ASSERT(!slot.socket);
      TcpSocket& sock =
          slot.socket.emplace(*hc.host, MakeCc(), socket_config_);
      const std::uint32_t h = hc.index;
      sock.set_on_closed([this, h, idx] { RetireClient(h, idx); });
      sock.LoadState(r);
      slot.departure.LoadState(r);
    }
    DCTCPP_ASSERT(r.U64() == hc.server.size());
    for (std::uint32_t idx = 0; idx < hc.server.size(); ++idx) {
      if (!r.Bool()) continue;
      ServerSlot& slot = MaterializeServer(hc, idx);
      DCTCPP_ASSERT(!slot.socket);
      TcpSocket& sock =
          slot.socket.emplace(*hc.host, MakeCc(), socket_config_);
      AttachServerCallbacks(sock, hc.index, idx);
      sock.LoadState(r);
    }
  }
  DCTCPP_ASSERT(seen == count);
}

}  // namespace dctcpp
