// Churning open-loop workload: an M/G/inf flow population over a fat-tree
// fabric. Every host runs an independent Poisson arrival process (rate
// lambda/H from a per-host RNG stream, so the draw sequence is invariant
// to the shard count); each arrival opens a TCP connection to a uniformly
// random peer, queues `bytes_per_flow`, and closes after an Exp(L)
// lifetime fired by a per-slot departure timer. Steady state sustains
// ~`target_live_flows` (= lambda * L) concurrent connections, churning
// continuously -- the regime of the paper's massive-concurrent-flow
// experiments, sustained here for soak testing (up to 10^6 live flows).
//
// Design constraints the implementation is built around:
//
//  - Memory follows live flows. Each host has a fixed-capacity pool of
//    client and server slots; a slot is allocated the first time its
//    free-list index is handed out and then kept for the world's life, so
//    a pool holds as many slots as the host's peak occupancy, never one
//    allocation per flow. The bytes-per-flow footprint is measurable and
//    gated (`MeasureFootprint`). A full pool drops the arrival (counted)
//    rather than growing.
//
//  - Deterministic recycling. A closed socket cannot be destroyed from
//    inside its own completion callback, so slots retire to a list that
//    is drained at the host's *next churn event* (arrival or inbound SYN)
//    -- a point in simulated time, never wall time, so runs are
//    bit-reproducible across thread pools and checkpoint cycles.
//
//  - Checkpointable. ChurnWorkload implements CheckpointHooks: per shard
//    it serializes every host's arrival-event arming, RNG stream, slot
//    pools (socket state + departure timers), and free/retired-list
//    *order* (allocation order is program-visible). `SaveCheckpoint`
//    captures the whole world -- workload plus engine via
//    ParallelSimulation::SaveCheckpoint -- into one versioned blob, and
//    `Fingerprint` streams the same bytes through FNV-1a without
//    buffering them: two worlds fingerprint equal iff their serialized
//    states are bit-identical. Whether a slot has been allocated is not
//    state: a slot that holds no socket serializes the same either way,
//    and a restored world allocates only the slots holding one.
//
// Checkpoint/restore protocol (mirrors sim/checkpoint.h): save only at a
// `RunTo` return; restore onto a freshly constructed, *not started*
// ChurnWorkload built from the same config. Comparing a restored run
// against a reference requires the reference to stop at the same
// RunTo boundaries (window sequence is part of coordinator state).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dctcpp/core/protocol.h"
#include "dctcpp/net/fabric.h"
#include "dctcpp/net/parallel.h"
#include "dctcpp/net/partition.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/sim/checkpoint.h"
#include "dctcpp/sim/pinned_event.h"
#include "dctcpp/sim/timer.h"
#include "dctcpp/tcp/socket.h"
#include "dctcpp/util/rng.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

/// Well-known port every churn server listens on.
inline constexpr PortNum kChurnPort = 9000;

/// Stream-id base for per-host churn RNG streams (see Simulator::StreamRng;
/// disjoint from socket streams at 1<<40 and RED streams at 1<<41).
inline constexpr std::uint64_t kChurnStreamBase = 1ULL << 42;

struct ChurnConfig {
  // --- fabric ----------------------------------------------------------
  FatTreeConfig fat_tree{};  ///< `link` below overrides fat_tree.link
  LinkConfig link;           ///< carries the impairment profile, if any
  int shards = 1;
  PartitionStrategy strategy = PartitionStrategy::kPod;

  // --- transport -------------------------------------------------------
  Protocol protocol = Protocol::kDctcpPlus;
  ProtocolOptions options;
  TcpSocket::Config socket;
  Tick min_rto = 10 * kMillisecond;

  // --- churn process ---------------------------------------------------
  std::uint64_t seed = 1;
  /// Steady-state live-flow target (= arrival rate x mean lifetime).
  std::int64_t target_live_flows = 1000;
  /// Mean Exp() flow lifetime L; the fabric-wide arrival rate is derived
  /// as target_live_flows / L.
  Tick mean_lifetime = 50 * kMillisecond;
  Bytes bytes_per_flow = 8 * kKiB;
  /// Per-host socket-pool capacity (clients and servers each). 0 derives
  /// mean-per-host + 5 sigma + 16 headroom.
  int max_live_per_host = 0;
  /// Ramp: the initial target_live_flows arrivals are seeded at a
  /// compressed rate so the population reaches steady state in ~prewarm.
  Tick prewarm = 20 * kMillisecond;
};

/// Aggregated (barrier-time) counters; all derived from per-host state.
struct ChurnStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;   ///< client socket fully closed
  std::uint64_t arrivals_dropped = 0;  ///< client pool exhausted
  std::uint64_t accepts_dropped = 0;   ///< server pool exhausted (SYN ignored)
  std::int64_t live_flows = 0;         ///< currently open client sockets
  std::int64_t peak_live = 0;          ///< max live_flows over RunTo barriers
  Bytes bytes_received = 0;            ///< payload delivered to servers
  std::uint64_t violations = 0;        ///< NetworkInvariants + merge checks
  std::uint64_t events_executed = 0;
  std::uint64_t packets_forwarded = 0;
};

/// FNV-1a (util/fnv.h) over every ChurnStats field in declaration order.
/// Unlike ChurnWorkload::Fingerprint it never reads a checkpoint blob, so
/// it stays comparable across checkpoint format versions.
std::uint64_t Fingerprint(const ChurnStats& s);

/// Pool + engine memory attributable to sustaining the flow population.
/// Not counted: heap a live socket owns outside its slot -- its
/// CongestionOps object and the SACK IntervalSet / receive-buffer
/// vectors -- and the fabric itself (switches, ports, routes, and each
/// host's demux tables; only the hosts' port tables are counted).
struct ChurnFootprint {
  std::size_t materialized_slots = 0;  ///< client + server slots allocated
  /// Allocated slots, the per-host slot pointer tables, and the
  /// free/retired lists.
  std::size_t pool_bytes = 0;
  std::size_t scheduler_bytes = 0;  ///< timer-wheel node + action pools
  std::size_t arena_bytes = 0;      ///< per-shard arena reservations
  std::size_t port_table_bytes = 0;  ///< hosts' local-port refcount tables
  std::int64_t peak_live = 0;
  /// total / max(1, peak_live), where total counts the four byte fields
  /// above; the two below are reported beside it, not in it.
  double bytes_per_flow = 0.0;
  std::size_t demux_table_bytes = 0;  ///< hosts' connection demux tables
  std::size_t calendar_bytes = 0;     ///< arrival calendars + inbound rings
};

/// Grants the churn workload access to TcpSocket's passive-open entry
/// (AcceptFrom) without routing accepted sockets through the arena-owning
/// TcpListener: churn servers are constructed in place in pooled slots.
class ChurnListener {
 public:
  static void Accept(TcpSocket& socket, const Packet& syn);
};

class ChurnWorkload final : public CheckpointHooks {
 public:
  explicit ChurnWorkload(const ChurnConfig& config);
  ~ChurnWorkload() override;

  ChurnWorkload(const ChurnWorkload&) = delete;
  ChurnWorkload& operator=(const ChurnWorkload&) = delete;

  /// Seeds the initial flow ramp and arms every host's arrival process.
  /// Call exactly once -- or not at all on a world about to be restored.
  void Start();

  /// Runs the fabric to `deadline` (a checkpoint barrier on return) and
  /// refreshes barrier-sampled stats (live peak).
  void RunTo(Tick deadline, ThreadPool* pool = nullptr);

  /// Whole-world snapshot: config audit + workload + engine. Only valid
  /// immediately after a RunTo return (or before Start).
  std::vector<std::uint8_t> SaveCheckpoint() const;

  /// Restores a SaveCheckpoint blob onto this freshly constructed,
  /// never-started world. The config must match the saving run's.
  void RestoreCheckpoint(const std::vector<std::uint8_t>& blob);

  /// FNV-1a over the SaveCheckpoint blob, computed as the bytes are
  /// written (no blob is built): bit-identical state <=> equal.
  std::uint64_t Fingerprint() const;

  ChurnStats Stats() const;
  ChurnFootprint MeasureFootprint();
  std::int64_t live_flows() const;

  int hosts() const { return fabric_->num_hosts(); }
  ParallelSimulation& psim() { return *psim_; }
  const ChurnConfig& config() const { return config_; }

  // CheckpointHooks (called per shard by Simulator::SaveCheckpoint).
  void SaveWorkload(CheckpointWriter& w, int shard) const override;
  void RestoreWorkload(CheckpointReader& r, int shard) override;

 private:
  struct HostChurn;

  // A slot's socket is engaged while it carries a flow (live, or closed
  // and awaiting DrainRetired); the slot itself outlives many flows.
  struct ClientSlot {
    ClientSlot(ChurnWorkload* w, std::uint32_t host, std::uint32_t idx,
               Simulator& sim)
        : departure(sim, [w, host, idx] { w->OnDeparture(host, idx); }) {}

    Timer departure;  ///< fires the Exp(L) lifetime -> Close()
    std::optional<TcpSocket> socket;
  };

  struct ServerSlot {
    std::optional<TcpSocket> socket;
  };

  /// All churn state for one host; touched only by that host's shard.
  struct HostChurn {
    HostChurn(ChurnWorkload* w, std::uint32_t host_index, Host& h);

    ChurnWorkload* owner;
    std::uint32_t index;
    Host* host;
    Rng rng;              ///< per-host stream: dst, lifetime, inter-arrival
    PinnedEvent arrival;  ///< next Poisson arrival on this host

    // pool_capacity_ entries each; an entry stays null until its index is
    // first popped off a free list, then keeps its slot (stable address,
    // no per-flow allocation) until the world is destroyed.
    std::vector<std::unique_ptr<ClientSlot>> client;
    std::vector<std::unique_ptr<ServerSlot>> server;
    // Free lists are LIFO stacks; retired lists hold closed sockets whose
    // destruction is deferred to the next churn event on this host. Both
    // orders are program-visible, so both are checkpointed verbatim.
    std::vector<std::uint32_t> client_free;
    std::vector<std::uint32_t> client_retired;
    std::vector<std::uint32_t> server_free;
    std::vector<std::uint32_t> server_retired;

    int seed_remaining = 0;  ///< ramp arrivals left at the compressed rate
    double seed_mean = 0.0;  ///< ramp inter-arrival mean (ticks)
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t accept_dropped = 0;
    Bytes bytes_received = 0;
    std::int64_t live_clients = 0;
    std::int64_t live_servers = 0;
  };

  // Churn machinery (all run on the owning host's shard).
  void OnArrival(std::uint32_t h);
  void OnDeparture(std::uint32_t h, std::uint32_t idx);
  void OnListenPacket(std::uint32_t h, const Packet& pkt);
  void RetireClient(std::uint32_t h, std::uint32_t idx);
  void RetireServer(std::uint32_t h, std::uint32_t idx);
  void DrainRetired(HostChurn& hc);
  ClientSlot& MaterializeClient(HostChurn& hc, std::uint32_t idx);
  ServerSlot& MaterializeServer(HostChurn& hc, std::uint32_t idx);
  /// The SaveCheckpoint body; Fingerprint runs it with a HashOnly writer.
  void WriteCheckpoint(CheckpointWriter& w) const;
  void AttachServerCallbacks(TcpSocket& s, std::uint32_t h,
                             std::uint32_t idx);
  double SteadyMean() const;  ///< steady-state inter-arrival mean (ticks)
  std::unique_ptr<CongestionOps> MakeCc() const;

  ChurnConfig config_;
  TcpSocket::Config socket_config_;
  std::unique_ptr<FatTreeFabric> fabric_;
  std::unique_ptr<ParallelSimulation> psim_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<HostChurn>> hosts_;
  int pool_capacity_ = 0;
  bool started_ = false;
  std::int64_t peak_live_ = 0;  ///< sampled at RunTo barriers only
};

}  // namespace dctcpp
