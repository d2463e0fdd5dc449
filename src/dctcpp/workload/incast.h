// The paper's incast benchmark (Secs. III, VI-B, VI-C):
// an aggregator requests `total_bytes / N` from each of N concurrent flows
// spread over the worker hosts of the 2-tier topology; when all responses
// arrive it immediately issues the next round. Optionally mixes in
// persistent background long flows through the same bottleneck (Fig 10)
// and samples the bottleneck queue every 100 us (Figs 9/14).
#pragma once

#include <cstdint>
#include <vector>

#include "dctcpp/core/protocol.h"
#include "dctcpp/net/topology.h"
#include "dctcpp/stats/histogram.h"
#include "dctcpp/stats/summary.h"
#include "dctcpp/stats/time_series.h"
#include "dctcpp/tcp/socket.h"

namespace dctcpp {

struct IncastConfig {
  Protocol protocol = Protocol::kDctcp;
  /// N, the number of concurrent flows (multiple flows share each worker
  /// host, as in the paper's multithreaded benchmark).
  int num_flows = 10;
  int num_workers = 9;
  /// Total bytes per round, split evenly over the flows...
  Bytes total_bytes = 1 * kMiB;
  /// ...unless this is set (> 0): fixed bytes per flow per round (Fig 14).
  Bytes per_flow_bytes = 0;
  int rounds = 50;
  Bytes request_size = 64;
  /// Admission-control analogue (Sec. VII): the aggregator staggers the
  /// requests of each round by this interval per flow instead of issuing
  /// them simultaneously, spreading the fan-in burst at its source.
  /// 0 = the paper's default (all requests at once).
  Tick request_stagger = 0;
  LinkConfig link;  ///< 1 Gbps, 10 us, 128 KB buffer, K = 32 KB by default
  Tick min_rto = 200 * kMillisecond;
  std::uint64_t seed = 1;
  ProtocolOptions options;
  /// Persistent long flows from workers to the aggregator (Fig 10 uses 2).
  int background_flows = 0;
  bool sample_queue = false;
  Tick queue_sample_period = 100 * kMicrosecond;
  Tick time_limit = 300 * kSecond;
  /// Socket knobs shared by every endpoint; the RTO floor is overwritten
  /// from `min_rto`.
  TcpSocket::Config socket;
};

struct IncastResult {
  Protocol protocol{};
  int num_flows = 0;

  /// Per-round flow completion times, milliseconds.
  Percentile fct_ms;
  /// Application goodput over the benchmark (response bytes / wall time
  /// from the first request to the last response).
  double goodput_mbps = 0.0;

  /// Per-ACK cwnd samples across all worker (sender) sockets (Fig 2).
  Histogram cwnd_hist{1, 16};

  std::uint64_t rounds_completed = 0;

  // All-flow totals.
  std::uint64_t timeouts = 0;
  std::uint64_t floss_timeouts = 0;
  std::uint64_t lack_timeouts = 0;
  std::uint64_t fast_retransmits = 0;

  // Per-round statistics of the tracked ("randomly selected") flow, as in
  // Table I: in how many rounds it saw cwnd pinned at the minimum while
  // ECE kept arriving, and in how many it suffered a timeout.
  std::uint64_t tracked_rounds_at_min_ece = 0;
  std::uint64_t tracked_rounds_with_timeout = 0;
  std::uint64_t tracked_floss = 0;
  std::uint64_t tracked_lack = 0;

  /// Bottleneck-queue samples (present when sample_queue).
  std::vector<TimeSeriesSampler::Sample> queue_samples;

  /// Average throughput of each background long flow, Mbps.
  std::vector<double> bg_throughput_mbps;

  // Bottleneck-port statistics.
  std::uint64_t bottleneck_drops = 0;
  std::uint64_t bottleneck_marks = 0;
  Bytes bottleneck_max_queue = 0;

  /// Jain fairness index over the per-flow byte totals delivered to the
  /// aggregator (1 = all concurrent flows progressed equally).
  double flow_fairness = 0.0;

  std::uint64_t events = 0;
  /// Packets accepted by any egress port over the run (datapath volume).
  std::uint64_t packets_forwarded = 0;
  double sim_seconds = 0.0;
  bool hit_time_limit = false;

  // Always-on invariant checking (util/invariants.h): violation count and
  // the global packet ledger at the end of the run. Soaks and tests assert
  // invariant_violations == 0.
  std::uint64_t invariant_violations = 0;
  std::uint64_t packets_originated = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packets_duplicated = 0;
  std::uint64_t checksum_discards = 0;

  /// Bytes each round delivers (for reporting).
  Bytes per_flow_bytes = 0;
};

/// Runs one incast simulation to completion and returns its metrics.
IncastResult RunIncast(const IncastConfig& config);

/// Order-sensitive FNV-1a (util/fnv.h) over every deterministic field of
/// the result, doubles by bit pattern: equal fingerprints mean
/// bit-identical results.
std::uint64_t Fingerprint(const IncastResult& r);

}  // namespace dctcpp
