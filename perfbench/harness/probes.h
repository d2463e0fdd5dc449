// Outside-in probes of single layers: each drives one public entry point
// (TimerWheelScheduler, DropTailEcnQueue, FlatFlowTable, CongestionOps)
// and reports host nanoseconds per operation. They stand in for spans
// inside the program, which this benchmark does not add.
//
// The probes take their traffic shape from one of the workload's incast
// jobs, never from hand-set constants:
//  - the congestion-control probes run that job itself, rebuilt from the
//    public building blocks RunIncast uses (TwoTierTopology, WorkerServer,
//    AggregatorClient), with every sender's CongestionOps wrapped in a
//    timing decorator; the rebuilt job must reproduce RunIncast's events,
//    packet-hops and ECN marks exactly;
//  - the wheel probe keeps as many events pending as that run had on
//    average, splits per-packet and timer delays by that run's
//    packet-hops per event, and draws the delays from the job's link and
//    socket configuration;
//  - the queue and flow-table probes use the job's flow count and the
//    bottleneck's buffer and marking threshold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dctcpp/workload/incast.h"
#include "trace.h"

namespace perfbench {

/// One protocol's run of the rebuilt incast job.
struct CcRun {
  double ns_per_ack = 0.0;  ///< CongestionOps host time per sender ACK
  std::uint64_t acks = 0;   ///< ACKs the senders' CongestionOps saw
  double ece_frac = 0.0;    ///< share of those ACKs carrying ECN-echo
  double mean_pending = 0.0;  ///< wheel events pending, averaged per ACK
  double events = 0.0;        ///< simulator events of the first job
  double pkt_hops = 0.0;      ///< packet-hops of the first job
};

struct ProbeResults {
  double wheel_ns_per_event = 0.0;
  double queue_ns_per_pkt = 0.0;
  double flow_table_ns_per_lookup = 0.0;
  CcRun dctcp;  ///< the job run with DCTCP
  CcRun core;   ///< the job run with DCTCP+
  /// The wheel probe's derived shape.
  double wheel_pending = 0.0;
  double wheel_timer_frac = 0.0;
  /// Gate failures: a rebuilt job that did not reproduce RunIncast.
  std::vector<std::string> failures;
};

/// Runs every probe against the shape of `job` (the workload's own
/// protocol is `job.protocol`), each time measurement the median of several
/// repetitions after one unmeasured warm-up, under "probe.<layer>" spans.
ProbeResults RunProbes(const dctcpp::IncastConfig& job, Tracer* tracer);

}  // namespace perfbench
