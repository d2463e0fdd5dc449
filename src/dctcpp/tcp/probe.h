// In-stack tracing, the simulation analogue of the `tcp_probe` kernel
// module the paper uses to watch cwnd and ECE at the senders.
//
// A TcpProbe attached to a socket observes ACK processing, transmissions,
// and timeouts. RecordingProbe accumulates exactly the statistics the
// paper's analysis needs: the cwnd frequency distribution (Fig 2), the
// count of "cwnd at minimum while ECE set" events, and the timeout
// taxonomy of Table I.
#pragma once

#include <cstdint>

#include "dctcpp/stats/histogram.h"

namespace dctcpp {

class TcpSocket;
struct Packet;

/// Why a retransmission timeout fired, following the taxonomy of
/// Zhang et al. (ICNP'13) that the paper uses:
///  - kFullWindowLoss (FLoss-TO): every packet of the outstanding window
///    was lost, so the sender got no feedback at all.
///  - kLackOfAcks (LAck-TO): some feedback arrived but fewer than three
///    duplicate ACKs, so fast retransmit could not trigger.
enum class TimeoutKind : std::uint8_t { kFullWindowLoss, kLackOfAcks };

class TcpProbe {
 public:
  virtual ~TcpProbe() = default;

  /// After each processed ACK. `cwnd` is the post-processing window (MSS),
  /// `ece` the flag on the ACK, `at_min_with_ece` the paper's "cwnd at the
  /// lower bound while still asked to slow down" condition.
  virtual void OnAckProcessed(const TcpSocket& sk, int cwnd, bool ece,
                              bool at_min_with_ece) {
    (void)sk; (void)cwnd; (void)ece; (void)at_min_with_ece;
  }

  /// A data segment left the socket. `retransmit` marks retransmissions.
  virtual void OnSegmentSent(const TcpSocket& sk, const Packet& pkt,
                             bool retransmit) {
    (void)sk; (void)pkt; (void)retransmit;
  }

  /// The retransmission timer fired.
  virtual void OnTimeout(const TcpSocket& sk, TimeoutKind kind) {
    (void)sk; (void)kind;
  }

  /// Fast retransmit triggered by triple duplicate ACKs.
  virtual void OnFastRetransmit(const TcpSocket& sk) { (void)sk; }
};

/// Concrete probe collecting the paper's per-flow statistics.
class RecordingProbe : public TcpProbe {
 public:
  /// cwnd histogram bins cover [1, cwnd_bins] MSS (Fig 2 plots 1..10).
  explicit RecordingProbe(int cwnd_bins = 16);

  void OnAckProcessed(const TcpSocket& sk, int cwnd, bool ece,
                      bool at_min_with_ece) override;
  void OnSegmentSent(const TcpSocket& sk, const Packet& pkt,
                     bool retransmit) override;
  void OnTimeout(const TcpSocket& sk, TimeoutKind kind) override;
  void OnFastRetransmit(const TcpSocket& sk) override;

  const Histogram& cwnd_histogram() const { return cwnd_histogram_; }
  std::uint64_t acks() const { return acks_; }
  std::uint64_t ece_acks() const { return ece_acks_; }
  std::uint64_t at_min_with_ece() const { return at_min_with_ece_; }
  std::uint64_t timeouts() const {
    return floss_timeouts_ + lack_timeouts_;
  }
  std::uint64_t floss_timeouts() const { return floss_timeouts_; }
  std::uint64_t lack_timeouts() const { return lack_timeouts_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t retransmitted_segments() const {
    return retransmitted_segments_;
  }

  /// Clears event counters but keeps the histogram binning. Used by
  /// round-based workloads that aggregate per round.
  void ResetCounters();

 private:
  Histogram cwnd_histogram_;
  std::uint64_t acks_ = 0;
  std::uint64_t ece_acks_ = 0;
  std::uint64_t at_min_with_ece_ = 0;
  std::uint64_t floss_timeouts_ = 0;
  std::uint64_t lack_timeouts_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmitted_segments_ = 0;
};

}  // namespace dctcpp
