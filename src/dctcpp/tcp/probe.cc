#include "dctcpp/tcp/probe.h"

namespace dctcpp {

RecordingProbe::RecordingProbe(int cwnd_bins)
    : cwnd_histogram_(1, cwnd_bins) {}

void RecordingProbe::OnAckProcessed(const TcpSocket& sk, int cwnd, bool ece,
                                    bool at_min_with_ece) {
  (void)sk;
  ++acks_;
  if (ece) ++ece_acks_;
  if (at_min_with_ece) ++at_min_with_ece_;
  cwnd_histogram_.Add(cwnd);
}

void RecordingProbe::OnSegmentSent(const TcpSocket& sk, const Packet& pkt,
                                   bool retransmit) {
  (void)sk;
  (void)pkt;
  ++segments_sent_;
  if (retransmit) ++retransmitted_segments_;
}

void RecordingProbe::OnTimeout(const TcpSocket& sk, TimeoutKind kind) {
  (void)sk;
  if (kind == TimeoutKind::kFullWindowLoss) {
    ++floss_timeouts_;
  } else {
    ++lack_timeouts_;
  }
}

void RecordingProbe::OnFastRetransmit(const TcpSocket& sk) {
  (void)sk;
  ++fast_retransmits_;
}

void RecordingProbe::ResetCounters() {
  acks_ = 0;
  ece_acks_ = 0;
  at_min_with_ece_ = 0;
  floss_timeouts_ = 0;
  lack_timeouts_ = 0;
  fast_retransmits_ = 0;
  segments_sent_ = 0;
  retransmitted_segments_ = 0;
}

}  // namespace dctcpp
