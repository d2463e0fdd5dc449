#include "dctcpp/net/queue.h"

#include <algorithm>

#include "dctcpp/util/assert.h"

namespace dctcpp {

DropTailEcnQueue::DropTailEcnQueue(Bytes capacity, Bytes ecn_threshold)
    : capacity_(capacity), ecn_threshold_(ecn_threshold) {
  DCTCPP_ASSERT(capacity_ > 0);
}

void DropTailEcnQueue::EnableRed(const RedConfig& config, Rng* rng) {
  DCTCPP_ASSERT(rng != nullptr);
  DCTCPP_ASSERT(config.min_th >= 0 && config.max_th > config.min_th);
  DCTCPP_ASSERT(config.max_p > 0.0 && config.max_p <= 1.0);
  DCTCPP_ASSERT(config.weight > 0.0 && config.weight <= 1.0);
  red_config_ = config;
  red_rng_ = rng;
}

bool DropTailEcnQueue::RedShouldMark() {
  // EWMA of the instantaneous queue, updated per arrival.
  red_avg_ = (1.0 - red_config_.weight) * red_avg_ +
             red_config_.weight * static_cast<double>(occupancy_);
  if (red_avg_ < static_cast<double>(red_config_.min_th)) return false;
  if (red_avg_ >= static_cast<double>(red_config_.max_th)) return true;
  const double frac =
      (red_avg_ - static_cast<double>(red_config_.min_th)) /
      static_cast<double>(red_config_.max_th - red_config_.min_th);
  return red_rng_->Chance(red_config_.max_p * frac);
}

bool DropTailEcnQueue::Enqueue(const Packet& pkt) {
  const Bytes size = pkt.WireSize();
  if (occupancy_ + size > capacity_) {
    ++stats_.dropped;
    return false;
  }
  bool mark = false;
  if (red_rng_ != nullptr) {
    // RED: probabilistic marking against the *average* queue. The EWMA
    // update inside must run for every arrival, ECT or not.
    mark = RedShouldMark() && pkt.ecn != Ecn::kNotEct;
  } else if (ecn_threshold_ > 0 && pkt.ecn != Ecn::kNotEct &&
             occupancy_ + size > ecn_threshold_) {
    // DCTCP marking rule: mark the arriving packet while the
    // instantaneous queue (including this packet) exceeds K.
    mark = true;
  }
  // Single copy into the FIFO slot; marking mutates the slot in place.
  Packet& slot = queue_.PushBack(pkt);
  if (mark) {
    slot.ecn = Ecn::kCe;
    ++stats_.marked;
  }
  occupancy_ += size;
  stats_.max_occupancy = std::max(stats_.max_occupancy, occupancy_);
  ++stats_.enqueued;
  return true;
}

std::optional<Packet> DropTailEcnQueue::Dequeue() {
  DCTCPP_DASSERT(n_propagating_ == 0 && !serving_);
  if (queue_.Empty()) return std::nullopt;
  Packet pkt = queue_.Front();
  PopFront();
  return pkt;
}

void DropTailEcnQueue::PopFront() {
  // Standalone queues only: the staged pipeline never pops a queued
  // packet, it re-labels it as serving.
  DCTCPP_DASSERT(n_propagating_ == 0 && !serving_);
  occupancy_ -= queue_.Front().WireSize();
  DCTCPP_ASSERT(occupancy_ >= 0);
  queue_.PopFront();
}

const Packet& DropTailEcnQueue::BeginService() {
  DCTCPP_DASSERT(!serving_);
  DCTCPP_DASSERT(PacketCount() > 0);
  const Packet& pkt = queue_.At(n_propagating_);
  occupancy_ -= pkt.WireSize();
  DCTCPP_ASSERT(occupancy_ >= 0);
  serving_ = true;
  return pkt;
}

void DropTailEcnQueue::FinishServiceToWire() {
  DCTCPP_DASSERT(serving_);
  serving_ = false;
  ++n_propagating_;
}

void DropTailEcnQueue::DropServing() {
  DCTCPP_DASSERT(serving_ && n_propagating_ == 0);
  serving_ = false;
  queue_.PopFront();
}

void DropTailEcnQueue::PopPropagating() {
  DCTCPP_DASSERT(n_propagating_ > 0);
  --n_propagating_;
  queue_.PopFront();
}

void DropTailEcnQueue::SaveState(CheckpointWriter& w) const {
  // Region sizes first, then every resident packet in FIFO order — the
  // staged regions reconstruct from the sizes alone (their packets are
  // the FIFO prefix). Standalone queues write 0/false here.
  w.U64(n_propagating_);
  w.Bool(serving_);
  w.U64(queue_.Size());
  queue_.ForEach([&w](const Packet& pkt) { SavePacket(w, pkt); });
  w.I64(occupancy_);
  w.U64(stats_.enqueued);
  w.U64(stats_.dropped);
  w.U64(stats_.marked);
  w.I64(stats_.max_occupancy);
  w.F64(red_avg_);
}

void DropTailEcnQueue::LoadState(CheckpointReader& r) {
  DCTCPP_ASSERT(queue_.Empty());
  DCTCPP_ASSERT(n_propagating_ == 0 && !serving_);
  n_propagating_ = r.U64();
  serving_ = r.Bool();
  const std::uint64_t n = r.U64();
  for (std::uint64_t i = 0; i < n; ++i) queue_.PushBack(LoadPacket(r));
  occupancy_ = r.I64();
  stats_.enqueued = r.U64();
  stats_.dropped = r.U64();
  stats_.marked = r.U64();
  stats_.max_occupancy = r.I64();
  red_avg_ = r.F64();
}

}  // namespace dctcpp
