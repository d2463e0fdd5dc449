// Receiver-side reassembly: tracks which sequence ranges have arrived and
// how far the in-order prefix (rcv_nxt) extends. Payload content is not
// modelled, only coverage.
//
// Internally 32-bit sequence numbers are unwrapped to 64-bit linear stream
// offsets: an arriving segment is positioned by its modular distance from
// the current rcv_nxt (always < 2^31 for live data), so arbitrarily long
// streams work across wraps while the interval bookkeeping stays linear.
//
// The out-of-order scoreboard is pluggable: production uses the flat
// sorted-vector IntervalSet (no allocation per out-of-order segment); the
// differential test instantiates the same logic over the std::map
// interval set in tests/reference/ and asserts identical ACK/SACK output
// on randomized arrival patterns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dctcpp/tcp/seq.h"
#include "dctcpp/util/interval_set.h"
#include "dctcpp/util/invariants.h"
#include "dctcpp/util/units.h"

namespace dctcpp {

template <typename IntervalSetT>
class BasicReceiveBuffer {
 public:
  explicit BasicReceiveBuffer(SeqNum initial_rcv_nxt = SeqNum(0))
      : rcv_nxt_(initial_rcv_nxt) {}

  /// Records the arrival of [seq, seq+len). Returns the number of bytes by
  /// which the in-order prefix advanced (0 for duplicates and segments that
  /// leave a hole in front).
  Bytes OnSegment(SeqNum seq, Bytes len);

  /// Next expected byte — the cumulative ACK value.
  SeqNum rcv_nxt() const { return rcv_nxt_; }

  /// Total in-order bytes delivered since construction.
  Bytes DeliveredBytes() const { return linear_rcv_nxt_; }

  /// True if out-of-order data is buffered beyond rcv_nxt.
  bool HasGaps() const { return !ooo_.empty(); }

  std::size_t OutOfOrderRanges() const { return ooo_.size(); }
  Bytes OutOfOrderBytes() const { return ooo_.TotalBytes(); }

  /// Up to `max_blocks` held out-of-order ranges as absolute sequence
  /// ranges, lowest first — the receiver's SACK option content.
  struct SeqRange {
    SeqNum start;
    SeqNum end;  // exclusive
  };
  std::vector<SeqRange> SackRanges(std::size_t max_blocks) const;

  /// Structural audit for the invariant checker: every out-of-order range
  /// must be non-empty, sorted, mutually disjoint and non-adjacent, and lie
  /// strictly beyond the in-order edge (anything touching the edge should
  /// already have advanced rcv_nxt). O(live ranges); reports to `inv`.
  void CheckConsistent(NetworkInvariants& inv) const {
    std::int64_t prev_end = linear_rcv_nxt_;
    ooo_.ForEach([&](const Interval& iv) {
      if (iv.end <= iv.start) {
        inv.Violate("rx-scoreboard", "empty out-of-order range [%lld, %lld)",
                    static_cast<long long>(iv.start),
                    static_cast<long long>(iv.end));
        return false;
      }
      if (iv.start <= prev_end) {
        inv.Violate("rx-scoreboard",
                    "range [%lld, %lld) overlaps/abuts predecessor ending at "
                    "%lld (in-order edge %lld)",
                    static_cast<long long>(iv.start),
                    static_cast<long long>(iv.end),
                    static_cast<long long>(prev_end),
                    static_cast<long long>(linear_rcv_nxt_));
        return false;
      }
      prev_end = iv.end;
      return true;
    });
  }

  /// Checkpoint: the in-order edge plus the out-of-order scoreboard
  /// (ranges re-Added in sorted order reproduce the flat vector exactly).
  template <typename Writer>
  void SaveState(Writer& w) const {
    w.U32(rcv_nxt_.raw());
    w.I64(linear_rcv_nxt_);
    w.U64(ooo_.size());
    ooo_.ForEach([&w](const Interval& iv) {
      w.I64(iv.start);
      w.I64(iv.end);
      return true;
    });
  }
  template <typename Reader>
  void LoadState(Reader& r) {
    rcv_nxt_ = SeqNum(r.U32());
    linear_rcv_nxt_ = r.I64();
    const std::uint64_t n = r.U64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::int64_t start = r.I64();
      const std::int64_t end = r.I64();
      ooo_.Add(start, end);
    }
  }

 private:
  SeqNum rcv_nxt_;
  std::int64_t linear_rcv_nxt_ = 0;
  // Disjoint, non-adjacent out-of-order ranges in linear offsets:
  // [start, end), all beyond linear_rcv_nxt_.
  IntervalSetT ooo_;
};

template <typename IntervalSetT>
Bytes BasicReceiveBuffer<IntervalSetT>::OnSegment(SeqNum seq, Bytes len) {
  DCTCPP_ASSERT(len >= 0);
  if (len == 0) return 0;

  // Unwrap to linear offsets relative to the current in-order edge.
  const std::int64_t start = linear_rcv_nxt_ + seq.DistanceFrom(rcv_nxt_);
  const std::int64_t end = start + len;

  const std::int64_t new_start = std::max(start, linear_rcv_nxt_);
  if (new_start >= end) return 0;  // entirely duplicate

  ooo_.Add(new_start, end);

  // Advance the in-order edge over any now-contiguous prefix.
  Bytes advanced = 0;
  if (!ooo_.empty()) {
    const Interval front = ooo_.front();
    if (front.start <= linear_rcv_nxt_) {
      const std::int64_t new_edge = std::max(front.end, linear_rcv_nxt_);
      advanced = new_edge - linear_rcv_nxt_;
      linear_rcv_nxt_ = new_edge;
      rcv_nxt_ += advanced;
      ooo_.PopFront();
    }
  }
  return advanced;
}

template <typename IntervalSetT>
std::vector<typename BasicReceiveBuffer<IntervalSetT>::SeqRange>
BasicReceiveBuffer<IntervalSetT>::SackRanges(std::size_t max_blocks) const {
  std::vector<SeqRange> out;
  out.reserve(std::min(max_blocks, ooo_.size()));
  ooo_.ForEach([&](const Interval& iv) {
    if (out.size() == max_blocks) return false;
    out.push_back(SeqRange{rcv_nxt_ + (iv.start - linear_rcv_nxt_),
                           rcv_nxt_ + (iv.end - linear_rcv_nxt_)});
    return true;
  });
  return out;
}

/// Production reassembly buffer: flat interval vector scoreboard.
using ReceiveBuffer = BasicReceiveBuffer<IntervalSet>;

extern template class BasicReceiveBuffer<IntervalSet>;

}  // namespace dctcpp
