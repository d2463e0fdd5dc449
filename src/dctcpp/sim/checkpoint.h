// Checkpoint/restore of a running simulation into a versioned binary blob.
//
// A checkpoint is taken at a *barrier*: a point where no event is mid-run
// — in practice right after Simulator::RunUntil / ParallelSimulation::
// RunUntil returns. At a barrier the scheduler's same-tick run-buffer is
// empty and every in-flight packet sits in a serializable container (a
// port queue, the wire, a reorder hold, or an inbound ring), so the
// world's entire future is a pure function of the serialized state.
//
// Restore is a two-phase protocol over a FRESHLY BUILT world (same
// topology, same construction order, not yet started):
//
//  1. The workload hook re-creates its dynamic objects (live sockets,
//     pending flow events) and loads their state; sockets re-register
//     with their hosts, rebuilding the demux tables and port refcounts
//     exactly. Wheel events are re-armed with their *saved* insertion
//     sequences (TimerWheelScheduler::*WithSeq), so pop order — purely
//     (time, seq) — matches the saved run even though node indices differ.
//  2. Registered infrastructure clients (hosts, ports, switches) load
//     their scalar state in construction order — which deterministic
//     builders make identical across the two worlds. Host scalars load
//     after the workload phase, overwriting the socket-serial counter the
//     re-creation bumped.
//
// What is NOT serialized (reconstructed by building the world instead):
// topology, routing tables, link/impairment configuration, RNG stream id
// assignments, arena layout, FlatFlowTable probe layout, the demux
// one-entry cache, callbacks, and the flight recorder (observational
// only). See DESIGN.md Sec. 13.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dctcpp/util/assert.h"
#include "dctcpp/util/fnv.h"
#include "dctcpp/util/time.h"

namespace dctcpp {

struct Packet;

/// Fixed-width little-endian append-only buffer. Section tags are written
/// by convention before each component's fields so a drifted reader fails
/// loudly at the drift point instead of misparsing everything after it.
///
/// A writer made by HashOnly() buffers nothing: it folds every byte into
/// FNV-1a as it is written, so hash() equals FnvBytes(kFnvOffset, blob)
/// of a buffering writer fed the same calls — a state fingerprint without
/// materializing the blob.
class CheckpointWriter {
 public:
  static constexpr std::uint32_t kMagic = 0x44434b50;  // "DCKP"
  /// Bumped whenever the blob layout changes; a restore aborts on any
  /// other version.
  static constexpr std::uint32_t kVersion = 6;

  static CheckpointWriter HashOnly() {
    CheckpointWriter w;
    w.hash_only_ = true;
    return w;
  }

  void U8(std::uint8_t v) {
    if (hash_only_) {
      hash_ = FnvBytes(hash_, &v, 1);
    } else {
      buf_.push_back(v);
    }
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void I64(std::int64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// Section tag: a 4-byte marker the reader must match exactly.
  void Tag(std::uint32_t tag) { U32(tag); }

  const std::vector<std::uint8_t>& blob() const {
    DCTCPP_ASSERT(!hash_only_);
    return buf_;
  }
  std::vector<std::uint8_t> TakeBlob() {
    DCTCPP_ASSERT(!hash_only_);
    return std::move(buf_);
  }
  /// FNV-1a over every byte written (HashOnly writers only).
  std::uint64_t hash() const {
    DCTCPP_ASSERT(hash_only_);
    return hash_;
  }

 private:
  void Raw(const void* p, std::size_t n) {
    if (hash_only_) {
      hash_ = FnvBytes(hash_, p, n);
      return;
    }
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<std::uint8_t> buf_;
  bool hash_only_ = false;
  std::uint64_t hash_ = kFnvOffset;
};

/// Reader over a checkpoint blob. Out-of-bounds reads and tag mismatches
/// abort: a checkpoint is trusted same-version data, not untrusted input.
class CheckpointReader {
 public:
  CheckpointReader(const std::uint8_t* data, std::size_t size)
      : p_(data), end_(data + size) {}
  explicit CheckpointReader(const std::vector<std::uint8_t>& blob)
      : CheckpointReader(blob.data(), blob.size()) {}

  std::uint8_t U8() {
    DCTCPP_ASSERT(p_ < end_);
    return *p_++;
  }
  bool Bool() { return U8() != 0; }
  std::uint32_t U32() {
    std::uint32_t v;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v;
    Raw(&v, sizeof v);
    return v;
  }
  std::int64_t I64() {
    std::int64_t v;
    Raw(&v, sizeof v);
    return v;
  }
  double F64() {
    double v;
    Raw(&v, sizeof v);
    return v;
  }
  std::string Str() {
    const std::uint32_t n = U32();
    DCTCPP_ASSERT(p_ + n <= end_);
    std::string s(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return s;
  }
  void ExpectTag(std::uint32_t tag) {
    const std::uint32_t got = U32();
    DCTCPP_ASSERT(got == tag);
    (void)got;
  }
  bool AtEnd() const { return p_ == end_; }

 private:
  void Raw(void* out, std::size_t n) {
    DCTCPP_ASSERT(p_ + n <= end_);
    std::memcpy(out, p_, n);
    p_ += n;
  }

  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

/// Infrastructure component with checkpointable state. Hosts, egress ports
/// and switches register with their Simulator at construction; save and
/// load both walk the registry in registration order, which deterministic
/// topology builders make identical between the saved and restored worlds.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void SaveState(CheckpointWriter& w) const = 0;
  virtual void LoadState(CheckpointReader& r) = 0;
};

/// Workload-side serialization: the simulation engine knows nothing about
/// flows, so the workload driver supplies the section that re-creates its
/// dynamic objects (live sockets, pending arrivals/departures) on restore.
/// Called once per shard, inside that shard's blob section, before the
/// shard's infrastructure clients load.
class CheckpointHooks {
 public:
  virtual ~CheckpointHooks() = default;
  virtual void SaveWorkload(CheckpointWriter& w, int shard) const = 0;
  virtual void RestoreWorkload(CheckpointReader& r, int shard) = 0;
};

/// Field-by-field packet serialization (never memcpy: padding bytes are
/// indeterminate and would break blob comparison).
void SavePacket(CheckpointWriter& w, const Packet& pkt);
Packet LoadPacket(CheckpointReader& r);

}  // namespace dctcpp
