// FNV-1a: the one fingerprint hash of the repo.
//
// Every determinism gate (golden table, shard/pool invariance, checkpoint
// round trips, the bench harnesses) compares runs by an order-sensitive
// 64-bit FNV-1a over their results. Words fold in byte by byte, least
// significant first; doubles fold in by bit pattern, so two fingerprints
// are equal only if every value is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dctcpp {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// One FNV-1a step over the 8 bytes of `v`, least significant first.
inline std::uint64_t FnvWord(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// FnvWord over the bit pattern of `d`.
inline std::uint64_t FnvDouble(std::uint64_t h, double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return FnvWord(h, bits);
}

/// FNV-1a over `n` bytes at `data`.
inline std::uint64_t FnvBytes(std::uint64_t h, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace dctcpp
