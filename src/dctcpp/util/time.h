// Simulated-time representation.
//
// All simulation timestamps and durations are integer nanoseconds carried in
// a 64-bit signed integer (`Tick`). Integer time keeps the discrete-event
// engine exactly deterministic and makes equality-of-timestamp semantics
// (FIFO tie-breaking in the scheduler) well defined. An int64 nanosecond
// clock covers ~292 years, far beyond any simulation horizon.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace dctcpp {

/// A point in simulated time, or a duration, in nanoseconds.
using Tick = std::int64_t;

inline constexpr Tick kNanosecond = 1;
inline constexpr Tick kMicrosecond = 1000 * kNanosecond;
inline constexpr Tick kMillisecond = 1000 * kMicrosecond;
inline constexpr Tick kSecond = 1000 * kMillisecond;

/// A sentinel usable as "no deadline".
inline constexpr Tick kTickMax = INT64_MAX;

/// Saturating tick addition (deadlines may be kTickMax). `b` >= 0.
constexpr Tick SatAddTick(Tick a, Tick b) {
  return a > kTickMax - b ? kTickMax : a + b;
}

namespace time_literals {

constexpr Tick operator""_ns(unsigned long long v) {
  return static_cast<Tick>(v);
}
constexpr Tick operator""_us(unsigned long long v) {
  return static_cast<Tick>(v) * kMicrosecond;
}
constexpr Tick operator""_ms(unsigned long long v) {
  return static_cast<Tick>(v) * kMillisecond;
}
constexpr Tick operator""_s(unsigned long long v) {
  return static_cast<Tick>(v) * kSecond;
}

}  // namespace time_literals

/// Seconds as a double, for reporting only (never for event math).
constexpr double ToSeconds(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Milliseconds as a double, for reporting only.
constexpr double ToMillis(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Microseconds as a double, for reporting only.
constexpr double ToMicros(Tick t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosecond);
}

/// Human-readable rendering with an auto-selected unit (e.g. "12.50ms").
inline std::string FormatTick(Tick t) {
  char buf[48];
  const char* sign = t < 0 ? "-" : "";
  const Tick a = t < 0 ? -t : t;
  if (a >= kSecond) {
    std::snprintf(buf, sizeof buf, "%s%.3fs", sign, ToSeconds(a));
  } else if (a >= kMillisecond) {
    std::snprintf(buf, sizeof buf, "%s%.3fms", sign, ToMillis(a));
  } else if (a >= kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%s%.3fus", sign, ToMicros(a));
  } else {
    std::snprintf(buf, sizeof buf, "%s%lldns", sign,
                  static_cast<long long>(a));
  }
  return buf;
}

}  // namespace dctcpp
