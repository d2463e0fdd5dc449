// Host-time spans recorded by the benchmark around its own calls into the
// library. A span has a name, a start and an end on the steady clock, the
// span that caused it and the thread that ran it; every span of one run
// shares the run id. Spans stay in memory and are written out once, when
// the run ends. With no Tracer (untraced runs) a Scope only reads the
// clock, which the benchmark needs for its own timings anyway.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(std::string run_id) : run_id_(std::move(run_id)) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t NextId() {
    std::lock_guard lock(mu_);
    return ++last_id_;
  }

  void Record(const Span& span) {
    std::lock_guard lock(mu_);
    spans_.push_back(span);
  }

  /// Writes one JSON object per line; returns false when the file could
  /// not be written in full.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"run\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"thread\":%zu}\n",
                   run_id_.c_str(), static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.thread);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::string run_id_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Times one call. Records a span when `tracer` is set; the parent is the
/// innermost open Scope on this thread unless one is given explicitly
/// (work handed to pool threads names its parent).
class Scope {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  Scope(Tracer* tracer, const char* name, std::uint64_t parent = kInherit)
      : tracer_(tracer), outer_(current_) {
    span_.name = name;
    if (tracer_ != nullptr) {
      span_.id = tracer_->NextId();
      span_.parent = parent == kInherit ? (outer_ ? outer_->span_.id : 0)
                                        : parent;
      span_.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
      current_ = this;
    }
    span_.start_ns = NowNs();
  }

  ~Scope() {
    if (!closed_) Close();
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the span now; returns its duration in seconds.
  double Close() {
    if (!closed_) {
      span_.end_ns = NowNs();
      closed_ = true;
      if (tracer_ != nullptr) {
        tracer_->Record(span_);
        current_ = outer_;
      }
    }
    return seconds();
  }

  double seconds() const {
    return static_cast<double>(span_.end_ns - span_.start_ns) * 1e-9;
  }
  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Scope* outer_;
  Span span_;
  bool closed_ = false;
  static inline thread_local Scope* current_ = nullptr;
};

}  // namespace perfbench
