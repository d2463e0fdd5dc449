// perfbench_harness: runs one benchmark workload against the dctcpp
// libraries and prints its raw measurements as one JSON object on stdout.
// perfbench/run.py builds this binary, turns the raw samples into the
// metrics named in BENCHMARK.json and checks them.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     [--trace 0|1] [--spans <file>]
//
// Every number is host time. Each workload repeats a fixed, seed-derived
// list of work items ("a pass") until the time is up; the first pass must
// complete, its exact counts are reported, and every later item must
// reproduce the first pass's item bit for bit. With --trace 1 the
// workload runs twice, untraced and then under spans, and the layer
// probes run last.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dctcpp/util/thread_pool.h"
#include "dctcpp/workload/churn.h"
#include "dctcpp/workload/experiment.h"
#include "dctcpp/workload/incast.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {
namespace {

using dctcpp::Tick;

/// FNV-1a over 64-bit words, for digests of results that must repeat.
class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

using Counts = std::map<std::string, double>;

/// What one timed phase (untraced or traced) measured.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> op_ms;  ///< the workload's unit of work, host ms
  double timed_s = 0.0;       ///< sum of op times
  double pkt_hops = 0.0;      ///< packets accepted by egress ports in ops
  std::vector<double> checkpoint_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  Counts counts;  ///< exact counts of the first pass

  void Fail(const std::string& why, std::uint64_t operations = 1) {
    failed += operations;
    if (failures.size() < 20) failures.push_back(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// The incast job whose shape the layer probes take (nullptr: the
  /// workload runs no incast job, and its probes read 0).
  virtual const dctcpp::IncastConfig* probe_job() const = 0;
  /// Pool threads the workload runs on (0: serial on the calling thread).
  virtual std::size_t pool_threads() const { return 0; }
  virtual const char* batch_span() const = 0;
  virtual const char* op_span() const = 0;
  virtual std::size_t ops_per_batch() const = 0;
  virtual void RunPhase(double seconds, Tracer* tracer, Phase& out) = 0;
};

bool Expired(std::int64_t deadline_ns) { return NowNs() >= deadline_ns; }

std::int64_t DeadlineAfter(double seconds) {
  return NowNs() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Set-up samples of one phase: kFirst before the timed work, which also
/// lets caches fill and lazy allocation finish, then, spread over the
/// phase so that they meet the same host conditions as the timed work, one
/// whenever the samples so far have taken less than kShare of the phase's
/// elapsed time. The report takes the median.
class SetupSampler {
 public:
  static constexpr int kFirst = 9;
  static constexpr double kShare = 0.1;

  /// `setup` runs one set-up and returns its host seconds.
  SetupSampler(Phase& out, std::function<double()> setup)
      : out_(out), setup_(std::move(setup)), start_ns_(NowNs()) {
    for (int k = 0; k < kFirst; ++k) Take();
  }

  /// Called between timed operations.
  void Between() {
    if (spent_s_ < kShare * 1e-9 * static_cast<double>(NowNs() - start_ns_)) {
      Take();
    }
  }

  /// Records a set-up the workload ran as part of its timed work.
  void Add(double seconds) {
    spent_s_ += seconds;
    out_.setup_s.push_back(seconds);
  }

 private:
  void Take() { Add(setup_()); }

  Phase& out_;
  std::function<double()> setup_;
  std::int64_t start_ns_;
  double spent_s_ = 0.0;
};

// --- incast ---------------------------------------------------------------

/// The result fields a repeated job must reproduce.
std::uint64_t DigestResult(const dctcpp::IncastResult& r) {
  Fnv f;
  f.Add(r.events);
  f.Add(r.packets_forwarded);
  f.Add(r.rounds_completed);
  f.Add(r.timeouts);
  f.Add(r.fast_retransmits);
  f.Add(r.bottleneck_marks);
  f.Add(r.packets_dropped);
  f.AddDouble(r.goodput_mbps);
  return f.value();
}

/// A job fails when it hit its time limit, completed fewer rounds than
/// asked, or saw an invariant violation.
const char* JobFailure(const dctcpp::IncastConfig& c,
                       const dctcpp::IncastResult& r) {
  if (r.hit_time_limit) return "hit its simulated time limit";
  if (r.rounds_completed < static_cast<std::uint64_t>(c.rounds)) {
    return "completed fewer rounds than asked";
  }
  if (r.invariant_violations > 0) return "saw invariant violations";
  return nullptr;
}

/// Serial RunIncast jobs with seeds seed+j.
class IncastWorkload final : public Workload {
 public:
  IncastWorkload(dctcpp::Protocol protocol, int flows, int rounds, int jobs,
                 std::uint64_t seed) {
    for (int j = 0; j < jobs; ++j) {
      dctcpp::IncastConfig c;
      c.protocol = protocol;
      c.num_flows = flows;
      c.num_workers = 9;
      c.total_bytes = 1 * dctcpp::kMiB;
      c.rounds = rounds;
      c.min_rto = 200 * dctcpp::kMillisecond;
      c.seed = seed + static_cast<std::uint64_t>(j);
      configs_.push_back(c);
    }
  }

  const dctcpp::IncastConfig* probe_job() const override {
    return &configs_[0];
  }
  const char* batch_span() const override { return "workload.incast.pass"; }
  const char* op_span() const override { return "workload.incast.job"; }
  std::size_t ops_per_batch() const override { return configs_.size(); }

  void RunPhase(double seconds, Tracer* tracer, Phase& out) override {
    // Harness set-up: warm-up jobs outside the timed ones; the first ones
    // keep first-touch and lazy allocation costs out of the timed jobs.
    const std::int64_t deadline = DeadlineAfter(seconds);
    SetupSampler setups(out, [&] {
      Scope setup(tracer, "workload.setup");
      const dctcpp::IncastResult r = dctcpp::RunIncast(configs_[0]);
      const double s = setup.Close();
      if (const char* why = JobFailure(configs_[0], r)) {
        out.Fail(std::string("warm-up job ") + why);
      }
      return s;
    });
    for (int pass = 0; pass == 0 || !Expired(deadline); ++pass) {
      Scope batch(tracer, batch_span());
      dctcpp::IncastSweepPoint total;
      Counts extra;
      for (std::size_t j = 0; j < configs_.size(); ++j) {
        if (pass > 0 && Expired(deadline)) break;
        setups.Between();
        Scope job(tracer, op_span());
        const dctcpp::IncastResult r = dctcpp::RunIncast(configs_[j]);
        const double s = job.Close();
        out.op_ms.push_back(s * 1e3);
        out.timed_s += s;
        out.pkt_hops += static_cast<double>(r.packets_forwarded);
        ++out.attempted;
        if (const char* why = JobFailure(configs_[j], r)) {
          out.Fail("job " + std::to_string(j) + " " + why);
        }
        {
          Scope merge(tracer, "stats.merge");
          total.Merge(r);
        }
        const std::uint64_t digest = DigestResult(r);
        if (pass == 0) {
          digests_.push_back(digest);
          extra["net.ecn_marks"] += static_cast<double>(r.bottleneck_marks);
          extra["tcp.fast_retx"] += static_cast<double>(r.fast_retransmits);
        } else if (digest != digests_[j]) {
          out.Fail("job " + std::to_string(j) + " did not repeat its result");
        }
      }
      if (pass == 0) {
        out.counts = PointCounts(total);
        for (const auto& [k, v] : extra) out.counts[k] = v;
      }
    }
    digests_.clear();
  }

  static Counts PointCounts(const dctcpp::IncastSweepPoint& p) {
    Counts c;
    c["sim.events"] = static_cast<double>(p.events);
    c["net.pkt_hops"] = static_cast<double>(p.packets_forwarded);
    c["net.drops"] = static_cast<double>(p.packets_dropped);
    c["net.ecn_marks"] = 0;
    c["tcp.timeouts"] = static_cast<double>(p.timeouts);
    c["tcp.floss_timeouts"] = static_cast<double>(p.floss_timeouts);
    c["tcp.lack_timeouts"] = static_cast<double>(p.lack_timeouts);
    c["tcp.fast_retx"] = 0;
    c["core.at_min_ece_rounds"] =
        static_cast<double>(p.tracked_rounds_at_min_ece);
    c["workload.rounds"] = static_cast<double>(p.rounds);
    c["sim.invariant_violations"] =
        static_cast<double>(p.invariant_violations);
    return c;
  }

 private:
  std::vector<dctcpp::IncastConfig> configs_;
  std::vector<std::uint64_t> digests_;
};

// --- churn ----------------------------------------------------------------

/// ChurnWorkload on a k=8 fat-tree: build + prewarm, then fixed 1 ms
/// RunTo slices with one save -> restore -> compare in the middle.
class ChurnBench final : public Workload {
 public:
  static constexpr int kSlices = 300;
  static constexpr int kCheckpointAfter = kSlices / 2;

  explicit ChurnBench(std::uint64_t seed) {
    cfg_.fat_tree.k = 8;  // 128 hosts
    cfg_.target_live_flows = 10000;
    cfg_.mean_lifetime = 50 * dctcpp::kMillisecond;
    cfg_.prewarm = 25 * dctcpp::kMillisecond;
    cfg_.bytes_per_flow = 4 * dctcpp::kKiB;
    cfg_.link.impairment.random_loss = 0.0005;
    cfg_.seed = seed;
    const int hosts = 128;
    cfg_.max_live_per_host =
        static_cast<int>((cfg_.target_live_flows / hosts) * 8 / 5) + 16;
  }

  const dctcpp::IncastConfig* probe_job() const override { return nullptr; }
  const char* batch_span() const override { return "workload.churn.slices"; }
  const char* op_span() const override { return "workload.churn.slice"; }
  std::size_t ops_per_batch() const override { return kSlices; }

  void RunPhase(double seconds, Tracer* tracer, Phase& out) override {
    // Set-up samples: each pass adds the set-up of the world it times;
    // extra worlds are built, prewarmed and dropped between passes, so
    // only one world is alive at a time.
    const std::int64_t deadline = DeadlineAfter(seconds);
    SetupSampler setups(out, [&] {
      double s = 0.0;
      Build(tracer, &s);
      return s;
    });
    for (int pass = 0; pass == 0 || !Expired(deadline); ++pass) {
      if (pass > 0) setups.Between();
      RunPass(pass, deadline, tracer, setups, out);
    }
    slice_digests_.clear();
  }

 private:
  /// Constructs, starts and prewarms a world; `*seconds` is its host time.
  std::unique_ptr<dctcpp::ChurnWorkload> Build(Tracer* tracer,
                                               double* seconds) {
    std::unique_ptr<dctcpp::ChurnWorkload> world;
    Scope setup(tracer, "workload.churn.setup");
    {
      Scope build(tracer, "workload.churn.build");
      world = std::make_unique<dctcpp::ChurnWorkload>(cfg_);
      world->Start();
    }
    {
      Scope prewarm(tracer, "workload.churn.prewarm");
      world->RunTo(cfg_.prewarm);
    }
    *seconds = setup.Close();
    return world;
  }

  void RunPass(int pass, std::int64_t deadline, Tracer* tracer,
               SetupSampler& setups, Phase& out) {
    double setup_s = 0.0;
    std::unique_ptr<dctcpp::ChurnWorkload> world = Build(tracer, &setup_s);
    setups.Add(setup_s);

    Tick now = cfg_.prewarm;
    dctcpp::ChurnStats before = world->Stats();
    std::unique_ptr<dctcpp::ChurnWorkload> restored;
    std::size_t blob_bytes = 0;
    {
      Scope batch(tracer, batch_span());
      for (int i = 0; i < kSlices; ++i) {
        if (pass > 0 && Expired(deadline)) break;
        now += dctcpp::kMillisecond;
        Scope slice(tracer, op_span());
        world->RunTo(now);
        const double s = slice.Close();
        const dctcpp::ChurnStats st = world->Stats();
        out.op_ms.push_back(s * 1e3);
        out.timed_s += s;
        out.pkt_hops += static_cast<double>(st.packets_forwarded -
                                            before.packets_forwarded);
        before = st;

        Fnv digest;
        digest.Add(st.events_executed);
        digest.Add(st.packets_forwarded);
        digest.Add(st.flows_completed);
        digest.Add(static_cast<std::uint64_t>(st.live_flows));
        if (pass == 0) {
          slice_digests_.push_back(digest.value());
        } else if (digest.value() != slice_digests_[i]) {
          out.Fail("slice " + std::to_string(i) + " did not repeat");
        }

        if (restored) {
          // Both worlds have now run one more slice from the checkpoint.
          std::uint64_t want = 0;
          {
            Scope fp(tracer, "sim.checkpoint.fingerprint");
            want = world->Fingerprint();
          }
          if (restored->Fingerprint() != want) {
            out.Fail("restored world's fingerprint differs after one slice");
          }
          restored.reset();
        }
        if (i + 1 == kCheckpointAfter) {
          restored = CheckpointRoundTrip(*world, now, tracer, out,
                                         &blob_bytes);
        }
      }
    }

    const dctcpp::ChurnStats st = world->Stats();
    out.attempted += st.flows_started + st.arrivals_dropped;
    const std::uint64_t dropped = st.arrivals_dropped + st.accepts_dropped;
    if (dropped > 0) {
      out.Fail(std::to_string(dropped) + " arrivals or accepts dropped",
               dropped);
    }
    if (st.violations > 0) {
      out.Fail(std::to_string(st.violations) + " invariant violations",
               st.violations);
    }
    if (pass == 0) {
      const dctcpp::ChurnFootprint fp = world->MeasureFootprint();
      Counts& c = out.counts;
      c["sim.events"] = static_cast<double>(st.events_executed);
      c["net.pkt_hops"] = static_cast<double>(st.packets_forwarded);
      c["workload.churn.flows_started"] = static_cast<double>(st.flows_started);
      c["workload.churn.flows_completed"] =
          static_cast<double>(st.flows_completed);
      c["workload.churn.peak_live"] = static_cast<double>(st.peak_live);
      c["workload.churn.bytes_per_flow"] = fp.bytes_per_flow;
      c["workload.churn.dropped"] = static_cast<double>(dropped);
      c["sim.checkpoint.bytes"] = static_cast<double>(blob_bytes);
      c["sim.invariant_violations"] = static_cast<double>(st.violations);
    }
  }

  /// Saves `world`, restores the blob into a fresh world and runs that
  /// world one slice ahead; the caller compares fingerprints once its own
  /// world has run the same slice.
  std::unique_ptr<dctcpp::ChurnWorkload> CheckpointRoundTrip(
      const dctcpp::ChurnWorkload& world, Tick now, Tracer* tracer,
      Phase& out, std::size_t* blob_bytes) {
    std::vector<std::uint8_t> blob;
    double save_s = 0.0;
    {
      Scope save(tracer, "sim.checkpoint.save");
      blob = world.SaveCheckpoint();
      save_s = save.Close();
    }
    *blob_bytes = blob.size();
    auto restored = std::make_unique<dctcpp::ChurnWorkload>(cfg_);
    {
      Scope restore(tracer, "sim.checkpoint.restore");
      restored->RestoreCheckpoint(blob);
      out.checkpoint_s.push_back(save_s + restore.Close());
    }
    restored->RunTo(now + dctcpp::kMillisecond);
    return restored;
  }

  dctcpp::ChurnConfig cfg_;
  std::vector<std::uint64_t> slice_digests_;
};

// --- fig07 sweep ----------------------------------------------------------

/// Bit-level digest of a merged sweep point: every statistic it exposes.
std::uint64_t DigestPoint(const dctcpp::IncastSweepPoint& p) {
  Fnv f;
  f.Add(static_cast<std::uint64_t>(p.protocol));
  f.Add(static_cast<std::uint64_t>(p.num_flows));
  f.Add(p.goodput_mbps.count());
  f.AddDouble(p.goodput_mbps.mean());
  f.AddDouble(p.goodput_mbps.variance());
  f.AddDouble(p.goodput_mbps.min());
  f.AddDouble(p.goodput_mbps.max());
  f.AddDouble(p.goodput_mbps.sum());
  f.Add(p.fct_ms.count());
  f.AddDouble(p.fct_ms.sum());
  f.AddDouble(p.fct_ms.Min());
  f.AddDouble(p.fct_ms.Max());
  for (double q : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    f.AddDouble(p.fct_ms.count() ? p.fct_ms.Quantile(q) : 0.0);
  }
  f.Add(p.cwnd_hist.total());
  f.Add(p.cwnd_hist.underflow());
  f.Add(p.cwnd_hist.overflow());
  for (std::int64_t v = p.cwnd_hist.lo(); v <= p.cwnd_hist.hi(); ++v) {
    f.Add(p.cwnd_hist.CountAt(v));
  }
  for (std::uint64_t v :
       {p.rounds, p.timeouts, p.floss_timeouts, p.lack_timeouts,
        p.tracked_rounds_at_min_ece, p.tracked_rounds_with_timeout,
        p.tracked_floss, p.tracked_lack, p.events, p.packets_forwarded,
        p.invariant_violations, p.packets_originated, p.packets_dropped,
        p.packets_duplicated, p.checksum_discards}) {
    f.Add(v);
  }
  f.Add(p.hit_time_limit ? 1 : 0);
  return f.value();
}

/// The Fig. 7 exhibit: {DCTCP+, DCTCP, TCP} x N in {10..240} on a pool.
/// Untraced it runs RunIncastSweep; traced it runs the same tasks through
/// ParallelFor + RunIncast + Merge, each task under its own span, and must
/// reproduce RunIncastSweep's points bit for bit.
class SweepBench final : public Workload {
 public:
  static constexpr int kRounds = 5;
  static constexpr int kReps = 1;

  SweepBench(std::uint64_t seed, std::size_t threads) : threads_(threads) {
    base_.num_workers = 9;
    base_.total_bytes = 1 * dctcpp::kMiB;
    base_.min_rto = 200 * dctcpp::kMillisecond;
    base_.rounds = kRounds;
    base_.time_limit = 600 * dctcpp::kSecond;
    base_.seed = seed;
    // The probes take the shape of the largest DCTCP+ point.
    probe_job_ = TaskConfig(0, flows_.size() - 1, 0);
  }

  std::size_t pool_threads() const override { return threads_; }
  const dctcpp::IncastConfig* probe_job() const override {
    return &probe_job_;
  }
  const char* batch_span() const override { return "workload.sweep.exhibit"; }
  const char* op_span() const override { return "workload.sweep.task"; }
  std::size_t ops_per_batch() const override {
    return protocols_.size() * flows_.size() * kReps;
  }

  void RunPhase(double seconds, Tracer* tracer, Phase& out) override {
    // Set-up: a new pool plus one warm-up exhibit on it.
    const std::int64_t deadline = DeadlineAfter(seconds);
    SetupSampler setups(out, [&] {
      Scope setup(tracer, "workload.setup");
      pool_.reset();
      pool_ = std::make_unique<dctcpp::ThreadPool>(threads_);
      dctcpp::RunIncastSweep(base_, protocols_, flows_, kReps, *pool_);
      return setup.Close();
    });
    for (int e = 0; e == 0 || !Expired(deadline); ++e) {
      if (e > 0) setups.Between();
      std::vector<dctcpp::IncastSweepPoint> points;
      {
        Scope exhibit(tracer, batch_span());
        points = tracer ? TracedSweep(tracer, exhibit.id())
                        : dctcpp::RunIncastSweep(base_, protocols_, flows_,
                                                 kReps, *pool_);
        const double s = exhibit.Close();
        out.op_ms.push_back(s * 1e3);
        out.timed_s += s;
      }
      Check(points, e == 0, tracer != nullptr, out);
    }
  }

 private:
  std::vector<dctcpp::IncastSweepPoint> TracedSweep(Tracer* tracer,
                                                    std::uint64_t parent) {
    struct Job {
      std::size_t point;
      dctcpp::IncastConfig config;
    };
    std::vector<Job> jobs;
    for (std::size_t pi = 0; pi < protocols_.size(); ++pi) {
      for (std::size_t ni = 0; ni < flows_.size(); ++ni) {
        for (int r = 0; r < kReps; ++r) {
          jobs.push_back(Job{pi * flows_.size() + ni, TaskConfig(pi, ni, r)});
        }
      }
    }
    std::vector<dctcpp::IncastResult> results(jobs.size());
    dctcpp::ParallelFor(*pool_, jobs.size(), [&](std::size_t j) {
      Scope task(tracer, op_span(), parent);
      results[j] = dctcpp::RunIncast(jobs[j].config);
    });
    std::vector<dctcpp::IncastSweepPoint> points(protocols_.size() *
                                                 flows_.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      Scope merge(tracer, "stats.merge");
      points[jobs[j].point].Merge(results[j]);
    }
    return points;
  }

  /// RunIncastSweep's configuration of one task.
  dctcpp::IncastConfig TaskConfig(std::size_t pi, std::size_t ni,
                                  int rep) const {
    dctcpp::IncastConfig c = base_;
    c.protocol = protocols_[pi];
    c.num_flows = flows_[ni];
    c.seed = base_.seed + static_cast<std::uint64_t>(rep) +
             0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(flows_[ni]);
    return c;
  }

  void Check(const std::vector<dctcpp::IncastSweepPoint>& points, bool first,
             bool traced, Phase& out) {
    std::vector<std::uint64_t> digests;
    dctcpp::IncastSweepPoint total;
    for (const auto& p : points) {
      digests.push_back(DigestPoint(p));
      out.pkt_hops += static_cast<double>(p.packets_forwarded);
      out.attempted += kReps;
      if (p.hit_time_limit ||
          p.rounds < static_cast<std::uint64_t>(kRounds) * kReps ||
          p.invariant_violations > 0) {
        out.Fail(std::string("point ") + dctcpp::ToString(p.protocol) +
                     " N=" + std::to_string(p.num_flows) +
                     " missed its rounds or saw violations",
                 kReps);
      }
      total.events += p.events;
      total.packets_forwarded += p.packets_forwarded;
      total.packets_dropped += p.packets_dropped;
      total.timeouts += p.timeouts;
      total.floss_timeouts += p.floss_timeouts;
      total.lack_timeouts += p.lack_timeouts;
      total.tracked_rounds_at_min_ece += p.tracked_rounds_at_min_ece;
      total.rounds += p.rounds;
      total.invariant_violations += p.invariant_violations;
    }
    if (reference_.empty()) reference_ = digests;
    if (digests != reference_) {
      out.Fail(traced ? "traced sweep differs from RunIncastSweep's points"
                      : "sweep did not repeat its points");
    }
    if (first) out.counts = IncastWorkload::PointCounts(total);
  }

  std::size_t threads_;
  dctcpp::IncastConfig base_;
  const std::vector<dctcpp::Protocol> protocols_{
      dctcpp::Protocol::kDctcpPlus, dctcpp::Protocol::kDctcp,
      dctcpp::Protocol::kTcp};
  const std::vector<int> flows_{10, 20, 40, 60, 80, 100, 140, 180, 200, 240};
  dctcpp::IncastConfig probe_job_;
  std::unique_ptr<dctcpp::ThreadPool> pool_;
  std::vector<std::uint64_t> reference_;  ///< the untraced sweep's digests
};

// --- command line and output ------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed,
                                       std::size_t pool_threads) {
  if (name == "incast_n40") {
    return std::make_unique<IncastWorkload>(dctcpp::Protocol::kDctcp, 40,
                                            /*rounds=*/20, /*jobs=*/120,
                                            seed);
  }
  if (name == "incast_n1400_plus") {
    return std::make_unique<IncastWorkload>(dctcpp::Protocol::kDctcpPlus,
                                            1400, /*rounds=*/5,
                                            /*jobs=*/100, seed);
  }
  if (name == "churn_k8") return std::make_unique<ChurnBench>(seed);
  if (name == "fig07_sweep") {
    return std::make_unique<SweepBench>(seed, pool_threads);
  }
  return nullptr;
}

void PrintList(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", v[i]);
  }
  std::printf("]");
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

void PrintPhase(const char* key, const Phase& p) {
  std::printf("\"%s\":{", key);
  PrintList("setup_s", p.setup_s);
  std::printf(",");
  PrintList("op_ms", p.op_ms);
  std::printf(",");
  PrintList("checkpoint_s", p.checkpoint_s);
  std::printf(",\"timed_s\":%.9g,\"pkt_hops\":%.17g", p.timed_s, p.pkt_hops);
  std::printf(",\"attempted\":%llu,\"failed\":%llu,\"failures\":[",
              static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.failed));
  for (std::size_t i = 0; i < p.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? "," : "", Escape(p.failures[i]).c_str());
  }
  std::printf("],\"counts\":{");
  bool comma = false;
  for (const auto& [k, v] : p.counts) {
    std::printf("%s\"%s\":%.17g", comma ? "," : "", k.c_str(), v);
    comma = true;
  }
  std::printf("}}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--spans <file>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name, spans_path;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seconds <= 0) return Usage();
  if (trace == 1 && spans_path.empty()) return Usage();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t pool_threads = std::min(4u, hw);
  std::unique_ptr<Workload> workload =
      MakeWorkload(workload_name, seed, pool_threads);
  if (!workload) {
    std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                 workload_name.c_str());
    return Usage();
  }

  Phase untraced, traced;
  ProbeResults probes;
  std::unique_ptr<Tracer> tracer;
  if (trace == 1) {
    tracer = std::make_unique<Tracer>(workload_name + "-" +
                                      std::to_string(seed) + "-" +
                                      std::to_string(NowNs()));
    workload->RunPhase(seconds / 2, nullptr, untraced);
    workload->RunPhase(seconds / 2, tracer.get(), traced);
    if (const dctcpp::IncastConfig* job = workload->probe_job()) {
      probes = RunProbes(*job, tracer.get());
      for (const std::string& why : probes.failures) traced.Fail(why);
    }
    if (!tracer->WriteJsonLines(spans_path)) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  } else {
    workload->RunPhase(seconds, nullptr, untraced);
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

#ifdef DCTCPP_PROFILE
  const bool profile = true;
#else
  const bool profile = false;
#endif
  const std::size_t threads = workload->pool_threads();
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
      "\"build\":{\"type\":\"%s\",\"lto\":%s,\"profile\":%s},"
      "\"hardware_threads\":%u,\"pool_threads\":%zu,\"workers\":%zu,"
      "\"batch_span\":\"%s\",\"op_span\":\"%s\",\"ops_per_batch\":%zu,"
      "\"peak_rss_kib\":%ld,",
      workload_name.c_str(), static_cast<unsigned long long>(seed), trace,
      PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false",
      profile ? "true" : "false", hw, threads,
      threads + 1,
      workload->batch_span(), workload->op_span(),
      workload->ops_per_batch(), ru.ru_maxrss);
  PrintPhase("untraced", untraced);
  if (trace == 1) {
    std::printf(",");
    PrintPhase("traced", traced);
    std::printf(
        ",\"probes\":{\"sim.wheel.ns_per_event\":%.9g,"
        "\"net.queue.ns_per_pkt\":%.9g,"
        "\"util.flow_table.ns_per_lookup\":%.9g,"
        "\"dctcp.ns_per_ack\":%.9g,\"core.ns_per_ack\":%.9g}",
        probes.wheel_ns_per_event, probes.queue_ns_per_pkt,
        probes.flow_table_ns_per_lookup, probes.dctcp.ns_per_ack,
        probes.core.ns_per_ack);
    // The shape the probes measured and derived, for the report.
    std::printf(
        ",\"probe_shape\":{\"wheel_pending\":%.9g,"
        "\"wheel_timer_frac\":%.9g,\"dctcp_acks\":%llu,"
        "\"dctcp_ece_frac\":%.9g,\"core_acks\":%llu,"
        "\"core_ece_frac\":%.9g}",
        probes.wheel_pending, probes.wheel_timer_frac,
        static_cast<unsigned long long>(probes.dctcp.acks),
        probes.dctcp.ece_frac,
        static_cast<unsigned long long>(probes.core.acks),
        probes.core.ece_frac);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
