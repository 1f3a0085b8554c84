// perfbench.cpp — the rfidsched benchmark driver (perfbench/README.md).
//
//   rfidsched_perfbench --workload <name> --seed <n> --seconds <s>
//                       --trace <0|1> --scratch <dir> [--source-id <id>]
//
// Runs one named workload from inputs generated from --seed, measures for
// --seconds, checks every timed pass against an untimed checked reference
// pass on the same seed, and prints one JSON object as its last stdout
// line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set, timed
// from outside each layer by bench-side spans around calls into its public
// functions.  Exit codes: 0 ok, 1 output check failed, 2 usage or refused
// build, 3 internal error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/index_oracle.h"
#include "check/invariants.h"
#include "ckpt/journal.h"
#include "core/system.h"
#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "graph/interference_graph.h"
#include "obs/cost.h"
#include "obs/metrics.h"
#include "protocol/slot_timing.h"
#include "sched/growth.h"
#include "sched/hill_climbing.h"
#include "sched/mcs.h"
#include "sched/ptas.h"
#include "sched/streaming.h"
#include "service/service.h"
#include "workload/churn.h"
#include "workload/deployment.h"
#include "workload/scenario.h"

#if !defined(NDEBUG)
#define PERFBENCH_REFUSE "assertions are enabled (NDEBUG unset)"
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_REFUSE "built with a sanitizer"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_REFUSE "built with a sanitizer"
#endif
#endif

namespace {

using namespace rfid;
using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
/// An infinite neighbour (a refused request) makes the quantile infinite.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
void append(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// A /proc/self/status field (VmHWM, VmRSS) in MiB; 0 without procfs.
double statusMib(const char* key) {
  std::ifstream st("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(st, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draws in [0, 1) for workload shaping.
class Draws {
 public:
  explicit Draws(std::uint64_t seed) : s_(seed) {}
  double u01() {
    s_ += 0x9e3779b97f4a7c15ull;  // splitmix64 counter
    return static_cast<double>(mix64(s_) >> 11) * 0x1.0p-53;
  }
  double exp(double rate) { return -std::log(1.0 - u01()) / rate; }

 private:
  std::uint64_t s_;
};

// ---------------------------------------------------------------------------
// Metric names.  BENCHMARK.json lists the same names; run.py refuses a
// result whose names differ from it.
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"solve_s", "s"},       {"total_s", "s"},
    {"peak_rss_mib", "MiB"}, {"ok_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    // Workload-specific end-to-end figures.  Every end-to-end metric must
    // exist on every workload (README.md), so these ride here.
    {"replay_s", "s"},
    {"slot_ms.p50", "ms"},
    {"slot_ms.p99", "ms"},
    {"slot_ms.samples", "count"},
    {"schedule_slots", "count"},
    {"air_ms", "ms"},
    {"tag_latency_slots.p99", "slots"},
    {"lat_lo_ms.p50", "ms"},
    {"lat_lo_ms.p99", "ms"},
    {"lat_hi_ms.p50", "ms"},
    {"lat_hi_ms.p99", "ms"},
    {"max_rps_under_slo", "1/s"},
    {"failed_frac", "frac"},
    {"obs.trace_overhead_frac", "frac"},
    // Layers.
    {"workload.gen_ms", "ms"},
    {"workload.churn_gen_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.build_items_per_s", "1/s"},
    {"core.build_rss_mib", "MiB"},
    {"core.incidences", "count"},
    {"core.weight_evals", "count"},
    {"graph.interference_ms", "ms"},
    {"graph.edges", "count"},
    {"sched.schedule_ms", "ms"},
    {"sched.call_us.p50", "us"},
    {"sched.call_us.p99", "us"},
    {"sched.calls", "count"},
    {"sched.work_units", "count"},
    {"sched.alg1_ms", "ms"},
    {"sched.alg2_ms", "ms"},
    {"sched.ghc_ms", "ms"},
    {"mcs.driver_ms", "ms"},
    {"distributed.alg3_ms", "ms"},
    {"distributed.ca_ms", "ms"},
    {"distributed.messages", "count"},
    {"distributed.rounds", "count"},
    {"protocol.replay_ms", "ms"},
    {"protocol.frames", "count"},
    {"protocol.onslot_us.p50", "us"},
    {"protocol.onslot_us.p99", "us"},
    {"check.validate_ms", "ms"},
    {"check.oracle_verify_ms", "ms"},
    {"check.oracle_checks", "count"},
    {"ckpt.append_us.p50", "us"},
    {"ckpt.append_us.p99", "us"},
    {"ckpt.snapshot_ms", "ms"},
    {"ckpt.bytes", "bytes"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.queue_wait_ms.p99", "ms"},
    {"service.exec_ms.p50", "ms"},
    {"service.exec_ms.p99", "ms"},
    {"service.queue_depth_peak", "count"},
    {"service.retries", "count"},
    {"service.gen_late_ms.p99", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string source_id = "unknown";
};

/// What one invocation reports.  Every timed pass adds to `attempted`;
/// a pass whose output differs from the reference, or an operation that
/// failed, adds to `failed`; a reference mismatch also clears `correct`.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> m;  // every metric the workload measured
  std::vector<std::string> notes;   // mismatch / failure details (stderr)
  std::map<std::string, int> threads;

  void set(const std::string& name, double v) { m[name] = v; }
  double failedFrac() const {
    return attempted > 0 ? static_cast<double>(failed) /
                               static_cast<double>(attempted)
                         : 0.0;
  }
  void mismatch(const std::string& what) {
    correct = false;
    notes.push_back("output check: " + what);
  }
};

/// Timing helper: runs `fn`, returns its wall time in ms.
template <typename Fn>
double timeMs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return msBetween(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// Output digest: the deterministic outputs every timed pass must reproduce.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

struct Digest {
  std::int64_t slots = 0;
  std::int64_t tags_read = 0;
  std::uint64_t sets = kFnvBasis;  // FNV-1a over every committed active set
  std::int64_t air_us = 0;
  std::int64_t frames = 0;
  bool link_ok = true;
  std::int64_t shed = 0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;

  void addSet(std::span<const int> active) {
    const auto fold = [&](std::uint32_t w) {
      for (int b = 0; b < 4; ++b) {
        sets ^= (w >> (8 * b)) & 0xffu;
        sets *= 1099511628211ull;
      }
    };
    for (const int v : active) fold(static_cast<std::uint32_t>(v));
    fold(0xffffffffu);  // set separator
  }
  bool operator==(const Digest&) const = default;
  std::string str() const {
    std::ostringstream os;
    os << "slots=" << slots << " tags=" << tags_read << " sets=" << std::hex
       << sets << std::dec << " air_us=" << air_us << " frames=" << frames
       << " link_ok=" << link_ok << " shed=" << shed
       << " lat_p50=" << latency_p50 << " lat_p99=" << latency_p99;
    return os.str();
  }
};

/// p99 of per-tag latency in slots from a served-per-slot histogram
/// (a tag served at MCS slot q waited q + 1 slots).
double tagLatencyP99(const std::vector<int>& served_per_slot) {
  std::int64_t total = 0;
  for (const int s : served_per_slot) total += s;
  if (total == 0) return 0.0;
  const double want = 0.99 * static_cast<double>(total);
  std::int64_t acc = 0;
  for (std::size_t q = 0; q < served_per_slot.size(); ++q) {
    acc += served_per_slot[q];
    if (static_cast<double>(acc) >= want) return static_cast<double>(q + 1);
  }
  return static_cast<double>(served_per_slot.size());
}

// ---------------------------------------------------------------------------
// Scheduler timing wrapper.  Forwards exactly what the drivers call
// (schedule, name, stateFingerprint, attachChannel), so a wrapped run
// commits the same schedule as an unwrapped one — the output check proves
// it on every pass.  Times schedule() only when tracing.
// ---------------------------------------------------------------------------

class TimedScheduler final : public sched::OneShotScheduler {
 public:
  TimedScheduler(sched::OneShotScheduler& inner, bool timed)
      : inner_(&inner), timed_(timed) {}

  std::string name() const override { return inner_->name(); }
  sched::OneShotResult schedule(const core::System& sys) override {
    if (!timed_) return inner_->schedule(sys);
    const auto t0 = Clock::now();
    sched::OneShotResult r = inner_->schedule(sys);
    call_us.push_back(msBetween(t0, Clock::now()) * 1000.0);
    return r;
  }
  std::uint64_t stateFingerprint() const override {
    return inner_->stateFingerprint();
  }
  void attachChannel(fault::ChannelModel* c) override {
    inner_->attachChannel(c);
  }

  std::vector<double> call_us;

 private:
  sched::OneShotScheduler* inner_;
  bool timed_;
};

/// Commit-hook recorder shared by the MCS and streaming drivers: host wall
/// time between consecutive commits, the committed sets, the per-slot
/// served counts, and (when asked) the served tags themselves.
struct CommitLog {
  Clock::time_point last;
  std::vector<double> slot_ms;
  std::vector<int> served_per_slot;
  std::vector<std::vector<int>> served;  // filled when keep_served
  bool keep_served = false;
  Digest digest;
  double hook_ms = 0.0;  // time spent inside the hook (tracing only)
  std::function<void(int, std::span<const int>, std::span<const int>)> inner;
  bool timed = false;

  void start() { last = Clock::now(); }
  void onCommit(int slot, std::span<const int> active,
                std::span<const int> served_tags) {
    const auto now = Clock::now();
    slot_ms.push_back(msBetween(last, now));  // entry to entry: hook included
    last = now;
    digest.addSet(active);
    served_per_slot.push_back(static_cast<int>(served_tags.size()));
    if (keep_served) {
      served.emplace_back(served_tags.begin(), served_tags.end());
    }
    if (inner) inner(slot, active, served_tags);
    if (timed) hook_ms += msBetween(now, Clock::now());
  }
};

// ---------------------------------------------------------------------------
// Independent geometric check of an MCS schedule, for systems too large for
// check::ScheduleValidator's O(|X|·m) per-slot scan.  Shares nothing with
// core::System's indexes: a private uniform grid over raw positions and
// radii re-derives each slot's feasibility and served set.
// ---------------------------------------------------------------------------

class GeomChecker {
 public:
  explicit GeomChecker(const core::System& sys) : sys_(&sys) {
    double rmax = 0.0;
    for (const core::Reader& r : sys.readers()) {
      rmax = std::max(rmax, r.interference_radius);
    }
    double ext = 0.0;
    for (const core::Reader& r : sys.readers()) {
      ext = std::max({ext, r.pos.x, r.pos.y});
    }
    for (const core::Tag& t : sys.tags()) {
      ext = std::max({ext, t.pos.x, t.pos.y});
    }
    cell_ = std::max(rmax, 1e-9);
    dim_ = static_cast<int>(ext / cell_) + 1;
  }

  /// Verifies slot by slot from an all-unread start; returns "" or why not.
  std::string check(const std::vector<sched::SlotRecord>& schedule,
                    const std::vector<std::vector<int>>& served) const {
    const core::System& sys = *sys_;
    if (schedule.size() != served.size()) return "slot count differs";
    std::vector<char> read(static_cast<std::size_t>(sys.numTags()), 0);
    for (std::size_t q = 0; q < schedule.size(); ++q) {
      const std::vector<int>& X = schedule[q].active;
      const Grid g = bucket(X);
      for (const int v : X) {
        bool bad = false;
        forNeighbors(g, sys.reader(v).pos, [&](int u) {
          if (u == v) return;
          const core::Reader& a = sys.reader(v);
          const core::Reader& b = sys.reader(u);
          const double rr =
              std::max(a.interference_radius, b.interference_radius);
          if (!(dist2(a.pos, b.pos) > rr * rr)) bad = true;
        });
        if (bad) return "slot " + std::to_string(q) + ": infeasible set";
      }
      std::vector<int> expect;
      for (int t = 0; t < sys.numTags(); ++t) {
        if (read[static_cast<std::size_t>(t)] != 0) continue;
        int mult = 0;
        forNeighbors(g, sys.tag(t).pos, [&](int u) {
          const core::Reader& r = sys.reader(u);
          if (dist2(r.pos, sys.tag(t).pos) <=
              r.interrogation_radius * r.interrogation_radius) {
            ++mult;
          }
        });
        if (mult == 1) expect.push_back(t);
      }
      std::vector<int> got = served[q];
      std::sort(got.begin(), got.end());
      if (got != expect) {
        return "slot " + std::to_string(q) + ": served " +
               std::to_string(got.size()) + " tags, geometry says " +
               std::to_string(expect.size());
      }
      if (schedule[q].tags_read != static_cast<int>(got.size())) {
        return "slot " + std::to_string(q) + ": SlotRecord tags_read differs";
      }
      for (const int t : got) read[static_cast<std::size_t>(t)] = 1;
    }
    // Completion: every tag some reader covers was read.
    std::vector<int> all(static_cast<std::size_t>(sys.numReaders()));
    for (int v = 0; v < sys.numReaders(); ++v) {
      all[static_cast<std::size_t>(v)] = v;
    }
    const Grid g = bucket(all);
    for (int t = 0; t < sys.numTags(); ++t) {
      if (read[static_cast<std::size_t>(t)] != 0) continue;
      bool covered = false;
      forNeighbors(g, sys.tag(t).pos, [&](int u) {
        const core::Reader& r = sys.reader(u);
        if (dist2(r.pos, sys.tag(t).pos) <=
            r.interrogation_radius * r.interrogation_radius) {
          covered = true;
        }
      });
      if (covered) return "coverable tag " + std::to_string(t) + " left unread";
    }
    return "";
  }

 private:
  struct Grid {
    std::vector<int> head;  // first reader per cell (-1 none)
    std::vector<int> next;  // chain, indexed by position in `ids`
    std::vector<int> ids;
  };
  static double dist2(geom::Vec2 a, geom::Vec2 b) {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return dx * dx + dy * dy;
  }
  int cellOf(double c) const {
    return std::clamp(static_cast<int>(c / cell_), 0, dim_ - 1);
  }
  Grid bucket(const std::vector<int>& readers) const {
    Grid g;
    const auto d = static_cast<std::size_t>(dim_);
    g.head.assign(d * d, -1);
    g.ids = readers;
    g.next.assign(readers.size(), -1);
    for (std::size_t i = 0; i < readers.size(); ++i) {
      const geom::Vec2 p = sys_->reader(readers[i]).pos;
      const std::size_t c = static_cast<std::size_t>(cellOf(p.y)) *
                                static_cast<std::size_t>(dim_) +
                            static_cast<std::size_t>(cellOf(p.x));
      g.next[i] = g.head[c];
      g.head[c] = static_cast<int>(i);
    }
    return g;
  }
  template <typename Fn>
  void forNeighbors(const Grid& g, geom::Vec2 p, Fn&& fn) const {
    const int cx = cellOf(p.x);
    const int cy = cellOf(p.y);
    for (int y = std::max(cy - 1, 0); y <= std::min(cy + 1, dim_ - 1); ++y) {
      for (int x = std::max(cx - 1, 0); x <= std::min(cx + 1, dim_ - 1); ++x) {
        const std::size_t c =
            static_cast<std::size_t>(y) * static_cast<std::size_t>(dim_) +
                              static_cast<std::size_t>(x);
        for (int i = g.head[c]; i >= 0;
             i = g.next[static_cast<std::size_t>(i)]) {
          fn(g.ids[static_cast<std::size_t>(i)]);
        }
      }
    }
  }

  const core::System* sys_;
  double cell_ = 1.0;
  int dim_ = 1;
};

// ---------------------------------------------------------------------------
// Deployment construction, split into its layers.  Identical to
// workload::makeSystem for the uniform layout.
// ---------------------------------------------------------------------------

struct Built {
  std::unique_ptr<core::System> sys;
  std::unique_ptr<graph::InterferenceGraph> graph;
  double gen_ms = 0.0;
  double build_ms = 0.0;
  double graph_ms = 0.0;
  double build_rss_mib = 0.0;
};

Built buildDeployment(const workload::DeploymentConfig& cfg,
                      std::uint64_t seed) {
  Built b;
  const workload::Rng root(seed);
  std::vector<core::Reader> readers;
  std::vector<core::Tag> tags;
  b.gen_ms = timeMs([&] {
    readers = workload::uniformReaders(cfg, root.split("readers"));
    tags = workload::uniformTags(cfg, root.split("tags"));
  });
  const double rss0 = statusMib("VmRSS");
  b.build_ms = timeMs([&] {
    b.sys = std::make_unique<core::System>(std::move(readers), std::move(tags));
  });
  b.build_rss_mib = statusMib("VmRSS") - rss0;
  b.graph_ms = timeMs(
      [&] { b.graph = std::make_unique<graph::InterferenceGraph>(*b.sys); });
  return b;
}

std::int64_t incidences(const core::System& sys) {
  std::int64_t n = 0;
  for (int v = 0; v < sys.numReaders(); ++v) {
    n += static_cast<std::int64_t>(sys.coverage(v).size());
  }
  return n;
}

/// Runs fn(i) for every i in [0, n) on `threads` threads that pull indices
/// from a shared counter.  Rethrows the first exception after joining.
template <typename Fn>
void runPool(int n, int threads, Fn&& fn) {
  std::atomic<int> next{0};
  std::mutex mu;
  std::exception_ptr err;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lk(mu);
          if (!err) err = std::current_exception();
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (err) std::rethrow_exception(err);
}

bool timeUp(Clock::time_point start, double seconds) {
  return msBetween(start, Clock::now()) >= seconds * 1000.0;
}

// ---------------------------------------------------------------------------
// city_scale: n=100k readers / m=1M tags at the paper's density, alg2 MCS on
// 4 solver threads, then a Gen2 replay of the committed schedule.
// ---------------------------------------------------------------------------

constexpr int kCityReaders = 100000;
constexpr int kCityTags = 1000000;
constexpr int kCitySolverThreads = 4;

struct CityPass {
  double setup_ms = 0.0, solve_ms = 0.0, replay_ms = 0.0;
  double gen_ms = 0.0, build_ms = 0.0, graph_ms = 0.0, build_rss_mib = 0.0;
  std::vector<double> slot_ms;
  std::vector<double> call_us;
  double hook_ms = 0.0;
  std::int64_t incidences = 0, edges = 0, weight_evals = 0, work_units = 0;
  std::int64_t frames = 0;
  double tag_p99 = 0.0;
  Digest digest;
  std::string check_error;  // reference pass only
  bool ok = true;
};

CityPass cityPass(std::uint64_t seed, bool traced, bool reference) {
  CityPass p;
  workload::DeploymentConfig cfg = workload::paperScenario(10.0, 4.0).deploy;
  cfg.num_readers = kCityReaders;
  cfg.num_tags = kCityTags;
  cfg.region_side = 100.0 * std::sqrt(kCityReaders / 50.0);

  const auto t0 = Clock::now();
  Built b = buildDeployment(cfg, seed);
  sched::GrowthOptions go;
  go.num_threads = kCitySolverThreads;
  sched::GrowthScheduler alg2(*b.graph, go);
  TimedScheduler timed(alg2, traced);
  p.setup_ms = msBetween(t0, Clock::now());
  p.gen_ms = b.gen_ms;
  p.build_ms = b.build_ms;
  p.graph_ms = b.graph_ms;
  p.build_rss_mib = b.build_rss_mib;

  core::System& sys = *b.sys;
  obs::MetricsRegistry reg;
  obs::CostLedger ledger;
  if (traced) {
    sys.attachMetrics(&reg);
    alg2.attachCost(&ledger);
    p.incidences = incidences(sys);
    p.edges = b.graph->numEdges();
  }
  CommitLog log;
  log.keep_served = reference;
  log.timed = traced;
  sched::McsOptions opt;
  if (traced) opt.cost = &ledger;
  opt.on_commit = [&](int s, std::span<const int> a, std::span<const int> t) {
    log.onCommit(s, a, t);
  };
  sched::McsResult res;
  log.start();
  p.solve_ms =
      timeMs([&] { res = sched::runCoveringSchedule(sys, timed, opt); });
  sys.attachMetrics(nullptr);
  if (traced) p.weight_evals = reg.counter("core.weight_evals").value();
  p.work_units = ledger.total().workUnits();

  if (reference) {
    GeomChecker checker(sys);
    p.check_error = checker.check(res.schedule, log.served);
    if (p.check_error.empty() && !res.completed) {
      p.check_error = "run did not complete";
    }
  }

  protocol::LinkOptions lo;
  lo.link = protocol::Link::kGen2;
  protocol::LinkTimingResult link;
  p.replay_ms = timeMs([&] {
    link = protocol::timeScheduleLink(sys, res, lo,
                                      workload::Rng(seed).split("gen2"));
  });
  if (reference && p.check_error.empty() && !link.check_ok) {
    p.check_error = "gen2 replay: " + link.check_detail;
  }
  p.ok = res.completed && link.check_ok;
  p.slot_ms = std::move(log.slot_ms);
  p.call_us = std::move(timed.call_us);
  p.hook_ms = log.hook_ms;
  p.frames = link.frames;
  p.tag_p99 = tagLatencyP99(log.served_per_slot);
  p.digest = log.digest;
  p.digest.slots = res.slots;
  p.digest.tags_read = res.tags_read;
  p.digest.air_us = link.air_us;
  p.digest.frames = link.frames;
  p.digest.link_ok = link.check_ok;
  return p;
}

void runCity(const Args& a, Outcome& out) {
  out.threads = {{"main", 1}, {"solver", kCitySolverThreads}};
  const CityPass ref = cityPass(a.seed, false, true);
  if (!ref.check_error.empty()) {
    out.mismatch("reference pass: " + ref.check_error);
  }

  std::vector<CityPass> passes;
  std::vector<double> untraced_total, traced_total;
  const auto start = Clock::now();
  for (int i = 0; i < 2 || !timeUp(start, a.seconds); ++i) {
    // Traced runs alternate traced and untraced passes to measure the
    // tracing overhead; untraced runs never trace.
    const bool traced = a.trace && i % 2 == 0;
    CityPass p = cityPass(a.seed, traced, false);
    std::cerr << "perfbench: pass " << i << " setup_ms=" << p.setup_ms
              << " solve_ms=" << p.solve_ms << " replay_ms=" << p.replay_ms
              << (traced ? " traced" : "") << "\n";
    ++out.attempted;
    if (!(p.digest == ref.digest)) {
      ++out.failed;
      out.mismatch("pass " + std::to_string(i) + ": " + p.digest.str() +
                   " vs reference " + ref.digest.str());
    } else if (!p.ok) {
      ++out.failed;
    }
    const double total = p.setup_ms + p.solve_ms + p.replay_ms;
    (traced ? traced_total : untraced_total).push_back(total);
    if (traced || !a.trace) passes.push_back(std::move(p));
  }

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const CityPass& p : passes) v.push_back(field(p));
    return median(v);
  };
  std::vector<double> slots;
  for (const CityPass& p : passes) append(slots, p.slot_ms);

  out.set("setup_s", med([](const CityPass& p) { return p.setup_ms; }) / 1e3);
  out.set("solve_s", med([](const CityPass& p) { return p.solve_ms; }) / 1e3);
  out.set("total_s",
          med([](const CityPass& p) {
            return p.setup_ms + p.solve_ms + p.replay_ms;
          }) / 1e3);
  out.set("replay_s",
          med([](const CityPass& p) { return p.replay_ms; }) / 1e3);
  out.set("slot_ms.p50", quantile(slots, 0.5));
  out.set("slot_ms.p99", quantile(slots, 0.99));
  out.set("slot_ms.samples", static_cast<double>(slots.size()));
  out.set("schedule_slots", static_cast<double>(ref.digest.slots));
  out.set("air_ms", static_cast<double>(ref.digest.air_us) / 1000.0);
  out.set("tag_latency_slots.p99", ref.tag_p99);
  out.set("failed_frac", out.failedFrac());
  if (!a.trace) return;

  std::vector<double> calls;
  for (const CityPass& p : passes) append(calls, p.call_us);
  const CityPass& first = passes.front();
  out.set("obs.trace_overhead_frac",
          median(traced_total) / median(untraced_total) - 1.0);
  out.set("workload.gen_ms", med([](const CityPass& p) { return p.gen_ms; }));
  out.set("core.build_ms", med([](const CityPass& p) { return p.build_ms; }));
  out.set("core.build_items_per_s",
          (kCityReaders + kCityTags) /
              (med([](const CityPass& p) { return p.build_ms; }) / 1000.0));
  // The reference pass is the process's first build; later passes reuse
  // freed pages and would understate the index's footprint.
  out.set("core.build_rss_mib", ref.build_rss_mib);
  out.set("core.incidences", static_cast<double>(first.incidences));
  out.set("core.weight_evals", static_cast<double>(first.weight_evals));
  out.set("graph.interference_ms",
          med([](const CityPass& p) { return p.graph_ms; }));
  out.set("graph.edges", static_cast<double>(first.edges));
  out.set("sched.schedule_ms",
          med([](const CityPass& p) { return sum(p.call_us) / 1000.0; }));
  out.set("sched.call_us.p50", quantile(calls, 0.5));
  out.set("sched.call_us.p99", quantile(calls, 0.99));
  out.set("sched.calls", static_cast<double>(first.call_us.size()));
  out.set("sched.work_units", static_cast<double>(first.work_units));
  out.set("sched.alg2_ms",
          med([](const CityPass& p) { return sum(p.call_us) / 1000.0; }));
  out.set("mcs.driver_ms", med([](const CityPass& p) {
            return p.solve_ms - sum(p.call_us) / 1000.0 - p.hook_ms;
          }));
  out.set("protocol.replay_ms",
          med([](const CityPass& p) { return p.replay_ms; }));
  out.set("protocol.frames", static_cast<double>(first.frames));
}

// ---------------------------------------------------------------------------
// paper_sweep: the §VI deployment over the Figure 6–9 sweep points, all five
// algorithms as MCS under check::ScheduleValidator, fanned out over 4
// threads (each solve single-threaded).
// ---------------------------------------------------------------------------

constexpr int kSweepThreads = 4;
constexpr int kSweepDeploymentsPerPoint = 8;
constexpr const char* kAlgoNames[] = {"alg1", "alg2", "alg3", "ca", "ghc"};
constexpr int kAlgos = 5;

struct SweepPoint {
  double lambda_R;
  double lambda_r;
};

std::vector<SweepPoint> sweepPoints() {
  std::vector<SweepPoint> pts;
  for (int R = 6; R <= 16; ++R) pts.push_back({static_cast<double>(R), 4.0});
  for (int r = 2; r <= 7; ++r) pts.push_back({10.0, static_cast<double>(r)});
  return pts;
}

/// One (deployment, algorithm) MCS run's outputs.
struct SweepRun {
  Digest digest;
  double ms = 0.0;
  std::vector<double> slot_ms;
  std::vector<int> served_per_slot;
  std::int64_t messages = 0, rounds = 0;
  bool ok = true;
  std::string issue;
};

/// One (deployment, algorithm) MCS job with its own System, so the five
/// algorithms of a deployment run concurrently.
struct SweepJob {
  std::uint64_t seed = 0;
  double lambda_R = 0.0;
  int algo = 0;
  Built b;
  std::unique_ptr<sched::OneShotScheduler> sched;
};

struct SweepPass {
  double setup_ms = 0.0, solve_ms = 0.0;
  std::vector<SweepRun> runs;  // deployment-major, algorithm-minor
};

SweepPass sweepPass(std::uint64_t seed, bool traced, bool validate) {
  const std::vector<SweepPoint> pts = sweepPoints();
  const int nd = static_cast<int>(pts.size()) * kSweepDeploymentsPerPoint;
  const int nj = nd * kAlgos;
  std::vector<SweepJob> jobs(static_cast<std::size_t>(nj));
  SweepPass pass;
  // Set-up runs serially: it is small, and a serial loop times it steadily.
  pass.setup_ms = timeMs([&] {
    for (int j = 0; j < nj; ++j) {
      SweepJob& job = jobs[static_cast<std::size_t>(j)];
      const int i = j / kAlgos;
      const SweepPoint pt =
          pts[static_cast<std::size_t>(i / kSweepDeploymentsPerPoint)];
      job.seed = mix64(seed * std::uint64_t{1000003} +
                       static_cast<std::uint64_t>(i));
      job.lambda_R = pt.lambda_R;
      job.algo = j % kAlgos;
      job.b = buildDeployment(
          workload::paperScenario(pt.lambda_R, pt.lambda_r).deploy, job.seed);
      switch (job.algo) {
        case 0: {
          sched::PtasOptions po;
          po.num_threads = 1;
          job.sched = std::make_unique<sched::PtasScheduler>(po);
          break;
        }
        case 1: {
          sched::GrowthOptions go;
          go.num_threads = 1;
          job.sched =
              std::make_unique<sched::GrowthScheduler>(*job.b.graph, go);
          break;
        }
        case 2:
          job.sched =
              std::make_unique<dist::GrowthDistributedScheduler>(*job.b.graph);
          break;
        case 3:
          job.sched =
              std::make_unique<dist::ColorwaveScheduler>(*job.b.sys, job.seed);
          break;
        default:
          job.sched = std::make_unique<sched::HillClimbingScheduler>();
      }
    }
  });

  // Slowest first — Alg1 and CA, then by interference radius — so the
  // dynamic pool finishes with short jobs.
  constexpr int kCostRank[kAlgos] = {0, 4, 2, 1, 3};
  std::vector<int> order(static_cast<std::size_t>(nj));
  for (int j = 0; j < nj; ++j) order[static_cast<std::size_t>(j)] = j;
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    const SweepJob& jx = jobs[static_cast<std::size_t>(x)];
    const SweepJob& jy = jobs[static_cast<std::size_t>(y)];
    if (kCostRank[jx.algo] != kCostRank[jy.algo]) {
      return kCostRank[jx.algo] < kCostRank[jy.algo];
    }
    return jx.lambda_R > jy.lambda_R;
  });
  pass.runs.resize(static_cast<std::size_t>(nj));
  pass.solve_ms = timeMs([&] {
    runPool(nj, kSweepThreads, [&](int k) {
      const int j = order[static_cast<std::size_t>(k)];
      SweepJob& job = jobs[static_cast<std::size_t>(j)];
      SweepRun& run = pass.runs[static_cast<std::size_t>(j)];
      obs::MetricsRegistry reg;
      if (traced) job.sched->attachMetrics(&reg);
      check::CheckOptions co;
      // Colorwave's raw color classes may conflict and stall pre-convergence.
      co.expect_feasible = job.algo != 3;
      co.expect_progress = job.algo != 3;
      check::ScheduleValidator validator(co);
      CommitLog log;
      sched::McsOptions opt;
      if (validate) opt.validator = &validator;
      opt.on_commit = [&](int s, std::span<const int> x,
                          std::span<const int> t) { log.onCommit(s, x, t); };
      sched::McsResult res;
      log.start();
      run.ms = timeMs([&] {
        res = sched::runCoveringSchedule(*job.b.sys, *job.sched, opt);
      });
      job.sched->attachMetrics(nullptr);
      run.ok = res.completed && (!validate || validator.ok());
      if (!run.ok) {
        std::ostringstream os;
        os << kAlgoNames[job.algo] << " seed " << job.seed
           << ": completed=" << res.completed;
        if (!validator.ok()) validator.report(os);
        run.issue = os.str();
      }
      run.digest = log.digest;
      run.digest.slots = res.slots;
      run.digest.tags_read = res.tags_read;
      run.slot_ms = std::move(log.slot_ms);
      run.served_per_slot = std::move(log.served_per_slot);
      if (traced) {
        run.messages = reg.counter("net.messages").value();
        run.rounds = reg.counter(job.algo == 3 ? "net.protocol_rounds"
                                               : "net.rounds")
                         .value();
      }
    });
  });
  return pass;
}

void runSweep(const Args& a, Outcome& out) {
  out.threads = {{"main", 1}, {"sweep_workers", kSweepThreads}};
  const SweepPass ref = sweepPass(a.seed, false, true);
  for (const SweepRun& r : ref.runs) {
    if (!r.ok) out.mismatch("reference pass: " + r.issue);
  }

  std::vector<SweepPass> passes;
  std::vector<double> untraced_solve, traced_solve, unvalidated_solve;
  const auto start = Clock::now();
  for (int i = 0; i < 3 || !timeUp(start, a.seconds); ++i) {
    // Traced runs cycle traced / untraced / unvalidated passes: the first
    // pair gives the tracing overhead, the last pair the validator's share.
    const int kind = a.trace ? i % 3 : 1;
    SweepPass p = sweepPass(a.seed, kind == 0, kind != 2);
    std::cerr << "perfbench: pass " << i << " setup_ms=" << p.setup_ms
              << " solve_ms=" << p.solve_ms << (kind == 0 ? " traced" : "")
              << (kind == 2 ? " unvalidated" : "") << "\n";
    for (std::size_t k = 0; k < p.runs.size(); ++k) {
      ++out.attempted;
      if (!(p.runs[k].digest == ref.runs[k].digest)) {
        ++out.failed;
        out.mismatch("pass " + std::to_string(i) + " run " +
                     std::to_string(k) + ": " + p.runs[k].digest.str() +
                     " vs reference " + ref.runs[k].digest.str());
      } else if (!p.runs[k].ok) {
        ++out.failed;
        out.notes.push_back(p.runs[k].issue);
      }
    }
    if (kind == 2) {
      unvalidated_solve.push_back(p.solve_ms);
      continue;
    }
    (kind == 0 ? traced_solve : untraced_solve).push_back(p.solve_ms);
    if (kind == 0 || !a.trace) passes.push_back(std::move(p));
  }

  std::vector<double> setup, solve, total, slots;
  for (const SweepPass& p : passes) {
    setup.push_back(p.setup_ms);
    solve.push_back(p.solve_ms);
    total.push_back(p.setup_ms + p.solve_ms);
    for (const SweepRun& r : p.runs) append(slots, r.slot_ms);
  }
  std::int64_t total_slots = 0;
  std::vector<int> served_hist;
  for (const SweepRun& r : ref.runs) {
    total_slots += r.digest.slots;
    const std::vector<int>& s = r.served_per_slot;
    if (served_hist.size() < s.size()) served_hist.resize(s.size());
    for (std::size_t q = 0; q < s.size(); ++q) served_hist[q] += s[q];
  }
  out.set("setup_s", median(setup) / 1000.0);
  out.set("solve_s", median(solve) / 1000.0);
  out.set("total_s", median(total) / 1000.0);
  out.set("slot_ms.p50", quantile(slots, 0.5));
  out.set("slot_ms.p99", quantile(slots, 0.99));
  out.set("slot_ms.samples", static_cast<double>(slots.size()));
  out.set("schedule_slots", static_cast<double>(total_slots));
  out.set("tag_latency_slots.p99", tagLatencyP99(served_hist));
  out.set("failed_frac", out.failedFrac());
  if (!a.trace) return;

  out.set("obs.trace_overhead_frac",
          median(traced_solve) / median(untraced_solve) - 1.0);
  out.set("check.validate_ms",
          median(untraced_solve) - median(unvalidated_solve));
  // Per-algorithm CPU time (summed over runs; runs overlap on 4 threads).
  const char* layer[kAlgos] = {"sched.alg1_ms", "sched.alg2_ms",
                               "distributed.alg3_ms", "distributed.ca_ms",
                               "sched.ghc_ms"};
  for (int al = 0; al < kAlgos; ++al) {
    std::vector<double> per_pass;
    for (const SweepPass& p : passes) {
      double s = 0.0;
      for (auto k = static_cast<std::size_t>(al); k < p.runs.size();
           k += kAlgos) {
        s += p.runs[k].ms;
      }
      per_pass.push_back(s);
    }
    out.set(layer[al], median(per_pass));
  }
  std::int64_t messages = 0, rounds = 0;
  for (const SweepRun& r : passes.front().runs) {
    messages += r.messages;
    rounds += r.rounds;
  }
  out.set("distributed.messages", static_cast<double>(messages));
  out.set("distributed.rounds", static_cast<double>(rounds));
  std::vector<double> gen, build, graph;
  // Construction layers of one paper-size deployment, timed serially.
  for (int i = 0; i < 16; ++i) {
    const Built b =
        buildDeployment(workload::paperScenario().deploy,
                        mix64(a.seed + 77 + static_cast<std::uint64_t>(i)));
    gen.push_back(b.gen_ms);
    build.push_back(b.build_ms);
    graph.push_back(b.graph_ms);
  }
  out.set("workload.gen_ms", median(gen));
  out.set("core.build_ms", median(build));
  out.set("core.build_items_per_s", (50 + 1200) / (median(build) / 1000.0));
  out.set("graph.interference_ms", median(graph));
}

// ---------------------------------------------------------------------------
// churn_stream: n=500 readers / 12k initial tags at paper density under
// bursty MMPP churn; alg2 single-threaded, backlog bound + deadline aging,
// the index oracle (kStreamOracleEveryEpochs), Gen2 co-simulated on every
// commit, and a slot journal (runStreamingCheckpointed).
// ---------------------------------------------------------------------------

constexpr int kStreamReaders = 500;
constexpr int kStreamTags = 12000;
// Timed passes verify the index every 1024 structural epochs, 16x sparser
// than the oracle's default of 64.  At the default the oracle's O(n*m)
// rebuild was ~90% of a pass, and its speed on a shared host drifted by up
// to 2x over minutes, so solve_s spread 0.31 of its median across seeds.
// At 1024 it fires ~5 times per stream, ~40% of a pass (README.md).
constexpr int kStreamOracleEveryEpochs = 1024;

workload::ChurnConfig streamChurn(double side) {
  workload::ChurnConfig cc;
  cc.arrival_rate = 6.0;
  cc.depart_rate = 2.0;
  cc.move_rate = 2.0;
  cc.slots = 400;
  cc.region_side = side;
  // Short, frequent bursts: many episodes per trace keep the oracle's
  // firing count (which tracks total churn) steady across seeds.
  cc.burst_multiplier = 3.0;
  cc.burst_enter = 0.2;
  cc.burst_exit = 0.5;
  return cc;
}

struct StreamPass {
  double setup_ms = 0.0, solve_ms = 0.0, churn_gen_ms = 0.0, gen_ms = 0.0,
         build_ms = 0.0, graph_ms = 0.0;
  std::vector<double> slot_ms, call_us, onslot_us;
  double hook_ms = 0.0;
  sched::StreamingResult res;
  protocol::LinkTimingResult link;
  std::int64_t work_units = 0;
  double oracle_verify_ms = 0.0;
  std::vector<double> append_us;
  double snapshot_ms = 0.0;
  std::int64_t journal_bytes = 0;
  Digest digest;
  bool ok = true;
  std::string issue;
};

StreamPass streamPass(const Args& a, bool traced, bool reference) {
  StreamPass p;
  workload::DeploymentConfig cfg = workload::paperScenario(10.0, 4.0).deploy;
  cfg.num_readers = kStreamReaders;
  cfg.num_tags = kStreamTags;
  cfg.region_side = 100.0 * std::sqrt(kStreamReaders / 50.0);

  const auto t0 = Clock::now();
  Built b = buildDeployment(cfg, a.seed);
  workload::ChurnTrace trace;
  p.churn_gen_ms = timeMs([&] {
    trace = workload::makeChurnTrace(streamChurn(cfg.region_side), kStreamTags,
                                     mix64(a.seed ^ 0xc4u));
  });
  sched::GrowthOptions go;
  go.num_threads = 1;
  sched::GrowthScheduler alg2(*b.graph, go);
  TimedScheduler timed(alg2, traced);
  p.setup_ms = msBetween(t0, Clock::now());
  p.gen_ms = b.gen_ms;
  p.build_ms = b.build_ms;
  p.graph_ms = b.graph_ms;

  core::System& sys = *b.sys;
  check::IndexOracleOptions oo;
  oo.every_epochs = kStreamOracleEveryEpochs;
  oo.paranoid = reference;  // the checked pass verifies the index every slot
  check::IncrementalIndexOracle oracle(oo);
  protocol::Gen2LinkTimer gen2(sys, protocol::Gen2Options{},
                               workload::Rng(a.seed).split("gen2"));
  obs::CostLedger ledger;
  if (traced) alg2.attachCost(&ledger);

  CommitLog log;
  log.timed = traced;
  log.inner = [&](int s, std::span<const int> x, std::span<const int> t) {
    if (!traced) return gen2.onSlot(s, x, t);
    const auto g0 = Clock::now();
    gen2.onSlot(s, x, t);
    p.onslot_us.push_back(msBetween(g0, Clock::now()) * 1000.0);
  };
  sched::StreamingOptions so;
  so.oracle = &oracle;
  so.fail_on_divergence = true;
  so.max_backlog = 20000;
  so.shed_after_slots = 400;
  if (traced) so.cost = &ledger;
  so.on_commit = [&](int s, std::span<const int> x, std::span<const int> t) {
    log.onCommit(s, x, t);
  };
  const std::string journal = a.scratch + "/stream.journal";
  std::filesystem::remove(journal);
  std::filesystem::remove(journal + ".snap");
  ckpt::CheckpointSetup setup;
  setup.path = journal;
  setup.seed = a.seed;

  sched::StreamingCheckpointedRun run;
  log.start();
  p.solve_ms = timeMs([&] {
    run = sched::runStreamingCheckpointed(sys, timed, trace, so, setup);
  });
  p.res = run.result;
  p.link = gen2.result();
  p.work_units = ledger.total().workUnits();
  const sched::StreamingResult& r = p.res;
  p.ok = run.ok && r.stop == sched::McsStop::kNone && r.drained &&
         p.link.check_ok && oracle.ok() && r.index_divergences == 0;
  if (!p.ok) {
    std::ostringstream os;
    os << "stream: ok=" << run.ok << " error=" << run.error
       << " stop=" << mcsStopName(r.stop) << " drained=" << r.drained
       << " link_ok=" << p.link.check_ok << " "
       << p.link.check_detail << " divergences=" << r.index_divergences;
    p.issue = os.str();
  }
  p.slot_ms = std::move(log.slot_ms);
  p.call_us = std::move(timed.call_us);
  p.hook_ms = log.hook_ms;
  p.digest = log.digest;
  p.digest.slots = r.slots;
  p.digest.tags_read = r.tags_read;
  p.digest.air_us = p.link.air_us;
  p.digest.frames = p.link.frames;
  p.digest.link_ok = p.link.check_ok;
  p.digest.shed = r.shed + r.shed_aged;
  p.digest.latency_p50 = r.latency_p50;
  p.digest.latency_p99 = r.latency_p99;

  if (traced) {
    check::IncrementalIndexOracle probe{check::IndexOracleOptions{}};
    p.oracle_verify_ms = timeMs([&] { probe.verify(sys, r.slots); });
    // Journal layer: re-append the stream's committed entries through a
    // fresh JournalWriter, timing each append and one snapshot.
    std::string err;
    const auto data = ckpt::readJournal(journal, &err);
    if (!data) {
      p.ok = false;
      p.issue = "journal unreadable: " + err;
    } else {
      const std::string copy = a.scratch + "/stream.copy.journal";
      std::filesystem::remove(copy);
      std::filesystem::remove(copy + ".snap");
      ckpt::JournalWriter w;
      if (!w.create(copy, data->header, &err)) {
        p.ok = false;
        p.issue = "journal copy: " + err;
      } else {
        for (const ckpt::SlotEntry& e : data->slots) {
          const auto s0 = Clock::now();
          if (!w.appendSlot(e)) p.ok = false;
          p.append_us.push_back(msBetween(s0, Clock::now()) * 1000.0);
        }
        ckpt::Snapshot snap;
        snap.slot = static_cast<int>(data->slots.size());
        snap.read.assign(sys.readState().begin(), sys.readState().end());
        p.snapshot_ms = timeMs([&] {
          if (!w.writeSnapshot(snap)) p.ok = false;
        });
        w.close();
        p.journal_bytes =
            static_cast<std::int64_t>(std::filesystem::file_size(copy));
      }
    }
  }
  return p;
}

void runStream(const Args& a, Outcome& out) {
  out.threads = {{"main", 1}};
  const StreamPass ref = streamPass(a, false, true);
  if (!ref.ok) out.mismatch("reference pass: " + ref.issue);

  std::vector<StreamPass> passes;
  std::vector<double> untraced_total, traced_total;
  const auto start = Clock::now();
  for (int i = 0; i < 2 || !timeUp(start, a.seconds); ++i) {
    const bool traced = a.trace && i % 2 == 0;
    StreamPass p = streamPass(a, traced, false);
    std::cerr << "perfbench: pass " << i << " setup_ms=" << p.setup_ms
              << " solve_ms=" << p.solve_ms << (traced ? " traced" : "")
              << "\n";
    ++out.attempted;
    if (!(p.digest == ref.digest)) {
      ++out.failed;
      out.mismatch("pass " + std::to_string(i) + ": " + p.digest.str() +
                   " vs reference " + ref.digest.str());
    } else if (!p.ok) {
      ++out.failed;
      out.notes.push_back(p.issue);
    }
    (traced ? traced_total : untraced_total).push_back(p.setup_ms + p.solve_ms);
    // Retained passes drop the committed schedule, and untraced ones their
    // per-slot times, which nothing reads back: kept, they made peak RSS
    // grow with the number of passes that fit in the run, that is, with
    // host speed.
    p.res.schedule = std::vector<sched::SlotRecord>();
    if (!traced) p.slot_ms = std::vector<double>();
    if (traced || !a.trace) passes.push_back(std::move(p));
  }

  std::vector<double> setup, solve, total, slots, calls, onslot, appends,
      churn_gen, gen, build, graph, snapshot, replay, driver, sched_ms;
  for (const StreamPass& p : passes) {
    setup.push_back(p.setup_ms);
    solve.push_back(p.solve_ms);
    total.push_back(p.setup_ms + p.solve_ms);
    append(slots, p.slot_ms);
    append(calls, p.call_us);
    append(onslot, p.onslot_us);
    append(appends, p.append_us);
    churn_gen.push_back(p.churn_gen_ms);
    gen.push_back(p.gen_ms);
    build.push_back(p.build_ms);
    graph.push_back(p.graph_ms);
    snapshot.push_back(p.snapshot_ms);
    replay.push_back(sum(p.onslot_us) / 1000.0);
    sched_ms.push_back(sum(p.call_us) / 1000.0);
    driver.push_back(p.solve_ms - sum(p.call_us) / 1000.0 - p.hook_ms);
  }
  const sched::StreamingResult& r = ref.res;
  // Base: coverable tags that entered the field (served or shed).
  const double base = static_cast<double>(r.tags_read + r.shed + r.shed_aged);
  out.set("setup_s", median(setup) / 1000.0);
  out.set("solve_s", median(solve) / 1000.0);
  out.set("total_s", median(total) / 1000.0);
  out.set("slot_ms.p50", quantile(slots, 0.5));
  out.set("slot_ms.p99", quantile(slots, 0.99));
  out.set("slot_ms.samples", static_cast<double>(slots.size()));
  out.set("schedule_slots", static_cast<double>(r.slots));
  out.set("air_ms", static_cast<double>(ref.link.air_us) / 1000.0);
  out.set("tag_latency_slots.p99", r.latency_p99);
  const double shed_frac = static_cast<double>(r.shed + r.shed_aged) / base;
  out.set("failed_frac", shed_frac);
  out.set("ok_frac", (1.0 - shed_frac) * (1.0 - out.failedFrac()));
  if (!a.trace) return;

  const StreamPass& first = passes.front();
  out.set("replay_s", median(replay) / 1000.0);
  out.set("obs.trace_overhead_frac",
          median(traced_total) / median(untraced_total) - 1.0);
  out.set("workload.gen_ms", median(gen));
  out.set("workload.churn_gen_ms", median(churn_gen));
  out.set("core.build_ms", median(build));
  out.set("core.build_items_per_s",
          (kStreamReaders + kStreamTags) / (median(build) / 1000.0));
  out.set("graph.interference_ms", median(graph));
  out.set("sched.schedule_ms", median(sched_ms));
  out.set("sched.alg2_ms", median(sched_ms));
  out.set("sched.call_us.p50", quantile(calls, 0.5));
  out.set("sched.call_us.p99", quantile(calls, 0.99));
  out.set("sched.calls", static_cast<double>(first.call_us.size()));
  out.set("sched.work_units", static_cast<double>(first.work_units));
  out.set("mcs.driver_ms", median(driver));
  out.set("protocol.onslot_us.p50", quantile(onslot, 0.5));
  out.set("protocol.onslot_us.p99", quantile(onslot, 0.99));
  out.set("protocol.frames", static_cast<double>(first.link.frames));
  out.set("check.oracle_verify_ms", median([&] {
            std::vector<double> v;
            for (const StreamPass& p : passes) v.push_back(p.oracle_verify_ms);
            return v;
          }()));
  out.set("check.oracle_checks", static_cast<double>(first.res.index_checks));
  out.set("ckpt.append_us.p50", quantile(appends, 0.5));
  out.set("ckpt.append_us.p99", quantile(appends, 0.99));
  out.set("ckpt.snapshot_ms", median(snapshot));
  out.set("ckpt.bytes", static_cast<double>(first.journal_bytes));
}

// ---------------------------------------------------------------------------
// service_mix: an in-process service::Service (2 workers, a queue that
// holds a whole phase) under open-loop Poisson arrivals.  One thread
// generates the arrivals and polls Ticket::done(); latency runs from each
// request's due time, and a refused or failed request counts as missing
// the limit.
// ---------------------------------------------------------------------------

constexpr int kServiceWorkers = 2;
// Reference capacity: 2000-2400 req/s for this mix on a 4-core Xeon VM
// (the highest ladder rung meeting the limit).  The queue holds every
// request of a phase, so admission never refuses: with a 16-deep queue, a
// host stall of the generator or both workers for ~25 ms at 700 req/s
// overflowed it, and the failure count then varied from run to run
// (README.md).
constexpr double kRateLo = 400.0;  // req/s, ~0.2x reference capacity
constexpr double kRateHi = 700.0;  // req/s, ~0.3x reference capacity
constexpr double kSloP99Ms = 20.0;  // p99 limit, timed from the due time
constexpr double kLadder[] = {400,  600,  800,  1000, 1200, 1400, 1600,
                              1800, 2000, 2400, 2800, 3200, 3600};
constexpr int kSpecPool = 48;

/// The request mix: mostly paper-size alg2, a tail of 400-reader alg2 and
/// some paper-size GHC.  A fixed pool of distinct specs, so the reference
/// pass can check every response.
std::vector<service::RequestSpec> specPool(std::uint64_t seed) {
  std::vector<service::RequestSpec> pool;
  for (int i = 0; i < kSpecPool; ++i) {
    service::RequestSpec s;
    s.seed = mix64(seed * 131u + static_cast<std::uint64_t>(i)) % 1000000007u;
    if (i % 16 == 15) {  // 1 in 16: the 400-reader tail
      s.readers = 400;
      s.tags = 9600;
      s.side = 100.0 * std::sqrt(400.0 / 50.0);
    } else if (i % 8 == 3) {  // 1 in 8: GHC
      s.algo = "ghc";
    }
    pool.push_back(s);
  }
  return pool;
}

struct SpecRef {
  int slots = 0;
  int tags_read = 0;
  bool completed = false;
};

/// Checked reference: each pool spec solved directly (same scenario and
/// scheduler as the service) under check::ScheduleValidator.
std::vector<SpecRef> specReference(
    const std::vector<service::RequestSpec>& pool, Outcome& out) {
  std::vector<SpecRef> ref;
  for (const service::RequestSpec& s : pool) {
    workload::Scenario sc = workload::paperScenario(s.lambda_R, s.lambda_r);
    sc.deploy.num_readers = s.readers;
    sc.deploy.num_tags = s.tags;
    sc.deploy.region_side = s.side;
    core::System sys = workload::makeSystem(sc, s.seed);
    const graph::InterferenceGraph g(sys);
    std::unique_ptr<sched::OneShotScheduler> sch;
    if (s.algo == "ghc") {
      sch = std::make_unique<sched::HillClimbingScheduler>(true);
    } else {
      sched::GrowthOptions o;
      o.rho = s.rho;
      o.num_threads = 1;
      sch = std::make_unique<sched::GrowthScheduler>(g, o);
    }
    check::ScheduleValidator validator{check::CheckOptions{}};
    sched::McsOptions opt;
    opt.validator = &validator;
    const sched::McsResult res = sched::runCoveringSchedule(sys, *sch, opt);
    if (!validator.ok() || !res.completed) {
      std::ostringstream os;
      validator.report(os);
      out.mismatch("reference spec seed " + std::to_string(s.seed) + " " +
                   os.str());
    }
    ref.push_back({res.slots, res.tags_read, res.completed});
  }
  return ref;
}

struct PhaseStats {
  std::vector<double> lat_ms;      // from due time; refused/failed = +inf
  std::vector<double> queue_ms, exec_ms, slot_ms;
  std::vector<double> gen_late_ms;
  std::int64_t sent = 0, not_ok = 0, mismatched = 0, retries = 0, slots = 0;
  std::size_t depth_peak = 0;
  std::map<std::string, int> codes;  // failure codes seen
  double drain_ms = 0.0;  // last completion minus last due time
};

/// Request count for `seconds` at `rps`, rounded up to whole pool cycles.
int phaseRequests(double rps, double seconds) {
  const int n = static_cast<int>(rps * seconds);
  return std::max(1, (n + kSpecPool - 1) / kSpecPool) * kSpecPool;
}

/// Sends `n` requests at Poisson rate `rps` and waits for every response.
PhaseStats openLoop(service::Service& svc,
                    const std::vector<service::RequestSpec>& pool,
                    const std::vector<SpecRef>& ref, double rps, int n,
                    const std::string& tag,
                    std::uint64_t seed, Outcome& out) {
  PhaseStats st;
  Draws d(seed);
  struct Pending {
    std::shared_ptr<service::Ticket> ticket;
    Clock::time_point due;
    Clock::time_point sent;
    int spec;
  };
  std::vector<Pending> pending;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  double offset_s = 0.0;
  // Specs cycle through per-block shuffles of the pool, so every block of
  // kSpecPool requests carries the mix exactly.
  std::vector<int> order;
  for (int b = 0; b * kSpecPool < n; ++b) {
    std::vector<int> block(kSpecPool);
    for (int i = 0; i < kSpecPool; ++i) block[static_cast<std::size_t>(i)] = i;
    for (int i = kSpecPool - 1; i > 0; --i) {
      std::swap(block[static_cast<std::size_t>(i)],
                block[static_cast<std::size_t>(d.u01() * (i + 1))]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  int next = 0;
  int next_spec = order[0];
  auto next_due = t0;
  Clock::time_point last_due = t0, last_done = t0, last_poll = t0;
  // Latency from the due time: the generator's lateness plus the service's
  // own submit-to-completion clock (free of the poll interval).
  const auto finish = [&](const Pending& p, const service::Response& r) {
    const bool ok = r.status == service::Status::kOk;
    st.lat_ms.push_back(ok ? msBetween(p.due, p.sent) + r.latency_ms
                           : INFINITY);
    st.retries += std::max(0, r.attempts - 1);
    if (!ok) {
      ++st.not_ok;
      ++st.codes[service::codeName(r.code)];
      return;
    }
    const SpecRef& want = ref[static_cast<std::size_t>(p.spec)];
    if (r.slots != want.slots || r.tags_read != want.tags_read ||
        r.completed != want.completed) {
      ++st.mismatched;
      out.mismatch("request " + r.id + ": slots " + std::to_string(r.slots) +
                   " tags " + std::to_string(r.tags_read) + " vs reference " +
                   std::to_string(want.slots) +
                   " / " + std::to_string(want.tags_read));
    }
    st.queue_ms.push_back(r.queue_wait_ms);
    st.exec_ms.push_back(r.latency_ms - r.queue_wait_ms);
    if (r.slots > 0) {
      st.slot_ms.push_back((r.latency_ms - r.queue_wait_ms) / r.slots);
    }
    st.slots += r.slots;
  };
  while (next < n || !pending.empty()) {
    const auto now = Clock::now();
    while (next < n && next_due <= now) {
      service::RequestSpec spec = pool[static_cast<std::size_t>(next_spec)];
      spec.id = tag + "-" + std::to_string(next);
      st.gen_late_ms.push_back(msBetween(next_due, now));
      service::Response reject;
      auto ticket = svc.submit(spec, &reject);
      ++st.sent;
      const Pending p{ticket, next_due, now, next_spec};
      if (ticket == nullptr) {
        finish(p, reject);
      } else {
        pending.push_back(p);
      }
      last_due = next_due;
      ++next;
      next_spec = order[static_cast<std::size_t>(std::min(next, n - 1))];
      offset_s += d.exp(rps);
      next_due = t0 + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(offset_s));
    }
    const auto polled = Clock::now();
    if (polled - last_poll < std::chrono::microseconds(20)) {
      // Spin rather than sleep: an idle virtual CPU can take hundreds of
      // microseconds to wake, which would read as generator lateness.
      std::this_thread::yield();
      continue;
    }
    last_poll = polled;
    st.depth_peak = std::max(st.depth_peak, svc.queueDepth());
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].ticket->done()) {
        finish(pending[i], pending[i].ticket->wait());
        last_done = polled;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }
  st.drain_ms = msBetween(last_due, last_done);
  std::cerr << "perfbench: phase " << tag << " rate=" << rps
            << "/s sent=" << st.sent << " not_ok=" << st.not_ok
            << " lat_p50=" << quantile(st.lat_ms, 0.5)
            << " lat_p99=" << quantile(st.lat_ms, 0.99)
            << " queue_p50=" << quantile(st.queue_ms, 0.5)
            << " exec_p50=" << quantile(st.exec_ms, 0.5)
            << " gen_late_p99=" << quantile(st.gen_late_ms, 0.99)
            << " depth_peak=" << st.depth_peak << " drain_ms=" << st.drain_ms;
  for (const auto& [code, count] : st.codes) {
    std::cerr << " " << code << "=" << count;
  }
  std::cerr << "\n";
  return st;
}

double p99(const std::vector<double>& v) { return quantile(v, 0.99); }

void runService(const Args& a, Outcome& out) {
  out.threads = {{"generator_and_poller", 1},
                 {"workers", kServiceWorkers},
                 {"watchdog", 1}};
  const std::vector<service::RequestSpec> pool = specPool(a.seed);
  const std::vector<SpecRef> ref = specReference(pool, out);
  const double budget = a.seconds * (a.trace ? 0.5 : 1.0);
  const int n_lo = phaseRequests(kRateLo, budget * 0.5);
  const int n_hi = phaseRequests(kRateHi, budget * 0.5);
  // Ladder rungs are shorter than a phase at every rate, so they fit too.
  const auto queue_capacity = static_cast<std::size_t>(std::max(n_lo, n_hi));

  // No checkpoint directory: the benchmark may write only inside its
  // checkout, which can sit on a disk, and a journal fsync per request made
  // latency track the disk rather than the code (README.md).
  const auto makeService = [&] {
    service::ServiceOptions so;
    so.workers = kServiceWorkers;
    so.queue_capacity = queue_capacity;
    auto svc = std::make_unique<service::Service>(so);
    svc->start();
    // Set-up ends when the pool has served one request.
    service::RequestSpec warm = pool.front();
    warm.id = "warmup";
    service::Response reject;
    auto t = svc->submit(warm, &reject);
    if (t != nullptr) t->wait();
    return svc;
  };
  // Set-up is a few milliseconds; repeat it and report the median.
  std::vector<double> setup;
  std::unique_ptr<service::Service> svc;
  for (int i = 0; i < 15; ++i) {
    if (svc) svc->drain(1000);
    svc.reset();
    setup.push_back(timeMs([&] { svc = makeService(); }));
  }

  const PhaseStats lo = openLoop(*svc, pool, ref, kRateLo, n_lo, "lo",
                                 mix64(a.seed + 1), out);
  svc->waitIdle([] { return false; });
  const PhaseStats hi = openLoop(*svc, pool, ref, kRateHi, n_hi, "hi",
                                 mix64(a.seed + 2), out);
  svc->waitIdle([] { return false; });

  out.attempted = lo.sent + hi.sent;
  out.failed = lo.not_ok + hi.not_ok + lo.mismatched + hi.mismatched;
  std::vector<double> slot_ms = lo.slot_ms;
  slot_ms.insert(slot_ms.end(), hi.slot_ms.begin(), hi.slot_ms.end());
  out.set("setup_s", median(setup) / 1000.0);
  // A request is the service's unit of work: solve_s is its median solve
  // time (exec = latency minus queue wait), total_s its median latency
  // from the due time.
  std::vector<double> exec = lo.exec_ms, lat = lo.lat_ms;
  exec.insert(exec.end(), hi.exec_ms.begin(), hi.exec_ms.end());
  lat.insert(lat.end(), hi.lat_ms.begin(), hi.lat_ms.end());
  out.set("solve_s", median(exec) / 1000.0);
  out.set("total_s", median(lat) / 1000.0);
  out.set("slot_ms.p50", quantile(slot_ms, 0.5));
  out.set("slot_ms.p99", quantile(slot_ms, 0.99));
  out.set("slot_ms.samples", static_cast<double>(slot_ms.size()));
  out.set("schedule_slots", static_cast<double>(lo.slots + hi.slots));
  out.set("failed_frac", out.failedFrac());
  out.set("ok_frac", 1.0 - out.failedFrac());
  out.set("lat_lo_ms.p50", quantile(lo.lat_ms, 0.5));
  out.set("lat_lo_ms.p99", p99(lo.lat_ms));
  out.set("lat_hi_ms.p50", quantile(hi.lat_ms, 0.5));
  out.set("lat_hi_ms.p99", p99(hi.lat_ms));
  if (a.trace) {
    // Capacity ladder: ascending fixed rates, each for a fixed share of the
    // budget; stop at the first rung that misses the limit or whose backlog
    // does not drain within the limit after its last arrival.
    const double rung_s =
        a.seconds * 0.5 / static_cast<double>(std::size(kLadder));
    double best = 0.0;
    int k = 0;
    for (const double rate : kLadder) {
      const int n = phaseRequests(rate, rung_s);
      const PhaseStats st = openLoop(
          *svc, pool, ref, rate, n, "rung" + std::to_string(k),
          mix64(a.seed + 10 + static_cast<std::uint64_t>(k)), out);
      svc->waitIdle([] { return false; });
      ++k;
      if (p99(st.lat_ms) > kSloP99Ms || st.drain_ms > kSloP99Ms) break;
      best = rate;
    }
    out.set("max_rps_under_slo", best);
    std::vector<double> q = lo.queue_ms, e = lo.exec_ms, late = lo.gen_late_ms;
    append(q, hi.queue_ms);
    append(e, hi.exec_ms);
    append(late, hi.gen_late_ms);
    out.set("service.queue_wait_ms.p50", quantile(q, 0.5));
    out.set("service.queue_wait_ms.p99", p99(q));
    out.set("service.exec_ms.p50", quantile(e, 0.5));
    out.set("service.exec_ms.p99", p99(e));
    out.set("service.queue_depth_peak",
            static_cast<double>(std::max(lo.depth_peak, hi.depth_peak)));
    out.set("service.retries", static_cast<double>(lo.retries + hi.retries));
    out.set("service.gen_late_ms.p99", p99(late));
    out.set("obs.trace_overhead_frac", 0.0);
  }
  const service::DrainReport dr = svc->drain(1000);
  if (!dr.clean()) out.notes.push_back("service drain left hung workers");
  svc.reset();
}

// ---------------------------------------------------------------------------

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto c = line.find(':');
      if (c != std::string::npos) return line.substr(c + 2);
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: rfidsched_perfbench --workload "
               "<city_scale|paper_sweep|churn_stream|service_mix> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> "
               "[--source-id <id>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_REFUSE
  (void)argc;
  (void)argv;
  std::cerr << "perfbench: refusing to time this build: " PERFBENCH_REFUSE "\n";
  return 2;
#else
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--scratch") a.scratch = v;
      else if (k == "--source-id") a.source_id = v;
      else return usage(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (a.scratch.empty()) return usage("--scratch is required");
  if (!(a.seconds > 0.0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(a.scratch);

  Outcome out;
  try {
    if (a.workload == "city_scale") runCity(a, out);
    else if (a.workload == "paper_sweep") runSweep(a, out);
    else if (a.workload == "churn_stream") runStream(a, out);
    else if (a.workload == "service_mix") runService(a, out);
    else return usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << a.workload << " failed: " << e.what() << "\n";
    return 3;
  }
  if (out.m.count("ok_frac") == 0) out.set("ok_frac", 1.0 - out.failedFrac());
  out.set("peak_rss_mib", statusMib("VmHWM"));
  for (const std::string& n : out.notes) {
    std::cerr << "perfbench: " << n << "\n";
  }

  // Fingerprint line (informational; the result is the last line).
  std::ostringstream fp;
  fp << "{\"workload\": " << jsonString(a.workload) << ", \"seed\": " << a.seed
     << ", \"cpu\": " << jsonString(cpuModel())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << jsonString(__VERSION__)
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
     << ", \"ndebug\": true, \"source\": " << jsonString(a.source_id)
     << ", \"threads\": {";
  bool firstT = true;
  for (const auto& [k, v] : out.threads) {
    fp << (firstT ? "" : ", ") << jsonString(k) << ": " << v;
    firstT = false;
  }
  fp << "}}";
  std::cout << "fingerprint " << fp.str() << "\n";

  std::ostringstream os;
  os << "{\"correct\": " << (out.correct ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    const auto it = out.m.find(d.name);
    const double v = it == out.m.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << jsonString(d.name)
       << ": {\"value\": " << num(v) << ", \"unit\": " << jsonString(d.unit)
       << "}";
    first = false;
  };
  if (a.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (out.m.count(d.name) == 0) {
        std::cerr << "perfbench: internal error: " << d.name
                  << " not measured\n";
        return 3;
      }
      emit(d);
    }
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return out.correct ? 0 : 1;
#endif
}
