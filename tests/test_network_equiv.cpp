// Cross-version pin for the two node programs on dist::Network: Colorwave
// (CA, the paper's §VI baseline) and Algorithm 3 (§V-B), each run as MCS on
// three §VI paper deployments, with and without a fault plan that drops,
// duplicates, delays and crashes.
//
// The goldens only run alg2, so these constants are what pins the wire's
// delivery order, the fault channel's RNG stream and the protocols'
// decisions.  They were recorded from the simulator before its message
// plane moved to shared payload arenas and a CSR inbox; any change to
// either protocol or to the wire that moves a schedule, a round or a word
// shows up here.  A failing row prints the observed Pin in the table's own
// syntax (see PrintTo), ready to paste once a change is meant to move it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>

#include "distributed/colorwave.h"
#include "distributed/growth_distributed.h"
#include "fault/channel_model.h"
#include "fault/fault_plan.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "sched/mcs.h"
#include "workload/scenario.h"

namespace rfid::dist {
namespace {

struct Pin {
  int slots = 0;
  int tags_read = 0;
  std::uint64_t active_hash = 0;  // FNV-1a over every slot's active set
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t payload_words = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t delayed = 0;
  std::int64_t dead_drops = 0;

  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& p, std::ostream* os) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%d, %d, 0x%016llxull, %lld, %lld, %lld, %lld, %lld, %lld, "
                "%lld}",
                p.slots, p.tags_read,
                static_cast<unsigned long long>(p.active_hash),
                static_cast<long long>(p.rounds),
                static_cast<long long>(p.messages),
                static_cast<long long>(p.payload_words),
                static_cast<long long>(p.dropped),
                static_cast<long long>(p.duplicated),
                static_cast<long long>(p.delayed),
                static_cast<long long>(p.dead_drops));
  *os << buf;
}

std::uint64_t activeHash(const sched::McsResult& res) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](int x) {
    auto u = static_cast<std::uint32_t>(x);
    for (int b = 0; b < 4; ++b) {
      h ^= u & 0xffu;
      h *= 1099511628211ull;
      u >>= 8;
    }
  };
  for (const sched::SlotRecord& s : res.schedule) {
    mix(static_cast<int>(s.active.size()));
    for (const int v : s.active) mix(v);
  }
  return h;
}

/// Drops, duplicates and delays on every link; reader 3 is down for slots
/// [1, 5) and then recovers, so every fault path on the wire runs.
fault::FaultPlan lossyPlan() {
  fault::FaultPlan plan;
  plan.setSeed(77);
  fault::LinkFaults lf;
  lf.drop = 0.05;
  lf.dup = 0.05;
  lf.delay = 0.10;
  lf.max_delay = 3;
  plan.setLinkDefaults(lf);
  plan.addCrash(3, 1, 5);
  return plan;
}

sched::McsResult runMcs(core::System& sys, sched::OneShotScheduler& s,
                        const fault::FaultPlan* plan,
                        fault::ChannelModel* ch) {
  sched::McsOptions opt;
  opt.max_slots = 2000;
  if (plan != nullptr) {
    opt.faults = plan;
    opt.channel = ch;
    s.attachChannel(ch);
  }
  return sched::runCoveringSchedule(sys, s, opt);
}

Pin runCa(double lambda_R, std::uint64_t seed, bool faults) {
  core::System sys =
      workload::makeSystem(workload::paperScenario(lambda_R, 4.0), seed);
  const fault::FaultPlan plan = lossyPlan();
  fault::ChannelModel ch(plan);
  ColorwaveScheduler ca(sys, seed);
  const sched::McsResult res =
      runMcs(sys, ca, faults ? &plan : nullptr, &ch);
  const Network::RunStats& st = ca.network().stats();
  return {res.slots,     res.tags_read,  activeHash(res), st.rounds,
          st.messages,   st.payload_words, st.dropped,     st.duplicated,
          st.delayed,    st.dead_drops};
}

Pin runAlg3(double lambda_R, std::uint64_t seed, bool faults) {
  core::System sys =
      workload::makeSystem(workload::paperScenario(lambda_R, 4.0), seed);
  const graph::InterferenceGraph g(sys);
  const fault::FaultPlan plan = lossyPlan();
  fault::ChannelModel ch(plan);
  // Alg3 builds a fresh protocol network per slot; the registry sums their
  // net.* and fault.net.* counters over the whole run.
  obs::MetricsRegistry reg;
  GrowthDistributedScheduler alg3(g);
  alg3.attachMetrics(&reg);
  const sched::McsResult res =
      runMcs(sys, alg3, faults ? &plan : nullptr, &ch);
  const auto c = [&reg](const char* name) {
    return reg.counter(name).value();
  };
  return {res.slots,
          res.tags_read,
          activeHash(res),
          c("net.rounds"),
          c("net.messages"),
          c("net.payload_words"),
          c("fault.net.dropped"),
          c("fault.net.duplicated"),
          c("fault.net.delayed"),
          c("fault.net.dead_drops")};
}

// Rows: {slots, tags_read, active_hash, rounds, messages, payload_words,
//        dropped, duplicated, delayed, dead_drops}.
struct Case {
  double lambda_R;
  std::uint64_t seed;
  Pin clean;
  Pin lossy;
};

void checkCases(const char* algo, const Case (&cases)[3],
                Pin (*run)(double, std::uint64_t, bool)) {
  for (const Case& c : cases) {
    for (const bool faults : {false, true}) {
      EXPECT_EQ(run(c.lambda_R, c.seed, faults), faults ? c.lossy : c.clean)
          << algo << " lambda_R=" << c.lambda_R << " seed=" << c.seed
          << (faults ? " with faults" : " fault-free");
    }
  }
}

TEST(NetworkEquiv, ColorwaveMcsPinned) {
  static constexpr Case kCases[3] = {
      {6.0, 1601,
       {6, 282, 0x349432678fb9c8b6ull, 1050, 194304, 388608, 0, 0, 0, 0},
       {15, 282, 0x3178dd9670ff5f45ull, 1140, 211775, 635325, 10562, 10081,
        20998, 264}},
      {10.0, 1602,
       {6, 356, 0xcb43c127dd8c2f66ull, 1050, 221760, 443520, 0, 0, 0, 0},
       {16, 356, 0x1fe7b1b72c5a5adfull, 1150, 244255, 732765, 12234, 11673,
        24303, 43}},
      {16.0, 1603,
       {11, 333, 0x51fbf49236caea72ull, 1100, 622160, 1244320, 0, 0, 0, 0},
       {15, 333, 0xf3bdeb3afe274c19ull, 1140, 644768, 1934304, 32228, 30680,
        64778, 490}},
  };
  checkCases("ca", kCases, runCa);
}

TEST(NetworkEquiv, DistributedGrowthMcsPinned) {
  static constexpr Case kCases[3] = {
      {6.0, 1601,
       {3, 282, 0x4b3989beb01eb7c3ull, 64, 9648, 81214, 0, 0, 0, 0},
       {6, 282, 0xb2b2d32ad103d173ull, 101, 16057, 135949, 826, 784, 1624,
        361}},
      {10.0, 1602,
       {3, 356, 0x00abf47249122ec6ull, 192, 23637, 221129, 0, 0, 0, 0},
       {3, 356, 0x00abf47249122ec6ull, 1802, 31796, 313720, 1631, 1491, 3159,
        90}},
      {16.0, 1603,
       {5, 333, 0xec4d04d4dbf58317ull, 150, 160720, 1835680, 0, 0, 0, 0},
       {6, 333, 0x70a3c970a78c28b7ull, 185, 183638, 2210651, 9191, 8703,
        18218, 2347}},
  };
  checkCases("alg3", kCases, runAlg3);
}

}  // namespace
}  // namespace rfid::dist
