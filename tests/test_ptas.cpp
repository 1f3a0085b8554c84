// Algorithm 1 (PTAS) tests: feasibility, quality floors, multi-level radii,
// and behavior of the shifting machinery end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sched/exact.h"
#include "sched/ptas.h"
#include "test_helpers.h"
#include "workload/scenario.h"

namespace rfid::sched {
namespace {

TEST(Ptas, SolvesFigure2OptimallyWithK3) {
  const core::System sys = test::figure2System();
  // Figure 2's disks straddle the coarse k=2 grid lines (no single shift
  // keeps all three), so k=2 is only guaranteed (1−1/2)² of OPT.  k=3 has
  // a shift retaining every disk and must find the optimum {A, C}.
  PtasOptions opt;
  opt.k = 3;
  PtasScheduler ptas(opt);
  const OneShotResult res = ptas.schedule(sys);
  EXPECT_TRUE(sys.isFeasible(res.readers));
  EXPECT_EQ(res.weight, 4);
}

TEST(Ptas, Figure2WithK2StaysWithinTheorem2) {
  const core::System sys = test::figure2System();
  PtasScheduler ptas;  // k = 2
  const OneShotResult res = ptas.schedule(sys);
  EXPECT_TRUE(sys.isFeasible(res.readers));
  // (1−1/2)²·OPT = 1; the surviving shift {B, C} actually nets 3.
  EXPECT_GE(res.weight, 3);
  EXPECT_LE(res.weight, 4);
}

TEST(Ptas, ResultIsAlwaysFeasible) {
  for (const std::uint64_t seed : {3u, 7u, 11u, 15u, 19u}) {
    const core::System sys = test::smallRandomSystem(seed, 20, 150, 70.0);
    PtasScheduler ptas;
    const OneShotResult res = ptas.schedule(sys);
    EXPECT_TRUE(sys.isFeasible(res.readers)) << "seed " << seed;
    EXPECT_EQ(sys.weight(res.readers), res.weight);
  }
}

// At least one of the k² shifts keeps the best single reader alive, so the
// PTAS is never worse than the best singleton — the progress guarantee the
// MCS loop depends on.
TEST(Ptas, AtLeastBestSingleReader) {
  for (const std::uint64_t seed : {21u, 23u, 25u, 27u}) {
    const core::System sys = test::smallRandomSystem(seed, 18, 120);
    int best_single = 0;
    for (int v = 0; v < sys.numReaders(); ++v) {
      best_single = std::max(best_single, sys.singleWeight(v));
    }
    PtasScheduler ptas;
    EXPECT_GE(ptas.schedule(sys).weight, best_single) << "seed " << seed;
  }
}

TEST(Ptas, HandlesHeterogeneousRadiiLevels) {
  // Radii spanning ~30×: forces at least three levels with k = 2.
  std::vector<core::Reader> readers = {
      test::makeReader(10, 10, 30.0, 10.0),
      test::makeReader(70, 70, 8.0, 4.0),
      test::makeReader(30, 60, 2.0, 1.5),
      test::makeReader(60, 30, 1.0, 0.9),
      test::makeReader(90, 10, 15.0, 6.0),
  };
  // Sprinkle tags around every reader so each radius level has work to do.
  std::vector<core::Tag> tags;
  for (const core::Reader& r : readers) {
    for (int i = 0; i < 12; ++i) {
      const double ang = i * 0.524;
      const double rad = r.interrogation_radius * (0.2 + 0.06 * i);
      tags.push_back(test::makeTag(r.pos.x + rad * std::cos(ang),
                                   r.pos.y + rad * std::sin(ang)));
    }
  }
  const core::System sys(std::move(readers), std::move(tags));
  PtasScheduler ptas;
  const OneShotResult res = ptas.schedule(sys);
  EXPECT_TRUE(sys.isFeasible(res.readers));
  EXPECT_GT(res.weight, 0);
  EXPECT_GE(ptas.lastStats().levels, 3);
}

TEST(Ptas, StatsReportShifts) {
  const core::System sys = test::smallRandomSystem(31, 15, 90);
  PtasOptions opt;
  opt.k = 3;
  PtasScheduler ptas(opt);
  (void)ptas.schedule(sys);
  const auto& st = ptas.lastStats();
  EXPECT_GE(st.best_shift_r, 0);
  EXPECT_LT(st.best_shift_r, 3);
  EXPECT_GE(st.best_shift_s, 0);
  EXPECT_LT(st.best_shift_s, 3);
  EXPECT_GT(st.dp_entries, 0);
  EXPECT_GT(st.weight_evals, 0);
}

// Theorem 2 trend: larger k must not hurt much; we assert weak monotonicity
// in expectation by checking k=4 ≥ 0.9 × k=2 on a batch of instances
// (exact monotonicity per-instance is not guaranteed by the theorem).
TEST(Ptas, LargerKDoesNotDegrade) {
  double w2 = 0.0, w4 = 0.0;
  for (const std::uint64_t seed : {41u, 43u, 45u, 47u, 49u}) {
    const core::System sys = test::smallRandomSystem(seed, 16, 100);
    PtasOptions o2, o4;
    o2.k = 2;
    o4.k = 4;
    PtasScheduler p2(o2), p4(o4);
    w2 += p2.schedule(sys).weight;
    w4 += p4.schedule(sys).weight;
  }
  EXPECT_GE(w4, 0.9 * w2);
}

TEST(Ptas, RespectsReadState) {
  core::System sys = test::figure2System();
  sys.markRead(std::vector<int>{0, 1});
  PtasScheduler ptas;
  const OneShotResult res = ptas.schedule(sys);
  // Same situation as the exact test: best achievable is 2.
  EXPECT_EQ(res.weight, 2);
}

TEST(Ptas, EmptyAndDegenerateSystems) {
  {
    const core::System sys({}, {});
    PtasScheduler ptas;
    const OneShotResult res = ptas.schedule(sys);
    EXPECT_TRUE(res.readers.empty());
  }
  {
    // One reader, one tag.
    const core::System sys({test::makeReader(5, 5, 4.0, 2.0)},
                           {test::makeTag(5, 6)});
    PtasScheduler ptas;
    const OneShotResult res = ptas.schedule(sys);
    EXPECT_EQ(res.readers, (std::vector<int>{0}));
    EXPECT_EQ(res.weight, 1);
  }
}

// Empirical Theorem 2: PTAS with k=3 reaches a healthy fraction of the true
// optimum on exactly solvable instances.  The paper proves (1−1/k)² ≥ 0.44
// for k=3 as a worst case; typical instances do far better — assert 0.75
// on the batch average.
TEST(Ptas, NearOptimalOnSmallInstances) {
  double ptas_total = 0.0, opt_total = 0.0;
  for (const std::uint64_t seed : {61u, 62u, 63u, 64u, 65u, 66u}) {
    const core::System sys = test::smallRandomSystem(seed, 12, 90);
    PtasOptions opt;
    opt.k = 3;
    PtasScheduler ptas(opt);
    ExactScheduler exact;
    ptas_total += ptas.schedule(sys).weight;
    opt_total += exact.schedule(sys).weight;
  }
  ASSERT_GT(opt_total, 0.0);
  EXPECT_GE(ptas_total / opt_total, 0.75);
}

}  // namespace
}  // namespace rfid::sched
namespace rfid::sched {
namespace {

TEST(PtasPromotion, K2FindsFigure2OptimumViaVirtualRoot) {
  // With k = 2 no single shift keeps all three disks as survivors, but the
  // default promotion mode re-homes the crossing disks at the virtual root
  // and still reaches the optimum.
  const core::System sys = test::figure2System();
  PtasOptions opt;
  opt.k = 2;
  PtasScheduler ptas(opt);
  EXPECT_EQ(ptas.schedule(sys).weight, 4);
}

TEST(PtasPromotion, StrictModeMatchesSectionIVSemantics) {
  const core::System sys = test::figure2System();
  PtasOptions opt;
  opt.k = 2;
  opt.strict_survive = true;
  PtasScheduler strict(opt);
  const OneShotResult res = strict.schedule(sys);
  // The best shift keeps {B, C} (weight 3); Theorem 2's floor is
  // (1-1/2)^2 * 4 = 1.
  EXPECT_GE(res.weight, 1);
  EXPECT_LE(res.weight, 3);
}

TEST(PtasPromotion, NeverWorseThanStrictOnBatch) {
  double promote_total = 0.0, strict_total = 0.0;
  for (const std::uint64_t seed : {71u, 72u, 73u, 74u, 75u, 76u}) {
    const core::System sys = test::smallRandomSystem(seed, 18, 120);
    PtasOptions promote, strict;
    strict.strict_survive = true;
    PtasScheduler a(promote), b(strict);
    promote_total += a.schedule(sys).weight;
    strict_total += b.schedule(sys).weight;
  }
  EXPECT_GE(promote_total, strict_total);
}

TEST(PtasPromotion, PromotedResultsStayFeasible) {
  // Radii chosen so the big disk must promote past level-0 squares.
  std::vector<core::Reader> readers = {
      test::makeReader(50, 50, 40.0, 16.0),  // spans multiple 0-squares
      test::makeReader(10, 10, 4.0, 2.0),
      test::makeReader(90, 90, 4.0, 2.0),
      test::makeReader(90, 10, 4.0, 2.0),
  };
  std::vector<core::Tag> tags;
  for (const core::Reader& r : readers) {
    tags.push_back(test::makeTag(r.pos.x + 1.0, r.pos.y));
    tags.push_back(test::makeTag(r.pos.x - 1.0, r.pos.y));
  }
  const core::System sys(std::move(readers), std::move(tags));
  PtasScheduler ptas;
  const OneShotResult res = ptas.schedule(sys);
  EXPECT_TRUE(sys.isFeasible(res.readers));
  EXPECT_GT(res.weight, 0);
}

}  // namespace
}  // namespace rfid::sched

// ---- Cross-version Alg1 pins ----------------------------------------------
//
// Alg1 as MCS on §VI paper deployments: every slot's committed set and the
// solver's weight_evals / dp_entries (which include the B&B node counts) fold
// into one FNV-1a constant per (λ_r, k, strict_survive).  Both thread counts
// must land on the same constant, so the pins also hold the shift fan-out's
// order-independence.  A failing row prints the observed constant.
namespace rfid::sched {
namespace {

struct Alg1Pin {
  double lambda_r;
  int k;
  bool strict;
  std::uint64_t hash;
};

std::uint64_t alg1McsHash(double lambda_r, int k, bool strict, int threads) {
  core::System sys =
      workload::makeSystem(workload::paperScenario(10.0, lambda_r), 3);
  PtasOptions opt;
  opt.k = k;
  opt.strict_survive = strict;
  opt.num_threads = threads;
  PtasScheduler ptas(opt);
  test::Fnv1a h;
  for (int slot = 0; slot < 400 && sys.unreadCoverableCount() > 0; ++slot) {
    const OneShotResult res = ptas.schedule(sys);
    h.mix(res.readers);
    h.mix(res.weight);
    h.mix(ptas.lastStats().weight_evals);
    h.mix(ptas.lastStats().dp_entries);
    if (res.weight <= 0) break;
    sys.markRead(sys.wellCoveredTags(res.readers));
  }
  return h.h;
}

TEST(Alg1Pins, McsSlotsAndWorkCounters) {
  const Alg1Pin pins[] = {
      {2.0, 2, false, 0x39f0ce516855dd9eull}, {2.0, 2, true, 0x864a6e26aeadb4deull},
      {2.0, 3, false, 0x1ab2147e9478f773ull}, {2.0, 3, true, 0x4cc8d951475898eeull},
      {2.0, 4, false, 0xcc7920b42c356096ull}, {2.0, 4, true, 0x58126c4ae4c60190ull},
      {4.0, 2, false, 0x1fdbee0cd1253780ull}, {4.0, 2, true, 0xbc0f2c1244a05edbull},
      {4.0, 3, false, 0x8d521669852be8c6ull}, {4.0, 3, true, 0x6082a531dc1e4569ull},
      {4.0, 4, false, 0x6b3befde763fb9a5ull}, {4.0, 4, true, 0x6aa314beed78b246ull},
      {7.0, 2, false, 0x485a9477cab6ea52ull}, {7.0, 2, true, 0x032ff1da746f0df1ull},
      {7.0, 3, false, 0x67174519fd0fdefcull}, {7.0, 3, true, 0xeaf6843050bcebebull},
      {7.0, 4, false, 0xee5887d998f62a30ull}, {7.0, 4, true, 0xe34498dc20bb94b2ull},
  };
  for (const Alg1Pin& pin : pins) {
    for (const int threads : {1, 4}) {
      const std::uint64_t got =
          alg1McsHash(pin.lambda_r, pin.k, pin.strict, threads);
      char row[96];
      std::snprintf(row, sizeof row, "{%.1f, %d, %s, 0x%016llxull}",
                    pin.lambda_r, pin.k, pin.strict ? "true" : "false",
                    static_cast<unsigned long long>(got));
      EXPECT_EQ(got, pin.hash) << row << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace rfid::sched
