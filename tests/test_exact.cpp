// Exact solver tests: branch & bound vs exhaustive enumeration on small
// random instances, LocalProblem semantics, and budget behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "ckpt/budget.h"
#include "core/weight.h"
#include "sched/exact.h"
#include "test_helpers.h"
#include "workload/rng.h"

namespace rfid::sched {
namespace {

/// Exhaustive reference: best weight over all feasible subsets.
int bruteForceBest(const core::System& sys) {
  const int n = sys.numReaders();
  int best = 0;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<int> x;
    for (int v = 0; v < n; ++v) {
      if (mask & (1u << v)) x.push_back(v);
    }
    if (!sys.isFeasible(x)) continue;
    best = std::max(best, sys.weight(x));
  }
  return best;
}

TEST(ExactSolver, Figure2Optimum) {
  const core::System sys = test::figure2System();
  ExactScheduler solver;
  const OneShotResult res = solver.schedule(sys);
  EXPECT_EQ(res.weight, 4);
  EXPECT_EQ(res.readers, (std::vector<int>{0, 2}));  // {A, C}, not {A,B,C}
}

TEST(ExactSolver, EmptySystem) {
  const core::System sys({}, {});
  ExactScheduler solver;
  const OneShotResult res = solver.schedule(sys);
  EXPECT_TRUE(res.readers.empty());
  EXPECT_EQ(res.weight, 0);
}

TEST(ExactSolver, RespectsReadState) {
  core::System sys = test::figure2System();
  // Serve tags 1 and 2 (A's whole coverage): A becomes worthless.
  sys.markRead(std::vector<int>{0, 1});
  ExactScheduler solver;
  const OneShotResult res = solver.schedule(sys);
  // Remaining unread: idx2 (B∩C), idx3 (C only), idx4 (B only) — every
  // feasible set nets at most 2 (the B∩C tag is lost whenever both run).
  EXPECT_EQ(res.weight, 2);
  EXPECT_EQ(res.weight, bruteForceBest(sys));
}

class ExactVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactVsBruteForce, AgreesOnRandomInstances) {
  const core::System sys = test::smallRandomSystem(GetParam(), 12, 80);
  ExactScheduler solver;
  const OneShotResult res = solver.schedule(sys);
  EXPECT_TRUE(sys.isFeasible(res.readers));
  EXPECT_EQ(sys.weight(res.readers), res.weight);
  EXPECT_EQ(res.weight, bruteForceBest(sys));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactVsBruteForce,
                         ::testing::Range<std::uint64_t>(100, 112));

TEST(SolveLocal, SharedTagIdsModelRrc) {
  // Two conflict-free candidates sharing one tag: selecting both loses the
  // shared tag, so the optimum picks the pair anyway (2+2-2=2 vs single 2)…
  // make the overlap decisive: each has 1 exclusive + 1 shared.
  LocalProblem p;
  p.adj = {{}, {}};
  p.coverage = {{1, 2}, {2, 3}};
  const BnbResult both = solveLocal(p);
  // {0,1}: tags 1 and 3 exclusive, tag 2 lost → weight 2; singles weigh 2.
  EXPECT_EQ(both.weight, 2);
  EXPECT_TRUE(both.optimal);
}

TEST(SolveLocal, OverlapMakesFewerBetter) {
  // Figure 2 in LocalProblem form: A{1,2} B{2,3,5} C{3,4}, no conflicts.
  LocalProblem p;
  p.adj = {{}, {}, {}};
  p.coverage = {{1, 2}, {2, 3, 5}, {3, 4}};
  const BnbResult res = solveLocal(p);
  EXPECT_EQ(res.weight, 4);
  EXPECT_EQ(res.members, (std::vector<int>{0, 2}));
}

TEST(SolveLocal, ConflictsForbidCoselection) {
  LocalProblem p;
  p.adj = {{1}, {0}};
  p.coverage = {{1, 2, 3}, {4, 5}};
  const BnbResult res = solveLocal(p);
  EXPECT_EQ(res.weight, 3);
  EXPECT_EQ(res.members, (std::vector<int>{0}));
}

TEST(SolveLocal, EmptyProblem) {
  const BnbResult res = solveLocal(LocalProblem{});
  EXPECT_TRUE(res.members.empty());
  EXPECT_EQ(res.weight, 0);
  EXPECT_TRUE(res.optimal);
}

TEST(SolveLocal, NodeBudgetReportsNonOptimal) {
  // A big clique-free instance with a 1-node budget cannot finish.
  LocalProblem p;
  const int n = 20;
  p.adj.resize(n);
  p.coverage.resize(n);
  for (int i = 0; i < n; ++i) p.coverage[static_cast<std::size_t>(i)] = {i};
  const BnbResult res = solveLocal(p, 1);
  EXPECT_FALSE(res.optimal);
  // Unlimited budget solves it: all candidates independent, all tags
  // distinct → take everything.
  const BnbResult full = solveLocal(p, 0);
  EXPECT_TRUE(full.optimal);
  EXPECT_EQ(full.weight, n);
  EXPECT_EQ(static_cast<int>(full.members.size()), n);
}

TEST(MaxWeightFeasibleSubset, RestrictsToCandidates) {
  const core::System sys = test::figure2System();
  const std::vector<int> candidates = {1};  // only B allowed
  const BnbResult res = maxWeightFeasibleSubset(sys, candidates);
  EXPECT_EQ(res.members, (std::vector<int>{1}));
  EXPECT_EQ(res.weight, 3);
}

TEST(MaxWeightFeasibleSubset, EmptyCandidates) {
  const core::System sys = test::figure2System();
  const BnbResult res = maxWeightFeasibleSubset(sys, std::vector<int>{});
  EXPECT_TRUE(res.members.empty());
  EXPECT_EQ(res.weight, 0);
}

}  // namespace
}  // namespace rfid::sched
namespace rfid::sched {
namespace {

TEST(SolveLocalPreload, CoveringClaimedTagScoresNegative) {
  LocalProblem p;
  p.adj = {{}};
  p.coverage = {{7}};
  p.preload = {7};  // tag 7 already exclusively covered outside
  const BnbResult res = solveLocal(p);
  // Selecting the candidate would turn tag 7 double-covered: marginal −1.
  EXPECT_TRUE(res.members.empty());
  EXPECT_EQ(res.weight, 0);
}

TEST(SolveLocalPreload, DoublyClaimedTagIsNeutral) {
  LocalProblem p;
  p.adj = {{}};
  p.coverage = {{7, 8}};
  p.preload = {7, 7};  // tag 7 already lost to RRc outside; 8 is fresh
  const BnbResult res = solveLocal(p);
  EXPECT_EQ(res.members, (std::vector<int>{0}));
  EXPECT_EQ(res.weight, 1);  // +1 for tag 8, 0 for tag 7
}

TEST(SolveLocalPreload, TradesClaimedForFresh) {
  LocalProblem p;
  p.adj = {{}};
  p.coverage = {{1, 2, 3}};  // two fresh tags + one claimed
  p.preload = {3};
  const BnbResult res = solveLocal(p);
  EXPECT_EQ(res.members, (std::vector<int>{0}));
  EXPECT_EQ(res.weight, 1);  // +2 fresh − 1 cancelled
}

TEST(SolveLocalPreload, IrrelevantPreloadIgnored) {
  LocalProblem p;
  p.adj = {{}};
  p.coverage = {{1}};
  p.preload = {99, 98, 97};  // tags no candidate covers
  const BnbResult res = solveLocal(p);
  EXPECT_EQ(res.weight, 1);
}

TEST(MaxWeightFeasibleSubset, CommittedReadersShapeTheMarginal) {
  // Figure 2 again: commit B, then ask for the best extension among {A, C}.
  const core::System sys = test::figure2System();
  const std::vector<int> candidates = {0, 2};
  const std::vector<int> committed = {1};
  const BnbResult res = maxWeightFeasibleSubset(sys, candidates, 0, committed);
  // A adds Tag1 (+1) but cancels Tag2 (−1): 0.  C adds Tag4 (+1) and
  // cancels Tag3 (−1): 0.  Nothing strictly improves on committed {B}.
  EXPECT_EQ(res.weight, 0);
  EXPECT_TRUE(res.members.empty());
}

TEST(MaxWeightFeasibleSubset, CommittedRespectsReadState) {
  core::System sys = test::figure2System();
  sys.markRead(1);  // Tag2 served: A no longer cancels anything of B's
  const std::vector<int> candidates = {0};
  const std::vector<int> committed = {1};
  const BnbResult res = maxWeightFeasibleSubset(sys, candidates, 0, committed);
  EXPECT_EQ(res.members, (std::vector<int>{0}));
  EXPECT_EQ(res.weight, 1);  // Tag1 fresh
}

}  // namespace
}  // namespace rfid::sched

// ---- Cross-version search pins --------------------------------------------
//
// Each pin folds ~50 seeded instances into one FNV-1a constant over every
// result's (members, weight, nodes, optimal).  Nodes are part of the hash, so
// any change to the exploration order, the incumbent rule or the bound — not
// just to the optimum — moves a constant.  The instances span more than 64
// candidates and more than 64 distinct tags, preload multiplicities 0, 1 and
// ≥2 through both the span and the WeightEvaluator overloads, node-budget
// hits and a fired CancelToken.  A failing pin prints the observed value.
namespace rfid::sched {
namespace {

/// Deterministic draws: raw mt19937_64 words reduced by modulo (the standard
/// distributions are implementation-defined, the engine is not).
struct PinRng {
  explicit PinRng(std::uint64_t seed) : g(seed) {}
  int below(int n) { return static_cast<int>(g() % static_cast<std::uint64_t>(n)); }
  std::mt19937_64 g;
};

void mixResult(test::Fnv1a& h, const BnbResult& r) {
  h.mix(r.members);
  h.mix(r.weight);
  h.mix(r.nodes);
  h.mix(r.optimal ? 1 : 0);
}

/// A random LocalProblem: sparse arbitrary tag ids, spatially clustered rows
/// (a candidate draws its tags from a window of the id universe, as a disk
/// does), unsorted rows, a conflict density anywhere in [0, 1), and a
/// preload mixing multiplicities 0..3 with ids no candidate covers.
LocalProblem randomLocalProblem(std::uint64_t seed) {
  PinRng rng(seed);
  const int n = 1 + rng.below(96);
  const int universe = 1 + rng.below(220);
  const int stride = 1 + rng.below(5000);
  const int offset = rng.below(1000);
  const auto id = [&](int k) { return offset + k * stride; };
  LocalProblem p;
  p.adj.resize(static_cast<std::size_t>(n));
  p.coverage.resize(static_cast<std::size_t>(n));
  const int density = rng.below(100);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.below(100) < density) {
        p.adj[static_cast<std::size_t>(i)].push_back(j);
        p.adj[static_cast<std::size_t>(j)].push_back(i);
      }
    }
  }
  for (auto& a : p.adj) std::sort(a.begin(), a.end());
  const int window = 1 + rng.below(std::min(universe, 48));
  for (int i = 0; i < n; ++i) {
    auto& row = p.coverage[static_cast<std::size_t>(i)];
    const int lo = rng.below(universe);
    const int want = rng.below(window + 1);
    for (int k = 0; k < want; ++k) row.push_back(id((lo + rng.below(window)) % universe));
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (int k = static_cast<int>(row.size()) - 1; k > 0; --k) {
      std::swap(row[static_cast<std::size_t>(k)],
                row[static_cast<std::size_t>(rng.below(k + 1))]);
    }
  }
  const int preloaded = rng.below(universe + 1);
  for (int k = 0; k < preloaded; ++k) {
    const int t = id(rng.below(universe));
    const int mult = rng.below(4);
    for (int m = 0; m < mult; ++m) p.preload.push_back(t);
  }
  for (int k = rng.below(4); k > 0; --k) p.preload.push_back(-1 - rng.below(50));
  return p;
}

TEST(ExactPins, LocalProblems) {
  test::Fnv1a h;
  BnbScratch scratch;
  std::int64_t nodes = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const LocalProblem p = randomLocalProblem(seed);
    const std::int64_t limit = seed % 3 == 0 ? 500 : 40000;
    const BnbResult fresh = solveLocal(p, limit);
    const BnbResult reused = solveLocal(p, limit, nullptr, &scratch);
    EXPECT_EQ(fresh.members, reused.members) << "seed " << seed;
    EXPECT_EQ(fresh.nodes, reused.nodes) << "seed " << seed;
    mixResult(h, fresh);
    nodes += fresh.nodes;
  }
  EXPECT_EQ(h.h, 0xad8fbfdc616affddull)
      << std::hex << "0x" << h.h << " nodes " << std::dec << nodes;
}

/// Random candidates, committed readers and read-state over a random
/// deployment; solved through the span overload and the WeightEvaluator
/// overload, which must agree.
TEST(ExactPins, SystemInstances) {
  test::Fnv1a h;
  BnbScratch scratch;
  std::int64_t nodes = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    PinRng rng(seed * 7919);
    const int n = 20 + rng.below(100);
    const int m = 100 + rng.below(900);
    const double side = 30.0 + rng.below(50);
    core::System sys = test::smallRandomSystem(seed, n, m, side);
    std::vector<int> read;
    const int read_pct = rng.below(40);
    for (int t = 0; t < m; ++t) {
      if (rng.below(100) < read_pct) read.push_back(t);
    }
    sys.markRead(read);
    std::vector<int> candidates;
    std::vector<int> committed;
    const int cand_pct = 10 + rng.below(91);
    const int comm_pct = rng.below(30);
    for (int v = 0; v < n; ++v) {
      const int r = rng.below(100);
      if (r < cand_pct) {
        candidates.push_back(v);
      } else if (r < cand_pct + comm_pct) {
        committed.push_back(v);
      }
    }
    const std::int64_t limit = seed % 4 == 0 ? 300 : 30000;
    const BnbResult by_span =
        maxWeightFeasibleSubset(sys, candidates, limit, committed);
    core::WeightEvaluator eval(sys);
    for (const int c : committed) eval.push(c);
    const BnbResult by_eval = maxWeightFeasibleSubset(
        sys, candidates, limit, eval, nullptr, &scratch);
    EXPECT_EQ(by_span.members, by_eval.members) << "seed " << seed;
    EXPECT_EQ(by_span.weight, by_eval.weight) << "seed " << seed;
    EXPECT_EQ(by_span.nodes, by_eval.nodes) << "seed " << seed;
    mixResult(h, by_span);
    mixResult(h, maxWeightFeasibleSubset(sys, candidates, limit, committed,
                                         nullptr, &scratch));
    nodes += by_span.nodes;
  }
  EXPECT_EQ(h.h, 0x4234ba96bf676b35ull)
      << std::hex << "0x" << h.h << " nodes " << std::dec << nodes;
}

/// A fired token stops the search at the first poll (node 4096) with the
/// incumbent found so far, on both entry points.
TEST(ExactPins, CancelledSearches) {
  test::Fnv1a h;
  ckpt::CancelToken token;
  token.cancel();
  LocalProblem p;
  const int n = 48;
  p.adj.resize(n);
  p.coverage.resize(n);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 6; ++k) {
      p.coverage[static_cast<std::size_t>(i)].push_back((i * 3 + k * 5) % 97);
    }
  }
  const BnbResult local = solveLocal(p, 0, &token);
  EXPECT_FALSE(local.optimal);
  EXPECT_EQ(local.nodes, 4096);
  mixResult(h, local);
  const core::System sys = test::smallRandomSystem(5, 90, 900, 60.0);
  std::vector<int> all(90);
  std::iota(all.begin(), all.end(), 0);
  const BnbResult whole = maxWeightFeasibleSubset(sys, all, 0, {}, &token);
  EXPECT_FALSE(whole.optimal);
  mixResult(h, whole);
  core::WeightEvaluator eval(sys);
  eval.push(0);
  eval.push(1);
  mixResult(h, maxWeightFeasibleSubset(sys, all, 0, eval, &token));
  EXPECT_EQ(h.h, 0x5390871b04e0628cull) << std::hex << "0x" << h.h;
}

}  // namespace
}  // namespace rfid::sched
