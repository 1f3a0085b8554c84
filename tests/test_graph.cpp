// Interference graph tests: construction vs brute force, hop semantics,
// components, coloring, and the growth-bounded profile.
#include <gtest/gtest.h>

#include "graph/coloring.h"
#include "graph/interference_graph.h"
#include "graph/traversal.h"
#include "test_helpers.h"
#include "workload/deployment.h"
#include "workload/rng.h"

namespace rfid::graph {
namespace {

InterferenceGraph pathGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return InterferenceGraph(n, edges);
}

TEST(InterferenceGraph, EdgeListConstruction) {
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {2, 1}, {3, 0}};
  const InterferenceGraph g(4, edges);
  EXPECT_EQ(g.numNodes(), 4);
  EXPECT_EQ(g.numEdges(), 3);
  EXPECT_TRUE(g.hasEdge(1, 2));
  EXPECT_TRUE(g.hasEdge(2, 1));
  EXPECT_FALSE(g.hasEdge(2, 3));
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.maxDegree(), 2);
  EXPECT_EQ(test::toVec(g.neighbors(1)), (std::vector<int>{0, 2}));
}

// Definition 7: edge iff NOT independent — exhaustively cross-checked
// against the geometric predicate on random instances.
class GraphConstruction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphConstruction, MatchesGeometricPredicate) {
  const core::System sys = test::smallRandomSystem(GetParam(), 25, 10, 60.0);
  const InterferenceGraph g(sys);
  for (int i = 0; i < sys.numReaders(); ++i) {
    for (int j = i + 1; j < sys.numReaders(); ++j) {
      EXPECT_EQ(g.hasEdge(i, j), !sys.independent(i, j))
          << "pair " << i << "," << j;
    }
  }
  // Graph independence coincides with system feasibility.
  workload::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int> x;
    for (int v = 0; v < sys.numReaders(); ++v) {
      if (rng.bernoulli(0.2)) x.push_back(v);
    }
    EXPECT_EQ(g.isIndependentSet(x), sys.isFeasible(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphConstruction,
                         ::testing::Values(11u, 22u, 33u, 44u));

// The graph is System's directed interference rows symmetrised; it must equal
// the all-pairs Definition 2 graph neighbour list by neighbour list, and each
// row must be exactly the readers inside the row owner's interference disk.
/// Returns the graph's edge count.
int expectMatchesAllPairs(const core::System& sys) {
  const InterferenceGraph g(sys);
  const int n = sys.numReaders();
  EXPECT_EQ(g.numNodes(), n);
  if (g.numNodes() != n) return 0;
  int edges = 0;
  int asymmetric = 0;
  std::vector<int> buf;
  for (int i = 0; i < n; ++i) {
    std::vector<int> want;
    std::vector<int> row;
    const double ri = sys.reader(i).interference_radius;
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      if (!sys.independent(i, j)) want.push_back(j);
      if (geom::dist2(sys.reader(i).pos, sys.reader(j).pos) <= ri * ri) {
        row.push_back(j);
      }
    }
    edges += static_cast<int>(want.size());
    asymmetric += static_cast<int>(want.size() - row.size());
    EXPECT_EQ(test::toVec(g.neighbors(i)), want) << "reader " << i;
    EXPECT_EQ(g.degree(i), static_cast<int>(want.size()));
    EXPECT_EQ(test::toVec(sys.interferenceRow(i, buf)), row) << "row " << i;
    if (::testing::Test::HasFailure()) return g.numEdges();
  }
  EXPECT_EQ(g.numEdges(), edges / 2);
  // Some edge must be seen from one side only (R_i != R_j), or a graph built
  // from one direction of the rows would pass too.
  EXPECT_GT(asymmetric, 0);
  return g.numEdges();
}

workload::DeploymentConfig equivConfig(int readers, int tags, double side) {
  workload::DeploymentConfig cfg;
  cfg.num_readers = readers;
  cfg.num_tags = tags;
  cfg.region_side = side;
  return cfg;
}

core::System equivSystem(const workload::DeploymentConfig& cfg,
                         std::uint64_t seed, int clusters = 0) {
  const workload::Rng root(seed);
  std::vector<core::Reader> readers =
      workload::uniformReaders(cfg, root.split("readers"));
  std::vector<core::Tag> tags =
      clusters > 0
          ? workload::clusteredTags(cfg, root.split("tags"), clusters, 3.0)
          : workload::uniformTags(cfg, root.split("tags"));
  return core::System(std::move(readers), std::move(tags));
}

TEST(InterferenceGraphFromRows, PoissonPairRadii) {
  for (const std::uint64_t seed : test::seedRange(101, test::iterBudget(4))) {
    const core::System sys = equivSystem(equivConfig(300, 600, 250.0), seed);
    ASSERT_TRUE(sys.hasInterferenceRows());
    expectMatchesAllPairs(sys);
  }
}

TEST(InterferenceGraphFromRows, BetaScaledRadii) {
  workload::DeploymentConfig cfg = equivConfig(300, 600, 250.0);
  cfg.radius_mode = workload::RadiusMode::kBetaScaled;
  cfg.beta = 0.3;
  for (const std::uint64_t seed : test::seedRange(201, test::iterBudget(4))) {
    expectMatchesAllPairs(equivSystem(cfg, seed));
  }
}

TEST(InterferenceGraphFromRows, ClusteredTags) {
  for (const std::uint64_t seed : test::seedRange(301, test::iterBudget(4))) {
    expectMatchesAllPairs(equivSystem(equivConfig(200, 1500, 150.0), seed, 6));
  }
}

// So dense that the interference rows would pass System's size cap: the rows
// are dropped and the graph comes from reader-grid queries instead.
TEST(InterferenceGraphFromRows, DensityCapFallback) {
  // Dense enough that the rows pass their size cap, yet wide enough that
  // many pairs stay independent, so the fallback's query filter matters.
  workload::Rng rng(401);
  std::vector<core::Reader> readers;
  const int n = 2600;
  for (int i = 0; i < n; ++i) {
    const double R = rng.uniform(30.0, 80.0);
    readers.push_back(test::makeReader(rng.uniform(0.0, 90.0),
                                       rng.uniform(0.0, 90.0), R, R / 4.0));
  }
  const core::System sys(std::move(readers), {test::makeTag(45.0, 45.0)});
  ASSERT_FALSE(sys.hasInterferenceRows());
  EXPECT_LT(expectMatchesAllPairs(sys), n * (n - 1) / 2);
}

TEST(Traversal, KHopOnPath) {
  const InterferenceGraph g = pathGraph(7);
  EXPECT_EQ(kHopNeighborhood(g, 3, 0), (std::vector<int>{3}));
  EXPECT_EQ(kHopNeighborhood(g, 3, 1), (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(kHopNeighborhood(g, 3, 2), (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(kHopNeighborhood(g, 0, 2), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(kHopNeighborhood(g, 3, 100),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Traversal, AliveRestrictionBlocksRelays) {
  const InterferenceGraph g = pathGraph(5);
  std::vector<char> alive = {1, 1, 0, 1, 1};  // node 2 removed
  // From node 0, node 3 is unreachable without relaying through 2.
  EXPECT_EQ(kHopNeighborhoodAlive(g, 0, 10, alive), (std::vector<int>{0, 1}));
  const auto dist = hopDistancesAlive(g, 0, alive);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Traversal, HopDistances) {
  const InterferenceGraph g = pathGraph(5);
  const auto d = hopDistances(g, 2);
  EXPECT_EQ(d, (std::vector<int>{2, 1, 0, 1, 2}));
}

TEST(Traversal, ComponentsSplitDisconnected) {
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {2, 3}, {3, 4}};
  const InterferenceGraph g(6, edges);
  const auto comp = components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[5], comp[0]);
  EXPECT_NE(comp[5], comp[2]);
}

TEST(Traversal, GrowthProfileIsMonotone) {
  const core::System sys = test::smallRandomSystem(7, 30, 10, 50.0);
  const InterferenceGraph g(sys);
  const auto profile = growthProfile(g, 0, 6);
  ASSERT_EQ(profile.size(), 7u);
  EXPECT_EQ(profile[0], 1);
  for (std::size_t r = 1; r < profile.size(); ++r) {
    EXPECT_GE(profile[r], profile[r - 1]);
  }
}

TEST(Coloring, GreedyIsProper) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const core::System sys = test::smallRandomSystem(seed, 30, 10, 50.0);
    const InterferenceGraph g(sys);
    const auto colors = greedyColoring(g);
    EXPECT_TRUE(isProperColoring(g, colors));
    EXPECT_LE(numColors(colors), g.maxDegree() + 1);
  }
}

TEST(Coloring, ColorClassesAreIndependentSets) {
  const core::System sys = test::smallRandomSystem(5, 30, 10, 50.0);
  const InterferenceGraph g(sys);
  const auto colors = greedyColoring(g);
  for (int c = 0; c < numColors(colors); ++c) {
    const auto cls = colorClass(colors, c);
    EXPECT_FALSE(cls.empty());
    EXPECT_TRUE(g.isIndependentSet(cls));
    EXPECT_TRUE(sys.isFeasible(cls));  // classes are feasible scheduling sets
  }
}

TEST(Coloring, DetectsImproperColoring) {
  const InterferenceGraph g = pathGraph(3);
  EXPECT_FALSE(isProperColoring(g, std::vector<int>{0, 0, 1}));
  EXPECT_TRUE(isProperColoring(g, std::vector<int>{0, 1, 0}));
}

TEST(Coloring, EmptyGraph) {
  const InterferenceGraph g(0, {});
  EXPECT_EQ(numColors(greedyColoring(g)), 0);
}

}  // namespace
}  // namespace rfid::graph
// NOTE: appended tests for the sensing graph live below the main namespace
// block intentionally — they share the same file-local helpers.
namespace rfid::graph {
namespace {

TEST(SensingGraph, SupersetOfInterferenceGraph) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    const core::System sys = test::smallRandomSystem(seed, 25, 10, 60.0);
    const InterferenceGraph g(sys);
    const InterferenceGraph sense = buildSensingGraph(sys);
    EXPECT_GE(sense.numEdges(), g.numEdges());
    for (int u = 0; u < g.numNodes(); ++u) {
      for (const int v : g.neighbors(u)) {
        EXPECT_TRUE(sense.hasEdge(u, v)) << u << "-" << v;
      }
    }
  }
}

TEST(SensingGraph, MatchesDiskIntersectionPredicate) {
  const core::System sys = test::smallRandomSystem(64, 20, 10, 50.0);
  const InterferenceGraph sense = buildSensingGraph(sys);
  for (int i = 0; i < sys.numReaders(); ++i) {
    for (int j = i + 1; j < sys.numReaders(); ++j) {
      const double reach = sys.reader(i).interference_radius +
                           sys.reader(j).interference_radius;
      const bool expect =
          geom::dist(sys.reader(i).pos, sys.reader(j).pos) <= reach;
      EXPECT_EQ(sense.hasEdge(i, j), expect) << i << "-" << j;
    }
  }
}

// The property Algorithm 3's liveness rests on: any two readers that can
// both cover a common tag are sensing-graph adjacent.
TEST(SensingGraph, RrcCapablePairsAreAdjacent) {
  for (const std::uint64_t seed : {65u, 66u, 67u, 68u}) {
    const core::System sys = test::smallRandomSystem(seed, 25, 150, 60.0);
    const InterferenceGraph sense = buildSensingGraph(sys);
    for (int t = 0; t < sys.numTags(); ++t) {
      const auto cov = sys.coverers(t);
      for (std::size_t a = 0; a < cov.size(); ++a) {
        for (std::size_t b = a + 1; b < cov.size(); ++b) {
          EXPECT_TRUE(sense.hasEdge(cov[a], cov[b]))
              << "tag " << t << " covered by non-adjacent " << cov[a]
              << " and " << cov[b];
        }
      }
    }
  }
}

}  // namespace
}  // namespace rfid::graph
