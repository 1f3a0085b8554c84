// Geometry substrate tests: Vec2 arithmetic, Disk/Aabb predicates, and the
// spatial grid checked property-style against brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geometry/disk.h"
#include "geometry/morton.h"
#include "geometry/spatial_grid.h"
#include "geometry/vec2.h"
#include "workload/rng.h"

namespace rfid::geom {
namespace {

TEST(Vec2, ArithmeticAndNorm) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{1.0, -2.0};
  EXPECT_EQ((a + b), (Vec2{4.0, 2.0}));
  EXPECT_EQ((a - b), (Vec2{2.0, 6.0}));
  EXPECT_EQ((a * 2.0), (Vec2{6.0, 8.0}));
  EXPECT_EQ((2.0 * a), (Vec2{6.0, 8.0}));
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(Vec2, DistanceMatchesDefinition2) {
  // ‖v_i − v_j‖ = sqrt((x_i−x_j)² + (y_i−y_j)²)
  EXPECT_DOUBLE_EQ(dist({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(dist2({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(dist({-3, -4}, {0, 0}), 5.0);
}

TEST(Vec2, CompoundAssignment) {
  Vec2 v{1.0, 1.0};
  v += {2.0, 3.0};
  EXPECT_EQ(v, (Vec2{3.0, 4.0}));
  v -= {1.0, 1.0};
  EXPECT_EQ(v, (Vec2{2.0, 3.0}));
  v *= 2.0;
  EXPECT_EQ(v, (Vec2{4.0, 6.0}));
}

TEST(Disk, ContainsIsClosed) {
  const Disk d{{0.0, 0.0}, 2.0};
  EXPECT_TRUE(d.contains({2.0, 0.0}));   // boundary point counts
  EXPECT_TRUE(d.contains({0.0, 0.0}));
  EXPECT_FALSE(d.contains({2.0 + 1e-9, 0.0}));
}

TEST(Disk, DiskDiskIntersection) {
  const Disk a{{0.0, 0.0}, 1.0};
  EXPECT_TRUE(a.intersects(Disk{{2.0, 0.0}, 1.0}));   // touching counts
  EXPECT_TRUE(a.intersects(Disk{{1.0, 0.0}, 1.0}));
  EXPECT_FALSE(a.intersects(Disk{{2.5, 0.0}, 1.0}));
  EXPECT_TRUE(a.intersects(Disk{{0.1, 0.1}, 0.01}));  // nested
}

TEST(Disk, StrictlyInsideBox) {
  const Aabb box{{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_TRUE((Disk{{5.0, 5.0}, 2.0}).strictlyInside(box));
  // Touching the boundary is NOT strictly inside (PTAS survive predicate).
  EXPECT_FALSE((Disk{{2.0, 5.0}, 2.0}).strictlyInside(box));
  EXPECT_FALSE((Disk{{5.0, 9.5}, 1.0}).strictlyInside(box));
  EXPECT_FALSE((Disk{{11.0, 5.0}, 0.5}).strictlyInside(box));
}

TEST(Disk, DiskBoxIntersection) {
  const Aabb box{{0.0, 0.0}, {4.0, 4.0}};
  EXPECT_TRUE((Disk{{2.0, 2.0}, 0.5}).intersects(box));   // inside
  EXPECT_TRUE((Disk{{-1.0, 2.0}, 1.5}).intersects(box));  // crosses edge
  EXPECT_TRUE((Disk{{5.0, 5.0}, 1.5}).intersects(box));   // corner graze
  EXPECT_FALSE((Disk{{5.5, 5.5}, 1.0}).intersects(box));  // corner miss
  EXPECT_FALSE((Disk{{-2.0, 2.0}, 1.0}).intersects(box));
}

TEST(Aabb, ContainsAndIntersects) {
  const Aabb a{{0, 0}, {2, 2}};
  const Aabb b{{1, 1}, {3, 3}};
  const Aabb c{{2, 2}, {3, 3}};  // shares corner point
  const Aabb d{{2.1, 0}, {3, 1}};
  EXPECT_TRUE(a.intersects(b));
  EXPECT_TRUE(a.intersects(c));
  EXPECT_FALSE(a.intersects(d));
  EXPECT_TRUE(a.contains({1, 1}));
  EXPECT_TRUE(a.contains({2, 2}));
  EXPECT_FALSE(a.contains({2.5, 1}));
  EXPECT_DOUBLE_EQ(b.width(), 2.0);
  EXPECT_DOUBLE_EQ(b.height(), 2.0);
}

TEST(SpatialGrid, EmptyPointSet) {
  const SpatialGrid grid({}, 1.0);
  EXPECT_EQ(grid.size(), 0);
  EXPECT_TRUE(grid.queryDisk({0, 0}, 100.0).empty());
}

TEST(SpatialGrid, SinglePointHitAndMiss) {
  const std::vector<Vec2> pts = {{5.0, 5.0}};
  const SpatialGrid grid(pts, 2.0);
  EXPECT_EQ(grid.queryDisk({5.0, 5.0}, 0.0), (std::vector<int>{0}));
  EXPECT_EQ(grid.queryDisk({4.0, 5.0}, 1.0), (std::vector<int>{0}));
  EXPECT_TRUE(grid.queryDisk({0.0, 0.0}, 1.0).empty());
}

TEST(SpatialGrid, NegativeCoordinates) {
  const std::vector<Vec2> pts = {{-5.0, -5.0}, {-4.5, -5.0}, {5.0, 5.0}};
  const SpatialGrid grid(pts, 1.0);
  EXPECT_EQ(grid.queryDisk({-5.0, -5.0}, 0.6), (std::vector<int>{0, 1}));
}

// Property: grid query equals brute-force scan for random points/queries,
// across cell sizes smaller and larger than the query radius.
class SpatialGridProperty : public ::testing::TestWithParam<double> {};

TEST_P(SpatialGridProperty, MatchesBruteForce) {
  const double cell = GetParam();
  workload::Rng rng(12345);
  std::vector<Vec2> pts;
  for (int i = 0; i < 400; ++i) {
    pts.push_back({rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)});
  }
  const SpatialGrid grid(pts, cell);
  for (int q = 0; q < 50; ++q) {
    const Vec2 c{rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0)};
    const double r = rng.uniform(0.0, 20.0);
    std::vector<int> expected;
    for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
      if (dist2(pts[static_cast<std::size_t>(i)], c) <= r * r) expected.push_back(i);
    }
    EXPECT_EQ(grid.queryDisk(c, r), expected)
        << "cell=" << cell << " query " << q;
  }
}

std::vector<int> bruteDisk(const std::vector<Vec2>& pts, Vec2 c, double r) {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    if (dist2(pts[static_cast<std::size_t>(i)], c) <= r * r) out.push_back(i);
  }
  return out;
}

// Property: clusters ~1e9 apart would need ~1e18 cells at this cell size;
// the grid grows its cells to stay O(n) and still answers exactly.
TEST_P(SpatialGridProperty, FarApartClustersStayBounded) {
  const double cell = GetParam();
  workload::Rng rng(777);
  std::vector<Vec2> pts;
  std::vector<Vec2> centers;
  for (int k = 0; k < 5; ++k) {
    centers.push_back({rng.uniform(-2e9, 2e9), rng.uniform(-2e9, 2e9)});
  }
  for (int i = 0; i < 300; ++i) {
    const Vec2 c = centers[static_cast<std::size_t>(i % 5)];
    pts.push_back({c.x + rng.uniform(-20.0, 20.0), c.y + rng.uniform(-20.0, 20.0)});
  }
  const SpatialGrid grid(pts, cell);
  EXPECT_LE(grid.numCells(), 4u * pts.size() + 64u);
  EXPECT_GE(grid.cellSize(), cell);
  for (int q = 0; q < 60; ++q) {
    const Vec2 c = centers[static_cast<std::size_t>(q % 5)];
    const Vec2 center{c.x + rng.uniform(-25.0, 25.0), c.y + rng.uniform(-25.0, 25.0)};
    const double r = rng.uniform(0.0, 15.0);
    EXPECT_EQ(grid.queryDisk(center, r), bruteDisk(pts, center, r))
        << "cell=" << cell << " query " << q;
  }
  // A radius spanning the whole spread returns everything.
  EXPECT_EQ(grid.queryDisk({0.0, 0.0}, 1e10).size(), pts.size());
}

TEST(SpatialGrid, CenterFarOutsideTheBox) {
  const std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.5}};
  const SpatialGrid grid(pts, 1.0);
  EXPECT_TRUE(grid.queryDisk({1e12, -1e12}, 5.0).empty());
  EXPECT_TRUE(grid.queryDisk({-50.0, 0.5}, 10.0).empty());
  // Far outside, but the disk reaches back into the box.
  EXPECT_EQ(grid.queryDisk({-100.0, 0.0}, 100.0), (std::vector<int>{0}));
  EXPECT_EQ(grid.queryDisk({1.0, 1e6}, 1e6), bruteDisk(pts, {1.0, 1e6}, 1e6));
}

TEST(SpatialGrid, RadiusZeroIsInclusive) {
  // Points on cell corners and edges: a zero-radius query at a point must
  // still return it (dist² 0 ≤ 0), from whichever cell it landed in.
  const std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.5, 2.0}, {3.0, 3.0}};
  const SpatialGrid grid(pts, 1.0);
  for (int i = 0; i < static_cast<int>(pts.size()); ++i) {
    EXPECT_EQ(grid.queryDisk(pts[static_cast<std::size_t>(i)], 0.0), (std::vector<int>{i}));
  }
  EXPECT_TRUE(grid.queryDisk({0.5, 0.5}, 0.0).empty());
}

TEST(SpatialGrid, RadiusLargerThanTheBox) {
  workload::Rng rng(31);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) pts.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  const SpatialGrid grid(pts, 0.5);
  std::vector<int> all(pts.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  EXPECT_EQ(grid.queryDisk({5.0, 5.0}, 1000.0), all);
  EXPECT_EQ(grid.queryDisk({-3.0, 12.0}, 1000.0), all);
  EXPECT_EQ(grid.queryDisk({-3.0, 12.0}, 9.0), bruteDisk(pts, {-3.0, 12.0}, 9.0));
}

TEST(SpatialGrid, DuplicatePoints) {
  const std::vector<Vec2> pts = {{2.0, 2.0}, {5.0, 5.0}, {2.0, 2.0}, {2.0, 2.0}, {5.0, 5.0}};
  const SpatialGrid grid(pts, 1.0);
  EXPECT_EQ(grid.queryDisk({2.0, 2.0}, 0.0), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(grid.queryDisk({5.0, 5.0}, 0.1), (std::vector<int>{1, 4}));
  EXPECT_EQ(grid.queryDisk({3.5, 3.5}, 3.0), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SpatialGrid, CollinearBoxes) {
  // Zero-height and zero-width boxes: one row or one column of cells.
  workload::Rng rng(57);
  std::vector<Vec2> row;
  std::vector<Vec2> col;
  for (int i = 0; i < 150; ++i) {
    const double t = rng.uniform(-30.0, 30.0);
    row.push_back({t, 7.0});
    col.push_back({-4.0, t});
  }
  const SpatialGrid grid_row(row, 1.0);
  const SpatialGrid grid_col(col, 1.0);
  for (int q = 0; q < 40; ++q) {
    const Vec2 c{rng.uniform(-35.0, 35.0), rng.uniform(-35.0, 35.0)};
    const double r = rng.uniform(0.0, 30.0);
    EXPECT_EQ(grid_row.queryDisk(c, r), bruteDisk(row, c, r)) << "query " << q;
    EXPECT_EQ(grid_col.queryDisk(c, r), bruteDisk(col, c, r)) << "query " << q;
  }
  EXPECT_EQ(grid_row.queryDisk({0.0, 7.0}, 0.0), bruteDisk(row, {0.0, 7.0}, 0.0));
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SpatialGridProperty,
                         ::testing::Values(0.5, 1.0, 4.0, 25.0));

// Reference Morton order: a (key, index) comparator sort over the same
// 16-bit bounding-box quantization — the order mortonOrder must reproduce.
std::vector<int> referenceMortonOrder(const std::vector<Vec2>& points) {
  std::vector<int> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  if (points.size() < 2) return order;
  double min_x = points[0].x, max_x = points[0].x;
  double min_y = points[0].y, max_y = points[0].y;
  for (const Vec2& p : points) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double sx = max_x > min_x ? 65535.0 / (max_x - min_x) : 0.0;
  const double sy = max_y > min_y ? 65535.0 / (max_y - min_y) : 0.0;
  std::vector<std::uint32_t> key(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    key[i] = mortonKey(static_cast<std::uint32_t>((points[i].x - min_x) * sx),
                       static_cast<std::uint32_t>((points[i].y - min_y) * sy));
  }
  std::sort(order.begin(), order.end(), [&key](int a, int b) {
    const auto ka = key[static_cast<std::size_t>(a)];
    const auto kb = key[static_cast<std::size_t>(b)];
    return ka != kb ? ka < kb : a < b;
  });
  return order;
}

std::vector<Vec2> randomPoints(std::uint64_t seed, int n, double w, double h) {
  workload::Rng rng(seed);
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({rng.uniform(0.0, w), rng.uniform(0.0, h)});
  return pts;
}

TEST(MortonOrder, SmallSizes) {
  EXPECT_TRUE(mortonOrder({}).empty());
  const std::vector<Vec2> one = {{3.0, 4.0}};
  EXPECT_EQ(mortonOrder(one), (std::vector<int>{0}));
  const std::vector<Vec2> two = {{9.0, 9.0}, {1.0, 1.0}};
  EXPECT_EQ(mortonOrder(two), (std::vector<int>{1, 0}));
  EXPECT_EQ(mortonOrder(two), referenceMortonOrder(two));
  const std::vector<Vec2> two_same = {{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_EQ(mortonOrder(two_same), (std::vector<int>{0, 1}));
}

TEST(MortonOrder, MatchesComparatorSort) {
  for (const int n : {3, 17, 1000, 100000}) {
    const std::vector<Vec2> pts = randomPoints(static_cast<std::uint64_t>(n), n, 500.0, 300.0);
    EXPECT_EQ(mortonOrder(pts), referenceMortonOrder(pts)) << "n=" << n;
  }
}

TEST(MortonOrder, DuplicatesAndQuantizationTiesBreakByIndex) {
  workload::Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 500; ++i) {
    // A few distinct sites, each repeated, plus near-duplicates closer than
    // one 16-bit quantization step (1000 / 65535 ≈ 0.015) so their keys tie.
    const Vec2 site{static_cast<double>(rng.uniformInt(0, 4)) * 250.0,
                    static_cast<double>(rng.uniformInt(0, 4)) * 250.0};
    pts.push_back(i % 3 == 0 ? site : Vec2{site.x + rng.uniform(0.0, 1e-3), site.y});
  }
  const std::vector<int> order = mortonOrder(pts);
  EXPECT_EQ(order, referenceMortonOrder(pts));
}

TEST(MortonOrder, DegenerateBoxes) {
  const std::vector<Vec2> wide = randomPoints(8, 300, 100.0, 0.0);   // zero height
  const std::vector<Vec2> tall = randomPoints(9, 300, 0.0, 100.0);   // zero width
  const std::vector<Vec2> point(64, Vec2{2.5, -1.0});                // zero area
  EXPECT_EQ(mortonOrder(wide), referenceMortonOrder(wide));
  EXPECT_EQ(mortonOrder(tall), referenceMortonOrder(tall));
  EXPECT_EQ(mortonOrder(point), referenceMortonOrder(point));
}

TEST(SpatialGrid, AppendingOverloadKeepsExistingContents) {
  const std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 0.0}};
  const SpatialGrid grid(pts, 1.0);
  std::vector<int> out = {99};
  grid.queryDisk({0.0, 0.0}, 0.5, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 99);
  EXPECT_EQ(out[1], 0);
}

}  // namespace
}  // namespace rfid::geom
