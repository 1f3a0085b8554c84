#include "geometry/spatial_grid.h"

#include <algorithm>
#include <cassert>

namespace rfid::geom {

namespace {
/// Cells allowed per indexed point (plus a small constant): bounds the
/// offsets array when the box is huge relative to the requested cell.
constexpr double kCellsPerPoint = 4.0;
constexpr double kMinCells = 64.0;

/// Cell coordinate clamped into [0, n): a no-op for the box's own points,
/// and total on any double (NaN lands in cell 0).
std::int64_t clampCell(double f, std::int64_t n) {
  const auto last = static_cast<double>(n - 1);
  return f > 0.0 ? static_cast<std::int64_t>(std::min(f, last)) : 0;
}
}  // namespace

SpatialGrid::SpatialGrid(std::span<const Vec2> points, double cell_size)
    : cell_size_(cell_size) {
  assert(cell_size > 0.0 && "cell size must be positive");
  if (points.empty()) return;
  Vec2 max = points[0];
  min_ = points[0];
  for (const Vec2& p : points) {
    min_.x = std::min(min_.x, p.x);
    min_.y = std::min(min_.y, p.y);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
  }
  // Columns and rows over the box; double the cell until the count fits the
  // O(n) cap (sizes computed in double, so spreads like 1e9 cannot wrap).
  // A box too wide for double arithmetic ends as one cell.
  const double cap = kCellsPerPoint * static_cast<double>(points.size()) + kMinCells;
  double nx = 0.0, ny = 0.0;
  for (;;) {
    inv_cell_ = 1.0 / cell_size_;
    nx = cellOf(max.x, min_.x) + 1.0;
    ny = cellOf(max.y, min_.y) + 1.0;
    if (!(nx * ny > cap)) break;
    cell_size_ *= 2.0;
  }
  nx_ = nx >= 1.0 && nx * ny <= cap ? static_cast<std::int64_t>(nx) : 1;
  ny_ = ny >= 1.0 && nx * ny <= cap ? static_cast<std::int64_t>(ny) : 1;

  // Counting sort by cell: count into cell_start_[c + 1], prefix-sum, then
  // scatter with cell_start_[c] as the cursor (leaving it at the cell's end)
  // and shift back by one.  Stable, so each cell lists ids ascending.  The
  // cells are recomputed rather than kept, saving a per-point array.
  const auto cells = static_cast<std::size_t>(nx_ * ny_);
  cell_start_.assign(cells + 1, 0);
  for (const Vec2& p : points) ++cell_start_[cellIndex(p) + 1];
  for (std::size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  pos_.resize(points.size());
  ids_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint32_t k = cell_start_[cellIndex(points[i])]++;
    pos_[k] = points[i];
    ids_[k] = static_cast<int>(i);
  }
  for (std::size_t c = cells; c > 0; --c) cell_start_[c] = cell_start_[c - 1];
  cell_start_[0] = 0;
}

std::size_t SpatialGrid::cellIndex(Vec2 p) const {
  const std::int64_t cx = clampCell(cellOf(p.x, min_.x), nx_);
  const std::int64_t cy = clampCell(cellOf(p.y, min_.y), ny_);
  return static_cast<std::size_t>(cx * ny_ + cy);
}

std::vector<int> SpatialGrid::queryDisk(Vec2 center, double radius) const {
  std::vector<int> out;
  queryDisk(center, radius, out);
  return out;
}

void SpatialGrid::queryDisk(Vec2 center, double radius,
                            std::vector<int>& out) const {
  if (ids_.empty()) return;
  // Covered cell range, clamped to the grid in floating point before any
  // integer conversion (centers far outside the box, huge radii).  The
  // negated comparisons also reject NaN bounds.
  const double fx0 = cellOf(center.x - radius, min_.x);
  const double fx1 = cellOf(center.x + radius, min_.x);
  const double fy0 = cellOf(center.y - radius, min_.y);
  const double fy1 = cellOf(center.y + radius, min_.y);
  if (!(fx1 >= 0.0 && fx0 < static_cast<double>(nx_) && fy1 >= 0.0 &&
        fy0 < static_cast<double>(ny_))) {
    return;
  }
  const std::int64_t cx0 = clampCell(fx0, nx_), cx1 = clampCell(fx1, nx_);
  const std::int64_t cy0 = clampCell(fy0, ny_), cy1 = clampCell(fy1, ny_);

  const std::size_t first = out.size();
  const double r2 = radius * radius;
  for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
    // Column cx's cells cy0..cy1 are one contiguous run of points.
    const auto base = static_cast<std::size_t>(cx * ny_);
    const std::uint32_t end = cell_start_[base + static_cast<std::size_t>(cy1) + 1];
    for (std::uint32_t k = cell_start_[base + static_cast<std::size_t>(cy0)]; k < end; ++k) {
      if (dist2(pos_[k], center) <= r2) out.push_back(ids_[k]);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace rfid::geom
