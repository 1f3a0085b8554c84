// spatial_grid.h — flat uniform grid over a point set for radius queries.
//
// Weight evaluation (Definition 3) repeatedly asks "which tags lie inside
// this interrogation disk?" and deployment generation asks "which readers
// interfere with this one?".  A uniform grid over the points' bounding box
// answers both in O(points in the query neighborhood) instead of O(n),
// which matters because construction runs one query per reader and the MCS
// greedy loop evaluates thousands of candidate scheduling sets per run.
//
// The grid is stored CSR-style: one counting sort groups the points by
// cell, column-major, so the cells of one x-column are adjacent and a disk
// query walks one contiguous run of positions (and ids) per column — no
// hashing, no per-cell allocation (docs/performance.md).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.h"

namespace rfid::geom {

/// Immutable spatial index over a fixed point set.
///
/// Build once from the point positions; `queryDisk` then returns the indices
/// of all points within a given radius of a center.  The index keeps its own
/// copy of the positions, in cell order, so the caller's array may be
/// released after construction.  The cell count is O(points): a bounding box
/// that is huge relative to `cell_size` grows the cells instead, which only
/// changes speed — the distance filter is exact, so results never change.
class SpatialGrid {
 public:
  /// Constructs an index over `points` with the given cell size.
  ///
  /// `cell_size` should be on the order of the typical query radius; queries
  /// with much larger radii still work but degrade towards a linear scan of
  /// the touched cells.  `cell_size` must be > 0.
  SpatialGrid(std::span<const Vec2> points, double cell_size);

  /// Indices of all points p with ‖p − center‖² ≤ radius², in ascending order.
  std::vector<int> queryDisk(Vec2 center, double radius) const;

  /// Appends the query result to `out` instead of allocating (hot path).
  void queryDisk(Vec2 center, double radius, std::vector<int>& out) const;

  /// Number of indexed points.
  int size() const { return static_cast<int>(ids_.size()); }

  /// The cell size in use: the requested one, or larger when the cell-count
  /// cap grew it.
  double cellSize() const { return cell_size_; }

  /// Number of grid cells (bounded by O(size())).
  std::size_t numCells() const { return cell_start_.empty() ? 0 : cell_start_.size() - 1; }

 private:
  /// Cell coordinate of `v` along an axis whose box starts at `lo`.
  double cellOf(double v, double lo) const { return std::floor((v - lo) * inv_cell_); }

  double cell_size_;
  double inv_cell_ = 0.0;
  Vec2 min_{};          // bounding-box corner, cell (0, 0)
  std::int64_t nx_ = 0;  // columns
  std::int64_t ny_ = 0;  // cells per column
  /// Cell index of a point of the box (column-major).
  std::size_t cellIndex(Vec2 p) const;

  // Cell c = cx * ny_ + cy holds points k in [cell_start_[c], cell_start_[c+1]),
  // ascending by id (the counting sort is stable): position pos_[k], index
  // ids_[k].
  std::vector<std::uint32_t> cell_start_;
  std::vector<Vec2> pos_;
  std::vector<int> ids_;
};

}  // namespace rfid::geom
