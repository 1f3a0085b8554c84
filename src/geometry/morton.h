// morton.h — Z-order (Morton) space-filling curve keys for cache-local
// layout.
//
// The bitmap coverage index (core/system.h) assigns tag bit positions and
// reader row slots by Morton rank of their positions: points close in the
// plane land close in the key order, so one reader's coverage bits cluster
// into few 64-bit words and neighboring readers' rows share cache lines.
// The curve choice only affects locality, never semantics — any bijection
// would produce the same schedules — so plain bit-interleaved Z-order is
// enough (Hilbert's better corner behavior is not worth the table lookups
// here; docs/performance.md).
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/vec2.h"

namespace rfid::geom {

/// Spreads the low 16 bits of x so bit i lands at bit 2i.
inline std::uint32_t mortonSpread16(std::uint32_t x) {
  x &= 0xffffu;
  x = (x | (x << 8)) & 0x00ff00ffu;
  x = (x | (x << 4)) & 0x0f0f0f0fu;
  x = (x | (x << 2)) & 0x33333333u;
  x = (x | (x << 1)) & 0x55555555u;
  return x;
}

/// 32-bit Morton key from two 16-bit cell coordinates.
inline std::uint32_t mortonKey(std::uint32_t cx, std::uint32_t cy) {
  return mortonSpread16(cx) | (mortonSpread16(cy) << 1);
}

/// Morton rank permutation of a point set: `order[k]` is the index of the
/// k-th point along the Z-curve.  Coordinates are quantized to a 2^16 grid
/// over the bounding box; ties (same cell, degenerate boxes) break by index,
/// so the permutation is deterministic in the input alone.
///
/// Sorts packed `(key << 32) | index` words with a 4-pass LSD radix sort on
/// the key half: stable, so equal keys keep ascending index order — the
/// same permutation as a (key, index) comparator sort, in O(n).
inline std::vector<int> mortonOrder(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  assert(n <= 0xffffffffu && "indices are packed into 32 bits");
  if (n < 2) return std::vector<int>(n, 0);
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
  std::vector<std::uint64_t> words(n);
  std::array<std::array<std::uint32_t, 256>, 4> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const auto cx = static_cast<std::uint32_t>((points[i].x - min_x) * sx);
    const auto cy = static_cast<std::uint32_t>((points[i].y - min_y) * sy);
    const std::uint32_t key = mortonKey(cx, cy);
    words[i] = (std::uint64_t{key} << 32) | i;
    for (std::size_t d = 0; d < 4; ++d) ++hist[d][(key >> (8 * d)) & 0xffu];
  }
  std::vector<std::uint64_t> tmp(n);
  for (std::size_t d = 0; d < 4; ++d) {
    const unsigned shift = 32 + 8 * static_cast<unsigned>(d);
    // A digit every key shares leaves the order as it is.
    if (hist[d][(words[0] >> shift) & 0xffu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& h : hist[d]) sum += std::exchange(h, sum);
    for (const std::uint64_t w : words) tmp[hist[d][(w >> shift) & 0xffu]++] = w;
    words.swap(tmp);
  }
  tmp = std::vector<std::uint64_t>();  // release before the result exists
  std::vector<int> order(n);
  for (std::size_t k = 0; k < n; ++k) {
    order[k] = static_cast<int>(words[k] & 0xffffffffu);
  }
  return order;
}

}  // namespace rfid::geom
