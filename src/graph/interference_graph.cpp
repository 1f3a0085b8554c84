#include "graph/interference_graph.h"

#include <algorithm>
#include <cassert>

namespace rfid::graph {
namespace {

/// |a ∪ b| for ascending, duplicate-free ranges.
int unionSize(std::span<const int> a, std::span<const int> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  int k = 0;
  while (i < a.size() && j < b.size()) {
    const int x = a[i];
    const int y = b[j];
    i += x <= y ? 1 : 0;
    j += y <= x ? 1 : 0;
    ++k;
  }
  return k + static_cast<int>(a.size() - i + b.size() - j);
}

}  // namespace

InterferenceGraph::InterferenceGraph(const core::System& sys) {
  const auto n = static_cast<std::size_t>(sys.numReaders());
  std::vector<int> buf;
  off_.assign(n + 1, 0);
  if (!sys.hasInterferenceRows()) {
    // Past the System's density cap its rows are not stored: query each
    // reader's neighbors from its reader grid, already symmetric.  Two
    // passes (count, then fill) keep the neighbor array allocated once,
    // exactly, on the deployments dense enough to get here.
    for (std::size_t v = 0; v < n; ++v) {
      off_[v + 1] = off_[v] + static_cast<int>(
          sys.queryDependentReaders(static_cast<int>(v), buf).size());
    }
    idx_.resize(static_cast<std::size_t>(off_[n]));
    for (std::size_t v = 0; v < n; ++v) {
      const std::span<const int> nb =
          sys.queryDependentReaders(static_cast<int>(v), buf);
      std::copy(nb.begin(), nb.end(), idx_.begin() + off_[v]);
    }
    num_edges_ = static_cast<int>(idx_.size() / 2);
    return;
  }
  // Edge {i, j} iff ‖v_i − v_j‖² ≤ max(R_i, R_j)², i.e. iff j is in i's
  // directed interference row or i in j's: the rows united with their
  // transpose are exactly the edge set.  Transpose by counting sort
  // (visiting rows in ascending v keeps every list ascending), then merge
  // each row with its transposed list, keeping the pairs present both ways
  // once.
  const auto row = [&](std::size_t v) {
    return sys.interferenceRow(static_cast<int>(v), buf);
  };
  std::vector<int> in_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (const int u : row(v)) ++in_off[static_cast<std::size_t>(u) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) in_off[v + 1] += in_off[v];
  std::vector<int> in_idx(static_cast<std::size_t>(in_off[n]));
  std::vector<int> cursor(in_off.begin(), in_off.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (const int u : row(v)) {
      in_idx[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] =
          static_cast<int>(v);
    }
  }
  cursor = std::vector<int>();
  const auto in = [&](std::size_t v) -> std::span<const int> {
    return {in_idx.data() + in_off[v], in_idx.data() + in_off[v + 1]};
  };

  // Size each merged list first so idx_ is allocated once, exactly: the
  // union is at most |row| + |in| but the pairs present both ways (every
  // edge between readers inside each other's disks) count once.
  for (std::size_t v = 0; v < n; ++v) {
    off_[v + 1] = off_[v] + unionSize(row(v), in(v));
  }
  idx_.resize(static_cast<std::size_t>(off_[n]));
  for (std::size_t v = 0; v < n; ++v) {
    const std::span<const int> r = row(v);
    const std::span<const int> t = in(v);
    std::set_union(r.begin(), r.end(), t.begin(), t.end(), idx_.begin() + off_[v]);
  }
  num_edges_ = static_cast<int>(idx_.size() / 2);
}

InterferenceGraph::InterferenceGraph(
    int num_nodes, std::span<const std::pair<int, int>> edges) {
  const auto n = static_cast<std::size_t>(num_nodes);
  off_.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    assert(u != v && "self-loops are not allowed");
    assert(u >= 0 && u < num_nodes && v >= 0 && v < num_nodes);
    ++off_[static_cast<std::size_t>(u) + 1];
    ++off_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) off_[v + 1] += off_[v];
  idx_.resize(2 * edges.size());
  std::vector<int> cursor(off_.begin(), off_.end() - 1);
  for (const auto& [u, v] : edges) {
    idx_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    idx_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto a = idx_.begin() + off_[v];
    const auto b = idx_.begin() + off_[v + 1];
    std::sort(a, b);
    assert(std::adjacent_find(a, b) == b && "duplicate edges are not allowed");
  }
  num_edges_ = static_cast<int>(edges.size());
}

InterferenceGraph buildSensingGraph(const core::System& sys) {
  const int n = sys.numReaders();
  double max_r = 1.0;
  for (const core::Reader& r : sys.readers()) {
    max_r = std::max(max_r, r.interference_radius);
  }
  std::vector<geom::Vec2> pos;
  pos.reserve(static_cast<std::size_t>(n));
  for (const core::Reader& r : sys.readers()) pos.push_back(r.pos);
  const geom::SpatialGrid index(pos, max_r);

  std::vector<std::pair<int, int>> edges;
  std::vector<int> near;
  for (int i = 0; i < n; ++i) {
    near.clear();
    index.queryDisk(sys.reader(i).pos, 2.0 * max_r, near);
    for (const int j : near) {
      if (j <= i) continue;
      const double reach = sys.reader(i).interference_radius +
                           sys.reader(j).interference_radius;
      if (geom::dist2(sys.reader(i).pos, sys.reader(j).pos) <= reach * reach) {
        edges.emplace_back(i, j);
      }
    }
  }
  return InterferenceGraph(n, edges);
}

bool InterferenceGraph::hasEdge(int u, int v) const {
  const std::span<const int> a = neighbors(u);
  return std::binary_search(a.begin(), a.end(), v);
}

int InterferenceGraph::maxDegree() const {
  int d = 0;
  for (int v = 0; v < numNodes(); ++v) d = std::max(d, degree(v));
  return d;
}

bool InterferenceGraph::isIndependentSet(std::span<const int> X) const {
  for (std::size_t i = 0; i < X.size(); ++i) {
    for (std::size_t j = i + 1; j < X.size(); ++j) {
      if (X[i] == X[j] || hasEdge(X[i], X[j])) return false;
    }
  }
  return true;
}

}  // namespace rfid::graph
