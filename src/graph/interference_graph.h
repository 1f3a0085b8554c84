// interference_graph.h — the reader interference graph (Definition 7).
//
// Nodes are readers; an edge {i, j} exists iff one reader lies inside the
// other's interference disk (‖v_i − v_j‖ ≤ max(R_i, R_j)), i.e. iff the two
// readers are *not* independent.  Adjacent readers must never be active
// simultaneously (RTc).  The location-free algorithms (Alg 2, Alg 3,
// Colorwave) consume only this graph plus per-reader tag coverage — exactly
// the information an RF site survey provides — never coordinates.
#pragma once

#include <span>
#include <vector>

#include "core/system.h"

namespace rfid::graph {

/// Immutable undirected graph with adjacency lists sorted ascending, stored
/// CSR-style (one offsets array, one flat neighbor array).
class InterferenceGraph {
 public:
  /// Derives the graph from reader geometry.  This mirrors the paper's RF
  /// site survey: the *construction* uses positions, but consumers of the
  /// resulting graph never see them.  The edges are the System's directed
  /// interference rows, symmetrised: ‖v_i − v_j‖ ≤ max(R_i, R_j) iff j lies
  /// in i's row or i in j's.
  explicit InterferenceGraph(const core::System& sys);

  /// Builds a graph directly from an edge list (for tests and synthetic
  /// topologies).  Edges may be listed in either orientation; duplicates
  /// and self-loops are rejected by assertion.
  InterferenceGraph(int num_nodes, std::span<const std::pair<int, int>> edges);

  int numNodes() const { return static_cast<int>(off_.size()) - 1; }
  int numEdges() const { return num_edges_; }
  std::span<const int> neighbors(int v) const {
    const auto lo = static_cast<std::size_t>(off_[static_cast<std::size_t>(v)]);
    const auto hi = static_cast<std::size_t>(off_[static_cast<std::size_t>(v) + 1]);
    return {idx_.data() + lo, hi - lo};
  }
  bool hasEdge(int u, int v) const;
  int degree(int v) const {
    return off_[static_cast<std::size_t>(v) + 1] - off_[static_cast<std::size_t>(v)];
  }
  int maxDegree() const;

  /// True iff no two members of `X` are adjacent (graph-level feasibility —
  /// identical to core::System::isFeasible when the graph came from that
  /// system, a property the tests assert).
  bool isIndependentSet(std::span<const int> X) const;

 private:
  // neighbors(v) = idx_[off_[v] .. off_[v+1]), ascending.
  std::vector<int> off_;
  std::vector<int> idx_;
  int num_edges_ = 0;
};

/// The *sensing* (communication) graph: an edge joins v_i and v_j whenever
/// their interference disks intersect (‖v_i − v_j‖ ≤ R_i + R_j).  This is a
/// supergraph of the interference graph, and — because interrogation disks
/// are contained in interference disks — any two readers that can RRc-cover
/// a common tag are adjacent in it.  The distributed algorithm floods its
/// control messages over this graph: readers whose signals physically reach
/// each other can carrier-sense each other, so coordinators that could
/// cancel each other's tags always learn of each other's selections.
/// Feasibility (Definition 2) still uses the interference graph.
InterferenceGraph buildSensingGraph(const core::System& sys);

}  // namespace rfid::graph
