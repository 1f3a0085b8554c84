// exact.h — exact Maximum Weighted Feasible Scheduling set solvers.
//
// The paper's approximation guarantees (Theorems 2, 4, 6) are stated against
// the optimum w(OPT).  This module computes that optimum by branch & bound
// so the tests can check the guarantees empirically and the ablations can
// report true approximation ratios on small instances.  It is also the
// engine behind the *local* MWFS computations of Algorithms 2 and 3: their
// neighborhoods are small (growth-bounded), so exact local search is exactly
// what the paper prescribes ("compute MWFS ... by enumeration", §V-B).
//
// Weight is sub-additive (RRc), so this is not a plain max-weight
// independent-set instance: the objective is evaluated by live coverage
// multiplicities (core::WeightEvaluator semantics).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/system.h"
#include "sched/scheduler.h"

namespace rfid::core {
class WeightEvaluator;
}

namespace rfid::sched {

/// A self-contained local MWFS instance over `n = adj.size()` candidates.
///
/// Used directly by the distributed algorithm, whose coordinators only know
/// what arrived in messages: local conflict edges and per-candidate unread
/// tag-id lists.  Tag ids are arbitrary non-negative ints, shared across
/// candidates (shared ids model RRc overlap).
struct LocalProblem {
  /// adj[i] = conflicting candidates (must not be co-selected), ascending.
  std::vector<std::vector<int>> adj;
  /// coverage[i] = distinct ids of *unread* tags inside candidate i's
  /// interrogation region.
  std::vector<std::vector<int>> coverage;
  /// Tags already covered by readers selected *outside* this subproblem
  /// (repeat an id to record multiplicity).  The solver then maximizes the
  /// *marginal* weight: covering a preloaded tag once more removes it from
  /// the outside context's well-covered set (RRc), which scores −1, and
  /// never +1.  An empty preload reduces to plain MWFS.
  std::vector<int> preload;
};

/// Reusable allocation arena for the word-parallel search.  Algorithm 2
/// solves one tiny subproblem per pick (thousands per covering schedule, a
/// handful of candidates each) and Algorithm 1 one per leaf square and
/// shift, where heap churn for the instance rows and search stacks costs
/// more than the search itself.  Passing the same scratch across calls
/// keeps every buffer's capacity; results are bit-identical with and
/// without one (every buffer is re-initialized per instance).
///
/// An instance is stored as bitsets over instance-local 64-tag word
/// *slots*: each candidate's row lists its non-zero (slot, bits) words, and
/// candidates are relabelled into exploration order so conflicts and the
/// bound work on candidate bitmasks.
struct BnbScratch {
  std::vector<core::BitEntry> rows;    // candidate rows, caller order;
                                       // BitEntry::word holds the slot
  std::vector<std::uint32_t> row_off;  // n + 1 offsets into rows
  std::vector<std::uint32_t> words;    // slot → source word, ascending
  std::vector<std::uint64_t> universe; // per slot: tags some row covers
  std::vector<std::uint64_t> once;     // per slot: multiplicity ≥ 1
  std::vector<std::uint64_t> twice;    // per slot: multiplicity ≥ 2
  std::vector<int> ids;       // LocalProblem tag ids, sorted (dense = rank)
  std::vector<int> touched;   // slots a LocalProblem row sets
  std::vector<int> order;     // exploration position → caller index
  std::vector<int> rank;      // caller index → exploration position
  std::vector<int> size;      // row popcount by exploration position
  std::vector<std::uint64_t> adj;      // conflict masks by position
  std::vector<std::uint64_t> blocked;  // per depth: positions a pick blocks
  std::vector<std::uint64_t> undo;     // once/twice words saved by pushes
  std::vector<int> chosen;
  std::vector<int> best;
};

struct BnbResult {
  /// Chosen candidates (local indices for solveLocal, reader indices for
  /// the System overloads), ascending.
  std::vector<int> members;
  int weight = 0;
  /// Search nodes expanded.
  std::int64_t nodes = 0;
  /// True iff the search ran to completion (false = node budget hit and the
  /// result is only the best found so far).
  bool optimal = true;
};

/// Exact MWFS on a LocalProblem via branch & bound.  Candidates are
/// explored in descending row size (stable), include-branch first; a node
/// is pruned when current weight + min(Σ row sizes of the not-yet-decided
/// candidates that conflict with no pick, candidate tags covered by
/// neither a pick nor the preload) cannot beat the incumbent.
/// `node_limit` caps the search (≤0 = unlimited).  `cancel` (optional) is
/// polled every 4096 nodes; a fired token ends the search through the same
/// best-so-far path as the node budget (`optimal` comes back false).
BnbResult solveLocal(const LocalProblem& problem, std::int64_t node_limit = 0,
                     const ckpt::CancelToken* cancel = nullptr,
                     BnbScratch* scratch = nullptr);

/// Exact MWFS restricted to `candidates` (reader indices) of `sys`,
/// scored against the system's current unread set.  When `committed` is
/// non-empty, the result maximizes the weight *marginal* to those already
/// selected readers (their unread coverage is preloaded), which is how the
/// growth algorithms keep later picks from silently cancelling earlier
/// picks' tags through RRc.
BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit = 0,
                                  std::span<const int> committed = {},
                                  const ckpt::CancelToken* cancel = nullptr,
                                  BnbScratch* scratch = nullptr);

/// Same solve, but the committed context arrives as the live WeightEvaluator
/// maintaining it: the preload multiplicities are read off
/// `committed.multiplicity(t)` for exactly the candidate-covered tags,
/// instead of re-walking every committed member's coverage row per call
/// (which is quadratic in picks over a growth run).  Bit-identical search
/// — same counts, same bounds, same nodes — at O(candidate coverage) setup.
BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit,
                                  const core::WeightEvaluator& committed,
                                  const ckpt::CancelToken* cancel = nullptr,
                                  BnbScratch* scratch = nullptr);

/// Exact one-shot scheduler over all readers.  Exponential in the worst
/// case — intended for tests and small-n ablations, not the paper-scale
/// sweeps.
class ExactScheduler final : public OneShotScheduler {
 public:
  explicit ExactScheduler(std::int64_t node_limit = 0)
      : node_limit_(node_limit) {}

  std::string name() const override { return "Exact"; }
  OneShotResult schedule(const core::System& sys) override;

 private:
  std::int64_t node_limit_;
};

}  // namespace rfid::sched
