#include "sched/exact.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

#include "core/weight.h"
#include "obs/timer.h"

namespace rfid::sched {

namespace {

using core::BitEntry;

constexpr std::uint64_t kOne = 1;

/// Assigns exploration positions once `s.rows` holds every candidate's row:
/// descending row size, ties in caller order (stable).  Also zeroes the
/// conflict masks that addConflict fills.
void orderCandidates(BnbScratch& s, int n) {
  s.order.resize(static_cast<std::size_t>(n));
  s.rank.resize(static_cast<std::size_t>(n));
  s.size.resize(static_cast<std::size_t>(n));
  std::iota(s.order.begin(), s.order.end(), 0);
  int* order = s.order.data();
  int* rank = s.rank.data();
  // Row sizes in caller order, parked in `rank` until the relabelling.
  for (int i = 0; i < n; ++i) {
    rank[i] = 0;
    for (std::uint32_t e = s.row_off[static_cast<std::size_t>(i)];
         e < s.row_off[static_cast<std::size_t>(i) + 1]; ++e) {
      rank[i] += std::popcount(s.rows[e].bits);
    }
  }
  // Stable insertion sort, descending: instances are small, and unlike
  // std::stable_sort it allocates no merge buffer per call.
  for (int i = 1; i < n; ++i) {
    const int c = order[i];
    int j = i;
    for (; j > 0 && rank[order[j - 1]] < rank[c]; --j) order[j] = order[j - 1];
    order[j] = c;
  }
  for (int p = 0; p < n; ++p) s.size[static_cast<std::size_t>(p)] = rank[order[p]];
  for (int p = 0; p < n; ++p) rank[order[p]] = p;
  const std::size_t cw = (static_cast<std::size_t>(n) + 63) / 64;
  s.adj.assign(static_cast<std::size_t>(n) * cw, 0);
}

/// Records that picking caller candidate `i` forbids caller candidate `j`.
void addConflict(BnbScratch& s, int n, int i, int j) {
  const std::size_t cw = (static_cast<std::size_t>(n) + 63) / 64;
  const auto pi = static_cast<std::size_t>(s.rank[static_cast<std::size_t>(i)]);
  const auto pj = static_cast<std::size_t>(s.rank[static_cast<std::size_t>(j)]);
  s.adj[pi * cw + pj / 64] |= kOne << (pj % 64);
}

/// Word-parallel branch & bound over an instance assembled in a
/// BnbScratch: rows over instance-local word slots, the preload folded into
/// `once`/`twice`, candidates ordered and conflicts recorded.
///
/// The state is a saturating tag multiplicity (`once` = covered at least
/// once, `twice` = at least twice; only 0→1 (+1) and 1→2 (−1) move the
/// weight) plus, per depth, the set of candidate positions some pick
/// conflicts with.  A push costs O(row words + candidate words) and saves
/// the row's once/twice words, which the pop writes back.
class Search {
 public:
  Search(BnbScratch& s, int n, std::int64_t node_limit,
         const ckpt::CancelToken* cancel)
      : s_(s), n_(n), cw_((static_cast<std::size_t>(n) + 63) / 64),
        node_limit_(node_limit), cancel_(cancel) {
    for (std::size_t w = 0; w < s_.universe.size(); ++w) {
      unclaimed_ += std::popcount(s_.universe[w] & ~s_.once[w]);
    }
    // Depth d's blocked set lives at blocked[d * cw]; the bits past n are
    // born blocked so the bound's scans never see them.
    s_.blocked.assign((static_cast<std::size_t>(n) + 1) * cw_, 0);
    if (n % 64 != 0) s_.blocked[cw_ - 1] = ~std::uint64_t{0} << (n % 64);
    s_.undo.resize(2 * s_.rows.size());
    s_.chosen.clear();
    s_.best.clear();
  }

  BnbResult run() {
    recurse(0);
    for (int& m : s_.best) m = s_.order[static_cast<std::size_t>(m)];
    std::sort(s_.best.begin(), s_.best.end());
    return {s_.best, best_weight_, nodes_, !budget_hit_};
  }

 private:
  const std::uint64_t* blockedAt(std::size_t depth) const {
    return s_.blocked.data() + depth * cw_;
  }

  bool isBlocked(std::size_t depth, int pos) const {
    const auto p = static_cast<std::size_t>(pos);
    return (blockedAt(depth)[p / 64] >> (p % 64) & kOne) != 0;
  }

  /// Picks position `pos` at depth `depth`, saving the row's once/twice
  /// words on the undo stack from `top`; returns the new top.
  std::size_t pushCandidate(int pos, std::size_t depth, std::size_t top) {
    const std::uint64_t* cur = blockedAt(depth);
    std::uint64_t* next = s_.blocked.data() + (depth + 1) * cw_;
    const std::uint64_t* conflicts = s_.adj.data() + static_cast<std::size_t>(pos) * cw_;
    for (std::size_t w = 0; w < cw_; ++w) next[w] = cur[w] | conflicts[w];
    const int c = s_.order[static_cast<std::size_t>(pos)];
    for (std::uint32_t e = s_.row_off[static_cast<std::size_t>(c)];
         e < s_.row_off[static_cast<std::size_t>(c) + 1]; ++e) {
      const BitEntry& r = s_.rows[e];
      const std::uint64_t o = s_.once[r.word];
      const std::uint64_t t = s_.twice[r.word];
      s_.undo[top++] = o;
      s_.undo[top++] = t;
      const int fresh = std::popcount(r.bits & ~o);
      weight_ += fresh - std::popcount(r.bits & o & ~t);
      unclaimed_ -= fresh;
      s_.once[r.word] = o | r.bits;
      s_.twice[r.word] = t | (o & r.bits);
    }
    s_.chosen.push_back(pos);
    return top;
  }

  /// Writes back the words the last push saved from `top` on; the caller
  /// restores the weight and unclaimed count it held before the push.
  void popCandidate(std::size_t top) {
    const int c = s_.order[static_cast<std::size_t>(s_.chosen.back())];
    s_.chosen.pop_back();
    for (std::uint32_t e = s_.row_off[static_cast<std::size_t>(c)];
         e < s_.row_off[static_cast<std::size_t>(c) + 1]; ++e) {
      const std::uint32_t slot = s_.rows[e].word;
      s_.once[slot] = s_.undo[top++];
      s_.twice[slot] = s_.undo[top++];
    }
  }

  /// Admissible bound, the tighter of two relaxations:
  ///  (a) adding candidate c raises the weight by at most its row size,
  ///      summed over the undecided positions ≥ pos no pick conflicts with;
  ///  (b) the weight can only grow by claiming currently-unclaimed tags,
  ///      so no completion gains more than `unclaimed_` in total.
  /// (b) is what kills the combinatorial tail on dense instances, where
  /// nearly every tag is already covered once and (a) stays huge.
  int suffixBound(int pos, std::size_t depth) const {
    const std::uint64_t* blocked = blockedAt(depth);
    int b = 0;
    for (auto w = static_cast<std::size_t>(pos) / 64; w < cw_; ++w) {
      std::uint64_t open = ~blocked[w];
      if (w == static_cast<std::size_t>(pos) / 64) {
        open &= ~std::uint64_t{0} << (pos % 64);
      }
      for (; open != 0; open &= open - 1) {
        b += s_.size[w * 64 + static_cast<std::size_t>(std::countr_zero(open))];
        if (b >= unclaimed_) return unclaimed_;
      }
    }
    return b;
  }

  void recurse(int pos, std::size_t depth = 0, std::size_t top = 0) {
    ++nodes_;
    if (node_limit_ > 0 && nodes_ > node_limit_) {
      budget_hit_ = true;
      return;
    }
    // Cooperative cancellation rides the node-budget path: poll every 4096
    // nodes (an atomic load is cheap, a steady_clock read is not) and bail
    // with the best incumbent found so far.
    if (cancel_ != nullptr && (nodes_ & 4095) == 0 && cancel_->cancelled()) {
      budget_hit_ = true;
      return;
    }
    if (weight_ > best_weight_) {
      best_weight_ = weight_;
      s_.best = s_.chosen;
    }
    if (pos >= n_) return;
    if (weight_ + suffixBound(pos, depth) <= best_weight_) return;  // prune

    if (!isBlocked(depth, pos)) {
      const int weight = weight_;
      const int unclaimed = unclaimed_;
      recurse(pos + 1, depth + 1, pushCandidate(pos, depth, top));
      popCandidate(top);
      weight_ = weight;
      unclaimed_ = unclaimed;
      if (budget_hit_) return;
    }
    recurse(pos + 1, depth, top);
  }

  BnbScratch& s_;
  int n_;
  std::size_t cw_;  // 64-candidate words per blocked / conflict mask
  std::int64_t node_limit_;
  const ckpt::CancelToken* cancel_;
  int unclaimed_ = 0;  // candidate tags with multiplicity 0 (incl. preload)
  int weight_ = 0;
  int best_weight_ = 0;  // the empty set has weight 0
  std::int64_t nodes_ = 0;
  bool budget_hit_ = false;
};

/// Sizes the per-slot state for `w` slots, all zero.
void resetSlots(BnbScratch& s, std::size_t w) {
  s.universe.assign(w, 0);
  s.once.assign(w, 0);
  s.twice.assign(w, 0);
}

/// Folds one preloaded coverer's bits into once/twice.
void preloadBits(BnbScratch& s, std::uint32_t slot, std::uint64_t bits) {
  s.twice[slot] |= s.once[slot] & bits;
  s.once[slot] |= bits;
}

}  // namespace

BnbResult solveLocal(const LocalProblem& problem, std::int64_t node_limit,
                     const ckpt::CancelToken* cancel, BnbScratch* scratch) {
  assert(problem.adj.size() == problem.coverage.size());
  BnbScratch local;  // empty vectors; a scratch-less call allocates as before
  BnbScratch& s = scratch != nullptr ? *scratch : local;
  const int n = static_cast<int>(problem.adj.size());
  // Densify tag ids once: dense id = rank among the ids any row lists, so
  // slot d/64 bit d%64.  Ids feed only the multiplicity bitsets, so any
  // bijection gives the same search.
  std::vector<int>& ids = s.ids;
  ids.clear();
  for (const auto& cov : problem.coverage) ids.insert(ids.end(), cov.begin(), cov.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto dense = [&ids](int t) {
    return static_cast<std::size_t>(std::lower_bound(ids.begin(), ids.end(), t) -
                                    ids.begin());
  };
  resetSlots(s, (ids.size() + 63) / 64);
  s.rows.clear();
  s.row_off.assign(1, 0);
  for (const auto& cov : problem.coverage) {
    // Accumulate the row in `twice` (zero until the preload), then emit
    // its words and zero them again.
    for (const int t : cov) {
      const std::size_t d = dense(t);
      if (s.twice[d / 64] == 0) s.touched.push_back(static_cast<int>(d / 64));
      s.twice[d / 64] |= kOne << (d % 64);
    }
    for (const int w : s.touched) {
      const auto slot = static_cast<std::uint32_t>(w);
      s.rows.push_back({slot, 0, s.twice[slot]});
      s.universe[slot] |= s.twice[slot];
      s.twice[slot] = 0;
    }
    s.touched.clear();
    s.row_off.push_back(static_cast<std::uint32_t>(s.rows.size()));
  }
  // Preloaded context coverage; ids that no candidate covers are irrelevant.
  for (const int t : problem.preload) {
    const std::size_t d = dense(t);
    if (d < ids.size() && ids[d] == t) {
      preloadBits(s, static_cast<std::uint32_t>(d / 64), kOne << (d % 64));
    }
  }
  orderCandidates(s, n);
  for (int i = 0; i < n; ++i) {
    for (const int u : problem.adj[static_cast<std::size_t>(i)]) addConflict(s, n, i, u);
  }
  return Search(s, n, node_limit, cancel).run();
}

namespace {

/// Fills the scratch rows from `candidates`' bitmap rows masked by the
/// read-state, with instance-local slots for the distinct words they touch
/// (ascending by source word), and records the conflict edges.  Leaves the
/// preload empty; each overload owns its preload semantics.
void assembleInstance(const core::System& sys, std::span<const int> candidates,
                      BnbScratch& s) {
  const int n = static_cast<int>(candidates.size());
  const std::span<const std::uint64_t> read = sys.readBits();
  s.rows.clear();
  s.row_off.assign(1, 0);
  s.words.clear();
  for (const int v : candidates) {
    for (const BitEntry& e : sys.bitRow(v)) {
      const std::uint64_t bits = e.bits & ~read[e.word];
      if (bits == 0) continue;
      s.rows.push_back({e.word, 0, bits});
      s.words.push_back(e.word);
    }
    s.row_off.push_back(static_cast<std::uint32_t>(s.rows.size()));
  }
  std::sort(s.words.begin(), s.words.end());
  s.words.erase(std::unique(s.words.begin(), s.words.end()), s.words.end());
  resetSlots(s, s.words.size());
  for (BitEntry& r : s.rows) {
    r.word = static_cast<std::uint32_t>(
        std::lower_bound(s.words.begin(), s.words.end(), r.word) - s.words.begin());
    s.universe[r.word] |= r.bits;
  }
  orderCandidates(s, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!sys.independent(candidates[static_cast<std::size_t>(i)],
                           candidates[static_cast<std::size_t>(j)])) {
        addConflict(s, n, i, j);
        addConflict(s, n, j, i);
      }
    }
  }
}

/// Runs the search and translates local indices back to reader indices.
BnbResult searchCandidates(std::span<const int> candidates,
                           std::int64_t node_limit,
                           const ckpt::CancelToken* cancel, BnbScratch& s) {
  BnbResult res =
      Search(s, static_cast<int>(candidates.size()), node_limit, cancel).run();
  for (int& m : res.members) m = candidates[static_cast<std::size_t>(m)];
  std::sort(res.members.begin(), res.members.end());
  return res;
}

}  // namespace

BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit,
                                  std::span<const int> committed,
                                  const ckpt::CancelToken* cancel,
                                  BnbScratch* scratch) {
  BnbScratch local;
  BnbScratch& s = scratch != nullptr ? *scratch : local;
  assembleInstance(sys, candidates, s);
  const std::span<const std::uint64_t> read = sys.readBits();
  for (const int c : committed) {
    for (const BitEntry& e : sys.bitRow(c)) {
      const auto it = std::lower_bound(s.words.begin(), s.words.end(), e.word);
      if (it == s.words.end() || *it != e.word) continue;
      preloadBits(s, static_cast<std::uint32_t>(it - s.words.begin()),
                  e.bits & ~read[e.word]);
    }
  }
  return searchCandidates(candidates, node_limit, cancel, s);
}

BnbResult maxWeightFeasibleSubset(const core::System& sys,
                                  std::span<const int> candidates,
                                  std::int64_t node_limit,
                                  const core::WeightEvaluator& committed,
                                  const ckpt::CancelToken* cancel,
                                  BnbScratch* scratch) {
  assert(&committed.system() == &sys);
  BnbScratch local;
  BnbScratch& s = scratch != nullptr ? *scratch : local;
  assembleInstance(sys, candidates, s);
  // Context multiplicities come straight off the evaluator, for exactly
  // the tags some candidate covers.
  for (std::uint32_t slot = 0; slot < s.words.size(); ++slot) {
    const std::uint32_t base = s.words[slot] * 64;
    for (std::uint64_t b = s.universe[slot]; b != 0; b &= b - 1) {
      const int m = committed.multiplicity(
          sys.bitTag(base + static_cast<std::uint32_t>(std::countr_zero(b))));
      const std::uint64_t bit = b & -b;
      if (m >= 1) s.once[slot] |= bit;
      if (m >= 2) s.twice[slot] |= bit;
    }
  }
  return searchCandidates(candidates, node_limit, cancel, s);
}

OneShotResult ExactScheduler::schedule(const core::System& sys) {
  obs::ScopedTimer sched_span(trace() != nullptr ? metrics() : nullptr,
                              "exact.schedule_us", trace(),
                              "exact.schedule");
  std::vector<int> all(static_cast<std::size_t>(sys.numReaders()));
  std::iota(all.begin(), all.end(), 0);
  const BnbResult res =
      maxWeightFeasibleSubset(sys, all, node_limit_, {}, cancelToken());
  recordScheduleMetrics(res.nodes, sys.numReaders());
  {
    obs::CostBill b;
    b.bnb_nodes = res.nodes;
    b.csr_rows = static_cast<std::int64_t>(all.size());
    chargeCost("exact.bnb", b);
  }
  return {res.members, res.weight};
}

}  // namespace rfid::sched
