#include "protocol/gen2.h"

#include <algorithm>
#include <cmath>

namespace rfid::protocol {

namespace {

int clampQ(int q) { return std::clamp(q, 0, 15); }

}  // namespace

int persistenceSlots(const Gen2Options& opt) {
  switch (opt.session) {
    case Gen2Session::kS0:
      return 0;
    case Gen2Session::kS1:
      return 1;
    case Gen2Session::kS2:
    case Gen2Session::kS3:
      return std::max(0, opt.persistence);
  }
  return 0;
}

Gen2Target roundTarget(const Gen2Options& opt, int macro_slot) {
  if (opt.alternate_target && macro_slot % 2 == 1) return Gen2Target::kB;
  return Gen2Target::kA;
}

void Gen2SessionState::ensure(std::size_t num_tags) {
  if (flag_b_.size() < num_tags) {
    flag_b_.resize(num_tags, 0);
    stamp_.resize(num_tags, -1);
  }
}

void Gen2SessionState::startSlot(int macro_slot, const Gen2Options& opt) {
  const int persist = persistenceSlots(opt);
  for (std::size_t t = 0; t < flag_b_.size(); ++t) {
    if (flag_b_[t] != 0 && macro_slot - stamp_[t] > persist) {
      flag_b_[t] = 0;
      stamp_[t] = -1;
    }
  }
}

void Gen2SessionState::onAck(int t, int macro_slot, Gen2Target target) {
  const auto i = static_cast<std::size_t>(t);
  if (target == Gen2Target::kA) {
    flag_b_[i] = 1;
    stamp_[i] = macro_slot;
  } else {
    flag_b_[i] = 0;
    stamp_[i] = -1;
  }
}

Gen2RoundResult runGen2Round(std::span<const int> population,
                             Gen2SessionState& session, int macro_slot,
                             Gen2Target target, workload::Rng& rng,
                             const Gen2Options& opt) {
  Gen2Scratch scratch;
  Gen2RoundResult res;
  runGen2Round(population, session, macro_slot, target, rng, opt, scratch,
               res);
  return res;
}

void runGen2Round(std::span<const int> population, Gen2SessionState& session,
                  int macro_slot, Gen2Target target, workload::Rng& rng,
                  const Gen2Options& opt, Gen2Scratch& scratch,
                  Gen2RoundResult& res) {
  std::vector<int> identified = std::move(res.identified);
  identified.clear();
  res = Gen2RoundResult{};
  res.identified = std::move(identified);
  int max_id = -1;
  for (const int t : population) max_id = std::max(max_id, t);
  session.ensure(static_cast<std::size_t>(max_id + 1));

  // Participants: tags whose session flag matches the round target.
  std::vector<int>& pending = scratch.pending;
  pending.clear();
  const bool want_b = target == Gen2Target::kB;
  for (const int t : population) {
    if (session.flagB(t) == want_b) {
      pending.push_back(t);
    } else {
      ++res.session_skips;
    }
  }
  if (pending.empty()) {
    // All suppressed: the slot is silent and charges nothing (deviation
    // from the spec's empty Query — see docs/protocol.md).
    res.completed = true;
    return;
  }

  const int k = std::max(1, opt.mpr_k);
  double qfp = clampQ(opt.q0);
  int q = clampQ(opt.q0);
  std::vector<int>& backlog = scratch.backlog;
  std::vector<int>& draw = scratch.draw;
  std::vector<int>& start = scratch.start;
  std::vector<int>& flat = scratch.flat;

  while (!pending.empty() && res.frames < opt.max_frames &&
         res.micro_slots < opt.max_micro_slots) {
    const int frame = 1 << q;
    ++res.frames;
    res.air_us += opt.t_query_us;
    // Stable counting sort by drawn micro-slot, one draw per pending tag in
    // pending order: micro-slot s holds flat[start[s], start[s + 1]).
    const auto slots = static_cast<std::size_t>(frame);
    draw.resize(pending.size());
    start.assign(slots + 2, 0);
    for (std::size_t i = 0; i < pending.size(); ++i) {
      draw[i] = rng.uniformInt(0, frame - 1);
      ++start[static_cast<std::size_t>(draw[i]) + 2];
    }
    for (std::size_t s = 2; s < start.size(); ++s) start[s] += start[s - 1];
    flat.resize(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      flat[static_cast<std::size_t>(
          start[static_cast<std::size_t>(draw[i]) + 1]++)] = pending[i];
    }
    backlog.clear();
    int frame_collisions = 0;
    int frame_singles = 0;
    int frame_empties = 0;
    std::size_t s = 0;
    for (; s < slots; ++s) {
      if (res.micro_slots >= opt.max_micro_slots) break;
      const std::span<const int> b(flat.data() + start[s],
                                   flat.data() + start[s + 1]);
      ++res.micro_slots;
      if (b.empty()) {
        ++res.empties;
        ++frame_empties;
        res.air_us += opt.t_empty_us;
        if (opt.policy == Gen2Policy::kQAlgorithm) {
          qfp = std::max(0.0, qfp - opt.c);
        }
      } else if (static_cast<int>(b.size()) <= k) {
        res.air_us += opt.t_success_us;
        if (b.size() == 1) {
          ++res.singles;
          ++frame_singles;
        } else {
          ++res.mpr_slots;
          res.mpr_resolved += static_cast<std::int64_t>(b.size());
        }
        for (const int t : b) {
          session.onAck(t, macro_slot, target);
          res.identified.push_back(t);
        }
      } else {
        ++res.collisions;
        ++frame_collisions;
        res.air_us += opt.t_collision_us;
        backlog.insert(backlog.end(), b.begin(), b.end());
        if (opt.policy == Gen2Policy::kQAlgorithm) {
          qfp = std::min(15.0, qfp + opt.c);
        }
      }
      if (opt.policy == Gen2Policy::kQAlgorithm) {
        const int nq = clampQ(static_cast<int>(std::lround(qfp)));
        if (nq != q) {
          // QueryAdjust: abort the frame; unresolved tags redraw next frame.
          q = nq;
          ++res.adjusts;
          ++s;
          break;
        }
      }
    }
    // Tags in slots the aborted/capped frame never reached redraw too; those
    // slots are one contiguous tail of `flat`.
    backlog.insert(backlog.end(), flat.begin() + start[s], flat.end());
    pending.swap(backlog);

    if (opt.policy == Gen2Policy::kAfsa && !pending.empty()) {
      // Improved-AFSA estimate: a collision slot hides ≈ 2.39 tags.
      const double estimate =
          std::max(1.0, 2.39 * static_cast<double>(frame_collisions));
      const int nq = clampQ(static_cast<int>(std::ceil(std::log2(estimate))));
      if (nq != q) {
        q = nq;
        ++res.adjusts;
      }
    }

    if (opt.trace != nullptr) {
      opt.trace->instant(
          obs::EventKind::kFrame, "gen2.frame",
          {{"frame", static_cast<double>(res.frames)},
           {"q", static_cast<double>(q)},
           {"singles", static_cast<double>(frame_singles)},
           {"collisions", static_cast<double>(frame_collisions)},
           {"empties", static_cast<double>(frame_empties)},
           {"backlog", static_cast<double>(pending.size())}});
    }
  }
  res.completed = pending.empty();
  // Self-check keyed by tag id: a tag acknowledged twice shows up as two
  // equal neighbours once the round's identifications are sorted.
  std::vector<int>& sorted = scratch.sorted;
  sorted.assign(res.identified.begin(), res.identified.end());
  std::sort(sorted.begin(), sorted.end());
  res.double_identified =
      std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();

  if (opt.metrics != nullptr) {
    opt.metrics->counter("protocol.gen2.frames").add(res.frames);
    opt.metrics->counter("protocol.gen2.adjusts").add(res.adjusts);
    opt.metrics->counter("protocol.gen2.micro_slots").add(res.micro_slots);
    opt.metrics->counter("protocol.gen2.singles").add(res.singles);
    opt.metrics->counter("protocol.gen2.collisions").add(res.collisions);
    opt.metrics->counter("protocol.gen2.empties").add(res.empties);
    opt.metrics->counter("protocol.gen2.mpr_slots").add(res.mpr_slots);
    opt.metrics->counter("protocol.gen2.mpr_resolved").add(res.mpr_resolved);
    opt.metrics->counter("protocol.gen2.session_skips").add(res.session_skips);
    opt.metrics->counter("protocol.gen2.tags_identified")
        .add(static_cast<std::int64_t>(res.identified.size()));
    opt.metrics->counter("protocol.gen2.air_us").add(res.air_us);
    opt.metrics->counter("protocol.gen2.double_identifications")
        .add(res.double_identified ? 1 : 0);
  }
}

}  // namespace rfid::protocol
