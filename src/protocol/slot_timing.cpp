#include "protocol/slot_timing.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "analysis/parallel.h"
#include "protocol/aloha.h"
#include "protocol/tree_walking.h"

namespace rfid::protocol {

namespace {

/// Bits needed to separate all EPCs in the system.
int epcBits(const core::System& sys) {
  std::uint64_t mx = 1;
  for (const core::Tag& t : sys.tags()) mx = std::max(mx, t.epc);
  return std::max(1, 64 - std::countl_zero(mx));
}

}  // namespace

SlotTimingResult timeSchedule(core::System& sys,
                              const sched::McsResult& schedule,
                              Arbitration arbitration, workload::Rng rng) {
  SlotTimingResult res;
  sys.resetReads();
  const int bits = epcBits(sys);

  for (const sched::SlotRecord& slot : schedule.schedule) {
    // Recover which tags each active reader serves this slot.
    const std::vector<int> served = sys.wellCoveredTags(slot.active);
    std::int64_t slot_max = 0;
    for (const int v : slot.active) {
      // Tags of v among the served set (exclusive coverage ⇒ unique owner).
      std::vector<std::uint64_t> epcs;
      for (const int t : sys.coverage(v)) {
        if (std::binary_search(served.begin(), served.end(), t)) {
          epcs.push_back(sys.tag(t).epc);
        }
      }
      if (epcs.empty()) continue;
      std::int64_t cost = 0;
      if (arbitration == Arbitration::kAloha) {
        workload::Rng reader_rng = rng.split("aloha", static_cast<std::uint64_t>(
            res.macro_slots * 1000 + v));
        cost = runAloha(static_cast<int>(epcs.size()), reader_rng).micro_slots;
      } else {
        cost = runTreeWalk(epcs, bits).probes;
      }
      slot_max = std::max(slot_max, cost);
      res.micro_slots_serial += cost;
    }
    res.micro_slots += slot_max;
    ++res.macro_slots;
    res.tags_read += static_cast<int>(served.size());
    sys.markRead(served);
  }
  return res;
}

const char* linkName(Link link) {
  switch (link) {
    case Link::kUnit:
      return "unit";
    case Link::kAloha:
      return "aloha";
    case Link::kTreeWalk:
      return "tree";
    case Link::kGen2:
      return "gen2";
  }
  return "?";
}

bool parseLink(std::string_view text, Link& out) {
  if (text == "unit") {
    out = Link::kUnit;
  } else if (text == "aloha") {
    out = Link::kAloha;
  } else if (text == "tree") {
    out = Link::kTreeWalk;
  } else if (text == "gen2") {
    out = Link::kGen2;
  } else {
    return false;
  }
  return true;
}

namespace {

/// Rounds take microseconds: fewer readers per worker cost more than a thread.
constexpr int kMinReadersPerWorker = 64;

/// Records the first check failure only: it names the earliest violation.
void failOnce(LinkTimingResult& res, const std::string& why) {
  if (res.check_ok) {
    res.check_ok = false;
    res.check_detail = why;
  }
}

void flushGen2Counters(const LinkTimingResult& res, obs::MetricsRegistry* m,
                       bool with_stale) {
  if (m == nullptr) return;
  m->counter("protocol.gen2.macro_slots").add(res.macro_slots);
  m->counter("protocol.gen2.frames").add(res.frames);
  m->counter("protocol.gen2.micro_slots").add(res.micro_slots_serial);
  m->counter("protocol.gen2.air_us").add(res.air_us);
  m->counter("protocol.gen2.air_us_serial").add(res.air_us_serial);
  m->counter("protocol.gen2.tags_identified").add(res.identified);
  m->counter("protocol.gen2.fresh_reads").add(res.tags_read);
  m->counter("protocol.gen2.session_skips").add(res.session_skips);
  if (with_stale) {
    m->counter("protocol.gen2.stale_repliers").add(res.stale_repliers);
  }
  m->counter("protocol.gen2.double_identifications")
      .add(res.double_identifications);
}

}  // namespace

LinkTimingResult timeScheduleLink(core::System& sys,
                                  const sched::McsResult& schedule,
                                  const LinkOptions& opt, workload::Rng rng) {
  LinkTimingResult res;
  res.link = opt.link;
  if (opt.link == Link::kGen2) {
    sys.resetReads();
    const std::size_t n = static_cast<std::size_t>(sys.numTags());
    // The replay never marks reads on `sys`, so wellCoveredTags yields each
    // slot's *physical* population (stale repliers included); the ledger
    // tracks the schedule's own read-state to tell fresh reads from stale.
    Gen2SlotReplayer::Ledger ledger{
        std::vector<char>(n, 0),
        std::vector<int>(n, std::numeric_limits<int>::min() / 2)};
    Gen2SlotReplayer replayer(sys, opt.gen2, opt.num_threads);
    int slot_idx = 0;
    for (const sched::SlotRecord& slot : schedule.schedule) {
      replayer.replay(slot_idx++, slot.active,
                      sys.wellCoveredTags(slot.active), slot.tags_read, rng,
                      &ledger, res);
    }
    // Leave `sys` fully re-marked, matching the timeSchedule contract.
    for (std::size_t t = 0; t < n; ++t) {
      if (ledger.read[t] != 0) sys.markRead(static_cast<int>(t));
    }
    flushGen2Counters(res, opt.metrics, /*with_stale=*/true);
    return res;
  }
  if (opt.link == Link::kUnit) {
    // The paper's unit-cost slot: one micro-slot per macro-slot.  Replay
    // only to recover the tag count; no link state, no air-time model.
    sys.resetReads();
    for (const sched::SlotRecord& slot : schedule.schedule) {
      const std::vector<int> served = sys.wellCoveredTags(slot.active);
      res.tags_read += static_cast<int>(served.size());
      res.micro_slots += 1;
      res.micro_slots_serial += static_cast<std::int64_t>(slot.active.size());
      ++res.macro_slots;
      sys.markRead(served);
    }
    return res;
  }
  const Arbitration arb = opt.link == Link::kAloha ? Arbitration::kAloha
                                                   : Arbitration::kTreeWalk;
  const SlotTimingResult st = timeSchedule(sys, schedule, arb, rng);
  res.macro_slots = st.macro_slots;
  res.micro_slots = st.micro_slots;
  res.micro_slots_serial = st.micro_slots_serial;
  res.tags_read = st.tags_read;
  res.air_us = st.micro_slots * opt.t_micro_us;
  res.air_us_serial = st.micro_slots_serial * opt.t_micro_us;
  return res;
}

Gen2SlotReplayer::Gen2SlotReplayer(const core::System& sys,
                                   const Gen2Options& opt, int num_threads)
    : sys_(&sys),
      opt_(opt),
      threads_(std::max(1, num_threads > 0
                               ? num_threads
                               : static_cast<int>(
                                     std::thread::hardware_concurrency()))),
      persist_(persistenceSlots(opt)),
      persistence_check_(!opt.alternate_target &&
                         (opt.session == Gen2Session::kS2 ||
                          opt.session == Gen2Session::kS3)),
      owner_pos_(static_cast<std::size_t>(sys.numReaders()), -1) {
  opt_.metrics = nullptr;  // totals are flushed once per run
  opt_.trace = nullptr;
  // Sized before any fan-out, so rounds never resize it concurrently.
  session_.ensure(static_cast<std::size_t>(sys.numTags()));
}

void Gen2SlotReplayer::replay(int slot, std::span<const int> active,
                              std::span<const int> population, int credited,
                              const workload::Rng& rng, Ledger* ledger,
                              LinkTimingResult& res) {
  session_.startSlot(slot, opt_);

  // Group the population by its unique active owner: a stable counting
  // sort, so each owner's tags keep population order.
  const std::size_t na = active.size();
  for (std::size_t i = 0; i < na; ++i) {
    owner_pos_[static_cast<std::size_t>(active[i])] = static_cast<int>(i);
  }
  owner_of_.assign(population.size(), -1);
  pop_start_.assign(na + 2, 0);
  for (std::size_t j = 0; j < population.size(); ++j) {
    for (const int v : sys_->coverers(population[j])) {
      const int pos = owner_pos_[static_cast<std::size_t>(v)];
      if (pos >= 0) {
        owner_of_[j] = pos;
        ++pop_start_[static_cast<std::size_t>(pos) + 2];
        break;  // exactly-one coverage ⇒ unique active coverer
      }
    }
  }
  for (const int v : active) owner_pos_[static_cast<std::size_t>(v)] = -1;
  std::partial_sum(pop_start_.begin(), pop_start_.end(), pop_start_.begin());
  pop_.resize(static_cast<std::size_t>(pop_start_.back()));
  for (std::size_t j = 0; j < population.size(); ++j) {
    if (owner_of_[j] < 0) continue;
    pop_[static_cast<std::size_t>(
        pop_start_[static_cast<std::size_t>(owner_of_[j]) + 1]++)] =
        population[j];
  }

  const int n = static_cast<int>(na);
  const int workers = std::clamp(
      (n + kMinReadersPerWorker - 1) / kMinReadersPerWorker, 1, threads_);
  // One reduction per worker, over its contiguous chunk of the active set;
  // air_us/micro_slots hold the chunk's maxes, tags_read its fresh reads.
  std::vector<LinkTimingResult> partials(static_cast<std::size_t>(workers));
  const workload::Rng slot_rng =
      rng.split("gen2.slot", static_cast<std::uint64_t>(slot));
  analysis::parallelForChunks(
      0, n,
      [&](int worker, int lo, int hi) {
        replayChunk(lo, hi, slot, active, slot_rng, ledger,
                    partials[static_cast<std::size_t>(worker)]);
      },
      workers);

  // Merge in worker order: worker w holds a lower active range than w + 1.
  std::int64_t slot_max_us = 0;
  std::int64_t slot_max_micro = 0;
  int fresh = 0;
  for (const LinkTimingResult& p : partials) {
    slot_max_us = std::max(slot_max_us, p.air_us);
    slot_max_micro = std::max(slot_max_micro, p.micro_slots);
    res.micro_slots_serial += p.micro_slots_serial;
    res.air_us_serial += p.air_us_serial;
    res.frames += p.frames;
    res.session_skips += p.session_skips;
    res.identified += p.identified;
    res.stale_repliers += p.stale_repliers;
    res.double_identifications += p.double_identifications;
    // Without a ledger (the stream) every identification is a fresh read.
    fresh += ledger != nullptr ? p.tags_read : static_cast<int>(p.identified);
    if (!p.check_ok) failOnce(res, p.check_detail);
  }
  if (fresh != credited) {
    failOnce(res, "gen2: slot " + std::to_string(slot) + " identified " +
                      std::to_string(fresh) +
                      " fresh tag(s) but the schedule recorded " +
                      std::to_string(credited));
  }
  res.tags_read += fresh;
  res.air_us += slot_max_us;
  res.micro_slots += slot_max_micro;
  ++res.macro_slots;
}

void Gen2SlotReplayer::replayChunk(int lo, int hi, int slot,
                                   std::span<const int> active,
                                   const workload::Rng& slot_rng,
                                   Ledger* ledger, LinkTimingResult& p) {
  Gen2Scratch scratch;  // reused by every round of the chunk
  Gen2RoundResult r;
  for (int i = lo; i < hi; ++i) {
    const auto ii = static_cast<std::size_t>(i);
    const std::span<const int> pop(pop_.data() + pop_start_[ii],
                                   pop_.data() + pop_start_[ii + 1]);
    if (pop.empty()) continue;
    const int v = active[ii];
    workload::Rng reader_rng =
        slot_rng.split("gen2.reader", static_cast<std::uint64_t>(v));
    // The co-simulation pins target A: alternating targets would suppress
    // fresh tags every other macro-slot, which the covering schedule's
    // read requirement cannot absorb (docs/protocol.md).
    runGen2Round(pop, session_, slot, Gen2Target::kA, reader_rng, opt_,
                 scratch, r);
    p.air_us = std::max(p.air_us, r.air_us);
    p.micro_slots = std::max(p.micro_slots, r.micro_slots);
    p.micro_slots_serial += r.micro_slots;
    p.air_us_serial += r.air_us;
    p.frames += r.frames;
    p.session_skips += r.session_skips;
    p.identified += static_cast<std::int64_t>(r.identified.size());
    if (r.double_identified) {
      ++p.double_identifications;
      failOnce(p, "gen2: reader " + std::to_string(v) +
                      " acknowledged a tag twice in one round (slot " +
                      std::to_string(slot) + ")");
    }
    if (!r.completed) {
      failOnce(p, "gen2: reader " + std::to_string(v) +
                      " round incomplete at slot " + std::to_string(slot) +
                      " (safety cap hit with repliers unresolved)");
    }
    if (ledger == nullptr) continue;
    // Populations are disjoint, so no other worker touches these tags.
    for (const int t : r.identified) {
      const auto ti = static_cast<std::size_t>(t);
      int& last = ledger->last_ident[ti];
      if (persistence_check_ && slot - last <= persist_) {
        failOnce(p, "gen2: tag " + std::to_string(t) +
                        " re-identified at slot " + std::to_string(slot) +
                        ", " + std::to_string(slot - last) +
                        " slot(s) after its last read, inside the session "
                        "persistence window (" +
                        std::to_string(persist_) + ")");
      }
      last = slot;
      if (ledger->read[ti] != 0) {
        ++p.stale_repliers;
      } else {
        ledger->read[ti] = 1;
        ++p.tags_read;
      }
    }
  }
}

Gen2LinkTimer::Gen2LinkTimer(const core::System& sys, const Gen2Options& opt,
                             workload::Rng rng)
    : rng_(rng), replayer_(sys, opt, /*num_threads=*/1) {
  res_.link = Link::kGen2;
}

void Gen2LinkTimer::onSlot(int slot, std::span<const int> active,
                           std::span<const int> served) {
  replayer_.replay(slot, active, served, static_cast<int>(served.size()), rng_,
                   nullptr, res_);
}

void Gen2LinkTimer::flushMetrics(obs::MetricsRegistry* metrics) const {
  flushGen2Counters(res_, metrics, /*with_stale=*/false);
}

}  // namespace rfid::protocol
