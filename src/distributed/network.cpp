#include "distributed/network.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rfid::dist {

std::uint32_t arenaOffset(std::size_t used, std::size_t len) {
  if (used > UINT32_MAX || len > UINT32_MAX - used) {
    throw std::length_error(
        "dist::Network: one round's payloads exceed 2^32 words (" +
        std::to_string(used) + " queued + " + std::to_string(len) + ")");
  }
  return static_cast<std::uint32_t>(used);
}

void Context::send(int to, int type, std::span<const int> data) {
  assert(std::find(neighbors_.begin(), neighbors_.end(), to) !=
             neighbors_.end() &&
         "messages travel only along interference-graph edges");
  net_->post(self_, std::span<const int>(&to, 1), type, data);
}

void Context::broadcast(int type, std::span<const int> data) {
  net_->post(self_, neighbors_, type, data);
}

bool Context::lossy() const { return net_->channel_ != nullptr; }

Network::Network(const graph::InterferenceGraph& topology,
                 std::vector<std::unique_ptr<NodeProgram>> programs)
    : topology_(&topology),
      programs_(std::move(programs)),
      inbox_off_(static_cast<std::size_t>(topology.numNodes()) + 2) {
  assert(static_cast<int>(programs_.size()) == topology.numNodes());
}

void Network::post(int from, std::span<const int> targets, int type,
                   std::span<const int> data) {
  if (targets.empty()) return;
  // `data` never aliases the send arena (programs only see receive-arena
  // spans), so appending to it cannot invalidate the source.
  const std::uint32_t off = arenaOffset(send_words_.size(), data.size());
  const auto len = static_cast<std::uint32_t>(data.size());
  send_words_.insert(send_words_.end(), data.begin(), data.end());
  if (channel_ == nullptr) {
    for (const int to : targets) send_hdr_.push_back({from, to, type, off, len});
    stats_.messages += static_cast<std::int64_t>(targets.size());
    stats_.payload_words += static_cast<std::int64_t>(targets.size()) * len;
    return;
  }
  // One channel decision per (sender, recipient) in recipient order: the
  // fault RNG stream sees exactly the sequence of single sends.
  for (const int to : targets) {
    delays_.clear();
    channel_->onSend(from, to, delays_);
    if (delays_.empty()) {
      ++stats_.dropped;
      continue;
    }
    const auto copies = static_cast<std::int64_t>(delays_.size());
    stats_.messages += copies;
    stats_.payload_words += copies * len;
    stats_.duplicated += copies - 1;
    for (const int extra : delays_) {
      if (extra <= 0) {
        send_hdr_.push_back({from, to, type, off, len});
      } else {
        ++stats_.delayed;
        delayed_.push_back(
            {extra, from, to, type, std::vector<int>(data.begin(), data.end())});
      }
    }
  }
}

std::size_t Network::deliver() {
  // Everything sent last round becomes this round's receive side; the old
  // receive side is dead (its spans expired with the previous round) and
  // becomes the new, empty send side.  clear() keeps the capacity.
  recv_words_.swap(send_words_);
  recv_hdr_.swap(send_hdr_);
  send_words_.clear();
  send_hdr_.clear();

  // Delayed copies now due follow the in-flight ones, in send order.
  if (!delayed_.empty()) {
    auto keep = delayed_.begin();
    for (auto it = delayed_.begin(); it != delayed_.end(); ++it) {
      // A copy with `rounds_left` extra rounds arrives that many rounds
      // *after* the normal one-round latency: deliver once the counter
      // goes negative, not when it reaches zero.
      if (--it->rounds_left < 0) {
        recv_hdr_.push_back({it->from, it->to, it->type,
                             arenaOffset(recv_words_.size(), it->data.size()),
                             static_cast<std::uint32_t>(it->data.size())});
        recv_words_.insert(recv_words_.end(), it->data.begin(),
                           it->data.end());
      } else {
        // Guard the no-op case: self-move-assignment empties the payload.
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    delayed_.erase(keep, delayed_.end());
  }

  // Stable counting sort on `to`.  Counts land two slots up so that after
  // the prefix sum inbox_off_[v+1] is v's fill cursor; once every message
  // is placed, inbox_off_[v] .. inbox_off_[v+1] is exactly v's range.
  std::fill(inbox_off_.begin(), inbox_off_.end(), 0);
  std::size_t live = 0;
  for (Header& h : recv_hdr_) {
    if (channel_ != nullptr && channel_->nodeDown(h.to)) {
      ++stats_.dead_drops;
      h.to = -1;  // discarded at a crashed node
      continue;
    }
    ++inbox_off_[static_cast<std::size_t>(h.to) + 2];
    ++live;
  }
  for (std::size_t i = 2; i < inbox_off_.size(); ++i) {
    inbox_off_[i] += inbox_off_[i - 1];
  }
  inbox_.resize(live);
  const int* words = recv_words_.data();
  for (const Header& h : recv_hdr_) {
    if (h.to < 0) continue;
    inbox_[inbox_off_[static_cast<std::size_t>(h.to) + 1]++] = {
        h.from, h.to, h.type, std::span<const int>(words + h.off, h.len)};
  }
  return recv_hdr_.size();
}

void Network::attachObs(obs::MetricsRegistry* metrics, obs::TraceSink* trace) {
  metrics_ = metrics;
  trace_ = trace;
}

Network::RunStats Network::run(int max_rounds,
                               const ckpt::CancelToken* cancel) {
  // Carry the channel counters' per-run slice cleanly: stats_ resets here,
  // but the send side and delayed_ may hold leftovers from a capped
  // previous run (long-lived protocol networks call run() repeatedly).
  stats_ = {};
  const int n = numNodes();

  // init(): programs may queue their first broadcasts.  Crashed nodes do
  // not boot.
  for (int v = 0; v < n; ++v) {
    if (channel_ != nullptr && channel_->nodeDown(v)) continue;
    Context ctx(*this, v, -1, topology_->neighbors(v));
    programs_[static_cast<std::size_t>(v)]->init(ctx);
  }

  for (int round = 0; round < max_rounds; ++round) {
    // Cancellation checkpoint at the round boundary: rounds are atomic, so
    // stopping here leaves every program and the wire in a coherent state.
    if (cancel != nullptr && cancel->cancelled()) break;
    // Deliver everything sent last round plus delayed copies now due.
    const std::size_t delivered = deliver();

    // Crashed nodes neither execute nor block quiescence: a program that
    // can never act again must not deadlock the rest of the network.
    bool all_done = true;
    for (int v = 0; v < n; ++v) {
      if (channel_ != nullptr && channel_->nodeDown(v)) continue;
      Context ctx(*this, v, round, topology_->neighbors(v));
      const std::size_t lo = inbox_off_[static_cast<std::size_t>(v)];
      const std::size_t hi = inbox_off_[static_cast<std::size_t>(v) + 1];
      programs_[static_cast<std::size_t>(v)]->onRound(
          ctx, std::span<const Message>(inbox_.data() + lo, hi - lo));
      all_done = all_done && programs_[static_cast<std::size_t>(v)]->isDone();
    }
    stats_.rounds = round + 1;

    if (trace_ != nullptr) {
      trace_->instant(
          obs::EventKind::kRound, "net.round",
          {{"round", static_cast<double>(round)},
           {"delivered", static_cast<double>(delivered)},
           {"in_flight", static_cast<double>(send_hdr_.size())},
           {"done", all_done && send_hdr_.empty() && delayed_.empty() ? 1.0
                                                                      : 0.0}});
    }

    // Quiescence needs the delayed queue empty too: a duplicated or
    // delayed copy is still on the wire even when every program is done.
    if (all_done && send_hdr_.empty() && delayed_.empty()) {
      stats_.all_done = true;
      break;
    }
  }

  totals_.rounds += stats_.rounds;
  totals_.messages += stats_.messages;
  totals_.payload_words += stats_.payload_words;
  totals_.dropped += stats_.dropped;
  totals_.duplicated += stats_.duplicated;
  totals_.delayed += stats_.delayed;
  totals_.dead_drops += stats_.dead_drops;
  totals_.all_done = stats_.all_done;
  if (metrics_ != nullptr) {
    metrics_->counter("net.rounds").add(stats_.rounds);
    metrics_->counter("net.messages").add(stats_.messages);
    metrics_->counter("net.payload_words").add(stats_.payload_words);
    metrics_->gauge("net.last_run_rounds")
        .set(static_cast<double>(stats_.rounds));
    metrics_->gauge("net.converged_round")
        .set(stats_.all_done ? static_cast<double>(stats_.rounds) : -1.0);
    if (channel_ != nullptr) {
      metrics_->counter("fault.net.dropped").add(stats_.dropped);
      metrics_->counter("fault.net.duplicated").add(stats_.duplicated);
      metrics_->counter("fault.net.delayed").add(stats_.delayed);
      metrics_->counter("fault.net.dead_drops").add(stats_.dead_drops);
    }
  }
  if (trace_ != nullptr && channel_ != nullptr &&
      stats_.dropped + stats_.duplicated + stats_.delayed + stats_.dead_drops >
          0) {
    trace_->instant(obs::EventKind::kFault, "fault.net",
                    {{"dropped", static_cast<double>(stats_.dropped)},
                     {"duplicated", static_cast<double>(stats_.duplicated)},
                     {"delayed", static_cast<double>(stats_.delayed)},
                     {"dead_drops", static_cast<double>(stats_.dead_drops)}});
  }
  return stats_;
}

}  // namespace rfid::dist
