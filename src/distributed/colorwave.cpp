#include "distributed/colorwave.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "graph/coloring.h"
#include "obs/timer.h"
#include "workload/rng.h"

namespace rfid::dist {

namespace {

enum MsgType : int { kColor = 1 };
// COLOR payload: [color, priority] — or [color, priority, version] on a
// lossy substrate, where the version word lets receivers discard stale
// duplicated/delayed copies (fault hardening, docs/faults.md).

class ColorwaveNode final : public NodeProgram {
 public:
  ColorwaveNode(std::uint64_t seed, const ColorwaveOptions& opt)
      : opt_(opt),
        rng_(seed),
        max_colors_(opt.initial_max_colors),
        window_(static_cast<std::size_t>(std::max(opt.window, 0))) {
    color_ = rng_.uniformInt(0, max_colors_ - 1);
  }

  void init(Context& ctx) override { announce(ctx); }

  void onRound(Context& ctx, std::span<const Message> inbox) override {
    ++local_round_;
    bool collided = false;
    bool must_repick = false;
    for (const Message& m : inbox) {
      if (m.type != kColor) continue;
      if (m.data.size() >= 3) {
        // Hardened wire format.  A copy whose version is not newer than
        // the last accepted one from this sender is a duplicate or a
        // delayed echo of an old color — acting on it would re-pick
        // against state the neighbor already left (livelock risk).
        const int version = m.data[2];
        const auto [it, first_contact] = last_version_.try_emplace(m.from, version);
        if (!first_contact) {
          if (version <= it->second) continue;
          it->second = version;
        }
        last_heard_[m.from] = local_round_;
      }
      const int their_color = m.data[0];
      const int their_pri = m.data[1];
      if (their_color != color_) continue;
      collided = true;
      // Kick rule: the contender with the larger (priority, id) keeps the
      // color; everyone else re-picks.
      if (std::pair(their_pri, m.from) > std::pair(last_priority_, ctx.self())) {
        must_repick = true;
      }
    }

    // Silence detection: a neighbor quiet past the timeout is presumed
    // crashed and evicted; its next announcement re-admits it with a fresh
    // version baseline (a recovered reader must not be held to pre-crash
    // staleness bookkeeping).
    if (ctx.lossy() && opt_.silence_timeout > 0) {
      for (auto it = last_heard_.begin(); it != last_heard_.end();) {
        if (local_round_ - it->second > opt_.silence_timeout) {
          last_version_.erase(it->first);
          ++evicted_;
          it = last_heard_.erase(it);
        } else {
          ++it;
        }
      }
    }

    // Sliding collision window drives the safe/unsafe maxColors adaptation.
    // It is judged only once full, and restarts empty after every change.
    if (pushWindow(collided)) {
      const double pct = static_cast<double>(window_hits_) / opt_.window;
      if (pct > opt_.up_threshold && max_colors_ < opt_.max_colors_cap) {
        ++max_colors_;
        window_fill_ = window_hits_ = 0;
      } else if (opt_.down_threshold > 0.0 && pct < opt_.down_threshold &&
                 max_colors_ > opt_.min_colors) {
        --max_colors_;
        window_fill_ = window_hits_ = 0;
        if (color_ >= max_colors_) must_repick = true;
      }
    }

    if (must_repick) color_ = rng_.uniformInt(0, max_colors_ - 1);
    stable_rounds_ = collided ? 0 : stable_rounds_ + 1;
    announce(ctx);
  }

  /// Colorwave never truly halts; "done" here means locally conflict-free
  /// long enough that the network's quiescence check can stop a test run.
  bool isDone() const override { return stable_rounds_ >= 20; }

  int color() const { return color_; }
  int evicted() const { return evicted_; }

 private:
  void announce(Context& ctx) {
    last_priority_ = static_cast<int>(rng_.next() & 0x7fffffff);
    if (ctx.lossy()) {
      ctx.broadcast(kColor, {color_, last_priority_, ++version_});
    } else {
      ctx.broadcast(kColor, {color_, last_priority_});
    }
  }

  /// Records one round in the collision ring, overwriting the oldest entry
  /// once full, and keeps the running hit count.  True when the ring holds
  /// a full window (never for an empty, disabled one).  A restart needs no
  /// head reset: `window` writes after it cover every entry.
  bool pushWindow(bool collided) {
    if (window_.empty()) return false;
    char& entry = window_[window_head_];
    if (window_fill_ == opt_.window) {
      window_hits_ -= entry;
    } else {
      ++window_fill_;
    }
    entry = collided ? 1 : 0;
    window_hits_ += entry;
    window_head_ = (window_head_ + 1) % window_.size();
    return window_fill_ == opt_.window;
  }

  ColorwaveOptions opt_;
  workload::Rng rng_;
  int max_colors_;
  int color_;
  int last_priority_ = 0;
  int stable_rounds_ = 0;
  // Collision ring of the last `window` rounds (1 = collided).
  std::vector<char> window_;
  std::size_t window_head_ = 0;
  int window_fill_ = 0;
  int window_hits_ = 0;
  // Fault hardening state (touched only on a lossy substrate).
  int local_round_ = 0;
  int version_ = 0;
  int evicted_ = 0;
  std::unordered_map<int, int> last_version_;
  std::unordered_map<int, int> last_heard_;
};

}  // namespace

ColorwaveScheduler::ColorwaveScheduler(const graph::InterferenceGraph& g,
                                       std::uint64_t seed,
                                       ColorwaveOptions opt)
    : graph_(&g), opt_(opt) {
  init(seed);
}

ColorwaveScheduler::ColorwaveScheduler(const core::System& sys,
                                       std::uint64_t seed,
                                       ColorwaveOptions opt)
    : owned_graph_(std::make_unique<graph::InterferenceGraph>(
          graph::buildSensingGraph(sys))),
      graph_(owned_graph_.get()),
      opt_(opt) {
  init(seed);
}

void ColorwaveScheduler::init(std::uint64_t seed) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(static_cast<std::size_t>(graph_->numNodes()));
  for (int v = 0; v < graph_->numNodes(); ++v) {
    programs.push_back(std::make_unique<ColorwaveNode>(
        workload::deriveSeed(seed, "colorwave-node", static_cast<std::uint64_t>(v)), opt_));
  }
  net_ = std::make_unique<Network>(*graph_, std::move(programs));
}

ColorwaveScheduler::~ColorwaveScheduler() = default;

void ColorwaveScheduler::advance(int rounds) {
  // Forward per-scheduler observability to the long-lived protocol network
  // (attachments may change between slots, so re-point every advance).
  net_->attachObs(nullptr, trace_);
  const Network::RunStats s = net_->run(rounds, cancelToken());
  stats_.protocol_rounds += s.rounds;
  stats_.messages += s.messages;
  // The network's own metrics hookup stays detached (net.* counters would
  // double-count against the scheduler's aggregate stats), so the fault
  // slice is recorded here.  Channel-free runs register nothing and keep
  // the pre-fault export byte-identical.
  if (metrics_ != nullptr && net_->channel() != nullptr) {
    metrics_->counter("fault.net.dropped").add(s.dropped);
    metrics_->counter("fault.net.duplicated").add(s.duplicated);
    metrics_->counter("fault.net.delayed").add(s.delayed);
    metrics_->counter("fault.net.dead_drops").add(s.dead_drops);
  }
}

std::vector<int> ColorwaveScheduler::colors() const {
  std::vector<int> c(static_cast<std::size_t>(net_->numNodes()));
  for (int v = 0; v < net_->numNodes(); ++v) {
    c[static_cast<std::size_t>(v)] =
        static_cast<const ColorwaveNode&>(net_->program(v)).color();
  }
  return c;
}

bool ColorwaveScheduler::converged() const {
  const auto c = colors();
  return graph::isProperColoring(*graph_, c);
}

std::uint64_t ColorwaveScheduler::stateFingerprint() const {
  std::uint64_t h = workload::splitmix64(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(slot_counter_)));
  for (const int c : colors()) {
    h = workload::splitmix64(
        h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)));
  }
  return h;
}

void ColorwaveScheduler::attachChannel(fault::ChannelModel* channel) {
  net_->attachChannel(channel);
}

bool ColorwaveScheduler::convergedAmongAlive() const {
  const fault::ChannelModel* ch = net_->channel();
  if (ch == nullptr) return converged();
  const auto c = colors();
  for (int v = 0; v < graph_->numNodes(); ++v) {
    if (ch->nodeDown(v)) continue;
    for (const int u : graph_->neighbors(v)) {
      if (u <= v || ch->nodeDown(u)) continue;
      if (c[static_cast<std::size_t>(v)] == c[static_cast<std::size_t>(u)]) {
        return false;
      }
    }
  }
  return true;
}

int ColorwaveScheduler::evictedNeighborLinks() const {
  int evicted = 0;
  for (int v = 0; v < net_->numNodes(); ++v) {
    evicted += static_cast<const ColorwaveNode&>(net_->program(v)).evicted();
  }
  return evicted;
}

sched::OneShotResult ColorwaveScheduler::schedule(const core::System& sys) {
  assert(graph_->numNodes() == sys.numReaders());
  obs::ScopedTimer sched_span(trace_ != nullptr ? metrics_ : nullptr,
                              "ca.schedule_us", trace_,
                              "ca.schedule");
  const Stats before = stats_;
  if (!settled_) {
    advance(opt_.settle_rounds);
    settled_ = true;
  } else {
    advance(opt_.rounds_between_slots);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("net.protocol_rounds")
        .add(stats_.protocol_rounds - before.protocol_rounds);
    metrics_->counter("net.messages").add(stats_.messages - before.messages);
  }

  // Rotate through the distinct colors currently in use; activate that
  // class wholesale.  Colorwave is weight-blind by design — it schedules
  // air time, not tags — which is exactly the baseline the paper compares
  // against.
  const auto node_colors = colors();
  std::vector<int> distinct = node_colors;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  const int cls =
      distinct[static_cast<std::size_t>(slot_counter_) % distinct.size()];
  ++slot_counter_;

  std::vector<int> X;
  for (int v = 0; v < sys.numReaders(); ++v) {
    if (node_colors[static_cast<std::size_t>(v)] == cls) X.push_back(v);
  }
  recordScheduleMetrics(1, static_cast<std::int64_t>(distinct.size()));
  {
    obs::CostBill b;
    b.weight_evals = 1;  // the final referee evaluation below
    b.net_messages = stats_.messages - before.messages;
    b.net_rounds = stats_.protocol_rounds - before.protocol_rounds;
    chargeCost("ca.protocol", b);
  }
  return {X, sys.weight(X)};
}

}  // namespace rfid::dist
