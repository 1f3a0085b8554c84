// colorwave.h — the Colorwave baseline (CA), Waldrop/Engels/Sarma WCNC'03.
//
// Colorwave is a distributed TDMA MAC for reader networks: each reader
// holds a color (time-slot index) in [0, maxColors).  Readers announce
// their colors to interference-graph neighbors; on a collision (neighbor
// with the same color) exactly one contender wins — the kick rule, decided
// here by a per-broadcast random priority with id tie-break — and the
// losers re-pick uniformly at random.  Each reader monitors its recent
// collision percentage and grows maxColors when collisions are frequent
// ("unsafe") or shrinks it when they are rare ("safe"), which is
// Colorwave's distributed frame-size adaptation.
//
// As a one-shot scheduler, slot t activates one color class (classes rotate
// round-robin).  The protocol keeps running between slots, exactly like a
// deployed Colorwave network; classes proposed before convergence may be
// improper, and the Definition 1 referee then charges the resulting RTc
// losses — that, plus its weight-blindness, is why the paper's algorithms
// beat it (Figures 6–9).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "distributed/network.h"
#include "graph/interference_graph.h"
#include "sched/scheduler.h"

namespace rfid::dist {

struct ColorwaveOptions {
  int initial_max_colors = 4;
  int min_colors = 1;
  int max_colors_cap = 64;
  /// Sliding window (rounds) for the collision percentage.
  int window = 16;
  /// Collision fraction above which a node increments maxColors ("unsafe").
  double up_threshold = 0.40;
  /// Collision fraction below which a node decrements maxColors ("safe").
  /// 0 disables downward probing: real Colorwave keeps hunting for fewer
  /// colors, which periodically re-introduces conflicts; the benchmarks
  /// want stable TDMA classes once converged, so shrinking is opt-in
  /// (bench/ablation notes discuss the effect).
  double down_threshold = 0.0;
  /// Protocol rounds executed before the first slot is drawn.
  int settle_rounds = 1000;
  /// Protocol rounds executed between consecutive slots.
  int rounds_between_slots = 10;
  /// Fault hardening (armed only when a channel model is attached to the
  /// protocol network): a neighbor silent for this many consecutive rounds
  /// is presumed crashed and evicted from the collision bookkeeping; its
  /// next announcement re-admits it (recovery).  Announcements then also
  /// carry a version word so duplicated or delayed copies of an old color
  /// cannot trigger spurious re-picks.  0 disables silence detection.
  int silence_timeout = 64;
};

class ColorwaveScheduler final : public sched::OneShotScheduler {
 public:
  /// Runs the protocol over an explicit conflict graph (synthetic
  /// topologies, unit tests).  The caller keeps `g` alive.
  ColorwaveScheduler(const graph::InterferenceGraph& g, std::uint64_t seed,
                     ColorwaveOptions opt = {});

  /// Production form: derives the conflict graph from the system as the
  /// *sensing* graph (interference disks intersect).  Waldrop et al. count
  /// every failed read attempt as a collision — including reader–reader
  /// collisions observed at tags — so two readers able to RRc-collide must
  /// contend for different colors, which is exactly sensing-graph
  /// adjacency.
  ColorwaveScheduler(const core::System& sys, std::uint64_t seed,
                     ColorwaveOptions opt = {});

  ~ColorwaveScheduler() override;

  std::string name() const override { return "CA"; }
  sched::OneShotResult schedule(const core::System& sys) override;

  /// Hash of the current coloring and the slot cursor — the cross-slot
  /// state a checkpoint replay must reproduce (ckpt/journal.h).  Not a full
  /// protocol-state serialization (windows, priorities, RNG streams):
  /// replay recomputes those from scratch; the fingerprint detects drift.
  std::uint64_t stateFingerprint() const override;

  /// Runs `rounds` protocol rounds without drawing a slot (tests and the
  /// message-plane microbenchmark).
  void runProtocol(int rounds) { advance(rounds); }

  /// Forwards a fault channel model to the long-lived protocol network;
  /// node programs arm their silence-eviction / stale-filter hardening.
  void attachChannel(fault::ChannelModel* channel) override;

  /// Current color per node (diagnostics / tests).
  std::vector<int> colors() const;
  /// True iff the current coloring is proper on the interference graph.
  bool converged() const;
  /// Proper on the subgraph of nodes alive in the channel's current slot
  /// (all nodes when no channel is attached) — the honest convergence
  /// criterion once readers can crash: dead readers do not transmit.
  bool convergedAmongAlive() const;
  /// Total neighbor evictions by silence detection (diagnostics / tests).
  int evictedNeighborLinks() const;

  struct Stats {
    std::int64_t protocol_rounds = 0;
    std::int64_t messages = 0;
  };
  const Stats& stats() const { return stats_; }

  /// The long-lived protocol network; `network().stats()` exposes lifetime
  /// rounds / messages / payload words (examples/distributed_deployment
  /// reports them as the communication bill).
  const Network& network() const { return *net_; }

 private:
  void init(std::uint64_t seed);
  void advance(int rounds);

  std::unique_ptr<graph::InterferenceGraph> owned_graph_;  // sensing form
  const graph::InterferenceGraph* graph_;
  ColorwaveOptions opt_;
  std::unique_ptr<Network> net_;
  Stats stats_;
  int slot_counter_ = 0;
  bool settled_ = false;
};

}  // namespace rfid::dist
