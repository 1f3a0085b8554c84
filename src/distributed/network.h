// network.h — synchronous message-passing simulator over the interference
// graph.
//
// The distributed algorithms (Algorithm 3, Colorwave) are implemented as
// *node programs*: per-reader state machines that exchange messages only
// with graph neighbors.  The simulator runs synchronous rounds — messages
// sent in round t are delivered at round t+1 — and accounts every message
// and payload word, so the benchmarks can report communication cost, not
// just schedule quality.
//
// This is the "no central entity" substrate the paper's §V-B asks for: node
// programs see their own id, their neighbor list, and their inbox.  Nothing
// else.  Any global scan in a node program is a bug, and the tests enforce
// delivery discipline (messages only along edges, one-round latency).
//
// The message plane allocates nothing per message.  A send or broadcast
// copies its payload once into the round's send arena (one std::vector<int>
// of words) and queues one small header {from, to, type, off, len} per
// recipient, so a broadcast's neighbours share a single payload.  At the
// round boundary the send and receive arenas swap, and the inbox is built
// as a CSR over the receive side by a stable counting sort on `to`.
// Message::data is a span into that frozen receive arena: it is valid only
// during the onRound call that delivered it, so a program that wants to
// keep a payload copies it.
//
// An optional fault::ChannelModel (attachChannel) makes the substrate
// lossy: sends may be dropped, duplicated, or delayed extra rounds, and
// nodes crashed by the fault plan neither execute nor receive.  Quiescence
// then also requires the delayed queue to drain — a delayed copy still in
// the pipe is in flight even if every live program is done.  Delayed copies
// own their payload until they fall due and are appended to the receive
// arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/budget.h"
#include "fault/channel_model.h"
#include "graph/interference_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rfid::dist {

/// A delivered message.  `type` and `data` are algorithm-defined.  `data`
/// points into the network's receive arena and is valid only inside the
/// onRound call that delivered it; copy it to keep it.
struct Message {
  int from = -1;
  int to = -1;
  int type = 0;
  std::span<const int> data;
};

class Network;

/// Offset at which `len` payload words land in a word arena that already
/// holds `used`.  Message headers address the arenas with 32-bit offsets,
/// so a round that would outgrow them fails closed: throws
/// std::length_error (the service answers too-large) instead of wrapping
/// an offset and misdelivering.
std::uint32_t arenaOffset(std::size_t used, std::size_t len);

/// Per-node view handed to programs each round.
class Context {
 public:
  int self() const { return self_; }
  int round() const { return round_; }
  std::span<const int> neighbors() const { return neighbors_; }

  /// Queues a message for delivery next round.  `to` must be a neighbor.
  /// The payload is copied; `data` may point anywhere, an inbox message's
  /// data included.  Throws std::length_error when the round's payloads
  /// would pass 2^32 words.
  void send(int to, int type, std::span<const int> data);
  void send(int to, int type, std::initializer_list<int> data) {
    send(to, type, std::span<const int>(data.begin(), data.size()));
  }

  /// Sends the same message to every neighbor.  The payload is copied once
  /// and shared by every copy on the wire.
  void broadcast(int type, std::span<const int> data);
  void broadcast(int type, std::initializer_list<int> data) {
    broadcast(type, std::span<const int>(data.begin(), data.size()));
  }

  /// True when a channel model is attached: links may lose, duplicate, or
  /// delay messages and neighbors may be crashed.  Node programs use this
  /// to arm their timeout/retry hardening (and to extend their wire format)
  /// only when faults are possible, so fault-free runs stay bit-identical.
  bool lossy() const;

 private:
  friend class Network;
  Context(Network& net, int self, int round, std::span<const int> neighbors)
      : net_(&net), self_(self), round_(round), neighbors_(neighbors) {}

  Network* net_;
  int self_;
  int round_;
  std::span<const int> neighbors_;
};

/// A distributed algorithm's per-node state machine.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once before round 0 (e.g. to queue initial broadcasts).
  virtual void init(Context& ctx) = 0;

  /// Called every round with the messages delivered this round.
  virtual void onRound(Context& ctx, std::span<const Message> inbox) = 0;

  /// True when the node has reached a terminal state.  The network stops
  /// when every node is done *and* no message is in flight.
  virtual bool isDone() const = 0;
};

class Network {
 public:
  /// Topology must outlive the network.  One program per node, in id order.
  Network(const graph::InterferenceGraph& topology,
          std::vector<std::unique_ptr<NodeProgram>> programs);

  struct RunStats {
    int rounds = 0;
    std::int64_t messages = 0;      // message-hops delivered
    std::int64_t payload_words = 0; // total ints carried
    bool all_done = false;
    // Channel-model accounting; all zero unless a channel is attached.
    std::int64_t dropped = 0;     // sends lost on the wire
    std::int64_t duplicated = 0;  // extra copies delivered
    std::int64_t delayed = 0;     // copies deferred past one-round latency
    std::int64_t dead_drops = 0;  // deliveries discarded at a crashed node
  };

  /// Runs until quiescence (all live programs done, no messages in flight
  /// or delayed) or `max_rounds`.  Crashed nodes — per the attached channel
  /// model — neither execute nor receive, and count as done: a dead
  /// neighbor can never block quiescence.  `cancel` (optional) is polled at
  /// every round boundary; a fired token stops the run early with the
  /// rounds completed so far (protocol state stays consistent — rounds are
  /// atomic).
  RunStats run(int max_rounds, const ckpt::CancelToken* cancel = nullptr);

  /// Lifetime totals across every run() on this network (run() returns the
  /// per-run slice).  `rounds`/`messages`/`payload_words` accumulate;
  /// `all_done` reflects the most recent run.
  const RunStats& stats() const { return totals_; }

  /// Observability (nullptrs detach).  With `metrics` each run() adds the
  /// counters `net.rounds` / `net.messages` / `net.payload_words` and sets
  /// the gauges `net.last_run_rounds` and `net.converged_round` (-1 while
  /// not quiescent).  With `trace` every synchronous round emits a kRound
  /// event carrying delivered/in-flight message counts.
  void attachObs(obs::MetricsRegistry* metrics, obs::TraceSink* trace);

  /// Attaches a channel model (nullptr detaches).  With one attached every
  /// send consults it for drop/duplicate/delay fates, crashed nodes stop
  /// executing, and each run() additionally reports the counters
  /// `fault.net.dropped` / `fault.net.duplicated` / `fault.net.delayed` /
  /// `fault.net.dead_drops` plus one kFault trace event when any fault
  /// fired.  Detached networks skip all of it.
  void attachChannel(fault::ChannelModel* channel) { channel_ = channel; }
  fault::ChannelModel* channel() const { return channel_; }

  NodeProgram& program(int v) { return *programs_[static_cast<std::size_t>(v)]; }
  const NodeProgram& program(int v) const { return *programs_[static_cast<std::size_t>(v)]; }
  int numNodes() const { return topology_->numNodes(); }

 private:
  friend class Context;
  /// Copies `data` once into the send arena and queues one copy from
  /// `from` to each of `targets` (through the channel model when attached).
  /// Throws std::length_error when the round's payloads would pass 2^32
  /// words, the reach of a header's 32-bit offset.
  void post(int from, std::span<const int> targets, int type,
            std::span<const int> data);
  /// Round boundary: swaps the arenas, appends the delayed copies now due,
  /// and builds the CSR inbox.  Returns the deliveries this round (dead
  /// drops included).
  std::size_t deliver();

  /// One copy on the wire; its payload is words [off, off+len) of an arena.
  struct Header {
    int from;
    int to;
    int type;
    std::uint32_t off;
    std::uint32_t len;
  };
  struct Delayed {
    int rounds_left = 0;  // rounds beyond the normal one-round latency
    int from = -1;
    int to = -1;
    int type = 0;
    std::vector<int> data;  // owned: the send arena is cleared before due
  };

  const graph::InterferenceGraph* topology_;
  std::vector<std::unique_ptr<NodeProgram>> programs_;
  // Sent this round, delivered next: payload words and one header per copy.
  std::vector<int> send_words_;
  std::vector<Header> send_hdr_;
  // Delivered this round; frozen while programs run (Message::data points
  // here).
  std::vector<int> recv_words_;
  std::vector<Header> recv_hdr_;
  // CSR inbox over recv_: node v's messages are inbox_[inbox_off_[v] ..
  // inbox_off_[v+1]), in delivery order.
  std::vector<Message> inbox_;
  std::vector<std::size_t> inbox_off_;
  std::vector<Delayed> delayed_;     // channel-deferred, drained by run()
  std::vector<int> delays_;          // ChannelModel::onSend scratch
  RunStats stats_;
  RunStats totals_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceSink* trace_ = nullptr;
  fault::ChannelModel* channel_ = nullptr;
};

}  // namespace rfid::dist
