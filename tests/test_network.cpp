// Network simulator tests: delivery discipline, latency, flood propagation,
// quiescence, accounting, payload lifetime across the message plane's
// arena swaps (delay, duplication, relaying an inbox span, capped runs),
// and the arenas' 32-bit offset bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "distributed/network.h"
#include "fault/channel_model.h"
#include "fault/fault_plan.h"

namespace rfid::dist {
namespace {

graph::InterferenceGraph pathGraph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return graph::InterferenceGraph(n, edges);
}

/// Floods a token with a TTL; records the round it first arrived.
class FloodNode final : public NodeProgram {
 public:
  explicit FloodNode(bool origin, int ttl) : origin_(origin), ttl_(ttl) {}

  void init(Context& ctx) override {
    if (origin_) {
      received_round_ = -1;  // origin "has" it before round 0
      ctx.broadcast(1, {ttl_});
    }
  }

  void onRound(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (seen_) continue;
      seen_ = true;
      received_round_ = ctx.round();
      if (m.data[0] > 1) ctx.broadcast(1, {m.data[0] - 1});
    }
  }

  bool isDone() const override { return true; }  // passive after relaying

  int receivedRound() const { return received_round_; }

 private:
  bool origin_;
  int ttl_;
  bool seen_ = false;
  int received_round_ = -1000;
};

TEST(Network, FloodReachesExactlyTtlHops) {
  const auto g = pathGraph(8);
  const int ttl = 3;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 8; ++v) {
    programs.push_back(std::make_unique<FloodNode>(v == 0, ttl));
  }
  Network net(g, std::move(programs));
  const auto stats = net.run(100);
  EXPECT_TRUE(stats.all_done);
  // Node at distance d receives in round d−1; beyond ttl: never.
  for (int v = 1; v <= ttl; ++v) {
    EXPECT_EQ(static_cast<const FloodNode&>(net.program(v)).receivedRound(),
              v - 1)
        << "node " << v;
  }
  for (int v = ttl + 1; v < 8; ++v) {
    EXPECT_EQ(static_cast<const FloodNode&>(net.program(v)).receivedRound(),
              -1000)
        << "node " << v;
  }
}

TEST(Network, CountsMessagesAndPayload) {
  const auto g = pathGraph(3);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 3; ++v) {
    programs.push_back(std::make_unique<FloodNode>(v == 0, 1));
  }
  Network net(g, std::move(programs));
  const auto stats = net.run(100);
  // init: node 0 broadcasts to its single neighbor → 1 message of 1 word.
  // Node 1 receives with ttl 1 → does not relay.
  EXPECT_EQ(stats.messages, 1);
  EXPECT_EQ(stats.payload_words, 1);
}

/// Sends one message per round forever — exercises the round cap.
class ChattyNode final : public NodeProgram {
 public:
  void init(Context&) override {}
  void onRound(Context& ctx, std::span<const Message>) override {
    if (!ctx.neighbors().empty()) ctx.send(ctx.neighbors()[0], 7, {});
    ++rounds_;
  }
  bool isDone() const override { return false; }
  int rounds() const { return rounds_; }

 private:
  int rounds_ = 0;
};

TEST(Network, RoundCapStopsNonQuiescentRuns) {
  const auto g = pathGraph(2);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<ChattyNode>());
  programs.push_back(std::make_unique<ChattyNode>());
  Network net(g, std::move(programs));
  const auto stats = net.run(25);
  EXPECT_FALSE(stats.all_done);
  EXPECT_EQ(stats.rounds, 25);
  EXPECT_EQ(static_cast<const ChattyNode&>(net.program(0)).rounds(), 25);
}

/// Records every sender it hears from.
class ListenerNode final : public NodeProgram {
 public:
  void init(Context& ctx) override { ctx.broadcast(1, {ctx.self()}); }
  void onRound(Context&, std::span<const Message> inbox) override {
    for (const Message& m : inbox) heard_.push_back(m.from);
  }
  bool isDone() const override { return true; }
  const std::vector<int>& heard() const { return heard_; }

 private:
  std::vector<int> heard_;
};

TEST(Network, MessagesOnlyTravelAlongEdges) {
  // Star: 0 is the hub.  Leaves only ever hear the hub.
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {0, 2}, {0, 3}};
  const graph::InterferenceGraph g(4, edges);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (int v = 0; v < 4; ++v) programs.push_back(std::make_unique<ListenerNode>());
  Network net(g, std::move(programs));
  (void)net.run(10);
  for (int leaf = 1; leaf < 4; ++leaf) {
    for (const int from : static_cast<const ListenerNode&>(net.program(leaf)).heard()) {
      EXPECT_EQ(from, 0);
    }
  }
  // The hub heard every leaf exactly once.
  auto hub_heard = static_cast<const ListenerNode&>(net.program(0)).heard();
  std::sort(hub_heard.begin(), hub_heard.end());
  EXPECT_EQ(hub_heard, (std::vector<int>{1, 2, 3}));
}

TEST(Network, QuiescenceNeedsEmptyInFlight) {
  // A done node that sent one last message: the network must process the
  // delivery round before declaring quiescence.
  const auto g = pathGraph(2);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<FloodNode>(true, 5));
  programs.push_back(std::make_unique<FloodNode>(false, 5));
  Network net(g, std::move(programs));
  const auto stats = net.run(100);
  EXPECT_TRUE(stats.all_done);
  EXPECT_GE(stats.rounds, 2);  // round 0 delivers, round 1 drains the relay
}


// --- Payload lifetime across arena swaps -----------------------------------

/// `len` consecutive words starting at `first` — a payload whose every word
/// is checkable after the fact.
std::vector<int> seqWords(int first, int len) {
  std::vector<int> v(static_cast<std::size_t>(len));
  std::iota(v.begin(), v.end(), first);
  return v;
}

bool isSeq(std::span<const int> d) {
  for (std::size_t i = 1; i < d.size(); ++i) {
    if (d[i] != d[0] + static_cast<int>(i)) return false;
  }
  return true;
}

enum ProbeType : int { kPayload = 1, kFiller = 2 };

/// Optionally broadcasts one multi-word payload at init, then broadcasts an
/// 8-word filler every round for `chatter` rounds so both arenas are reused
/// and overwritten while other copies are still on the wire.  Keeps a copy
/// of every payload it receives, with the arrival round.
class ProbeNode final : public NodeProgram {
 public:
  ProbeNode(std::vector<int> payload, int chatter)
      : payload_(std::move(payload)), chatter_(chatter) {}

  void init(Context& ctx) override {
    if (!payload_.empty()) ctx.broadcast(kPayload, payload_);
  }

  void onRound(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      if (m.type == kFiller) {
        EXPECT_EQ(m.data.size(), 8u);
        EXPECT_TRUE(isSeq(m.data)) << "filler corrupted";
        continue;
      }
      got_.emplace_back(m.data.begin(), m.data.end());
      rounds_.push_back(ctx.round());
    }
    rounds_run_ = ctx.round() + 1;
    if (ctx.round() < chatter_) {
      ctx.broadcast(kFiller, seqWords(ctx.round() * 100, 8));
    }
  }

  bool isDone() const override { return rounds_run_ >= chatter_; }

  const std::vector<std::vector<int>>& got() const { return got_; }
  const std::vector<int>& rounds() const { return rounds_; }

 private:
  std::vector<int> payload_;
  int chatter_;
  int rounds_run_ = 0;
  std::vector<std::vector<int>> got_;
  std::vector<int> rounds_;
};

TEST(Network, DelayedPayloadSurvivesArenaSwaps) {
  // Path 0-1-2.  Only the 0->1 link delays (1..6 extra rounds); 1 and 2
  // chatter for 10 rounds, so the arenas swap and refill many times while
  // the delayed copy waits.
  const auto g = pathGraph(3);
  const std::vector<int> payload = seqWords(1000, 37);
  int longest = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    fault::FaultPlan plan;
    plan.setSeed(seed);
    fault::LinkFaults lf;
    lf.delay = 1.0;
    lf.max_delay = 6;
    plan.setLink(0, 1, lf);
    fault::ChannelModel ch(plan);
    std::vector<std::unique_ptr<NodeProgram>> programs;
    programs.push_back(std::make_unique<ProbeNode>(payload, 0));
    programs.push_back(std::make_unique<ProbeNode>(std::vector<int>{}, 10));
    programs.push_back(std::make_unique<ProbeNode>(std::vector<int>{}, 10));
    Network net(g, std::move(programs));
    net.attachChannel(&ch);
    const auto stats = net.run(100);
    EXPECT_TRUE(stats.all_done);
    EXPECT_EQ(stats.delayed, 1);
    const auto& sink = static_cast<const ProbeNode&>(net.program(1));
    ASSERT_EQ(sink.got().size(), 1u) << "seed " << seed;
    EXPECT_EQ(sink.got()[0], payload) << "seed " << seed;
    EXPECT_GE(sink.rounds()[0], 1);
    longest = std::max(longest, sink.rounds()[0]);
  }
  EXPECT_GE(longest, 3);  // some seed held the copy across >= 3 swaps
}

TEST(Network, DuplicatedPayloadSurvivesIntact) {
  // Every send on 0->1 is duplicated; half the copies are also delayed, so
  // the two copies travel as a shared arena payload, an owned delayed
  // payload, or both.
  const auto g = pathGraph(3);
  const std::vector<int> payload = seqWords(-50, 23);
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    fault::FaultPlan plan;
    plan.setSeed(seed);
    fault::LinkFaults lf;
    lf.dup = 1.0;
    lf.delay = 0.5;
    lf.max_delay = 2;
    plan.setLink(0, 1, lf);
    fault::ChannelModel ch(plan);
    std::vector<std::unique_ptr<NodeProgram>> programs;
    programs.push_back(std::make_unique<ProbeNode>(payload, 0));
    programs.push_back(std::make_unique<ProbeNode>(std::vector<int>{}, 5));
    programs.push_back(std::make_unique<ProbeNode>(std::vector<int>{}, 5));
    Network net(g, std::move(programs));
    net.attachChannel(&ch);
    const auto stats = net.run(100);
    EXPECT_TRUE(stats.all_done);
    EXPECT_EQ(stats.duplicated, 1);
    const auto& sink = static_cast<const ProbeNode&>(net.program(1));
    ASSERT_EQ(sink.got().size(), 2u) << "seed " << seed;
    EXPECT_EQ(sink.got()[0], payload) << "seed " << seed;
    EXPECT_EQ(sink.got()[1], payload) << "seed " << seed;
  }
}

/// On the first round it hears anything, relays every inbox message's data
/// straight back out while still iterating the inbox: a receive-arena span
/// copied into the send arena, which may grow mid-loop.
class RelayNode final : public NodeProgram {
 public:
  RelayNode(std::vector<int> payload, std::vector<int> expect)
      : payload_(std::move(payload)), expect_(std::move(expect)) {}

  void init(Context& ctx) override {
    if (!payload_.empty()) ctx.broadcast(kPayload, payload_);
  }

  void onRound(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      ++heard_;
      if (!std::equal(m.data.begin(), m.data.end(), expect_.begin(),
                      expect_.end())) {
        ++corrupt_;
      }
      if (!relayed_) ctx.broadcast(kPayload, m.data);
    }
    relayed_ = relayed_ || !inbox.empty();
  }

  bool isDone() const override { return true; }
  int heard() const { return heard_; }
  int corrupt() const { return corrupt_; }

 private:
  std::vector<int> payload_;
  std::vector<int> expect_;
  bool relayed_ = false;
  int heard_ = 0;
  int corrupt_ = 0;
};

TEST(Network, RelayingAnInboxSpanCopiesItIntact) {
  // K4, node 0 originates a 300-word payload.  Round 0: nodes 1-3 each hear
  // it once and relay it.  Round 1: node 0 hears three copies and relays
  // all three mid-iteration; nodes 1-3 hear two relays each.  Round 2:
  // nodes 1-3 hear node 0's three relays.
  const std::vector<std::pair<int, int>> edges = {{0, 1}, {0, 2}, {0, 3},
                                                  {1, 2}, {1, 3}, {2, 3}};
  const graph::InterferenceGraph g(4, edges);
  const std::vector<int> payload = seqWords(7, 300);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<RelayNode>(payload, payload));
  for (int v = 1; v < 4; ++v) {
    programs.push_back(std::make_unique<RelayNode>(std::vector<int>{}, payload));
  }
  Network net(g, std::move(programs));
  const auto stats = net.run(10);
  EXPECT_TRUE(stats.all_done);
  EXPECT_EQ(stats.messages, 3 + 9 + 9);
  EXPECT_EQ(stats.payload_words, (3 + 9 + 9) * 300);
  EXPECT_EQ(static_cast<const RelayNode&>(net.program(0)).heard(), 3);
  for (int v = 1; v < 4; ++v) {
    EXPECT_EQ(static_cast<const RelayNode&>(net.program(v)).heard(), 1 + 2 + 3);
  }
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(static_cast<const RelayNode&>(net.program(v)).corrupt(), 0)
        << "node " << v;
  }
}

/// Sends a 12-word run tagged with a per-program sequence number at init
/// and every round; records each received run's first word.
class SequenceNode final : public NodeProgram {
 public:
  void init(Context& ctx) override {
    if (ctx.self() == 0) ctx.broadcast(kPayload, seqWords(seq_++ * 1000, 12));
  }
  void onRound(Context& ctx, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      EXPECT_EQ(m.data.size(), 12u);
      EXPECT_TRUE(isSeq(m.data)) << "payload corrupted";
      firsts_.push_back(m.data[0]);
    }
    if (ctx.self() == 0) ctx.broadcast(kPayload, seqWords(seq_++ * 1000, 12));
  }
  bool isDone() const override { return false; }
  const std::vector<int>& firsts() const { return firsts_; }

 private:
  int seq_ = 0;
  std::vector<int> firsts_;
};

TEST(Network, CappedRunLeftoversArriveIntactNextRun) {
  const auto g = pathGraph(2);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.push_back(std::make_unique<SequenceNode>());
  programs.push_back(std::make_unique<SequenceNode>());
  Network net(g, std::move(programs));
  // Run 1: init sends #0, rounds 0-2 send #1-#3; #3 is still on the wire
  // when the cap fires.
  const auto first = net.run(3);
  EXPECT_FALSE(first.all_done);
  const auto& sink = static_cast<const SequenceNode&>(net.program(1));
  EXPECT_EQ(sink.firsts(), (std::vector<int>{0, 1000, 2000}));
  // Run 2: its init queues #4 behind the leftover #3; round 0 delivers
  // both, in send order.
  (void)net.run(1);
  EXPECT_EQ(sink.firsts(), (std::vector<int>{0, 1000, 2000, 3000, 4000}));
}

// A round's payloads are addressed with 32-bit offsets; one more word than
// they reach must throw rather than wrap (16 GiB of payload is not needed to
// show the bound).
TEST(Network, ArenaOffsetFailsClosedPastThirtyTwoBits) {
  constexpr std::size_t kReach = UINT32_MAX;
  EXPECT_EQ(arenaOffset(0, 0), 0u);
  EXPECT_EQ(arenaOffset(7, 300), 7u);
  EXPECT_EQ(arenaOffset(kReach - 5, 5), kReach - 5);
  EXPECT_EQ(arenaOffset(kReach, 0), kReach);
  EXPECT_THROW((void)arenaOffset(kReach - 5, 6), std::length_error);
  EXPECT_THROW((void)arenaOffset(0, kReach + 1), std::length_error);
  EXPECT_THROW((void)arenaOffset(kReach + 1, 0), std::length_error);
}

}  // namespace
}  // namespace rfid::dist
