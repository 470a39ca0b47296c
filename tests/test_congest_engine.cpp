// Tests for the CONGEST engine v2: flat-arena delivery equivalence against
// a naive per-vertex-queue reference model, allocation-free round
// advancement after warm-up, cap enforcement through the Scheduler, and
// engine-level idle-round accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/generators.hpp"

// --- global allocation counter (this test binary only) ---------------------
// Used by the zero-allocation steady-state test; counting is cheap enough to
// leave on for the whole binary.

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

// In sanitizer builds GCC attributes allocations to the sanitizer's
// interposed allocator and flags these free() calls as mismatched; the
// pairing is malloc/free by construction (and the sanitizers intercept
// both), so the diagnostic is noise here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace usne::congest {
namespace {

// --- arena delivery vs. naive reference model ------------------------------

TEST(NetworkArena, EquivalentToNaiveQueueModel) {
  const Graph g = gen_gnm(60, 180, 7);
  Network net(g);
  std::mt19937 rng(42);

  NetworkStats expected;
  for (int round = 0; round < 60; ++round) {
    // Random traffic: a subset of directed edges, one message each.
    std::map<Vertex, std::vector<Received>> reference;
    std::set<std::pair<Vertex, Vertex>> sent;
    for (int k = 0; k < 40; ++k) {
      const Vertex u = static_cast<Vertex>(rng() % 60);
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) continue;
      const Vertex v = nbrs[rng() % nbrs.size()];
      if (!sent.insert({u, v}).second) continue;  // respect the edge cap
      const Message m = Message::of(static_cast<Word>(rng() % 1000), u);
      net.send(u, v, m);
      reference[v].push_back({u, m});
      ++expected.messages;
      expected.words += 2;
    }
    net.advance_round();
    ++expected.rounds;

    // delivered_to: exactly the receivers, ascending.
    std::vector<Vertex> receivers;
    for (const auto& [v, msgs] : reference) receivers.push_back(v);
    ASSERT_EQ(net.delivered_to(), receivers);

    // Per-vertex inboxes: same multiset, sorted by sender.
    for (Vertex v = 0; v < 60; ++v) {
      auto it = reference.find(v);
      if (it == reference.end()) {
        EXPECT_TRUE(net.inbox(v).empty());
        continue;
      }
      auto& expected_box = it->second;
      std::sort(expected_box.begin(), expected_box.end(),
                [](const Received& a, const Received& b) {
                  return a.from < b.from;
                });
      const auto box = net.inbox(v);
      ASSERT_EQ(box.size(), expected_box.size());
      for (std::size_t i = 0; i < box.size(); ++i) {
        EXPECT_EQ(box[i].from, expected_box[i].from);
        EXPECT_EQ(box[i].msg.size, expected_box[i].msg.size);
        for (int w = 0; w < box[i].msg.size; ++w) {
          EXPECT_EQ(box[i].msg.words[w], expected_box[i].msg.words[w]);
        }
      }
    }

    EXPECT_EQ(net.stats().rounds, expected.rounds);
    EXPECT_EQ(net.stats().messages, expected.messages);
    EXPECT_EQ(net.stats().words, expected.words);
  }
}

TEST(NetworkArena, ViolationsStillEnforced) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.send(0, 1, Message::of(2)), CongestViolation);
  Message oversized;
  oversized.size = kMaxWords + 1;
  EXPECT_THROW(net.send(1, 2, oversized), CongestViolation);
  EXPECT_THROW(net.send(0, 2, Message::of(1)), CongestViolation);
  net.advance_round();
  EXPECT_NO_THROW(net.send(0, 1, Message::of(3)));
}

TEST(NetworkArena, ZeroAllocationSteadyState) {
  const Graph g = gen_gnm(100, 300, 11);
  Network net(g);

  // Warm-up: drive the maximum traffic shape once so every internal buffer
  // reaches its high-water mark.
  auto drive = [&] {
    for (int round = 0; round < 10; ++round) {
      for (Vertex v = 0; v < 100; ++v) {
        net.broadcast(v, Message::of(round, v));
      }
      net.advance_round();
    }
    net.advance_rounds(5);  // idle rounds too
  };
  drive();

  // Steady state: the identical traffic shape must perform zero heap
  // allocations inside send/broadcast/advance_round.
  const std::int64_t before = g_allocations.load();
  drive();
  const std::int64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0);
}

// --- Scheduler / NodeProgram -----------------------------------------------

/// Never sends; runs a fixed number of rounds.
class SilentProgram final : public NodeProgram {
 public:
  explicit SilentProgram(std::int64_t rounds) : rounds_(rounds) {}
  void init(Outbox&) override {}
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

 private:
  std::int64_t rounds_;
};

/// Broadcasts once from a vertex in init, then stays silent.
class OneShotProgram final : public NodeProgram {
 public:
  OneShotProgram(Vertex from, std::int64_t rounds)
      : from_(from), rounds_(rounds) {}
  void init(Outbox& out) override { out.broadcast(from_, Message::of(99)); }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }

 private:
  Vertex from_;
  std::int64_t rounds_;
};

/// Violates the per-edge cap from inside the engine.
class DoubleSendProgram final : public NodeProgram {
 public:
  void init(Outbox& out) override {
    out.send(0, 1, Message::of(1));
    out.send(0, 1, Message::of(2));
  }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t next_round) const override { return next_round >= 1; }
};

TEST(Scheduler, IdleRoundAccounting) {
  const Graph g = gen_cycle(8);
  Network net(g);
  SilentProgram program(5);
  const ScheduleReport report = Scheduler(net).run(program);
  EXPECT_EQ(report.rounds, 5);
  EXPECT_EQ(report.idle_rounds, 5);
  EXPECT_EQ(report.traffic.messages, 0);
  EXPECT_EQ(net.stats().rounds, 5);  // idle rounds still count
}

TEST(Scheduler, MixedIdleAccounting) {
  const Graph g = gen_path(4);
  Network net(g);
  OneShotProgram program(0, 6);
  const ScheduleReport report = Scheduler(net).run(program);
  // Round 0 delivers the broadcast; the remaining 5 rounds are idle.
  EXPECT_EQ(report.rounds, 6);
  EXPECT_EQ(report.idle_rounds, 5);
  EXPECT_EQ(report.traffic.messages, 1);
  EXPECT_EQ(report.traffic.words, 1);
}

TEST(Scheduler, PerProgramTrafficDeltas) {
  const Graph g = gen_path(4);
  Network net(g);
  Scheduler scheduler(net);
  OneShotProgram first(0, 2);
  OneShotProgram second(1, 3);
  const ScheduleReport r1 = scheduler.run(first);
  const ScheduleReport r2 = scheduler.run(second);
  EXPECT_EQ(r1.rounds, 2);
  EXPECT_EQ(r1.traffic.messages, 1);
  EXPECT_EQ(r2.rounds, 3);
  EXPECT_EQ(r2.traffic.messages, 2);  // vertex 1 has two neighbours
  EXPECT_EQ(net.stats().rounds, 5);   // cumulative across programs
  EXPECT_EQ(net.stats().messages, 3);
}

TEST(Scheduler, CongestViolationPropagates) {
  const Graph g = gen_path(3);
  Network net(g);
  DoubleSendProgram program;
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(program), CongestViolation);
}

TEST(Scheduler, FloodThroughEngineMatchesSchedule) {
  // flood_presence runs on the engine; its fixed schedule burns rounds even
  // after the wave dies out, and the result is unchanged.
  const Graph g = gen_path(3);
  Network net(g);
  const FloodResult flood = flood_presence(net, {0}, 10);
  EXPECT_EQ(net.stats().rounds, 10);
  EXPECT_EQ(flood.dist[0], 0);
  EXPECT_EQ(flood.dist[1], 1);
  EXPECT_EQ(flood.dist[2], 2);
}

// --- flush-or-throw at program end ------------------------------------------

/// Buggy by design: issues sends and then immediately reports done, leaving
/// the messages staged. Before the flush-or-throw guard these silently
/// leaked into the next program run on the same network.
class LeakyProgram final : public NodeProgram {
 public:
  explicit LeakyProgram(Vertex from) : from_(from) {}
  void init(Outbox& out) override { out.broadcast(from_, Message::of(7)); }
  void on_round(std::int64_t, Vertex, std::span<const Received>,
                Outbox&) override {}
  bool done(std::int64_t) const override { return true; }  // trips after sends

 private:
  Vertex from_;
};

/// Counts the messages it receives; used to prove no cross-program leak.
class CountingProgram final : public NodeProgram {
 public:
  explicit CountingProgram(std::int64_t rounds) : rounds_(rounds) {}
  void init(Outbox&) override {}
  void on_round(std::int64_t, Vertex, std::span<const Received> inbox,
                Outbox&) override {
    received_ += static_cast<std::int64_t>(inbox.size());
  }
  bool done(std::int64_t next_round) const override {
    return next_round >= rounds_;
  }
  std::int64_t received() const noexcept { return received_; }

 private:
  std::int64_t rounds_;
  std::int64_t received_ = 0;
};

TEST(Scheduler, ThrowsWhenProgramEndsWithStagedMessages) {
  const Graph g = gen_path(4);
  Network net(g);
  LeakyProgram leaky(1);
  Scheduler scheduler(net);
  EXPECT_THROW(scheduler.run(leaky), CongestViolation);
}

TEST(Scheduler, BackToBackProgramsDoNotLeak) {
  // Regression for the staged-message leak: a leaky first program must not
  // hand its messages to the second program on the same network. The guard
  // throws at the first program's end; the second program then observes a
  // clean network.
  const Graph g = gen_path(4);
  Network net(g);
  Scheduler scheduler(net);

  LeakyProgram leaky(1);
  EXPECT_THROW(scheduler.run(leaky), CongestViolation);

  // Well-behaved back-to-back pair: the second sees only its own traffic.
  net.advance_round();  // clear the leaked staging (delivers + discards)
  CountingProgram first(2);
  CountingProgram second(2);
  scheduler.run(first);
  const std::int64_t before = net.stats().messages;
  scheduler.run(second);
  EXPECT_EQ(first.received(), 0);
  EXPECT_EQ(second.received(), 0);
  EXPECT_EQ(net.stats().messages, before);
}

// --- idle-round fast-forward -------------------------------------------------

constexpr std::int64_t kHorizon = 1'000'000'000'000;  // 10^12 rounds

/// Acts in four rounds of a 10^12-round schedule and tells the Scheduler to
/// skip the rest: init and end_round(0) broadcast from vertex 0 (so round 1
/// is not quiescent), end_round(wake) broadcasts `sends_at_wake` times.
class SleeperProgram final : public NodeProgram {
 public:
  SleeperProgram(std::int64_t wake, int sends_at_wake)
      : wake_(wake), sends_at_wake_(sends_at_wake) {}
  void init(Outbox& out) override { out.broadcast(0, Message::of(1)); }
  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox&) override {
    deliveries_.push_back({round, v, static_cast<std::int64_t>(inbox.size())});
  }
  void end_round(std::int64_t round, Outbox& out) override {
    ++end_rounds_;
    const int sends = round == 0 ? 1 : round == wake_ ? sends_at_wake_ : 0;
    for (int i = 0; i < sends; ++i) out.broadcast(0, Message::of(2));
  }
  bool done(std::int64_t next_round) const override {
    return next_round >= kHorizon;
  }
  std::int64_t next_busy_round(std::int64_t round) const override {
    return round < wake_ ? wake_ : kHorizon;
  }

  std::vector<std::tuple<std::int64_t, Vertex, std::int64_t>> deliveries_;
  std::int64_t end_rounds_ = 0;

 private:
  std::int64_t wake_;
  int sends_at_wake_;
};

TEST(Scheduler, FastForwardCountsSkippedRoundsExactly) {
  const Graph g = gen_path(4);
  Network net(g);
  const std::int64_t wake = kHorizon / 2;
  SleeperProgram program(wake, 1);
  const ScheduleReport report = Scheduler(net).run(program);
  // Rounds 0, 1 and wake + 1 deliver; every other round is idle.
  EXPECT_EQ(report.rounds, kHorizon);
  EXPECT_EQ(report.idle_rounds, kHorizon - 3);
  EXPECT_EQ(net.stats().rounds, kHorizon);
  EXPECT_EQ(report.traffic.messages, 3);
  using Delivery = std::tuple<std::int64_t, Vertex, std::int64_t>;
  EXPECT_EQ(program.deliveries_,
            (std::vector<Delivery>{{0, 1, 1}, {1, 1, 1}, {wake + 1, 1, 1}}));
  // Only rounds 0, 1, wake and wake + 1 were driven.
  EXPECT_EQ(program.end_rounds_, 4);
  EXPECT_EQ(net.pending_messages() + net.in_flight(), 0);
}

TEST(Scheduler, EdgeCapHoldsAcrossASkip) {
  // The broadcasts of rounds 0, 1 and wake share vertex 0's edge: legal,
  // so the cap must not fire falsely after the skip; a second broadcast in
  // round wake must still be rejected.
  const Graph g = gen_path(4);
  Network net(g);
  SleeperProgram twice(kHorizon / 2, 2);
  EXPECT_THROW(Scheduler(net).run(twice), CongestViolation);
  EXPECT_EQ(net.stats().rounds, kHorizon / 2 + 1);
}

/// A star's hub broadcasts once; the program asks to skip to the end of a
/// 10^12-round schedule after every round (`skip`), or never.
class EagerSleeperProgram final : public NodeProgram {
 public:
  EagerSleeperProgram(bool skip, std::int64_t horizon)
      : skip_(skip), horizon_(horizon) {}
  void init(Outbox& out) override { out.broadcast(0, Message::of(5)); }
  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox&) override {
    deliveries_.push_back({round, v, static_cast<std::int64_t>(inbox.size())});
  }
  bool done(std::int64_t next_round) const override {
    return next_round >= horizon_;
  }
  std::int64_t next_busy_round(std::int64_t round) const override {
    return skip_ ? horizon_ : round + 1;
  }

  std::vector<std::tuple<std::int64_t, Vertex, std::int64_t>> deliveries_;

 private:
  bool skip_;
  std::int64_t horizon_;
};

TEST(Scheduler, FastForwardWaitsForMessagesInFlight) {
  // Under Async the hub's messages land over several rounds; the skip may
  // only happen once the last of them is delivered, so every delivery
  // matches a run that drives each round.
  const Graph g = gen_star(40);
  TransportSpec spec;
  spec.model = TransportModel::kAsync;
  spec.seed = 11;
  spec.latency_max = 8;
  const std::int64_t short_horizon = 64;

  Network ref_net(g);
  ref_net.configure_transport(spec);
  EagerSleeperProgram reference(false, short_horizon);
  const ScheduleReport ref = Scheduler(ref_net).run(reference);

  Network net(g);
  net.configure_transport(spec);
  EagerSleeperProgram eager(true, kHorizon);
  const ScheduleReport got = Scheduler(net).run(eager);

  EXPECT_EQ(eager.deliveries_, reference.deliveries_);
  std::int64_t received = 0;
  for (const auto& d : eager.deliveries_) received += std::get<2>(d);
  EXPECT_EQ(received, 39);
  EXPECT_GT(std::get<0>(eager.deliveries_.back()), 0);  // some were delayed
  EXPECT_EQ(got.rounds, kHorizon);
  EXPECT_EQ(got.rounds - got.idle_rounds, ref.rounds - ref.idle_rounds);
  EXPECT_EQ(got.traffic.messages, ref.traffic.messages);
  EXPECT_EQ(net.in_flight(), 0);
}

TEST(Network, SkipIdleRoundsRequiresQuiescence) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.skip_idle_rounds(5), std::logic_error);
  net.advance_round();
  ASSERT_EQ(net.delivered_to(), std::vector<Vertex>{1});
  net.skip_idle_rounds(5);
  EXPECT_TRUE(net.delivered_to().empty());
  EXPECT_TRUE(net.inbox(1).empty());
  EXPECT_EQ(net.stats().rounds, 6);
  EXPECT_NO_THROW(net.send(0, 1, Message::of(2)));  // a fresh round's edge
}

// --- PipelinedQueues ---------------------------------------------------------

TEST(PipelinedQueues, DefersSecondItemPerDestinationWithinARound) {
  PipelinedQueues<int> q(4);
  q.push(0, 1, 10);
  q.push(0, 1, 11);  // same destination: must wait a round
  q.push(0, 2, 12);
  q.push(3, 1, 13);  // different source, same destination: fine same round
  EXPECT_EQ(q.queued(), 4);

  std::vector<std::tuple<Vertex, Vertex, int>> sent;
  q.drain_round([&](Vertex f, Vertex t, int p) { sent.push_back({f, t, p}); });
  EXPECT_EQ(sent, (std::vector<std::tuple<Vertex, Vertex, int>>{
                      {0, 1, 10}, {0, 2, 12}, {3, 1, 13}}));
  EXPECT_EQ(q.queued(), 1);

  sent.clear();
  q.drain_round([&](Vertex f, Vertex t, int p) { sent.push_back({f, t, p}); });
  EXPECT_EQ(sent, (std::vector<std::tuple<Vertex, Vertex, int>>{{0, 1, 11}}));
  EXPECT_EQ(q.queued(), 0);
}

TEST(PipelinedQueues, StarGraphHubDrainStress) {
  // A hub with `leaves` queued items per distinct leaf, `repeat` deep. The
  // old drain_round did a linear membership scan over the destinations
  // already served (O(deg^2) per round on a hub); the stamp-based drain is
  // O(items). At this size the quadratic version burns hundreds of
  // millions of comparisons — the stress would have caught it.
  constexpr Vertex kLeaves = 20000;
  constexpr int kRepeat = 3;
  PipelinedQueues<int> q(kLeaves + 1);
  const Vertex hub = 0;
  for (int r = 0; r < kRepeat; ++r) {
    for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) {
      q.push(hub, leaf, r);
    }
  }
  EXPECT_EQ(q.queued(), static_cast<std::int64_t>(kLeaves) * kRepeat);

  // Drains in exactly kRepeat rounds: every leaf is served once per round.
  for (int round = 0; round < kRepeat; ++round) {
    std::vector<std::int64_t> hits(static_cast<std::size_t>(kLeaves) + 1, 0);
    std::int64_t sent = 0;
    const bool any = q.drain_round([&](Vertex f, Vertex t, int p) {
      EXPECT_EQ(f, hub);
      EXPECT_EQ(p, round);  // FIFO per destination
      ++hits[static_cast<std::size_t>(t)];
      ++sent;
    });
    EXPECT_TRUE(any);
    EXPECT_EQ(sent, static_cast<std::int64_t>(kLeaves));
    for (Vertex leaf = 1; leaf <= kLeaves; ++leaf) {
      EXPECT_EQ(hits[static_cast<std::size_t>(leaf)], 1);  // per-edge cap
    }
  }
  EXPECT_EQ(q.queued(), 0);
}

// --- construction guards -----------------------------------------------------

TEST(Network, RejectsEmptyGraph) {
  const Graph empty(0, {});
  EXPECT_THROW(Network net(empty), std::invalid_argument);
}

}  // namespace
}  // namespace usne::congest
