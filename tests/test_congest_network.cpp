// Unit tests for the CONGEST network simulator: delivery semantics, round
// accounting, failure injection — enforcement of the model's caps — and the
// equivalence of broadcast records to per-neighbour sends under every
// delivery model.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/generators.hpp"
#include "test_helpers.hpp"

namespace usne::congest {
namespace {

TEST(Network, DeliversNextRound) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(42));
  EXPECT_TRUE(net.inbox(1).empty());  // not delivered yet
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].msg.words[0], 42);
  net.advance_round();
  EXPECT_TRUE(net.inbox(1).empty());  // cleared after one round
}

TEST(Network, InboxSortedBySender) {
  const Graph g = gen_star(5);  // center 0
  Network net(g);
  net.send(4, 0, Message::of(4));
  net.send(2, 0, Message::of(2));
  net.send(1, 0, Message::of(1));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0)[0].from, 1);
  EXPECT_EQ(net.inbox(0)[1].from, 2);
  EXPECT_EQ(net.inbox(0)[2].from, 4);
}

TEST(Network, DeliveredToListsReceivers) {
  const Graph g = gen_path(4);
  Network net(g);
  net.send(1, 0, Message::of(7));
  net.send(1, 2, Message::of(7));
  net.advance_round();
  const auto& delivered = net.delivered_to();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], 0);
  EXPECT_EQ(delivered[1], 2);
}

TEST(Network, StatsAccumulate) {
  const Graph g = gen_cycle(4);
  Network net(g);
  net.broadcast(0, Message::of(1, 2));
  net.advance_round();
  net.advance_rounds(3);
  EXPECT_EQ(net.stats().rounds, 4);
  EXPECT_EQ(net.stats().messages, 2);  // two neighbours
  EXPECT_EQ(net.stats().words, 4);
}

// --- failure injection: the model is enforced, not assumed ---

TEST(NetworkViolation, SecondMessageSameEdgeSameRound) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(0, 1, Message::of(1));
  EXPECT_THROW(net.send(0, 1, Message::of(2)), CongestViolation);
  // Opposite direction is a different directed edge: allowed.
  EXPECT_NO_THROW(net.send(1, 0, Message::of(3)));
  // Next round the edge is free again.
  net.advance_round();
  EXPECT_NO_THROW(net.send(0, 1, Message::of(4)));
}

TEST(NetworkViolation, NonEdgeSend) {
  const Graph g = gen_path(4);  // no edge (0, 2)
  Network net(g);
  EXPECT_THROW(net.send(0, 2, Message::of(1)), CongestViolation);
  EXPECT_THROW(net.send(0, 0, Message::of(1)), CongestViolation);
}

TEST(NetworkViolation, OversizedMessage) {
  const Graph g = gen_path(2);
  Network net(g);
  Message m;
  m.size = kMaxWords + 1;
  EXPECT_THROW(net.send(0, 1, m), CongestViolation);
  Message empty;
  empty.size = 0;
  EXPECT_THROW(net.send(0, 1, empty), CongestViolation);
}

TEST(NetworkViolation, SendThenBroadcastOnSharedEdge) {
  const Graph g = gen_path(3);
  Network net(g);
  net.send(1, 2, Message::of(1));
  EXPECT_THROW(net.broadcast(1, Message::of(2)), CongestViolation);
  // The failed broadcast stages nothing and leaves edge (1,0) free.
  EXPECT_EQ(net.pending_messages(), 1);
  EXPECT_NO_THROW(net.send(1, 0, Message::of(3)));
}

TEST(NetworkViolation, BroadcastThenSendOnSharedEdge) {
  const Graph g = gen_path(3);
  Network net(g);
  net.broadcast(1, Message::of(1));
  EXPECT_EQ(net.pending_messages(), 2);
  EXPECT_THROW(net.send(1, 0, Message::of(2)), CongestViolation);
  EXPECT_THROW(net.send(1, 2, Message::of(2)), CongestViolation);
  EXPECT_THROW(net.broadcast(1, Message::of(2)), CongestViolation);
  // Reverse directions are other directed edges.
  EXPECT_NO_THROW(net.broadcast(0, Message::of(3)));
  EXPECT_NO_THROW(net.send(2, 1, Message::of(4)));
  net.advance_round();
  EXPECT_NO_THROW(net.broadcast(1, Message::of(5)));
}

TEST(NetworkViolation, OversizedBroadcast) {
  const Graph g = gen_path(3);
  Network net(g);
  Message m;
  m.size = kMaxWords + 1;
  EXPECT_THROW(net.broadcast(1, m), CongestViolation);
  EXPECT_EQ(net.pending_messages(), 0);
  EXPECT_EQ(net.stats().messages, 0);
}

/// One round of random traffic, staged identically on two networks: `rec`
/// uses broadcast() where a vertex talks to all neighbours, `ref` always
/// sends per neighbour in ascending order. Vertices stage in a shuffled
/// order so broadcast records interleave with plain sends; only the first
/// `senders` of that order may send.
void stage_mixed_round(const Graph& g, std::mt19937& rng, Network& rec,
                       Network& ref, Vertex senders = -1) {
  std::vector<Vertex> order(static_cast<std::size_t>(g.num_vertices()));
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    order[static_cast<std::size_t>(v)] = v;
  }
  std::shuffle(order.begin(), order.end(), rng);
  if (senders >= 0) order.resize(static_cast<std::size_t>(senders));
  for (const Vertex v : order) {
    const unsigned kind = rng() % 3;  // 0 silent, 1 broadcast, 2 some sends
    const Message m = Message::of(static_cast<Word>(rng() % 1000), v, 7);
    if (kind == 1) {
      rec.broadcast(v, m);
      for (const Vertex u : g.neighbors(v)) ref.send(v, u, m);
    } else if (kind == 2) {
      for (const Vertex u : g.neighbors(v)) {
        if (rng() % 2 == 0) continue;
        rec.send(v, u, m);
        ref.send(v, u, m);
      }
    }
  }
}

void expect_same_delivery(const Network& rec, const Network& ref) {
  ASSERT_EQ(rec.delivered_to(), ref.delivered_to());
  EXPECT_EQ(rec.delivered_messages(), ref.delivered_messages());
  for (Vertex v = 0; v < rec.num_vertices(); ++v) {
    const auto a = rec.inbox(v);
    const auto b = ref.inbox(v);
    ASSERT_EQ(a.size(), b.size()) << "v=" << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].from, b[i].from);
      EXPECT_EQ(a[i].msg.size, b[i].msg.size);
      for (int w = 0; w < kMaxWords; ++w) {
        EXPECT_EQ(a[i].msg.words[w], b[i].msg.words[w]);
      }
    }
  }
}

TEST(NetworkBroadcast, RecordsMatchPerNeighbourSendsUnderEveryModel) {
  // Receiver order comes from a bitmap scan in dense rounds and from a sort
  // in sparse ones. The BA graph's hubs make long runs. n = 130 is not a
  // multiple of 64, so its bitmap ends in a partial word; every round there
  // is dense (every vertex may send), far above the bitmap threshold and,
  // at 2 lanes, with enough messages (> 4096) for the parallel scatter. On
  // n = 8321 the rounds with 3 senders reach a few dozen receivers, below
  // the threshold of a 131-word bitmap, so they take the sort.
  struct Input {
    Graph g;
    int rounds;
    int dense_every;        // round % dense_every == 0: every vertex may send
    Vertex sparse_senders;  // otherwise only this many
    std::int64_t densest_at_least;
  };
  const Input inputs[] = {{gen_barabasi_albert(120, 3, 5), 25, 1, 0, 0},
                          {gen_gnm(130, 5000, 23), 16, 1, 0, 4097},
                          {gen_gnm(8321, 25000, 24), 16, 8, 3, 4097}};
  for (const Input& in : inputs) {
    for (const TransportModel model :
         {TransportModel::kIdeal, TransportModel::kFaulty,
          TransportModel::kAsync}) {
      for (const int lanes : {1, 2}) {
        SCOPED_TRACE("n=" + std::to_string(in.g.num_vertices()) + " " +
                     transport_model_name(model) +
                     " lanes=" + std::to_string(lanes));
        TransportSpec spec;
        spec.model = model;
        spec.seed = 9;
        spec.drop_p = model == TransportModel::kFaulty ? 0.2 : 0.0;
        spec.dup_p = model == TransportModel::kFaulty ? 0.3 : 0.0;
        spec.latency_max = model == TransportModel::kAsync ? 3 : 1;
        Network rec(in.g);
        Network ref(in.g);
        rec.configure_transport(spec);
        ref.configure_transport(spec);
        rec.set_execution_threads(lanes);
        std::mt19937 rng(17);
        std::int64_t densest = 0;
        for (int round = 0; round < in.rounds; ++round) {
          stage_mixed_round(in.g, rng, rec, ref,
                            round % in.dense_every == 0 ? -1
                                                        : in.sparse_senders);
          EXPECT_EQ(rec.pending_messages(), ref.pending_messages());
          rec.advance_round();
          ref.advance_round();
          expect_same_delivery(rec, ref);
          EXPECT_EQ(rec.in_flight(), ref.in_flight());
          // Receivers ascending, and exactly the vertices with mail.
          const auto& to = rec.delivered_to();
          EXPECT_TRUE(std::adjacent_find(to.begin(), to.end(),
                                         std::greater_equal<>()) == to.end());
          std::size_t with_mail = 0;
          for (Vertex v = 0; v < in.g.num_vertices(); ++v) {
            with_mail += rec.inbox(v).empty() ? 0 : 1;
          }
          EXPECT_EQ(with_mail, to.size());
          densest = std::max(densest, rec.delivered_messages());
        }
        EXPECT_GE(densest, in.densest_at_least);
        while (ref.pending_messages() + ref.in_flight() > 0) {
          rec.advance_round();
          ref.advance_round();
          expect_same_delivery(rec, ref);
        }
        EXPECT_EQ(rec.in_flight(), 0);
        EXPECT_EQ(rec.stats().messages, ref.stats().messages);
        EXPECT_EQ(rec.stats().words, ref.stats().words);
        EXPECT_EQ(rec.delivered_total(), ref.delivered_total());
        EXPECT_EQ(rec.transport().counters().dropped,
                  ref.transport().counters().dropped);
        EXPECT_EQ(rec.transport().counters().duplicated,
                  ref.transport().counters().duplicated);
        EXPECT_EQ(rec.transport().counters().delayed,
                  ref.transport().counters().delayed);
      }
    }
  }
}

TEST(NetworkBroadcast, IsolatedVertexBroadcastsNothing) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  Network net(g);
  net.broadcast(2, Message::of(1));
  EXPECT_EQ(net.pending_messages(), 0);
  net.advance_round();
  EXPECT_TRUE(net.delivered_to().empty());
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(Network, EmptyRoundsAreCheap) {
  const Graph g = gen_gnm(100, 200, 1);
  Network net(g);
  net.advance_rounds(100000);
  EXPECT_EQ(net.stats().rounds, 100000);
  EXPECT_EQ(net.stats().messages, 0);
}

TEST(Network, MaxWordsMessageAllowed) {
  const Graph g = gen_path(2);
  Network net(g);
  EXPECT_NO_THROW(net.send(0, 1, Message::of(1, 2, 3, 4)));
  net.advance_round();
  EXPECT_EQ(net.inbox(1)[0].msg.size, 4);
}

}  // namespace
}  // namespace usne::congest
