// Tests for the CONGEST collective primitives: BFS forests, presence
// floods, and Algorithm 2 (popular-cluster detection), each validated
// against centralized ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "congest/bfs_forest.hpp"
#include "congest/detect.hpp"
#include "congest/engine.hpp"
#include "congest/flood.hpp"
#include "congest/network.hpp"
#include "congest/transport.hpp"
#include "graph/generators.hpp"
#include "path/bfs.hpp"
#include "path/source_detection.hpp"

namespace usne::congest {
namespace {

TEST(BfsForestCongest, DistancesMatchCentralized) {
  const Graph g = gen_connected_gnm(200, 600, 21);
  Network net(g);
  const std::vector<Vertex> roots = {5, 60, 140};
  const BfsForest f = build_bfs_forest(net, roots, 8);
  const auto ref = multi_source_bfs(g, roots, 8);
  for (Vertex v = 0; v < 200; ++v) {
    if (ref.dist[static_cast<std::size_t>(v)] == kInfDist) {
      EXPECT_FALSE(f.spanned(v));
    } else {
      ASSERT_TRUE(f.spanned(v));
      EXPECT_EQ(f.depth[static_cast<std::size_t>(v)],
                ref.dist[static_cast<std::size_t>(v)]);
    }
  }
}

TEST(BfsForestCongest, ParentsConsistent) {
  const Graph g = gen_torus(10, 10);
  Network net(g);
  const std::vector<Vertex> roots = {0, 55};
  const BfsForest f = build_bfs_forest(net, roots, 20);
  for (Vertex v = 0; v < 100; ++v) {
    if (!f.spanned(v)) continue;
    const Vertex p = f.parent[static_cast<std::size_t>(v)];
    if (f.depth[static_cast<std::size_t>(v)] == 0) {
      EXPECT_EQ(p, -1);
      EXPECT_EQ(f.root[static_cast<std::size_t>(v)], v);
    } else {
      ASSERT_NE(p, -1);
      EXPECT_TRUE(g.has_edge(v, p));
      EXPECT_EQ(f.depth[static_cast<std::size_t>(v)],
                f.depth[static_cast<std::size_t>(p)] + 1);
      EXPECT_EQ(f.root[static_cast<std::size_t>(v)],
                f.root[static_cast<std::size_t>(p)]);
    }
  }
}

TEST(BfsForestCongest, ChildrenInverseOfParents) {
  const Graph g = gen_tree(31, 2);
  Network net(g);
  const BfsForest f = build_bfs_forest(net, {0}, 10);
  const auto children = f.children();
  for (Vertex v = 0; v < 31; ++v) {
    for (const Vertex c : children[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(f.parent[static_cast<std::size_t>(c)], v);
    }
  }
  // Every non-root appears in exactly one children list.
  std::size_t total = 0;
  for (const auto& list : children) total += list.size();
  EXPECT_EQ(total, 30u);
}

TEST(BfsForestCongest, RoundCostIsDepthPlusOne) {
  const Graph g = gen_cycle(30);
  Network net(g);
  build_bfs_forest(net, {0}, 7);
  EXPECT_EQ(net.stats().rounds, 8);  // depth + 1 join round
}

TEST(FloodCongest, DistanceToNearestSource) {
  const Graph g = gen_grid(8, 8);
  Network net(g);
  const std::vector<Vertex> sources = {0, 63};
  const FloodResult flood = flood_presence(net, sources, 6);
  const auto ref = multi_source_bfs(g, sources, 6);
  EXPECT_EQ(flood.dist, ref.dist);
  EXPECT_EQ(net.stats().rounds, 6);
}

TEST(FloodCongest, NoSources) {
  const Graph g = gen_path(5);
  Network net(g);
  const FloodResult flood = flood_presence(net, {}, 3);
  for (const Dist d : flood.dist) EXPECT_EQ(d, kInfDist);
  EXPECT_EQ(net.stats().rounds, 3);  // fixed schedule burns rounds anyway
}

// --- Algorithm 2 ---

TEST(DetectCongest, MatchesCentralizedWhenUncapped) {
  // With a cap larger than the source count, Algorithm 2 must produce the
  // exact same knowledge as the centralized k-nearest detection.
  const Graph g = gen_connected_gnm(150, 450, 33);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 150; v += 10) sources.push_back(v);
  const Dist delta = 5;
  const std::int64_t cap = 64;  // > |sources|

  Network net(g);
  const DetectResult dist_result = detect_congest(net, sources, delta, cap);
  const SourceDetection ref =
      detect_sources(g, sources, delta, static_cast<std::size_t>(cap));

  for (Vertex v = 0; v < 150; ++v) {
    const auto got = dist_result.hits[static_cast<std::size_t>(v)];
    const auto expected = ref.at(v);
    ASSERT_EQ(got.size(), expected.size()) << "vertex " << v;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].source, expected[i].source);
      EXPECT_EQ(got[i].dist, expected[i].dist);
    }
  }
}

TEST(DetectCongest, RoundCostIsDeltaTimesCap) {
  const Graph g = gen_cycle(20);
  Network net(g);
  detect_congest(net, {0, 10}, 4, 3);
  EXPECT_EQ(net.stats().rounds, 12);
}

TEST(DetectCongest, PopularityClassificationExact) {
  // Theorem 3.1 (1): a center is popular iff it has >= deg other centers
  // within delta — regardless of forwarding caps.
  const Graph g = gen_connected_gnm(120, 360, 8);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 120; v += 3) sources.push_back(v);
  const Dist delta = 3;
  const double deg = 4.0;
  const std::int64_t cap = 5;  // deg + 1

  Network net(g);
  const DetectResult det = detect_congest(net, sources, delta, cap);

  for (const Vertex c : sources) {
    // Ground truth: number of other sources within delta.
    const auto dist = bfs_distances(g, c);
    std::int64_t truly_near = 0;
    for (const Vertex s : sources) {
      if (s != c && dist[static_cast<std::size_t>(s)] <= delta) ++truly_near;
    }
    const bool truly_popular = static_cast<double>(truly_near) >= deg;
    const bool detected_popular =
        static_cast<double>(det.heard_others(c)) >= deg;
    EXPECT_EQ(detected_popular, truly_popular) << "center " << c;
  }
}

TEST(DetectCongest, UnpopularCentersKnowExactDistances) {
  // Theorem 3.1 (2): centers that hear fewer than cap sources know all
  // centers within delta with exact distances.
  const Graph g = gen_torus(12, 12);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 144; v += 12) sources.push_back(v);  // one per row
  const Dist delta = 4;
  const std::int64_t cap = 4;

  Network net(g);
  const DetectResult det = detect_congest(net, sources, delta, cap);
  for (const Vertex c : sources) {
    if (static_cast<std::int64_t>(det.hits[static_cast<std::size_t>(c)].size()) >=
        cap) {
      continue;  // capped; no exactness promised
    }
    const auto dist = bfs_distances(g, c);
    for (const Vertex s : sources) {
      if (s == c || dist[static_cast<std::size_t>(s)] > delta) continue;
      EXPECT_EQ(det.distance_to(c, s), dist[static_cast<std::size_t>(s)])
          << c << " -> " << s;
    }
  }
}

TEST(DetectCongest, PathTracing) {
  const Graph g = gen_grid(6, 6);
  Network net(g);
  const std::vector<Vertex> sources = {0, 35};
  const DetectResult det = detect_congest(net, sources, 12, 8);
  const auto path = det.path_to(35, 0);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.front(), 35);
  EXPECT_EQ(path.back(), 0);
  EXPECT_EQ(static_cast<Dist>(path.size()) - 1, det.distance_to(35, 0));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
  }
}

/// Test-local naive Algorithm 2: a linear scan of v's known sources per
/// message and a stride boundary that rescans every vertex's whole hit
/// list. Same schedule and messages as detect_congest; the reference its
/// traffic-proportional bookkeeping must reproduce exactly.
class NaiveDetectProgram final : public NodeProgram {
 public:
  NaiveDetectProgram(Vertex n, std::vector<Vertex> sources, Dist delta,
                     std::int64_t cap)
      : n_(n), cap_(cap), total_rounds_(delta * cap) {
    hits_.assign(static_cast<std::size_t>(n), {});
    pending_.assign(static_cast<std::size_t>(n), {});
    std::sort(sources.begin(), sources.end());
    sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
    for (const Vertex s : sources) {
      hits_[static_cast<std::size_t>(s)].push_back({s, 0, -1});
      pending_[static_cast<std::size_t>(s)].push_back({s, 0, -1});
      active_.push_back(s);
    }
  }

  void init(Outbox& out) override {
    if (total_rounds_ > 0) send_entries(0, out);
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox&) override {
    auto& known = hits_[static_cast<std::size_t>(v)];
    for (const Received& r : inbox) {
      const Vertex src = static_cast<Vertex>(r.msg.words[1]);
      const bool duplicate =
          std::any_of(known.begin(), known.end(),
                      [&](const SourceHit& h) { return h.source == src; });
      if (!duplicate) known.push_back({src, r.msg.words[2] + 1, r.from});
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    if (round + 1 >= total_rounds_) return;
    const std::int64_t t = round % cap_;
    if (t == cap_ - 1) {
      stride_boundary(round / cap_ + 1);
      send_entries(0, out);
    } else {
      send_entries(t + 1, out);
    }
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= total_rounds_;
  }

  std::vector<std::vector<SourceHit>> sorted_hits() const {
    auto hits = hits_;
    for (auto& known : hits) {
      std::sort(known.begin(), known.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.dist != b.dist ? a.dist < b.dist
                                          : a.source < b.source;
                });
    }
    return hits;
  }

 private:
  void send_entries(std::int64_t t, Outbox& out) {
    for (const Vertex v : active_) {
      const auto& list = pending_[static_cast<std::size_t>(v)];
      if (static_cast<std::int64_t>(list.size()) > t) {
        const SourceHit& h = list[static_cast<std::size_t>(t)];
        out.broadcast(v, Message::of(4, h.source, h.dist));
      }
    }
  }

  void stride_boundary(Dist completed_stride) {
    for (const Vertex v : active_) pending_[static_cast<std::size_t>(v)].clear();
    active_.clear();
    for (Vertex v = 0; v < n_; ++v) {
      std::vector<SourceHit> fresh;
      for (const SourceHit& h : hits_[static_cast<std::size_t>(v)]) {
        if (h.dist == completed_stride) fresh.push_back(h);
      }
      if (fresh.empty()) continue;
      std::sort(fresh.begin(), fresh.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.source < b.source;
                });
      if (static_cast<std::int64_t>(fresh.size()) > cap_) {
        fresh.resize(static_cast<std::size_t>(cap_));
      }
      pending_[static_cast<std::size_t>(v)] = std::move(fresh);
      active_.push_back(v);
    }
  }

  Vertex n_;
  std::int64_t cap_;
  std::int64_t total_rounds_;
  std::vector<std::vector<SourceHit>> hits_;
  std::vector<std::vector<SourceHit>> pending_;
  std::vector<Vertex> active_;
};

TEST(DetectCongest, CappedMatchesNaiveReference) {
  // Hubs hear far more than cap sources per stride, so truncation, the
  // per-vertex dedup and the stride-boundary bookkeeping all bite. Under
  // the delaying and lossy transports late explore messages also arrive
  // in later strides.
  const Graph g = gen_barabasi_albert(600, 3, 41);
  std::vector<Vertex> sources;
  for (Vertex v = 0; v < 600; v += 5) sources.push_back(v);
  const Dist delta = 5;
  const std::int64_t cap = 4;  // < |sources| = 120

  for (const TransportModel model :
       {TransportModel::kIdeal, TransportModel::kFaulty,
        TransportModel::kAsync}) {
    TransportSpec spec;
    spec.model = model;
    spec.seed = 3;
    spec.drop_p = model == TransportModel::kFaulty ? 0.1 : 0.0;
    spec.dup_p = model == TransportModel::kFaulty ? 0.2 : 0.0;
    spec.latency_max = model == TransportModel::kAsync ? 3 : 1;

    Network ref_net(g);
    ref_net.configure_transport(spec);
    NaiveDetectProgram naive(g.num_vertices(), sources, delta, cap);
    Scheduler(ref_net).run(naive);
    const auto expected = naive.sorted_hits();

    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(transport_model_name(model)) +
                   " threads=" + std::to_string(threads));
      Network net(g);
      net.configure_transport(spec);
      net.set_execution_threads(threads);
      const DetectResult got = detect_congest(net, sources, delta, cap);
      ASSERT_EQ(got.hits.size(), expected.size());
      for (std::size_t v = 0; v < expected.size(); ++v) {
        ASSERT_EQ(got.hits[v].size(), expected[v].size()) << "v=" << v;
        for (std::size_t i = 0; i < expected[v].size(); ++i) {
          EXPECT_EQ(got.hits[v][i].source, expected[v][i].source);
          EXPECT_EQ(got.hits[v][i].dist, expected[v][i].dist);
          EXPECT_EQ(got.hits[v][i].pred, expected[v][i].pred);
        }
      }
      EXPECT_EQ(net.stats().rounds, ref_net.stats().rounds);
      EXPECT_EQ(net.stats().messages, ref_net.stats().messages);
      EXPECT_EQ(net.stats().words, ref_net.stats().words);
    }
  }
}

}  // namespace
}  // namespace usne::congest
