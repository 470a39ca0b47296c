// The scale-tier kernel stack (path/sssp_kernel.hpp) and its serve-layer
// integration: flat-frontier Dial, delta-stepping and the forest pass must
// be bit-identical to Dijkstra on every input; the engine must pick the
// forest kernel exactly when H is acyclic; degree-sorted renumbering must be
// invisible in every answer; the per-thread source memo must change costs,
// never results or the uncached-engine contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "graph/weighted_graph.hpp"
#include "path/dijkstra.hpp"
#include "path/sssp_kernel.hpp"
#include "serve/query_engine.hpp"
#include "serve/workload.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

WeightedGraph random_weighted(Vertex n, std::int64_t m, Dist max_w,
                              std::uint64_t seed) {
  Rng rng(seed);
  WeightedGraph h(n);
  while (h.num_edges() < m) {
    const Vertex u = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    const Vertex v = static_cast<Vertex>(rng.below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    h.add_edge(u, v, rng.between(1, max_w));
  }
  return h;
}

/// A random forest on n vertices: each vertex but the first, in a shuffled
/// order, joins a random earlier vertex with probability `attach_p` (so
/// roughly (1 - attach_p) * n trees, isolated vertices among them). Labels
/// are shuffled, so roots and parents are scattered over the id range.
WeightedGraph random_forest(Vertex n, double attach_p, Dist max_w,
                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng);
  WeightedGraph h(n);
  const auto threshold = static_cast<std::uint64_t>(attach_p * 1000);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (rng.below(1000) >= threshold) continue;
    const Vertex parent = order[rng.below(i)];
    h.add_edge(order[i], parent, rng.between(1, max_w));
  }
  return h;
}

/// forest_sssp_csr from `s` on an acyclic h, through a fresh index.
std::vector<Dist> forest_from(const WeightedGraph& h, Vertex s) {
  const auto csr = h.csr();
  const std::optional<ForestIndex> index = ForestIndex::build(csr);
  if (!index) return {};
  return forest_sssp_csr(csr, *index, s);
}

// ---------------------------------------------------------------------------
// Kernel layer

class KernelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelSweep, CsrKernelsMatchDijkstra) {
  const std::uint64_t seed = GetParam();
  // Mixed weight scales: max_w 1 degenerates delta to Dial; 40 exercises
  // the heavy-edge phase for every delta below it.
  for (const Dist max_w : {Dist{1}, Dist{7}, Dist{40}}) {
    const WeightedGraph h = random_weighted(150, 450, max_w, seed);
    const auto csr = h.csr();
    const Dist w = max_edge_weight(csr);
    SsspScratch scratch;  // one scratch reused across every query below
    for (Vertex s = 0; s < 150; s += 37) {
      const std::vector<Dist> want = dijkstra(h, s);
      EXPECT_EQ(dial_sssp_csr(csr, s, w, scratch), want)
          << "dial seed " << seed << " max_w " << max_w << " s " << s;
      for (const Dist delta : {Dist{1}, Dist{4}, Dist{64}}) {
        EXPECT_EQ(delta_sssp_csr(csr, s, w, delta, scratch), want)
            << "delta=" << delta << " seed " << seed << " max_w " << max_w
            << " s " << s;
      }
      EXPECT_EQ(delta_sssp_csr(csr, s, w, auto_delta(csr), scratch), want)
          << "auto delta, seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(SsspKernelTest, DisconnectedAndTrivialGraphs) {
  WeightedGraph h(5);
  h.add_edge(0, 1, 3);
  h.add_edge(1, 2, 2);  // 3 and 4 isolated
  const auto csr = h.csr();
  SsspScratch scratch;
  const Dist w = max_edge_weight(csr);
  for (const Vertex s : {Vertex{0}, Vertex{3}}) {
    const std::vector<Dist> want = dijkstra(h, s);
    EXPECT_EQ(dial_sssp_csr(csr, s, w, scratch), want);
    EXPECT_EQ(delta_sssp_csr(csr, s, w, 4, scratch), want);
  }

  const WeightedGraph single(1);
  const auto single_csr = single.csr();
  EXPECT_EQ(dial_sssp_csr(single_csr, 0, 0, scratch),
            std::vector<Dist>{0});
  EXPECT_EQ(delta_sssp_csr(single_csr, 0, 0, 1, scratch),
            std::vector<Dist>{0});
}

TEST(SsspKernelTest, ParseAndNames) {
  EXPECT_EQ(parse_sssp_kernel("dial"), SsspKernel::kDial);
  EXPECT_EQ(parse_sssp_kernel("delta"), SsspKernel::kDelta);
  EXPECT_THROW(parse_sssp_kernel("bogus"), std::invalid_argument);
  EXPECT_STREQ(sssp_kernel_name(SsspKernel::kDial), "dial");
  EXPECT_STREQ(sssp_kernel_name(SsspKernel::kDelta), "delta");
}

TEST(SsspKernelTest, ScratchReportsResidentBytes) {
  const WeightedGraph h = random_weighted(64, 200, 9, 3);
  SsspScratch scratch;
  EXPECT_EQ(scratch.resident_bytes(), 0);
  const auto csr = h.csr();
  dial_sssp_csr(csr, 0, max_edge_weight(csr), scratch);
  EXPECT_GT(scratch.resident_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Forest kernel: one preorder pass must equal Dijkstra on every forest, and
// the index must refuse every graph with a cycle.

TEST(ForestKernelTest, RandomForestsMatchDijkstraFromEverySource) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    for (const double attach_p : {0.6, 0.9, 1.0}) {
      const WeightedGraph h = random_forest(200, attach_p, 30, seed);
      const auto csr = h.csr();
      const std::optional<ForestIndex> index = ForestIndex::build(csr);
      ASSERT_TRUE(index.has_value()) << "seed " << seed;
      for (Vertex s = 0; s < 200; ++s) {
        ASSERT_EQ(forest_sssp_csr(csr, *index, s), dijkstra(h, s))
            << "seed " << seed << " attach_p " << attach_p << " s " << s;
      }
    }
  }
}

TEST(ForestKernelTest, DeepPathNeedsNoRecursion) {
  // A 10^5-vertex path: the DFS is 10^5 frames deep, which must not
  // recurse. Once in id order (root at one end), once with shuffled labels
  // (the root lands mid-path).
  const Vertex n = 100000;
  Rng rng(5);
  std::vector<Vertex> label(static_cast<std::size_t>(n));
  std::iota(label.begin(), label.end(), 0);
  for (const bool shuffled : {false, true}) {
    if (shuffled) std::shuffle(label.begin(), label.end(), rng);
    WeightedGraph h(n);
    for (Vertex i = 0; i + 1 < n; ++i) {
      h.add_edge(label[static_cast<std::size_t>(i)],
                 label[static_cast<std::size_t>(i) + 1], 1 + i % 7);
    }
    for (const Vertex s : {Vertex{0}, Vertex{1}, n / 2, n - 2, n - 1}) {
      EXPECT_EQ(forest_from(h, s), dijkstra(h, s))
          << "shuffled " << shuffled << " s " << s;
    }
  }
}

TEST(ForestKernelTest, StarsAndTrivialForests) {
  for (const Vertex center : {Vertex{0}, Vertex{17}, Vertex{49}}) {
    WeightedGraph star(50);
    for (Vertex v = 0; v < 50; ++v) {
      if (v != center) star.add_edge(center, v, 1 + v % 5);
    }
    for (Vertex s = 0; s < 50; ++s) {
      EXPECT_EQ(forest_from(star, s), dijkstra(star, s))
          << "center " << center << " s " << s;
    }
  }

  const WeightedGraph single(1);
  EXPECT_EQ(forest_from(single, 0), std::vector<Dist>{0});

  const WeightedGraph isolated(4);  // four one-vertex trees
  EXPECT_EQ(forest_from(isolated, 2),
            (std::vector<Dist>{kInfDist, kInfDist, 0, kInfDist}));

  const WeightedGraph empty(0);
  EXPECT_TRUE(ForestIndex::build(empty.csr()).has_value());
}

TEST(ForestKernelTest, IndexRejectsEveryCycle) {
  // Too many edges: refused by the O(1) count alone.
  WeightedGraph triangle(3);
  triangle.add_edge(0, 1, 1);
  triangle.add_edge(1, 2, 1);
  triangle.add_edge(0, 2, 1);
  EXPECT_FALSE(ForestIndex::build(triangle.csr()).has_value());

  // A forest plus one edge closing a cycle inside one component: |E| is
  // still <= n - 1 (there are other components), so only the DFS's
  // component count catches it.
  WeightedGraph cyclic_forest = random_forest(60, 0.7, 9, 8);
  const std::optional<ForestIndex> before =
      ForestIndex::build(cyclic_forest.csr());
  ASSERT_TRUE(before.has_value());
  const std::vector<Dist> reach = dijkstra(cyclic_forest, 0);
  Vertex far = -1;  // a vertex of 0's tree that is not adjacent to 0
  for (Vertex v = 1; v < 60; ++v) {
    if (reach[static_cast<std::size_t>(v)] != kInfDist &&
        cyclic_forest.edge_weight(0, v) == kInfDist) {
      far = v;
    }
  }
  ASSERT_GE(far, 0);
  cyclic_forest.add_edge(0, far, 3);
  ASSERT_LE(cyclic_forest.num_edges(), 59);
  EXPECT_FALSE(ForestIndex::build(cyclic_forest.csr()).has_value());

  // A duplicated edge is a 2-cycle: a hand-built CSR with edge 0-1 twice
  // and two isolated vertices passes the count test, not the DFS.
  const std::vector<std::int64_t> offsets{0, 2, 4, 4, 4};
  const std::vector<WeightedGraph::Arc> arcs{{1, 2}, {1, 2}, {0, 2}, {0, 2}};
  const WeightedGraph::Csr doubled{4, offsets.data(), arcs.data()};
  EXPECT_FALSE(ForestIndex::build(doubled).has_value());
}

TEST(ForestKernelTest, AuditCatchesAnIndexOfAnotherGraph) {
#ifndef USNE_NO_AUDITS
  inv::ScopedAuditsEnabled on(true);
  const WeightedGraph a = random_forest(40, 1.0, 9, 21);
  const WeightedGraph b = random_forest(40, 1.0, 9, 22);
  const std::optional<ForestIndex> index_a = ForestIndex::build(a.csr());
  ASSERT_TRUE(index_a.has_value());
  EXPECT_NO_THROW(forest_sssp_csr(a.csr(), *index_a, 0));
  EXPECT_THROW(forest_sssp_csr(b.csr(), *index_a, 0), inv::InvariantViolation);
#else
  GTEST_SKIP() << "audits compiled out";
#endif
}

TEST(ForestKernelTest, SparsestEmulatorsAreForests) {
  // At its sparsest (|H| = n - 1 on a connected G) every emulator builder
  // must hand back a spanning tree, which the forest kernel then serves
  // exactly; a denser H must be refused. Kappa 6 is sparse enough that
  // each builder yields trees on these graphs, so the check is not vacuous.
  for (const std::string algo :
       {"emulator_fast", "emulator_congest", "emulator_centralized"}) {
    int trees = 0;
    for (const int kappa : {3, 6}) {
      for (const std::uint64_t seed : {1, 2}) {
        const Graph g = gen_family("er", 96, seed);
        BuildSpec spec;
        spec.algorithm = algo;
        spec.params.kappa = kappa;
        spec.params.eps = 0.5;
        spec.params.rho = 0.4;
        spec.exec.keep_audit_data = false;
        const BuildOutput out = build(g, spec);
        const WeightedGraph& h = out.h();
        const auto csr = h.csr();
        const std::optional<ForestIndex> index = ForestIndex::build(csr);
        const bool tree = h.num_edges() == h.num_vertices() - 1;
        ASSERT_EQ(index.has_value(), tree)
            << algo << " kappa " << kappa << " seed " << seed << " |H| "
            << h.num_edges();
        if (!tree) continue;
        ++trees;
        for (Vertex s = 0; s < h.num_vertices(); ++s) {
          ASSERT_EQ(forest_sssp_csr(csr, *index, s), dijkstra(h, s))
              << algo << " kappa " << kappa << " seed " << seed << " s " << s;
        }
      }
    }
    EXPECT_GT(trees, 0) << algo << " never produced a spanning tree";
  }
}

TEST(RenumberTest, DegreeSortedOrderIsAPermutationSortedByDegree) {
  const WeightedGraph h = random_weighted(80, 300, 5, 7);
  const auto csr = h.csr();
  const std::vector<Vertex> new_of_old = degree_sorted_order(csr);
  std::vector<Vertex> old_of_new(new_of_old.size(), -1);
  for (Vertex old = 0; old < csr.n; ++old) {
    const Vertex pos = new_of_old[static_cast<std::size_t>(old)];
    ASSERT_GE(pos, 0);
    ASSERT_LT(pos, csr.n);
    ASSERT_EQ(old_of_new[static_cast<std::size_t>(pos)], -1) << "collision";
    old_of_new[static_cast<std::size_t>(pos)] = old;
  }
  for (Vertex pos = 0; pos + 1 < csr.n; ++pos) {
    EXPECT_GE(csr.degree(old_of_new[static_cast<std::size_t>(pos)]),
              csr.degree(old_of_new[static_cast<std::size_t>(pos) + 1]));
  }
}

TEST(RenumberTest, RenumberedCsrRoundTripsDistances) {
  const WeightedGraph h = random_weighted(120, 400, 11, 9);
  const auto csr = h.csr();
  const Dist w = max_edge_weight(csr);
  const std::vector<Vertex> new_of_old = degree_sorted_order(csr);
  std::vector<std::int64_t> offsets;
  std::vector<WeightedGraph::Arc> arcs;
  const auto permuted = renumber_csr(csr, new_of_old, offsets, arcs);
  ASSERT_EQ(permuted.num_arcs(), csr.num_arcs());
  SsspScratch scratch;
  for (Vertex s = 0; s < 120; s += 29) {
    const std::vector<Dist> want = dijkstra(h, s);
    const std::vector<Dist> perm = dial_sssp_csr(
        permuted, new_of_old[static_cast<std::size_t>(s)], w, scratch);
    for (Vertex v = 0; v < 120; ++v) {
      EXPECT_EQ(perm[static_cast<std::size_t>(
                    new_of_old[static_cast<std::size_t>(v)])],
                want[static_cast<std::size_t>(v)])
          << "s " << s << " v " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Graph layer: the packed CSR view and the bulk factory.

TEST(CsrViewTest, MatchesAdjacency) {
  const WeightedGraph h = random_weighted(60, 180, 6, 11);
  const auto csr = h.csr();
  ASSERT_EQ(csr.n, h.num_vertices());
  EXPECT_EQ(csr.num_arcs(), 2 * h.num_edges());
  for (Vertex v = 0; v < csr.n; ++v) {
    const auto row = csr.row(v);
    const auto adj = h.adjacency(v);
    ASSERT_EQ(row.size(), adj.size()) << "v " << v;
    EXPECT_EQ(csr.degree(v), static_cast<std::int64_t>(adj.size()));
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].to, adj[i].to);
      EXPECT_EQ(row[i].w, adj[i].w);
    }
  }
}

TEST(FromEdgesTest, BulkFactoryMatchesIncrementalConstruction) {
  WeightedGraph incremental(6);
  incremental.add_edge(0, 1, 3);
  incremental.add_edge(1, 2, 1);
  incremental.add_edge(0, 5, 7);
  incremental.add_edge(2, 4, 2);
  const WeightedGraph bulk = WeightedGraph::from_edges(
      6, {{0, 1, 3}, {0, 5, 7}, {1, 2, 1}, {2, 4, 2}});
  EXPECT_EQ(bulk.num_edges(), incremental.num_edges());
  // The lazy per-edge index builds on first edge_weight call.
  EXPECT_EQ(bulk.edge_weight(1, 0), 3);
  EXPECT_EQ(bulk.edge_weight(5, 0), 7);
  EXPECT_EQ(bulk.edge_weight(0, 4), kInfDist);
  for (Vertex s = 0; s < 6; ++s) {
    EXPECT_EQ(dijkstra(bulk, s), dijkstra(incremental, s));
  }
}

TEST(FromEdgesTest, LazyIndexSupportsLaterMutation) {
  WeightedGraph h = WeightedGraph::from_edges(4, {{0, 1, 5}, {1, 2, 5}});
  EXPECT_TRUE(h.add_edge(0, 1, 2));  // min-weight dedup needs the index
  EXPECT_EQ(h.edge_weight(0, 1), 2);
  EXPECT_EQ(h.num_edges(), 2);
}

TEST(FromEdgesTest, RejectsMalformedLists) {
  EXPECT_THROW(WeightedGraph::from_edges(3, {{1, 0, 2}}),
               std::invalid_argument);  // u >= v
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 3, 2}}),
               std::invalid_argument);  // out of range
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 1, 0}}),
               std::invalid_argument);  // non-positive weight
  EXPECT_THROW(WeightedGraph::from_edges(3, {{0, 1, 2}, {0, 1, 3}}),
               std::invalid_argument);  // duplicate
}

TEST(FromEdgesTest, UnitWeightsServesG) {
  const Graph g = gen_family("er", 64, 5);
  const WeightedGraph h = WeightedGraph::unit_weights(g);
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (const WeightedEdge& e : h.edges()) EXPECT_EQ(e.w, 1);
}

// ---------------------------------------------------------------------------
// Serve layer: kernel selection, renumbering and the source memo must be
// invisible in every answer, at every thread count.

std::vector<serve::Query> workload_of(serve::WorkloadKind kind, Vertex n) {
  serve::WorkloadSpec spec;
  spec.kind = kind;
  spec.num_queries = 600;
  spec.seed = 42;
  return serve::generate_workload(n, spec);
}

TEST(ServeKernelTest, EngineAnswersIdenticalAcrossKernelsAndThreads) {
  const Vertex n = 256;
  const WeightedGraph h = random_weighted(n, 1024, 9, 13);

  for (const auto kind :
       {serve::WorkloadKind::kZipf, serve::WorkloadKind::kUniform,
        serve::WorkloadKind::kGrouped, serve::WorkloadKind::kPointVsAll}) {
    const std::vector<serve::Query> queries = workload_of(kind, n);
    std::vector<Dist> reference;
    for (const SsspKernel kernel : {SsspKernel::kDial, SsspKernel::kDelta}) {
      for (const auto renumber :
           {serve::Renumber::kNone, serve::Renumber::kDegreeSort}) {
        for (const int threads : {1, 2, 8}) {
          serve::ServeOptions options;
          options.cache_mb = 4;
          options.kernel = kernel;
          options.renumber = renumber;
          const serve::QueryEngine engine(h, 1.0, 0, options);
          const serve::BatchResult batch = engine.serve(queries, threads);
          if (reference.empty()) {
            reference = batch.answers;
          } else {
            EXPECT_EQ(batch.answers, reference)
                << sssp_kernel_name(kernel) << " renumber="
                << (renumber == serve::Renumber::kDegreeSort) << " threads="
                << threads;
          }
        }
      }
    }
  }
}

TEST(ServeKernelTest, EngineServesExactlyTheAcyclicHWithTheForestKernel) {
  const WeightedGraph tree = random_forest(80, 1.0, 9, 31);
  const WeightedGraph forest = random_forest(80, 0.8, 9, 32);
  ASSERT_EQ(tree.num_edges(), 79);

  // Tree plus one edge, and forest plus one edge closing a cycle inside a
  // component: both keep the configured ring kernel.
  WeightedGraph tree_plus = tree;
  for (Vertex v = 2; tree_plus.num_edges() == tree.num_edges(); ++v) {
    tree_plus.add_edge(0, v, 5);
  }
  WeightedGraph forest_plus = forest;
  const std::vector<Dist> reach = dijkstra(forest, 0);
  for (Vertex v = 1; forest_plus.num_edges() == forest.num_edges(); ++v) {
    if (reach[static_cast<std::size_t>(v)] != kInfDist) {
      forest_plus.add_edge(0, v, 5);
    }
  }
  ASSERT_LT(forest_plus.num_edges(), 79);  // more than one component

  for (const SsspKernel kernel : {SsspKernel::kDial, SsspKernel::kDelta}) {
    for (const auto renumber :
         {serve::Renumber::kNone, serve::Renumber::kDegreeSort}) {
      serve::ServeOptions options;
      options.kernel = kernel;
      options.renumber = renumber;
      EXPECT_STREQ(serve::QueryEngine(tree, 1.0, 0, options).kernel_name(),
                   "forest");
      EXPECT_STREQ(serve::QueryEngine(forest, 1.0, 0, options).kernel_name(),
                   "forest");
      EXPECT_STREQ(
          serve::QueryEngine(tree_plus, 1.0, 0, options).kernel_name(),
          sssp_kernel_name(kernel));
      EXPECT_STREQ(
          serve::QueryEngine(forest_plus, 1.0, 0, options).kernel_name(),
          sssp_kernel_name(kernel));
    }
  }
}

TEST(ServeKernelTest, ForestAnswersMatchRingKernelsAcrossThreads) {
  // The ring kernels cannot be forced onto a tree, so they serve the tree
  // plus one edge too heavy to lie on any shortest path: same distances,
  // H with a cycle. Every configuration must give the same answers, and
  // the multi-threaded ones share the engine's one read-only index (this
  // test binary runs under the TSan leg).
  const Vertex n = 300;
  const WeightedGraph tree = random_forest(n, 1.0, 9, 41);
  WeightedGraph heavy = tree;
  heavy.add_edge(0, n - 1, 9 * n);
  if (heavy.num_edges() == tree.num_edges()) heavy.add_edge(1, n - 1, 9 * n);
  ASSERT_EQ(heavy.num_edges(), tree.num_edges() + 1);

  for (const auto kind :
       {serve::WorkloadKind::kZipf, serve::WorkloadKind::kUniform,
        serve::WorkloadKind::kGrouped, serve::WorkloadKind::kPointVsAll}) {
    const std::vector<serve::Query> queries = workload_of(kind, n);
    std::vector<Dist> reference;
    for (const bool ring : {false, true}) {
      for (const SsspKernel kernel : {SsspKernel::kDial, SsspKernel::kDelta}) {
        for (const auto renumber :
             {serve::Renumber::kNone, serve::Renumber::kDegreeSort}) {
          for (const int threads : {1, 2, 8}) {
            serve::ServeOptions options;
            options.cache_mb = 1;
            options.kernel = kernel;
            options.renumber = renumber;
            const serve::QueryEngine engine(ring ? heavy : tree, 1.0, 0,
                                            options);
            ASSERT_STREQ(engine.kernel_name(),
                         ring ? sssp_kernel_name(kernel) : "forest");
            const serve::BatchResult batch = engine.serve(queries, threads);
            if (reference.empty()) {
              reference = batch.answers;
            } else {
              EXPECT_EQ(batch.answers, reference)
                  << engine.kernel_name() << " renumber="
                  << (renumber == serve::Renumber::kDegreeSort)
                  << " threads=" << threads;
            }
          }
        }
      }
    }
  }
}

TEST(ServeKernelTest, DegreeSortFlagFlowsFromBuildSpecToEngine) {
  const Graph g = gen_family("er", 128, 2024);
  BuildSpec spec;
  spec.algorithm = "emulator_fast";
  spec.params.kappa = 4;
  spec.params.eps = 0.4;
  spec.params.rho = 0.49;
  spec.exec.keep_audit_data = false;

  const BuildOutput plain = build(g, spec);
  spec.exec.degree_sort = true;
  const BuildOutput sorted = build(g, spec);
  // The hint must never leak into the construction itself.
  EXPECT_EQ(plain.h().edges(), sorted.h().edges());
  EXPECT_FALSE(plain.degree_sort);
  EXPECT_TRUE(sorted.degree_sort);

  const serve::QueryEngine plain_engine(plain);    // Renumber::kInherit
  const serve::QueryEngine sorted_engine(sorted);  // picks up the flag
  EXPECT_FALSE(plain_engine.renumbered());
  EXPECT_TRUE(sorted_engine.renumbered());

  const std::vector<serve::Query> queries =
      workload_of(serve::WorkloadKind::kZipf, g.num_vertices());
  const serve::BatchResult a = plain_engine.serve(queries, 2);
  const serve::BatchResult b = sorted_engine.serve(queries, 2);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(ServeKernelTest, SourceMemoShortCircuitsRepeatedSources) {
  const Vertex n = 64;
  const WeightedGraph h = random_weighted(n, 256, 5, 17);
  serve::ServeOptions options;
  options.cache_entries_per_shard = 4;
  const serve::QueryEngine engine(h, 1.0, 0, options);

  // A grouped run: one SSSP for the first query, memo hits for the rest.
  for (Vertex v = 1; v < 20; ++v) engine.query(7, v);
  serve::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.sssp_runs, 1);
  EXPECT_EQ(stats.hits, 18);

  // Same source via query_all: still the one computation.
  const serve::SsspResult all = engine.query_all(7);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 1);
  EXPECT_EQ((*all)[13], engine.query(7, 13));

  // Switching sources invalidates the memo but lands in the shared cache.
  engine.query(9, 3);
  engine.query(7, 3);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 2);
}

TEST(ServeKernelTest, MemoNeverActivatesWithoutCache) {
  const WeightedGraph h = random_weighted(48, 160, 4, 19);
  serve::ServeOptions options;
  options.cache_mb = 0;  // uncached engines are strict recompute references
  const serve::QueryEngine engine(h, 1.0, 0, options);
  engine.query(3, 5);
  engine.query(3, 6);
  engine.query(3, 7);
  EXPECT_EQ(engine.cache_stats().sssp_runs, 3);
}

}  // namespace
}  // namespace usne
