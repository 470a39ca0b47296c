// Property tests for Dial's bucket-queue SSSP (dial_sssp_csr): exact
// agreement with Dijkstra on random weighted graphs and on real emulators.

#include <gtest/gtest.h>

#include "core/emulator_centralized.hpp"
#include "core/params.hpp"
#include "graph/generators.hpp"
#include "path/dijkstra.hpp"
#include "path/sssp_kernel.hpp"
#include "util/rng.hpp"

namespace usne {
namespace {

/// Dial on h's packed CSR from `source`, with a fresh scratch.
std::vector<Dist> dial(const WeightedGraph& h, Vertex source) {
  const auto csr = h.csr();
  SsspScratch scratch;
  return dial_sssp_csr(csr, source, max_edge_weight(csr), scratch);
}

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

class DialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DialSweep, MatchesDijkstraOnRandomWeighted) {
  const std::uint64_t seed = GetParam();
  const WeightedGraph h = random_weighted(200, 600, 12, seed);
  for (Vertex s = 0; s < 200; s += 41) {
    EXPECT_EQ(dial(h, s), dijkstra(h, s)) << "seed " << seed << " s " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DialSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Dial, MatchesDijkstraOnEmulator) {
  const Graph g = gen_connected_gnm(300, 900, 3);
  const auto params = CentralizedParams::compute(300, 4, 0.25);
  CentralizedOptions options;
  options.keep_audit_data = false;
  const auto r = build_emulator_centralized(g, params, options);
  for (Vertex s = 0; s < 300; s += 59) {
    EXPECT_EQ(dial(r.h, s), dijkstra(r.h, s));
  }
}

TEST(Dial, HandlesDisconnected) {
  WeightedGraph h(6);
  h.add_edge(0, 1, 3);
  h.add_edge(4, 5, 2);
  const auto dist = dial(h, 0);
  EXPECT_EQ(dist[1], 3);
  EXPECT_EQ(dist[4], kInfDist);
  EXPECT_EQ(dist[5], kInfDist);
}

TEST(Dial, SingleVertex) {
  WeightedGraph h(1);
  const auto dist = dial(h, 0);
  EXPECT_EQ(dist[0], 0);
}

TEST(Dial, LargeWeightsStillCorrect) {
  WeightedGraph h(4);
  h.add_edge(0, 1, 1000);
  h.add_edge(1, 2, 2000);
  h.add_edge(0, 2, 2500);
  const auto dist = dial(h, 0);
  EXPECT_EQ(dist[2], 2500);
  EXPECT_EQ(dist[1], 1000);
}

}  // namespace
}  // namespace usne
