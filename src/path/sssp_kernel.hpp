#pragma once

// GAPBS-grade single-source shortest-path kernels for the serving hot path.
//
// The original dial_sssp (path/dijkstra.hpp) is a textbook Dial that
// allocates a fresh bucket-per-distance array every call and walks the
// adjacency through the lazy per-vertex accessor. At n >= 10^6 that is the
// whole serving cost, so these kernels apply the standard shared-memory
// SSSP engineering (the GAPBS / Meyer–Sanders delta-stepping lineage):
//
//  * flat frontier arrays over a packed CSR view (WeightedGraph::Csr) —
//    one offsets/arcs pair, iterated directly, next row prefetched;
//  * a circular bucket ring sized by the maximum edge weight (Dial) or by
//    max_w / delta (delta-stepping) instead of one bucket per distance
//    value, so bucket storage is O(W) not O(diameter * W);
//  * bucket fusion: the current bucket is drained to a fixpoint locally
//    (re-relaxed vertices that fall back into it are processed in the same
//    sweep) before the ring advances;
//  * reusable per-thread scratch (SsspScratch) — steady-state queries
//    allocate only the result vector they hand to the cache.
//
// An acyclic H — the ultra-sparse emulator at its sparsest, |H| = n - c for
// c components, is a weighted spanning forest — needs no priority queue at
// all: forest_sssp_csr walks a ForestIndex (the forest in DFS preorder) once,
// setting each vertex's distance from its parent's, in O(n) with no scratch.
//
// Every kernel computes exact distances on H, so results are bit-identical
// to dial_sssp / dijkstra on every workload — enforced by
// tests/test_serve_kernels.cpp and the bench_scale checksum gates.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne {

/// Kernel selector for serve::QueryEngine (ServeOptions::kernel).
enum class SsspKernel {
  kDial,   ///< circular-ring Dial: exact, O(V + E + diameter) bucket ops
  kDelta,  ///< delta-stepping with light/heavy split and bucket fusion
};

/// "dial" | "delta". Throws std::invalid_argument listing the names.
SsspKernel parse_sssp_kernel(const std::string& name);
const char* sssp_kernel_name(SsspKernel kernel) noexcept;

/// Reusable buffers for the flat-frontier kernels. One instance per serving
/// thread (the engine keeps them thread_local): buffers grow to the largest
/// (n, max_w/delta) seen and are recycled wholesale — a steady-state query
/// performs no frontier/bucket allocation.
class SsspScratch {
 public:
  /// Total bytes currently held by the scratch buffers (capacity, not
  /// size) — the per-thread memory cost the scale bench accounts for.
  std::int64_t resident_bytes() const noexcept;

 private:
  friend std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g,
                                         Vertex source, Dist max_w,
                                         SsspScratch& scratch);
  friend std::vector<Dist> delta_sssp_csr(const WeightedGraph::Csr& g,
                                          Vertex source, Dist max_w,
                                          Dist delta, SsspScratch& scratch);

  void reset_ring(std::size_t slots);
  /// Bumps the visit generation, resetting stamps lazily (O(n) only when
  /// the stamp array grows or the 32-bit generation wraps).
  void next_generation(std::size_t n);

  std::vector<std::vector<Vertex>> ring_;  // circular bucket frontiers
  std::vector<Vertex> frontier_;           // current bucket being drained
  std::vector<Vertex> settled_;            // per-bucket settled list (delta)
  std::vector<std::uint32_t> stamp_;       // visit generation per vertex
  std::uint32_t generation_ = 0;
};

/// Exact SSSP with a circular Dial ring of max_w + 1 flat buckets.
/// `max_w` must be >= the largest edge weight in g (pass max_edge_weight).
std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                Dist max_w, SsspScratch& scratch);

/// Exact delta-stepping: buckets of width `delta` (a power of two), light
/// edges (w <= delta) relaxed to a fixpoint within the bucket, heavy edges
/// once per settled vertex. delta = 1 degenerates to Dial. `max_w` must be
/// >= the largest edge weight in g.
std::vector<Dist> delta_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                 Dist max_w, Dist delta, SsspScratch& scratch);

/// A forest in DFS preorder: the O(n) single-source index for an acyclic H.
/// Position i of the preorder holds one vertex with its parent's position,
/// the end of its subtree (positions [i, subtree_end) are i and its
/// descendants), the first position of its tree and the weight of the edge
/// up to its parent — 24 B per vertex, plus a 4 B vertex -> position map.
/// Immutable once built, so any number of serving threads share one.
class ForestIndex {
 public:
  /// Indexes g in O(n + arcs) by an iterative DFS (no recursion, so path-
  /// deep trees are fine) from each unvisited root in ascending vertex order.
  /// Returns nullopt when g is not a forest: first by the O(1) edge count
  /// (arcs / 2 > n - 1), else because arcs / 2 != n - components, which also
  /// rejects duplicate arcs.
  static std::optional<ForestIndex> build(const WeightedGraph::Csr& g);

 private:
  friend std::vector<Dist> forest_sssp_csr(const WeightedGraph::Csr& g,
                                           const ForestIndex& index,
                                           Vertex source);

  struct Node {
    Vertex vertex = 0;
    Vertex parent = -1;       ///< parent's position; -1 at a root
    Vertex subtree_end = 0;   ///< one past the last descendant's position
    Vertex tree_begin = 0;    ///< position of this vertex's root
    Dist up_w = 0;            ///< weight of the edge to the parent
  };

  std::vector<Node> preorder_;
  std::vector<Vertex> position_;  ///< vertex -> preorder position
};

/// Exact SSSP on a forest: walks up the source's ancestor chain, then makes
/// one preorder pass over the source's tree writing dist[v] = dist[parent] +
/// w straight into the result. Vertices of other trees read kInfDist.
/// `index` must have been built from g.
std::vector<Dist> forest_sssp_csr(const WeightedGraph::Csr& g,
                                  const ForestIndex& index, Vertex source);

/// Largest edge weight in g (0 for an edgeless graph). One O(E) scan; the
/// engine computes it once at construction.
Dist max_edge_weight(const WeightedGraph::Csr& g) noexcept;

/// Heuristic bucket width for delta_sssp_csr: the mean edge weight rounded
/// up to a power of two (>= 1). Matches the GAPBS guidance that delta near
/// the average weight balances bucket count against re-relaxation.
Dist auto_delta(const WeightedGraph::Csr& g) noexcept;

/// Degree-descending vertex order for cache-friendly renumbering:
/// new_of_old[v] is v's new id when vertices are sorted by degree
/// (descending, ties by old id so the order is deterministic). Hot hubs
/// cluster at the front of the dist array and the CSR, which is what makes
/// the renumbered kernels prefetch-friendly on skewed graphs.
std::vector<Vertex> degree_sorted_order(const WeightedGraph::Csr& g);

/// The CSR of g with vertices renumbered by `new_of_old` (storage for the
/// result is appended to `offsets`/`arcs`, which must outlive the view).
WeightedGraph::Csr renumber_csr(const WeightedGraph::Csr& g,
                                const std::vector<Vertex>& new_of_old,
                                std::vector<std::int64_t>& offsets,
                                std::vector<WeightedGraph::Arc>& arcs);

}  // namespace usne
