#pragma once

// GAPBS-grade single-source shortest-path kernels for the serving hot path.
//
// Serving cost at n >= 10^6 is the SSSP itself, so these kernels apply the
// standard shared-memory SSSP engineering (the GAPBS / Meyer–Sanders
// delta-stepping lineage):
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
// The ultra-sparse emulator is a spanning forest plus k non-tree edges
// (|H| = n - c + k for c components, k << n), which needs a priority queue
// only on a small core: forest_sssp_csr walks a ForestIndex (the forest in
// DFS preorder, the core being the ends of the non-tree edges and their
// ancestors) with one Dial on the core's own CSR and one pass per pendant
// subtree, setting each vertex's distance from its parent's. On a forest the
// core is empty and the kernel is one O(n) pass with no scratch use.
//
// Every kernel computes exact distances on H, so results are bit-identical
// to dijkstra on every workload — enforced by tests/test_serve_kernels.cpp
// and the bench_scale checksum gates.

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

/// A spanning forest of g in DFS preorder plus its core: the single-source
/// index for an H that is a forest plus k non-tree edges (the ultra-sparse
/// emulators, |H| = n - 1 + k with k << n).
///
/// The endpoints of the non-tree edges ("portals") and all their ancestors
/// form the core S, which is therefore ancestor-closed: within a tree it is
/// either empty or a subtree containing the root. Every other vertex lies in
/// a pendant subtree that holds no portal and hangs off S by one tree edge,
/// so a shortest path between core vertices never leaves S, and a pendant
/// subtree rooted at c is the contiguous preorder range [c, subtree_end(c)).
/// The core gets its own small CSR with every arc of g between two core
/// vertices. A forest is the empty-core case: each tree is one range.
///
/// Cost: 24 B per vertex (vertex, parent position, subtree end, core id and
/// the weight of the edge up to the parent) plus a 4 B vertex -> position
/// map; per core vertex 16 B (its position, its tree, a CSR offset) plus
/// 16 B per core arc; 8 B per pendant range and 16 B per tree with a core.
/// Immutable once built, so any number of serving threads share one.
class ForestIndex {
 public:
  /// Indexes g in O(n + arcs) by an iterative DFS (no recursion, so path-
  /// deep trees are fine) from each unvisited root in ascending vertex
  /// order, marking the core at each non-tree arc by walking up from both
  /// ends until a vertex already marked. Returns nullopt when the core has
  /// more than `max_core` vertices, before building the core CSR; the
  /// measured core size is stored in `*core_vertices` either way (when
  /// non-null).
  static std::optional<ForestIndex> build(const WeightedGraph::Csr& g,
                                          Vertex max_core,
                                          Vertex* core_vertices = nullptr);

  /// |S|: 0 exactly when g is a forest.
  Vertex core_vertices() const noexcept {
    return static_cast<Vertex>(core_position_.size());
  }

 private:
  friend std::vector<Dist> forest_sssp_csr(const WeightedGraph::Csr& g,
                                           const ForestIndex& index,
                                           Vertex source,
                                           SsspScratch& scratch);

  struct Node {
    Vertex vertex = 0;
    Vertex parent = -1;       ///< parent's position; -1 at a root
    Vertex subtree_end = 0;   ///< one past the last descendant's position
    Vertex core = -1;         ///< id in the core CSR; -1 off the core
    Dist up_w = 0;            ///< weight of the edge to the parent
  };
  /// A contiguous preorder run of positions [begin, end).
  struct Range {
    Vertex begin = 0;
    Vertex end = 0;
  };
  /// The core ids and pendant ranges of one tree with a non-empty core;
  /// both are contiguous because ids and ranges follow the preorder.
  struct CoreTree {
    Vertex core_begin = 0;
    Vertex core_end = 0;
    Vertex range_begin = 0;
    Vertex range_end = 0;
  };

  std::vector<Node> preorder_;
  std::vector<Vertex> position_;       ///< vertex -> preorder position
  std::vector<Vertex> core_position_;  ///< core id -> preorder position
  std::vector<Vertex> core_tree_;      ///< core id -> index in trees_
  std::vector<CoreTree> trees_;
  std::vector<Range> ranges_;          ///< pendant subtrees, in preorder
  std::vector<std::int64_t> core_offsets_;
  std::vector<WeightedGraph::Arc> core_arcs_;  ///< heads are core ids
  Dist core_max_w_ = 0;
};

/// Exact SSSP on a forest plus core. Walks up from the source to its first
/// core vertex a (to its root when its tree has no core), writing tree
/// distances on the way; runs dial_sssp_csr from a on the core CSR with
/// `scratch` and offsets the results by d(source, a); then makes one
/// preorder pass over each pendant range of the tree, writing dist[v] =
/// dist[parent] + w straight into the result (the source's own ancestors,
/// already written, are skipped). Vertices of other trees read kInfDist.
/// `index` must have been built from g.
std::vector<Dist> forest_sssp_csr(const WeightedGraph::Csr& g,
                                  const ForestIndex& index, Vertex source,
                                  SsspScratch& scratch);

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
