#pragma once

// Dijkstra on weighted graphs — used to answer distance queries on
// emulators H, and in "hybrid" mode on H plus the original graph edges
// (emulator distances are defined on H alone; the hybrid mode exists for
// the distance-oracle application example).

#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace usne {

/// Single-source Dijkstra on a weighted graph. Returns distances
/// (kInfDist when unreachable).
std::vector<Dist> dijkstra(const WeightedGraph& h, Vertex source);

/// Single-source Dijkstra over the union of a weighted graph and an
/// unweighted graph (unit weights). Used by the approximate-shortest-path
/// oracle: queries run on H ∪ G restricted to H's edges plus unit edges.
std::vector<Dist> dijkstra_union(const WeightedGraph& h, const Graph& g,
                                 Vertex source);

/// Point-to-point distance on a weighted graph (early-exit Dijkstra).
Dist dijkstra_distance(const WeightedGraph& h, Vertex source, Vertex target);
}  // namespace usne
