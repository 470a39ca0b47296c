#include "path/dijkstra.hpp"

#include <queue>
#include <utility>
#include <vector>

namespace usne {
namespace {

using QueueEntry = std::pair<Dist, Vertex>;  // (distance, vertex), min-heap

using MinHeap =
    std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>;

}  // namespace

std::vector<Dist> dijkstra(const WeightedGraph& h, Vertex source) {
  const Vertex n = h.num_vertices();
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  MinHeap heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;  // stale entry
    for (const auto& arc : h.adjacency(v)) {
      const Dist nd = d + arc.w;
      if (nd < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = nd;
        heap.push({nd, arc.to});
      }
    }
  }
  return dist;
}

std::vector<Dist> dijkstra_union(const WeightedGraph& h, const Graph& g,
                                 Vertex source) {
  const Vertex n = h.num_vertices();
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  MinHeap heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d != dist[static_cast<std::size_t>(v)]) continue;
    for (const auto& arc : h.adjacency(v)) {
      const Dist nd = d + arc.w;
      if (nd < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = nd;
        heap.push({nd, arc.to});
      }
    }
    for (const Vertex u : g.neighbors(v)) {
      const Dist nd = d + 1;
      if (nd < dist[static_cast<std::size_t>(u)]) {
        dist[static_cast<std::size_t>(u)] = nd;
        heap.push({nd, u});
      }
    }
  }
  return dist;
}

Dist dijkstra_distance(const WeightedGraph& h, Vertex source, Vertex target) {
  const Vertex n = h.num_vertices();
  std::vector<Dist> dist(static_cast<std::size_t>(n), kInfDist);
  MinHeap heap;
  dist[static_cast<std::size_t>(source)] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (v == target) return d;
    if (d != dist[static_cast<std::size_t>(v)]) continue;
    for (const auto& arc : h.adjacency(v)) {
      const Dist nd = d + arc.w;
      if (nd < dist[static_cast<std::size_t>(arc.to)]) {
        dist[static_cast<std::size_t>(arc.to)] = nd;
        heap.push({nd, arc.to});
      }
    }
  }
  return kInfDist;
}

}  // namespace usne
