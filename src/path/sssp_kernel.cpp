#include "path/sssp_kernel.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/invariant.hpp"

namespace usne {
namespace {

/// Largest power of two <= delta, as a shift. Kernel buckets are indexed by
/// dist >> shift, so widths are always rounded down to a power of two.
int delta_shift(Dist delta) noexcept {
  int shift = 0;
  while ((Dist{2} << shift) <= delta) ++shift;
  return shift;
}

/// Audit-only exactness postcondition: a finished SSSP vector is a
/// relaxation fixpoint (no arc can still improve a distance, and nothing
/// reachable was missed) with dist[source] == 0. O(arcs) — evaluated only
/// while inv::audits_enabled().
bool sssp_fixpoint_ok(const WeightedGraph::Csr& g, Vertex source,
                      const std::vector<Dist>& dist) noexcept {
  if (dist[static_cast<std::size_t>(source)] != 0) return false;
  for (Vertex v = 0; v < g.n; ++v) {
    const Dist dv = dist[static_cast<std::size_t>(v)];
    if (dv == kInfDist) continue;
    if (dv < 0) return false;
    for (const auto& arc : g.row(v)) {
      if (dist[static_cast<std::size_t>(arc.to)] > dv + arc.w) return false;
    }
  }
  return true;
}

}  // namespace

SsspKernel parse_sssp_kernel(const std::string& name) {
  if (name == "dial") return SsspKernel::kDial;
  if (name == "delta") return SsspKernel::kDelta;
  throw std::invalid_argument("unknown SSSP kernel '" + name +
                              "' (expected dial | delta)");
}

const char* sssp_kernel_name(SsspKernel kernel) noexcept {
  switch (kernel) {
    case SsspKernel::kDial: return "dial";
    case SsspKernel::kDelta: return "delta";
  }
  return "?";
}

std::int64_t SsspScratch::resident_bytes() const noexcept {
  std::int64_t bytes = static_cast<std::int64_t>(
      ring_.capacity() * sizeof(std::vector<Vertex>) +
      frontier_.capacity() * sizeof(Vertex) +
      settled_.capacity() * sizeof(Vertex) +
      stamp_.capacity() * sizeof(std::uint32_t));
  for (const auto& slot : ring_) {
    bytes += static_cast<std::int64_t>(slot.capacity() * sizeof(Vertex));
  }
  return bytes;
}

void SsspScratch::reset_ring(std::size_t slots) {
  if (ring_.size() < slots) ring_.resize(slots);
  // Slots keep their capacity across queries — that is the point of the
  // scratch. A correctly terminated kernel leaves every slot empty, so
  // these clears are no-ops in steady state.
  for (auto& slot : ring_) slot.clear();
  frontier_.clear();
  settled_.clear();
}

void SsspScratch::next_generation(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    generation_ = 0;
  }
  if (++generation_ == 0) {  // 32-bit wrap: reset lazily, once per 4G queries
    std::fill(stamp_.begin(), stamp_.end(), 0);
    generation_ = 1;
  }
}

Dist max_edge_weight(const WeightedGraph::Csr& g) noexcept {
  Dist max_w = 0;
  const std::int64_t arcs = g.num_arcs();
  for (std::int64_t i = 0; i < arcs; ++i) max_w = std::max(max_w, g.arcs[i].w);
  return max_w;
}

Dist auto_delta(const WeightedGraph::Csr& g) noexcept {
  const std::int64_t arcs = g.num_arcs();
  if (arcs == 0) return 1;
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < arcs; ++i) total += g.arcs[i].w;
  const Dist mean = std::max<Dist>(1, total / arcs);
  Dist delta = 1;
  while (delta < mean) delta <<= 1;
  return delta;
}

std::vector<Dist> dial_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                Dist max_w, SsspScratch& scratch) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  std::vector<Dist> dist(n, kInfDist);
  if (n == 0) return dist;
  // Circular ring: while processing distance d, live entries span
  // (d, d + max_w], so max_w + 1 slots never collide.
  const std::size_t slots = static_cast<std::size_t>(max_w) + 1;
  scratch.reset_ring(slots);
  auto* ring = scratch.ring_.data();
  auto& frontier = scratch.frontier_;

  dist[static_cast<std::size_t>(source)] = 0;
  ring[0].push_back(source);
  std::int64_t pending = 1;
  std::size_t settled = 0;

  for (Dist d = 0; pending > 0; ++d) {
    auto& slot = ring[static_cast<std::size_t>(d) % slots];
    if (slot.empty()) continue;
    frontier.swap(slot);  // weights are >= 1: nothing relaxes back into d
    pending -= static_cast<std::int64_t>(frontier.size());
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      if (i + 1 < frontier.size()) {
        const auto nxt = static_cast<std::size_t>(frontier[i + 1]);
        __builtin_prefetch(&dist[nxt]);
        __builtin_prefetch(&g.arcs[g.offsets[nxt]]);
      }
      const Vertex v = frontier[i];
      if (dist[static_cast<std::size_t>(v)] != d) continue;  // stale entry
      ++settled;
      for (const auto& arc : g.row(v)) {
        const Dist nd = d + arc.w;
        if (nd < dist[static_cast<std::size_t>(arc.to)]) {
          dist[static_cast<std::size_t>(arc.to)] = nd;
          ring[static_cast<std::size_t>(nd) % slots].push_back(arc.to);
          ++pending;
        }
      }
    }
    frontier.clear();
    if (settled == n) break;
  }
  // Leftover ring entries after the settled == n exit are all stale; the
  // next call's reset_ring clears every slot before it starts.

  // Postconditions. Always-on: the ring settles each vertex at most once,
  // so settling more than n of them means the ring slots collided (the
  // max_w + 1 sizing bound was violated). Audit: the result is a
  // relaxation fixpoint — exactness, checked against every arc.
  USNE_CHECK(inv::Category::kSssp,
             settled <= n && dist[static_cast<std::size_t>(source)] == 0,
             "dial ring settled " + std::to_string(settled) + " of " +
                 std::to_string(n) + " vertices (source dist " +
                 std::to_string(dist[static_cast<std::size_t>(source)]) + ")");
  USNE_AUDIT(inv::Category::kSssp, sssp_fixpoint_ok(g, source, dist),
             "dial result is not a shortest-path fixpoint from source " +
                 std::to_string(source));
  return dist;
}

std::optional<ForestIndex> ForestIndex::build(const WeightedGraph::Csr& g) {
  static_assert(sizeof(Node) == 24, "the index costs 24 B per vertex");
  const std::int64_t arcs = g.num_arcs();
  if (arcs / 2 > std::max<std::int64_t>(g.n - 1, 0)) return std::nullopt;

  ForestIndex index;
  const std::size_t n = static_cast<std::size_t>(g.n);
  index.preorder_.resize(n);
  index.position_.assign(n, -1);
  // One frame per vertex on the current root path: its position and the
  // next arc of its row to look at.
  struct Frame {
    Vertex pos;
    std::int64_t next_arc;
  };
  std::vector<Frame> stack;
  Vertex next = 0;
  std::int64_t components = 0;
  const auto enter = [&](Vertex v, Vertex parent, Vertex tree_begin, Dist w) {
    index.position_[static_cast<std::size_t>(v)] = next;
    index.preorder_[static_cast<std::size_t>(next)] = {v, parent, 0,
                                                       tree_begin, w};
    stack.push_back({next, g.offsets[v]});
    ++next;
  };
  for (Vertex root = 0; root < g.n; ++root) {
    if (index.position_[static_cast<std::size_t>(root)] >= 0) continue;
    ++components;
    const Vertex tree_begin = next;
    enter(root, -1, tree_begin, 0);
    while (!stack.empty()) {
      Frame& top = stack.back();
      Node& node = index.preorder_[static_cast<std::size_t>(top.pos)];
      if (top.next_arc == g.offsets[node.vertex + 1]) {
        node.subtree_end = next;
        stack.pop_back();
        continue;
      }
      const WeightedGraph::Arc arc = g.arcs[top.next_arc++];
      if (index.position_[static_cast<std::size_t>(arc.to)] < 0) {
        enter(arc.to, top.pos, tree_begin, arc.w);  // may invalidate top
      }
    }
  }
  // A spanning forest of c trees has n - c edges; any arc beyond those
  // closes a cycle (or duplicates an edge).
  if (arcs != 2 * (static_cast<std::int64_t>(g.n) - components)) {
    return std::nullopt;
  }
  return index;
}

std::vector<Dist> forest_sssp_csr(const WeightedGraph::Csr& g,
                                  const ForestIndex& index, Vertex source) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  std::vector<Dist> dist(n, kInfDist);
  if (n == 0) return dist;
  const ForestIndex::Node* nodes = index.preorder_.data();
  const Vertex p = index.position_[static_cast<std::size_t>(source)];

  // The source's ancestors lie on its root path, which the preorder pass
  // below would walk the wrong way (parent before child): set them first.
  dist[static_cast<std::size_t>(source)] = 0;
  std::int64_t written = 1;
  for (Vertex at = p; nodes[at].parent >= 0; at = nodes[at].parent) {
    const Dist d = dist[static_cast<std::size_t>(nodes[at].vertex)];
    dist[static_cast<std::size_t>(nodes[nodes[at].parent].vertex)] =
        d + nodes[at].up_w;
    ++written;
  }

  // Everything else in the tree is reached through its parent, which
  // preorder visits first. Position i is an ancestor of p (or p itself)
  // exactly when p falls inside i's subtree.
  const Vertex begin = nodes[p].tree_begin;
  const Vertex end = nodes[begin].subtree_end;
  for (Vertex i = begin; i < end; ++i) {
    const ForestIndex::Node& node = nodes[i];
    if (i <= p && p < node.subtree_end) continue;
    dist[static_cast<std::size_t>(node.vertex)] =
        dist[static_cast<std::size_t>(nodes[node.parent].vertex)] + node.up_w;
    ++written;
  }

  // Postconditions, the same pair as the ring kernels. Always-on: the
  // source reads 0 and every vertex of its tree was written exactly once
  // (a corrupt index would skip or repeat positions). Audit: exactness,
  // checked against every arc of g — which also catches an index that was
  // not built from g.
  USNE_CHECK(inv::Category::kSssp,
             written == end - begin &&
                 dist[static_cast<std::size_t>(source)] == 0,
             "forest pass wrote " + std::to_string(written) + " of " +
                 std::to_string(end - begin) + " tree vertices (source dist " +
                 std::to_string(dist[static_cast<std::size_t>(source)]) + ")");
  USNE_AUDIT(inv::Category::kSssp, sssp_fixpoint_ok(g, source, dist),
             "forest result is not a shortest-path fixpoint from source " +
                 std::to_string(source));
  return dist;
}

std::vector<Dist> delta_sssp_csr(const WeightedGraph::Csr& g, Vertex source,
                                 Dist max_w, Dist delta,
                                 SsspScratch& scratch) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  std::vector<Dist> dist(n, kInfDist);
  if (n == 0) return dist;
  if (delta < 1) delta = 1;
  const int shift = delta_shift(delta);
  delta = Dist{1} << shift;
  // Live buckets while draining bucket k span [k, k + 1 + (max_w >> shift)]
  // (a light target can cross into k + 1, a heavy one reaches at most
  // dist + max_w), so that many ring slots never collide.
  const std::size_t slots = static_cast<std::size_t>(max_w >> shift) + 2;
  scratch.reset_ring(slots);
  scratch.next_generation(n);
  auto* ring = scratch.ring_.data();
  auto& frontier = scratch.frontier_;
  auto& settled = scratch.settled_;
  auto* stamp = scratch.stamp_.data();
  const std::uint32_t generation = scratch.generation_;

  dist[static_cast<std::size_t>(source)] = 0;
  ring[0].push_back(source);
  std::int64_t pending = 1;

  for (Dist k = 0; pending > 0; ++k) {
    auto& slot = ring[static_cast<std::size_t>(k) % slots];
    settled.clear();
    // Bucket fusion: drain bucket k to a light-edge fixpoint locally —
    // vertices relaxed back into k are swept in the same loop, without
    // touching the ring scan or any other bucket.
    while (!slot.empty()) {
      frontier.swap(slot);
      pending -= static_cast<std::int64_t>(frontier.size());
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        if (i + 1 < frontier.size()) {
          const auto nxt = static_cast<std::size_t>(frontier[i + 1]);
          __builtin_prefetch(&dist[nxt]);
          __builtin_prefetch(&g.arcs[g.offsets[nxt]]);
        }
        const Vertex v = frontier[i];
        const Dist dv = dist[static_cast<std::size_t>(v)];
        if ((dv >> shift) != k) continue;  // stale or moved buckets
        if (stamp[static_cast<std::size_t>(v)] != generation) {
          stamp[static_cast<std::size_t>(v)] = generation;
          settled.push_back(v);
        }
        for (const auto& arc : g.row(v)) {
          if (arc.w > delta) continue;  // light edges only in the fixpoint
          const Dist nd = dv + arc.w;
          if (nd < dist[static_cast<std::size_t>(arc.to)]) {
            dist[static_cast<std::size_t>(arc.to)] = nd;
            ring[static_cast<std::size_t>(nd >> shift) % slots].push_back(
                arc.to);
            ++pending;
          }
        }
      }
      frontier.clear();
    }
    // Heavy edges once per settled vertex, at its (now final) distance.
    // Heavy targets land strictly past bucket k, so this never reopens it.
    for (const Vertex v : settled) {
      const Dist dv = dist[static_cast<std::size_t>(v)];
      for (const auto& arc : g.row(v)) {
        if (arc.w <= delta) continue;
        const Dist nd = dv + arc.w;
        if (nd < dist[static_cast<std::size_t>(arc.to)]) {
          dist[static_cast<std::size_t>(arc.to)] = nd;
          ring[static_cast<std::size_t>(nd >> shift) % slots].push_back(
              arc.to);
          ++pending;
        }
      }
    }
  }
  // Postconditions: the bucket loop only exits once every ring entry is
  // consumed (pending is the live-entry ledger), and the audit proves the
  // fused light/heavy drain still reached the exact fixpoint.
  USNE_CHECK(inv::Category::kSssp,
             pending == 0 && dist[static_cast<std::size_t>(source)] == 0,
             "delta-stepping ended with " + std::to_string(pending) +
                 " ring entries pending (source dist " +
                 std::to_string(dist[static_cast<std::size_t>(source)]) + ")");
  USNE_AUDIT(inv::Category::kSssp, sssp_fixpoint_ok(g, source, dist),
             "delta-stepping result is not a shortest-path fixpoint from "
             "source " +
                 std::to_string(source));
  return dist;
}

std::vector<Vertex> degree_sorted_order(const WeightedGraph::Csr& g) {
  std::vector<Vertex> by_degree(static_cast<std::size_t>(g.n));
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&g](Vertex a, Vertex b) {
                     return g.degree(a) > g.degree(b);
                   });
  std::vector<Vertex> new_of_old(static_cast<std::size_t>(g.n));
  for (std::size_t pos = 0; pos < by_degree.size(); ++pos) {
    new_of_old[static_cast<std::size_t>(by_degree[pos])] =
        static_cast<Vertex>(pos);
  }
  return new_of_old;
}

WeightedGraph::Csr renumber_csr(const WeightedGraph::Csr& g,
                                const std::vector<Vertex>& new_of_old,
                                std::vector<std::int64_t>& offsets,
                                std::vector<WeightedGraph::Arc>& arcs) {
  const std::size_t n = static_cast<std::size_t>(g.n);
  offsets.assign(n + 1, 0);
  for (Vertex old = 0; old < g.n; ++old) {
    offsets[static_cast<std::size_t>(new_of_old[static_cast<std::size_t>(
        old)]) + 1] = g.degree(old);
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  arcs.resize(static_cast<std::size_t>(g.num_arcs()));
  for (Vertex old = 0; old < g.n; ++old) {
    std::int64_t cursor =
        offsets[static_cast<std::size_t>(new_of_old[static_cast<std::size_t>(old)])];
    for (const auto& arc : g.row(old)) {
      arcs[static_cast<std::size_t>(cursor++)] = {
          new_of_old[static_cast<std::size_t>(arc.to)], arc.w};
    }
  }
  return {g.n, offsets.data(), arcs.data()};
}

}  // namespace usne
