#pragma once

// Distributed popular-cluster detection — the paper's Algorithm 2
// (modified Bellman–Ford of [EM19], Theorem 3.1).
//
// A parallel Bellman–Ford exploration from the set of cluster centers runs
// for delta strides. In each stride, every vertex forwards to all its
// neighbours the (up to) cap = deg+1 cluster centers it learnt about during
// the previous stride; if it learnt more, it forwards the cap smallest
// (dist, id) pairs (the paper allows an arbitrary choice; smallest-first is
// our deterministic specialization). Each stride takes `cap` rounds so the
// one-message-per-edge-per-round CONGEST constraint holds exactly.
//
// Cost (detect.cpp): work follows traffic, not n or the round count. Each
// explore message costs one expected-O(1) probe of the receiver's hashed
// set of known sources; a send round visits only the vertices whose list
// still has an entry; a stride boundary visits only the vertices that
// learnt a source in it. Rounds in which no list has an entry left are
// skipped by the Scheduler's idle-round fast-forward, so a stride costs
// its busiest rounds and a task with no sources costs O(1), while the
// reported rounds stay exactly delta * cap.
//
// Guarantees (paper Theorem 3.1):
//  1. a center that hears >= deg other centers is popular; every popular
//     center is detected;
//  2. every center that hears < cap sources knows *all* centers within
//     distance delta of it, with exact distances, and for each such pair a
//     shortest path on which every vertex knows its distance from the
//     source (we record predecessor pointers, enabling path tracing for the
//     spanner variant).

#include <span>
#include <vector>

#include "congest/network.hpp"
#include "path/source_detection.hpp"

namespace usne::congest {

/// Per-vertex knowledge produced by the exploration. Reuses SourceHit from
/// the centralized detection so the two implementations are directly
/// comparable in tests.
struct DetectResult {
  /// hits[v] = sources v heard about: (source, dist, predecessor neighbour),
  /// sorted by (dist, source).
  std::vector<std::vector<SourceHit>> hits;
  std::int64_t rounds_used = 0;

  /// Distance from v to `source` if v heard it, else kInfDist.
  Dist distance_to(Vertex v, Vertex source) const;

  /// Number of sources heard by v, excluding v itself.
  std::size_t heard_others(Vertex v) const;

  /// Traces the recorded shortest path from v back to `source`
  /// ([v, ..., source]; empty if untraceable).
  std::vector<Vertex> path_to(Vertex v, Vertex source) const;
};

/// Runs Algorithm 2 from `sources` to depth `delta` with per-stride
/// forwarding cap `cap` (the paper's deg_i + 1).
/// Consumes exactly delta * cap rounds (plus the drain of a non-ideal
/// transport), most of them fast-forwarded when they are idle.
DetectResult detect_congest(Network& net, const std::vector<Vertex>& sources,
                            Dist delta, std::int64_t cap);

}  // namespace usne::congest
