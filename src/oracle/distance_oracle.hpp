#pragma once

// Approximate distance oracle built on an ultra-sparse near-additive
// emulator — the application the paper's introduction motivates
// ("numerous applications for computing almost shortest paths").
//
// Since the serve subsystem landed, this class is a thin compatibility
// wrapper over serve::QueryEngine: preprocessing builds one emulator H
// with ~n + o(n) edges (fast §3.3 builder), and queries are delegated to
// the engine — an exact SSSP on H (a preorder pass plus a Dial on a small
// core when H is a forest plus a few edges, Dial's bucket queue on all of H
// otherwise) behind a sharded LRU cache of per-source
// results. That replaces the old single-entry `mutable` cache,
// which was mutated without synchronization and therefore unsafe to query
// from two threads; every method here is now thread-safe. Every answer d
// satisfies
//
//   d_G(u,v) <= d <= alpha * d_G(u,v) + beta
//
// with (alpha, beta) reported by the oracle.
//
// Migration note: query_all() now returns a serve::SsspView *by value*
// (shared ownership of the cached vector) instead of a reference into the
// oracle. `const auto& all = oracle.query_all(s)` keeps working unchanged;
// code that spelled the type `const std::vector<Dist>&` should hold a
// SsspView (or use .vec()). New code should use serve::QueryEngine
// directly — engine() exposes the wrapped instance, including batch
// serving and cache statistics.

#include <cstdint>

#include "core/params.hpp"
#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "serve/query_engine.hpp"

namespace usne {

/// Tuning knobs for the oracle. Defaults target the ultra-sparse regime.
struct OracleOptions {
  /// Sparsity parameter; 0 = automatic (ceil(2 * log2 n), i.e. omega(log n)
  /// scale so |H| = n + o(n)).
  int kappa = 0;
  /// Running-time exponent of the §3.3 builder.
  double rho = 0.3;
  /// Internal eps of the schedule (see CentralizedParams::compute).
  double eps = 0.25;
  /// SSSP cache budget of the underlying engine (see serve::ServeOptions).
  double cache_mb = 64.0;
  /// Cache lock shards (0 = engine default).
  int cache_shards = 0;
};

/// Preprocess-once / query-many approximate distance oracle. Thread-safe:
/// any number of threads may query concurrently.
class ApproxDistanceOracle {
 public:
  /// Builds the emulator. Throws std::invalid_argument on bad options.
  explicit ApproxDistanceOracle(const Graph& g, OracleOptions options = {});

  /// Point-to-point approximate distance (kInfDist if disconnected).
  Dist query(Vertex u, Vertex v) const { return engine_.query(u, v); }

  /// All approximate distances from `source` (cached; shared ownership —
  /// see the migration note above).
  serve::SsspView query_all(Vertex source) const {
    return serve::SsspView(engine_.query_all(source));
  }

  /// The stretch guarantee of every answer.
  double alpha() const { return params_.schedule.alpha_bound(); }
  Dist beta() const { return params_.schedule.beta_bound(); }

  /// The underlying emulator.
  const WeightedGraph& emulator() const { return engine_.emulator(); }
  std::int64_t emulator_edges() const { return emulator().num_edges(); }
  int kappa() const { return params_.kappa; }

  /// The serving engine answering the queries (batch API, cache stats).
  const serve::QueryEngine& engine() const { return engine_; }

 private:
  // Computed before engine_ (member order matters: the engine is built
  // from the emulator these params produce).
  DistributedParams params_;
  serve::QueryEngine engine_;
};

}  // namespace usne
