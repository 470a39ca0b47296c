#pragma once

// Query-serving subsystem: concurrent batched distance queries on a built
// emulator or spanner.
//
// The paper's stated application is computing almost shortest paths —
// constructing the ultra-sparse H is preprocessing; this layer is the
// serving half. A QueryEngine wraps any BuildOutput (usne::build()) and
// answers point-to-point / single-source / batch distance queries from many
// threads at once. Every answer d satisfies the construction's guarantee
//
//   d_G(u,v) <= d <= alpha * d_G(u,v) + beta.
//
// The per-query workhorse is an exact SSSP kernel on H (path/sssp_kernel.hpp)
// — per-query cost depends on |H| ~ n, never on |E(G)|. The engine indexes H
// once at construction as a spanning forest in preorder plus a core (the
// ends of the non-tree edges and their tree ancestors), at 28 B per vertex
// plus a few bytes per core vertex and core arc (ForestIndex). When the core
// holds at most n / 2 vertices — an acyclic H, where it is empty, or the
// ultra-sparse emulator's tree plus a few extra edges — each SSSP is a Dial
// over the core's small CSR plus one preorder pass per pendant subtree;
// otherwise H runs the ServeOptions::kernel bucket queue (Dial or
// delta-stepping). The choice is a property of H, not an option. On top of
// it sits a sharded LRU cache of per-source SSSP vectors: shards are locked
// independently, so a query stream with source locality costs one SSSP per
// hot source regardless of how many threads are serving, and concurrent
// requests for the same cold source coalesce into a single computation.
//
// Answers are a pure function of H, so cached, uncached, serial and
// multi-threaded serving are bit-identical — tests/test_serve.cpp and
// bench_query_throughput enforce this, and BatchResult::checksum gives CI a
// one-number seed-stability probe.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"
#include "path/sssp_kernel.hpp"
#include "serve/latency_histogram.hpp"
#include "serve/workload.hpp"
#include "util/thread_pool.hpp"

namespace usne {
struct BuildOutput;  // api/build.hpp
}

namespace usne::serve {

/// One computed single-source result, shared between the cache and any
/// number of readers. Eviction only drops the cache's reference; vectors
/// handed out stay valid for as long as the caller holds them.
using SsspResult = std::shared_ptr<const std::vector<Dist>>;

/// Value-semantics view over an SsspResult with vector-like access. What
/// ApproxDistanceOracle::query_all now returns: indexing stays source
/// compatible while ownership is shared, so a concurrent eviction can never
/// dangle the view.
class SsspView {
 public:
  explicit SsspView(SsspResult result) : result_(std::move(result)) {}

  Dist operator[](std::size_t i) const { return (*result_)[i]; }
  std::size_t size() const noexcept { return result_->size(); }
  auto begin() const noexcept { return result_->begin(); }
  auto end() const noexcept { return result_->end(); }
  const std::vector<Dist>& vec() const noexcept { return *result_; }

 private:
  SsspResult result_;
};

/// Vertex-renumbering policy of the engine's internal CSR (the cache and
/// every answer stay in original vertex ids — the inverse mapping is
/// applied inside compute_sssp, so answers, checksums and stretch checks
/// are bit-identical with or without renumbering).
enum class Renumber {
  kInherit,     ///< follow BuildOutput::degree_sort (the BuildSpec flag);
                ///< kNone when constructed from a bare WeightedGraph
  kNone,        ///< serve on H's own vertex order
  kDegreeSort,  ///< degree-descending renumbering: hot hubs cluster at the
                ///< front of the dist array and CSR (prefetch-friendly on
                ///< skewed graphs)
};

/// Engine tuning. Defaults suit the test/bench scale; cache_mb is the knob
/// production would size (the README's "Serving queries" section).
struct ServeOptions {
  /// Lock shards of the SSSP cache. 0 = default (16). More shards = less
  /// contention; sources hash uniformly across them.
  int cache_shards = 0;

  /// Total cache budget in MiB across all shards; one entry costs
  /// ~8 * n bytes. <= 0 disables caching entirely (every query recomputes —
  /// the uncached reference the tests compare against).
  double cache_mb = 64.0;

  /// Exact per-shard entry capacity override for tests (-1 = derive from
  /// cache_mb). With 0 entries the cache is disabled.
  std::int64_t cache_entries_per_shard = -1;

  /// Per-query SSSP kernel (path/sssp_kernel.hpp) for an H whose core holds
  /// more than n / 2 vertices; any other H is always served by the forest
  /// pass. All are exact on H, so answers are bit-identical; kDial remains
  /// the reference.
  SsspKernel kernel = SsspKernel::kDial;

  /// Delta-stepping bucket width (power of two; 0 = auto from the mean
  /// edge weight). Ignored by kDial.
  Dist delta = 0;

  /// Internal CSR vertex order; see Renumber.
  Renumber renumber = Renumber::kInherit;

  /// Lock-free last-source memo per serving thread: repeated-source runs
  /// (the grouped workload) hit a thread-local entry instead of paying
  /// shard lock + LRU bump per query. Only active when the cache is
  /// enabled (an uncached engine stays a strict recompute-every-query
  /// reference). Answers are unaffected either way.
  bool source_memo = true;

  /// Record per-query service latency into BatchResult::latency during
  /// serve() (a LatencyHistogram; two steady_clock reads per query). Off
  /// by default so throughput benches measure serving, not timing.
  bool record_latency = false;

  /// Slow-query log threshold in microseconds; 0 (the default) disables
  /// it. When set, serve() times every query (same two clock reads as
  /// record_latency) and any query at or over the threshold emits one
  /// stderr line —
  ///   SLOW_QUERY {"all": 0|1, "threshold_us": T, "u": U, "us": X, "v": V}
  /// — and bumps the usne_serve_slow_queries_total counter. Answers are
  /// unaffected.
  std::int64_t slow_query_us = 0;
};

/// Cache counter snapshot (cumulative since construction).
struct CacheStats {
  std::int64_t hits = 0;        ///< served from a cached vector
  std::int64_t misses = 0;      ///< triggered (or coalesced into) an SSSP
  std::int64_t coalesced = 0;   ///< of the misses: waited on another thread
  std::int64_t sssp_runs = 0;   ///< SSSP computations actually executed
  std::int64_t evictions = 0;   ///< LRU entries dropped
  std::int64_t entries = 0;     ///< currently resident entries
};

/// What one serve() batch did. `answers[i]` is the distance for query i;
/// for single-source (all) queries it is the FNV-1a checksum of the full
/// vector folded to int64 (the batch is about throughput accounting — call
/// query_all for the vector itself).
struct BatchResult {
  std::vector<Dist> answers;
  std::int64_t point_queries = 0;
  std::int64_t all_queries = 0;
  /// Counter deltas accrued by this batch — except `entries`, which is the
  /// absolute resident-entry count after the batch (a delta would go
  /// negative under eviction and mean nothing).
  CacheStats cache;
  double wall_s = 0;
  double qps = 0;                ///< queries / wall_s
  std::uint64_t checksum = 0;    ///< FNV-1a over `answers`, order-sensitive

  /// Per-query service-latency histogram (microseconds), populated only
  /// when ServeOptions::record_latency was set; nullptr otherwise.
  std::shared_ptr<const LatencyHistogram> latency;

  /// One-line JSON of the batch counters (sorted keys), the record
  /// usne_run query and bench_query_throughput embed.
  std::string stats_json() const;
};

/// Preprocess-once, serve-many distance-query engine. All query methods are
/// const and safe to call concurrently from any number of threads.
class QueryEngine {
 public:
  /// Wraps an already-built emulator/spanner H with its stretch guarantee.
  QueryEngine(WeightedGraph h, double alpha, Dist beta,
              ServeOptions options = {});

  /// Convenience: wraps BuildOutput::h() with its computed guarantee.
  /// (H is copied out of `built`; the BuildOutput need not outlive the
  /// engine.) When the build carries no guarantee (has_guarantee == false:
  /// randomized baselines), alpha()/beta() read (1, 0) — a placeholder,
  /// not a claim: don't gate such an engine on sample_query_stretch.
  explicit QueryEngine(const BuildOutput& built, ServeOptions options = {});

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;
  ~QueryEngine();

  /// Point-to-point approximate distance (kInfDist if disconnected).
  /// Serves from either endpoint's cached vector when available (distances
  /// are symmetric), otherwise computes SSSP from u.
  Dist query(Vertex u, Vertex v) const;

  /// All approximate distances from `source`, cached. Concurrent calls for
  /// the same cold source coalesce into one SSSP.
  SsspResult query_all(Vertex source) const;

  /// Runs a query batch over `threads` lanes (0 = hardware concurrency,
  /// 1 = serial). Answers are positionally aligned with `queries` and
  /// bit-identical for any thread count. The fan-out runs on a lazily
  /// created pool owned by the engine (rebuilt only when `threads`
  /// changes), so steady-state batches spawn no OS threads; concurrent
  /// multi-threaded serve() calls are safe but serialize on that pool —
  /// point queries (query / query_all) never do.
  BatchResult serve(std::span<const Query> queries, int threads = 1) const;

  /// Cumulative cache counters since construction.
  CacheStats cache_stats() const;

  /// Counters accrued since the previous cache_stats_delta() call (or
  /// construction), for per-interval rates: the daemon's STATS endpoint.
  /// Calls are serialized on an internal baseline, so every increment is
  /// reported in exactly one interval — concurrent queries never make an
  /// increment vanish or count twice across intervals. `entries` stays the
  /// absolute resident count (a delta would go negative under eviction).
  CacheStats cache_stats_delta() const;

  const WeightedGraph& emulator() const noexcept { return h_; }
  double alpha() const noexcept { return alpha_; }
  Dist beta() const noexcept { return beta_; }

  /// Kernel the engine dispatches to ("forest" when H is acyclic,
  /// "treecore" when H is a spanning forest plus a core of at most n / 2
  /// vertices, else "dial" | "delta" per ServeOptions::kernel), the core
  /// size it measured on H, and whether its internal CSR is degree-sorted —
  /// what usne_run surfaces in the query JSON record.
  const char* kernel_name() const noexcept;
  Vertex core_vertices() const noexcept { return core_vertices_; }
  bool renumbered() const noexcept { return !new_of_old_.empty(); }

 private:
  class Cache;

  std::vector<Dist> compute_sssp(Vertex source) const;

  WeightedGraph h_;
  double alpha_ = 1;
  Dist beta_ = 0;
  ServeOptions options_;
  std::uint64_t engine_id_ = 0;  // unique per engine; keys the source memo
  bool memo_enabled_ = false;

  // Packed CSR the kernels run on. When renumbering is on, perm_offsets_/
  // perm_arcs_ own a degree-sorted copy and new_of_old_ maps original ->
  // internal ids (compute_sssp maps the result back); otherwise csr_ views
  // h_'s own storage and new_of_old_ is empty.
  WeightedGraph::Csr csr_;
  std::vector<Vertex> new_of_old_;
  std::vector<std::int64_t> perm_offsets_;
  std::vector<WeightedGraph::Arc> perm_arcs_;
  Dist max_w_ = 0;
  Dist delta_ = 1;
  // Set iff csr_'s core (ForestIndex) has at most n / 2 vertices.
  std::optional<ForestIndex> forest_;
  Vertex core_vertices_ = 0;

  std::unique_ptr<Cache> cache_;
  mutable std::atomic<std::int64_t> sssp_runs_{0};

  // Interval baseline for cache_stats_delta (the mutex orders snapshots so
  // intervals partition the monotone counters exactly).
  mutable std::mutex delta_mutex_;
  mutable CacheStats delta_baseline_;

  // Lazily created batch fan-out pool (see serve()); pool_mutex_ guards
  // both creation and use (util::ThreadPool::parallel_for is not
  // reentrant).
  mutable std::mutex pool_mutex_;
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

/// Accumulates `value` into an FNV-1a checksum; the batch/oracle answer
/// probe CI uses for seed stability.
std::uint64_t checksum_accumulate(std::uint64_t hash, std::int64_t value) noexcept;
inline constexpr std::uint64_t kChecksumSeed = 14695981039346656037ULL;

/// Folds a full SSSP vector to the int64 recorded in BatchResult::answers
/// for single-source queries.
Dist checksum_fold(const std::vector<Dist>& dist) noexcept;

}  // namespace usne::serve
