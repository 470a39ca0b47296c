#include "serve/query_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <list>
#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "api/build.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/sssp_kernel.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace usne::serve {
namespace {

constexpr int kDefaultShards = 16;

/// SplitMix64 mix so consecutive source ids spread across shards.
std::size_t shard_of(Vertex source, std::size_t shards) noexcept {
  return static_cast<std::size_t>(
      SplitMix64(static_cast<std::uint64_t>(source)).next() % shards);
}

std::int64_t capacity_per_shard(Vertex n, const ServeOptions& options,
                                std::size_t shards) {
  if (options.cache_entries_per_shard >= 0) {
    return options.cache_entries_per_shard;
  }
  if (options.cache_mb <= 0) return 0;
  const double entry_bytes =
      static_cast<double>(std::max<Vertex>(n, 1)) * sizeof(Dist);
  const double total =
      options.cache_mb * 1024.0 * 1024.0 / entry_bytes;
  // At least one entry per shard once a cache was requested at all:
  // a budget too small to hold anything would silently degrade to
  // recompute-always, which is what cache_mb <= 0 is for.
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                       total / static_cast<double>(shards)));
}

/// Monotone engine ids keep the thread-local source memo sound: a memo
/// entry is only trusted when its id matches the engine asking, and ids are
/// never reused even if an engine is destroyed and another allocated at the
/// same address.
std::atomic<std::uint64_t> next_engine_id{1};

/// Last-source memo, one per serving thread. Grouped/repeated-source query
/// streams hit this before touching the shard mutex or splicing the LRU
/// list — the fast path is two integer compares and a shared_ptr deref.
/// The memo pins at most one SSSP vector per thread (dropped the next time
/// the thread serves a different source or engine).
struct SourceMemo {
  std::uint64_t engine = 0;
  Vertex source = -1;
  SsspResult result;
};

thread_local SourceMemo t_memo;

}  // namespace

// ---------------------------------------------------------------------------
// Sharded LRU cache of per-source SSSP vectors.
//
// Each shard is an independent mutex + LRU list + map. A cold source
// inserts a "computing" slot (result == nullptr) and releases the shard
// lock while the SSSP runs, so one slow computation never blocks the
// shard's other sources; concurrent requests for the same source wait on
// the shard condition variable instead of duplicating the work. Eviction
// drops ready entries from the LRU tail — never computing slots, and never
// the vectors already handed out (shared_ptr keeps them alive).

class QueryEngine::Cache {
 public:
  Cache(std::size_t shards, std::int64_t per_shard)
      : shards_(shards), capacity_(per_shard) {
    slots_ = std::make_unique<Shard[]>(shards_);
  }

  bool enabled() const noexcept { return capacity_ > 0; }
  std::size_t shard_count() const noexcept { return shards_; }
  std::int64_t capacity_per_shard() const noexcept { return capacity_; }

  /// Accounts a memo fast-path hit so hit/miss stats stay consistent with
  /// what the queries actually cost (a memo hit is a cache hit that skipped
  /// the shard lock).
  void count_hit() noexcept { hits_.fetch_add(1, std::memory_order_relaxed); }

  /// Returns the cached vector (counting a hit and bumping LRU recency) or
  /// nullptr without any side effects.
  SsspResult peek(Vertex source) {
    if (!enabled()) return nullptr;
    Shard& sh = slots_[shard_of(source, shards_)];
    std::lock_guard<std::mutex> lock(sh.mutex);
    const auto it = sh.map.find(source);
    if (it == sh.map.end() || !it->second.result) return nullptr;
    touch(sh, it->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.result;
  }

  /// Lookup-or-compute. `compute` runs outside the shard lock.
  template <typename ComputeFn>
  SsspResult get(Vertex source, ComputeFn&& compute) {
    if (!enabled()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::make_shared<const std::vector<Dist>>(compute(source));
    }
    Shard& sh = slots_[shard_of(source, shards_)];
    std::unique_lock<std::mutex> lock(sh.mutex);
    bool waited = false;
    for (;;) {
      const auto it = sh.map.find(source);
      if (it == sh.map.end()) break;  // cold (or evicted while we waited)
      if (it->second.result) {
        touch(sh, it->second);
        if (waited) {
          misses_.fetch_add(1, std::memory_order_relaxed);
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        } else {
          hits_.fetch_add(1, std::memory_order_relaxed);
        }
        return it->second.result;
      }
      waited = true;  // another thread is computing this source
      USNE_TRACE_SPAN("serve.coalesce_wait");
      sh.cv.wait(lock);
    }

    misses_.fetch_add(1, std::memory_order_relaxed);
    sh.lru.push_front(source);
    sh.map.emplace(source, Slot{nullptr, sh.lru.begin()});
    lock.unlock();

    SsspResult result;
    try {
      result = std::make_shared<const std::vector<Dist>>(compute(source));
    } catch (...) {
      lock.lock();
      erase(sh, source);
      sh.cv.notify_all();
      throw;
    }

    lock.lock();
    const auto it = sh.map.find(source);
    if (it != sh.map.end() && !it->second.result) it->second.result = result;
    evict_over_capacity(sh);
    sh.cv.notify_all();
    return result;
  }

  void fill_stats(CacheStats& stats) const {
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.coalesced = coalesced_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.entries = 0;
    for (std::size_t s = 0; s < shards_; ++s) {
      Shard& sh = slots_[s];
      std::lock_guard<std::mutex> lock(sh.mutex);
      stats.entries += static_cast<std::int64_t>(sh.map.size());
    }
  }

 private:
  struct Slot {
    SsspResult result;  // nullptr while a thread is computing it
    std::list<Vertex>::iterator pos;
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::list<Vertex> lru;  // front = most recently used
    std::unordered_map<Vertex, Slot> map;
  };

  void touch(Shard& sh, Slot& slot) {
    sh.lru.splice(sh.lru.begin(), sh.lru, slot.pos);
  }

  void erase(Shard& sh, Vertex source) {
    const auto it = sh.map.find(source);
    if (it == sh.map.end()) return;
    sh.lru.erase(it->second.pos);
    sh.map.erase(it);
  }

  void evict_over_capacity(Shard& sh) {
    // Walk from the LRU tail, skipping computing slots (their owner holds
    // no lock and expects the slot to still exist). If only computing
    // slots remain the shard runs transiently over capacity.
    auto it = sh.lru.end();
    while (static_cast<std::int64_t>(sh.map.size()) > capacity_ &&
           it != sh.lru.begin()) {
      --it;
      const auto slot = sh.map.find(*it);
      if (!slot->second.result) continue;
      it = sh.lru.erase(it);
      sh.map.erase(slot);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::size_t shards_;
  const std::int64_t capacity_;  // entries per shard; 0 = disabled
  std::unique_ptr<Shard[]> slots_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> coalesced_{0};
  std::atomic<std::int64_t> evictions_{0};
};

// ---------------------------------------------------------------------------

namespace {

/// kInherit only means something when the engine is built from a
/// BuildOutput; a bare WeightedGraph has no build flag to inherit.
ServeOptions resolve_renumber(ServeOptions options, bool degree_sort) {
  if (options.renumber == Renumber::kInherit) {
    options.renumber =
        degree_sort ? Renumber::kDegreeSort : Renumber::kNone;
  }
  return options;
}

}  // namespace

QueryEngine::QueryEngine(WeightedGraph h, double alpha, Dist beta,
                         ServeOptions options)
    : h_(std::move(h)),
      alpha_(alpha),
      beta_(beta),
      options_(resolve_renumber(options, false)),
      engine_id_(next_engine_id.fetch_add(1, std::memory_order_relaxed)) {
  const std::size_t shards = static_cast<std::size_t>(
      options.cache_shards > 0 ? options.cache_shards : kDefaultShards);
  cache_ = std::make_unique<Cache>(
      shards, capacity_per_shard(h_.num_vertices(), options, shards));
  // An uncached engine must stay a strict recompute-every-query reference
  // (tests rely on sssp_runs == queries), so the memo rides on the cache.
  memo_enabled_ = options_.source_memo && cache_->enabled();
  // Force the lazy CSR now: it is a mutable cache inside WeightedGraph, and
  // the serving threads must only ever read it.
  csr_ = h_.csr();
  if (options_.renumber == Renumber::kDegreeSort && csr_.n > 0) {
    new_of_old_ = degree_sorted_order(csr_);
    csr_ = renumber_csr(csr_, new_of_old_, perm_offsets_, perm_arcs_);
  }
  // Structural audit of the CSR every query will run on — including the
  // degree-sorted copy, so a renumbering bug is caught here, not as a
  // wrong answer downstream.
  if (inv::audits_enabled()) {
    std::string error;
    USNE_CHECK(inv::Category::kCsr, validate_csr(csr_, &error), error);
  }
  max_w_ = max_edge_weight(csr_);
  delta_ = options_.delta > 0 ? options_.delta : auto_delta(csr_);
  // An H that is a spanning forest plus a small core (the sparsest
  // emulators: a tree, or a tree plus a few extra edges) is served by one
  // preorder pass plus a Dial over the core; options_.kernel only picks the
  // kernel once the core holds more than half of the vertices.
  forest_ = ForestIndex::build(csr_, csr_.n / 2, &core_vertices_);
}

QueryEngine::QueryEngine(const BuildOutput& built, ServeOptions options)
    : QueryEngine(built.h(), built.has_guarantee ? built.alpha : 1.0,
                  built.has_guarantee ? built.beta : 0,
                  resolve_renumber(options, built.degree_sort)) {}

QueryEngine::~QueryEngine() {
  // The cache's vectors were allocated by whichever threads served the
  // misses, so their memory sits in those threads' malloc arenas, and
  // glibc keeps freed arena pages resident. A process that replaces
  // engines (a daemon reload, a benchmark rebuilding its stack) would
  // otherwise hold each arena's high-water mark for good; hand the pages
  // back to the OS once the cache is gone.
  cache_.reset();
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

const char* QueryEngine::kernel_name() const noexcept {
  if (!forest_) return sssp_kernel_name(options_.kernel);
  return core_vertices_ == 0 ? "forest" : "treecore";
}

std::vector<Dist> QueryEngine::compute_sssp(Vertex source) const {
  USNE_TRACE_SPAN("serve.sssp_kernel");
  sssp_runs_.fetch_add(1, std::memory_order_relaxed);
  const bool permuted = renumbered();
  const Vertex s =
      permuted ? new_of_old_[static_cast<std::size_t>(source)] : source;
  thread_local SsspScratch scratch;
  std::vector<Dist> dist;
  if (forest_) {
    dist = forest_sssp_csr(csr_, *forest_, s, scratch);
  } else {
    dist = options_.kernel == SsspKernel::kDelta
               ? delta_sssp_csr(csr_, s, max_w_, delta_, scratch)
               : dial_sssp_csr(csr_, s, max_w_, scratch);
  }
  if (!permuted) return dist;
  // Map back to original vertex ids: everything outside this function —
  // cache keys, answers, checksums, stretch checks — is renumbering-blind.
  std::vector<Dist> out(dist.size());
  for (std::size_t old = 0; old < out.size(); ++old) {
    out[old] = dist[static_cast<std::size_t>(new_of_old_[old])];
  }
  return out;
}

SsspResult QueryEngine::query_all(Vertex source) const {
  if (memo_enabled_) {
    SourceMemo& memo = t_memo;
    if (memo.engine == engine_id_ && memo.source == source) {
      cache_->count_hit();
      return memo.result;
    }
  }
  USNE_TRACE_SPAN("serve.cache_lookup");
  SsspResult result =
      cache_->get(source, [this](Vertex s) { return compute_sssp(s); });
  if (memo_enabled_) t_memo = {engine_id_, source, result};
  return result;
}

Dist QueryEngine::query(Vertex u, Vertex v) const {
  if (memo_enabled_) {
    const SourceMemo& memo = t_memo;
    if (memo.engine == engine_id_) {
      // Distances on the undirected H are symmetric, so either endpoint's
      // vector answers the query.
      if (memo.source == u) {
        cache_->count_hit();
        return (*memo.result)[static_cast<std::size_t>(v)];
      }
      if (memo.source == v) {
        cache_->count_hit();
        return (*memo.result)[static_cast<std::size_t>(u)];
      }
    }
  }
  // Serve from whichever endpoint is already cached before paying for an
  // SSSP from u.
  if (SsspResult cached = cache_->peek(u)) {
    const Dist d = (*cached)[static_cast<std::size_t>(v)];
    if (memo_enabled_) t_memo = {engine_id_, u, std::move(cached)};
    return d;
  }
  if (SsspResult cached = cache_->peek(v)) {
    const Dist d = (*cached)[static_cast<std::size_t>(u)];
    if (memo_enabled_) t_memo = {engine_id_, v, std::move(cached)};
    return d;
  }
  return (*query_all(u))[static_cast<std::size_t>(v)];
}

CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  cache_->fill_stats(stats);
  stats.sssp_runs = sssp_runs_.load(std::memory_order_relaxed);
  return stats;
}

CacheStats QueryEngine::cache_stats_delta() const {
  std::lock_guard<std::mutex> lock(delta_mutex_);
  const CacheStats cur = cache_stats();
  CacheStats delta;
  delta.hits = cur.hits - delta_baseline_.hits;
  delta.misses = cur.misses - delta_baseline_.misses;
  delta.coalesced = cur.coalesced - delta_baseline_.coalesced;
  delta.sssp_runs = cur.sssp_runs - delta_baseline_.sssp_runs;
  delta.evictions = cur.evictions - delta_baseline_.evictions;
  delta.entries = cur.entries;  // absolute, not an interval delta
  delta_baseline_ = cur;
  return delta;
}

BatchResult QueryEngine::serve(std::span<const Query> queries,
                               int threads) const {
  if (threads == 0) {
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  threads = std::max(1, threads);

  BatchResult result;
  result.answers.assign(queries.size(), 0);
  const CacheStats before = cache_stats();

  // Latency recording is opt-in: the histogram is thread-safe (relaxed
  // atomics), so every serving lane records into the one instance.
  std::shared_ptr<LatencyHistogram> latency =
      options_.record_latency ? std::make_shared<LatencyHistogram>() : nullptr;

  const auto answer_one = [&](std::size_t i) {
    USNE_TRACE_SPAN("serve.query");
    const Query& q = queries[i];
    if (q.all) {
      result.answers[i] = checksum_fold(*query_all(q.u));
    } else {
      result.answers[i] = query(q.u, q.v);
    }
  };
  const std::int64_t slow_us = options_.slow_query_us;
  const auto run_one = [&](std::size_t i) {
    if (!latency && slow_us <= 0) {
      answer_one(i);
      return;
    }
    Timer per_query;
    answer_one(i);
    const std::int64_t us = per_query.micros();
    if (latency) latency->record(static_cast<std::uint64_t>(us));
    if (slow_us > 0 && us >= slow_us) {
      static obs::Counter& slow_total =
          obs::counter("usne_serve_slow_queries_total");
      slow_total.add(1);
      const Query& q = queries[i];
      // One stdio call per line so concurrent lanes never interleave
      // mid-line (stdio locks per call). Format documented in the README's
      // Observability section and in ServeOptions::slow_query_us.
      std::ostringstream line;
      line << "SLOW_QUERY {\"all\": " << (q.all ? 1 : 0)
           << ", \"threshold_us\": " << slow_us << ", \"u\": " << q.u
           << ", \"us\": " << us << ", \"v\": " << q.v << "}\n";
      std::fputs(line.str().c_str(), stderr);
    }
  };

  const bool parallel = threads > 1 && queries.size() > 1;
  std::unique_lock<std::mutex> pool_lock(pool_mutex_, std::defer_lock);
  if (parallel) {
    // The pool persists across batches (spawning OS threads per batch is
    // not a serving-path cost, and creation stays outside the timed
    // region); the lock also serializes concurrent multi-threaded batches,
    // since parallel_for is not reentrant.
    pool_lock.lock();
    if (!pool_ || pool_->parallelism() != threads) {
      pool_ = std::make_unique<util::ThreadPool>(threads);
    }
  }

  Timer timer;
  if (!parallel) {
    for (std::size_t i = 0; i < queries.size(); ++i) run_one(i);
  } else {
    // More chunks than lanes: the pool's shared cursor then load-balances
    // skew (a chunk of hot cached sources finishes early, its lane moves
    // on). Answers land positionally, so chunking never affects results.
    const std::size_t chunks =
        std::min(queries.size(), static_cast<std::size_t>(threads) * 8);
    pool_->parallel_for(static_cast<int>(chunks), [&](int c) {
      const std::size_t begin = queries.size() * static_cast<std::size_t>(c) / chunks;
      const std::size_t end =
          queries.size() * (static_cast<std::size_t>(c) + 1) / chunks;
      for (std::size_t i = begin; i < end; ++i) run_one(i);
    });
  }
  result.wall_s = timer.seconds();
  result.qps = result.wall_s > 0
                   ? static_cast<double>(queries.size()) / result.wall_s
                   : 0;

  for (const Query& q : queries) {
    if (q.all) {
      ++result.all_queries;
    } else {
      ++result.point_queries;
    }
  }
  const CacheStats after = cache_stats();
  result.cache.hits = after.hits - before.hits;
  result.cache.misses = after.misses - before.misses;
  result.cache.coalesced = after.coalesced - before.coalesced;
  result.cache.sssp_runs = after.sssp_runs - before.sssp_runs;
  result.cache.evictions = after.evictions - before.evictions;
  result.cache.entries = after.entries;

  // Cache ledger conservation (audit: the deltas are only exact when no
  // queries run outside this batch concurrently — the situation every test
  // and bench is in). Every query is accounted exactly once as a hit or a
  // miss — the memo fast path feeds count_hit() precisely so this ledger
  // balances — and SSSP work never exceeds the misses that requested it.
  USNE_AUDIT(inv::Category::kServeCache,
             result.cache.hits + result.cache.misses ==
                     static_cast<std::int64_t>(queries.size()) &&
                 result.cache.sssp_runs <= result.cache.misses &&
                 result.cache.coalesced <= result.cache.misses,
             "cache ledger off: hits " + std::to_string(result.cache.hits) +
                 " + misses " + std::to_string(result.cache.misses) +
                 " != queries " + std::to_string(queries.size()) +
                 " (sssp_runs " + std::to_string(result.cache.sssp_runs) +
                 ", coalesced " + std::to_string(result.cache.coalesced) +
                 ")");
  // Shard accounting vs the cache_mb budget: at batch quiescence the
  // resident entries fit the per-shard capacities, and — when capacity was
  // derived from cache_mb — the resident bytes fit the budget (plus the
  // documented one-entry-per-shard floor).
  USNE_AUDIT(
      inv::Category::kServeCache,
      [&] {
        const auto shards =
            static_cast<std::int64_t>(cache_->shard_count());
        const std::int64_t cap = cache_->capacity_per_shard();
        if (result.cache.entries > shards * cap) return false;
        if (options_.cache_mb <= 0 || options_.cache_entries_per_shard >= 0) {
          return true;  // disabled or explicitly sized in entries
        }
        const double entry_bytes =
            static_cast<double>(std::max<Vertex>(h_.num_vertices(), 1)) *
            sizeof(Dist);
        const double budget = options_.cache_mb * 1024.0 * 1024.0 +
                              static_cast<double>(shards) * entry_bytes;
        return static_cast<double>(result.cache.entries) * entry_bytes <=
               budget;
      }(),
      "cache over budget: " + std::to_string(result.cache.entries) +
          " resident entries, " +
          std::to_string(cache_->shard_count()) + " shard(s) of " +
          std::to_string(cache_->capacity_per_shard()) + " entries, " +
          format_double(options_.cache_mb, 2) + " MiB budget");

  std::uint64_t hash = kChecksumSeed;
  for (const Dist d : result.answers) hash = checksum_accumulate(hash, d);
  result.checksum = hash;
  result.latency = std::move(latency);

  // Mirror the batch deltas onto the global metrics page. Once per batch
  // (cold path), pre-resolved handles — the per-query path stays untouched,
  // and the page totals reconcile with the cache ledger by construction.
  static obs::Counter& queries_total = obs::counter("usne_serve_queries_total");
  static obs::Counter& hits_total = obs::counter("usne_serve_cache_hits_total");
  static obs::Counter& misses_total =
      obs::counter("usne_serve_cache_misses_total");
  static obs::Counter& sssp_total = obs::counter("usne_serve_sssp_runs_total");
  static obs::Counter& batches_total =
      obs::counter("usne_serve_batches_total");
  queries_total.add(static_cast<std::int64_t>(queries.size()));
  hits_total.add(result.cache.hits);
  misses_total.add(result.cache.misses);
  sssp_total.add(result.cache.sssp_runs);
  batches_total.add(1);
  return result;
}

std::string BatchResult::stats_json() const {
  std::ostringstream out;
  out << "{\"all_queries\": " << all_queries
      << ", \"cache_coalesced\": " << cache.coalesced
      << ", \"cache_entries\": " << cache.entries
      << ", \"cache_evictions\": " << cache.evictions
      << ", \"cache_hits\": " << cache.hits
      << ", \"cache_misses\": " << cache.misses
      << ", \"checksum\": " << checksum
      << ", \"point_queries\": " << point_queries
      << ", \"qps\": " << format_double(qps, 1)
      << ", \"queries\": " << point_queries + all_queries
      << ", \"sssp_runs\": " << cache.sssp_runs
      << ", \"wall_s\": " << format_double(wall_s, 4) << "}";
  return out.str();
}

std::uint64_t checksum_accumulate(std::uint64_t hash,
                                  std::int64_t value) noexcept {
  const std::uint64_t bits = static_cast<std::uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

Dist checksum_fold(const std::vector<Dist>& dist) noexcept {
  std::uint64_t hash = kChecksumSeed;
  for (const Dist d : dist) hash = checksum_accumulate(hash, d);
  return static_cast<Dist>(hash & 0x7fffffffffffffffULL);
}

}  // namespace usne::serve
