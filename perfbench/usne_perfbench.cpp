// usne_perfbench — the repository's end-to-end benchmark.
//
//   usne_perfbench --workload build_k4 --seed 1 --seconds 30 --trace 0
//                  [--trace-out FILE]
//
// One run measures one workload: graph generation -> usne::build -> H ->
// in-process serving (QueryEngine) or the daemon wire (net::Server on
// loopback). Every call into a library layer is made from here, through the
// layer's public functions, and timed from outside. README.md in this
// directory records the workloads, the metric -> layer -> workload map and
// how to read a traced run.
//
// --trace 0 prints the end-to-end metrics (tracing off, profiling off).
// --trace 1 prints the per-layer metrics: iterations alternate between
// untraced and traced (obs tracing on, the benchmark's own spans around each
// layer call, ExecOptions::profile set), then an open-loop ladder and an
// SSSP kernel probe run; the span dump goes to --trace-out.
//
// Output: one "record" JSON line (stamp, every metric, every gate), then the
// result line {"correct", "attempted", "failed", "metrics"}. Exit code 1 when
// any correctness gate or operation failed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/build.hpp"
#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "path/bfs.hpp"
#include "path/sssp_kernel.hpp"
#include "serve/query_engine.hpp"
#include "serve/stats.hpp"
#include "serve/workload.hpp"
#include "util/build_info.hpp"
#include "util/mem.hpp"

namespace {

using namespace usne;
using Clock = std::chrono::steady_clock;

// Thread budget (4-core host): scheduler lanes, in-process caller threads,
// load-generator connections. The daemon keeps its own defaults. One lane:
// a 2-lane CONGEST build hands every round between threads, so its wall
// time also depends on how soon the shared host wakes the other thread
// (2-lane builds of one graph read 1.65-2.78 s in one process, 1-lane builds
// 2.13-2.52 s); with 2 in-process callers the p50 latency spread over ten
// seeds reached 0.40 of its median.
constexpr int kLanes = 1;
constexpr int kConnections = 2;
constexpr int kBatch = 16;
constexpr double kEps = 0.25;
constexpr std::int64_t kStretchPairs = 2000;
constexpr std::int64_t kStretchGroup = 10;
constexpr int kSsspProbeSources = 16;

struct WorkloadDef {
  const char* name;
  const char* algo;
  Vertex n;
  int kappa;
  double rho;
  bool wire;                  ///< serve through net::Server, else in-process
  serve::WorkloadKind kind;   ///< query mix
  std::int64_t stream_len;    ///< queries generated (the loops wrap)
  std::int64_t ref_len;       ///< prefix answered by QueryEngine::serve
  double limit_us;            ///< goodput limit: p99 from due, per request
  std::vector<double> rungs;  ///< open-loop offered rates, queries/s
  double serve_s;             ///< closed-loop serving per iteration
  double rung_s;              ///< duration of one ladder rung
};

// Why each workload exists is recorded in README.md.
const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"build_k4", "emulator_congest", 8192, 4, 0.45, false,
       serve::WorkloadKind::kUniform, 1 << 16, 2048, 2000,
       {5000, 10000, 20000, 40000}, 1.0, 1.0},
      {"build_k8", "emulator_congest", 8192, 8, 0.45, false,
       serve::WorkloadKind::kUniform, 1 << 16, 2048, 2000,
       {5000, 10000, 20000, 40000}, 1.0, 1.0},
      {"serve_uniform", "emulator_fast", 65536, 8, 0.3, false,
       serve::WorkloadKind::kUniform, 1 << 14, 512, 5000,
       {250, 500, 1000, 2000}, 2.0, 2.0},
      {"wire_grouped", "emulator_fast", 16384, 8, 0.3, true,
       serve::WorkloadKind::kGrouped, 1 << 15, 1 << 15, 2000,
       {25000, 50000, 100000, 200000, 400000}, 2.0, 1.0},
  };
  return defs;
}

/// Waits until `due`: sleeps while it is far off, then spins, so the
/// open-loop schedule is kept to a few microseconds instead of the
/// scheduler's wake-up slack. In-process lanes serve the queries themselves
/// and only spin (`spin_only`): a wake-up late by a sleeping vCPU would be
/// charged to the engine. Wire senders sleep, leaving the cores to the
/// daemon.
void wait_until(Clock::time_point due, bool spin_only) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (!spin_only && Clock::now() + kSpin < due) {
    std::this_thread::sleep_until(due - kSpin);
  }
  while (Clock::now() < due) {
  }
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Exact nearest-rank quantile of raw samples (no histogram buckets).
double quantile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// Named metrics in insertion order, printed as {"name": {"value", "unit"}}.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out << std::setprecision(12) << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out << ", ";
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
      out << '"' << rows_[i].name << "\": {\"value\": " << v
          << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

std::string json_array(const std::vector<double>& v) {
  std::ostringstream out;
  out << std::setprecision(10) << '[';
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << ']';
  return out.str();
}

/// Operations attempted/failed plus named correctness gates.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, bool>> gates;

  void ops(std::int64_t n, std::int64_t bad) {
    attempted += n;
    failed += bad;
  }
  void gate(const std::string& name, bool ok) {
    ops(1, ok ? 0 : 1);
    gates.emplace_back(name, ok);
  }
  bool correct() const { return failed == 0; }
};

// --- set-up: generation, build, engine, server -----------------------------

struct Fingerprint {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  std::int64_t h_edges = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

struct Setup {
  Graph g;
  BuildOutput out;
  std::shared_ptr<serve::QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  double gen_s = 0, build_s = 0, engine_s = 0, server_s = 0, total_s = 0;

  Fingerprint fingerprint() const {
    return {out.net.rounds, out.net.messages, out.net.words,
            out.h().num_edges()};
  }
};

Setup set_up(const WorkloadDef& w, std::uint64_t seed, bool profile) {
  Setup s;
  const auto t0 = Clock::now();
  {
    obs::TraceSpan span("bench.graph.gen");
    s.g = gen_connected_gnm(w.n, 4 * static_cast<std::int64_t>(w.n), seed);
  }
  s.gen_s = seconds_since(t0);

  BuildSpec spec;
  spec.algorithm = w.algo;
  spec.params.kappa = w.kappa;
  spec.params.eps = kEps;
  spec.params.rho = w.rho;
  spec.exec.num_threads = kLanes;
  spec.exec.keep_audit_data = false;
  spec.exec.profile = profile;
  const auto t1 = Clock::now();
  {
    obs::TraceSpan span("bench.core.build");
    s.out = usne::build(s.g, spec);
  }
  s.build_s = seconds_since(t1);

  const auto t2 = Clock::now();
  {
    obs::TraceSpan span("bench.serve.engine_setup");
    s.engine = std::make_shared<serve::QueryEngine>(s.out);
  }
  s.engine_s = seconds_since(t2);

  if (w.wire) {
    const auto t3 = Clock::now();
    obs::TraceSpan span("bench.net.server_start");
    s.server = std::make_unique<net::Server>(s.engine, net::ServerOptions{});
    s.server->start();
    s.server_s = seconds_since(t3);
  }
  s.total_s = seconds_since(t0);
  return s;
}

// --- latency-sample bookkeeping ---------------------------------------------

/// One open-loop request: when it was due (ns into the rung) and its
/// latency from that due time.
struct Sample {
  std::int64_t at_ns = 0;
  std::int64_t lat_ns = 0;
};

/// A closed loop's requests. Every latency is kept, so percentiles are
/// exact rather than bucketed.
struct LoopResult {
  std::int64_t attempted = 0;      ///< requests made, warm-up included
  std::int64_t failed = 0;         ///< refused, errored or wrong answers
  std::vector<std::int64_t> lat_ns;  ///< requests started after the warm-up

  void merge(LoopResult&& o) {
    attempted += o.attempted;
    failed += o.failed;
    lat_ns.insert(lat_ns.end(), o.lat_ns.begin(), o.lat_ns.end());
  }
};

/// A rung's p99 from due (µs): the median over equal slices of the rung, by
/// due time, of each slice's exact p99. Slices hold about 1000 requests, so
/// at least 10 lie beyond each p99; there are at most 8. A stall confined to
/// one slice (a noisy neighbour, a page-fault burst) then moves the figure by
/// one rank instead of failing a rate the system otherwise sustains.
double rung_p99_us(const std::vector<Sample>& samples, double duration_s) {
  const int slices =
      std::clamp(static_cast<int>(samples.size() / 1000), 1, 8);
  std::vector<std::vector<std::int64_t>> lat(static_cast<std::size_t>(slices));
  const double slice_s = duration_s / slices;
  for (const Sample& x : samples) {
    const double t = static_cast<double>(x.at_ns) * 1e-9;
    const auto k = static_cast<std::size_t>(t / slice_s);
    if (t >= 0 && k < lat.size()) lat[k].push_back(x.lat_ns);
  }
  std::vector<double> p99;
  for (const auto& l : lat) p99.push_back(quantile(l, 0.99) / 1e3);
  return median(p99);
}

/// One rung of the open-loop ladder.
struct Rung {
  double offered_qps = 0;
  double achieved_qps = 0;
  std::int64_t sent = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  double p99_us = 0;
  double gen_late_ms = 0;   ///< p99 lateness of sends behind schedule
  double backlog_mid = 0;   ///< mean in-flight, third quarter
  double backlog_end = 0;   ///< mean in-flight, fourth quarter
  bool saturated = false;   ///< backlog cap hit, growing, or rate not met
  bool pass = false;
};

/// In-flight cap of the wire open loop, in batches per connection. A rung
/// that reaches it is saturated and ends early: the ladder never pushes the
/// daemon into admission-control refusals (max_inflight_per_conn 256).
constexpr std::int64_t kMaxInflight = 64;

/// How far an in-process lane may fall behind its schedule before the rung
/// counts as saturated and ends early.
constexpr double kMaxBehindS = 0.25;

/// In-flight samples (seconds into the rung, requests outstanding).
using BacklogSamples = std::vector<std::pair<double, std::int64_t>>;

void judge_rung(Rung& r, const std::vector<Sample>& samples,
                const BacklogSamples& backlog, double duration_s,
                double wall_s, int queries_per_request, double limit_us) {
  r.p99_us = rung_p99_us(samples, duration_s);
  r.achieved_qps =
      static_cast<double>(r.completed * queries_per_request) / wall_s;
  double s3 = 0, s4 = 0;
  std::int64_t n3 = 0, n4 = 0;
  for (const auto& [t, b] : backlog) {
    if (t >= 0.5 * duration_s && t < 0.75 * duration_s) {
      s3 += static_cast<double>(b);
      ++n3;
    } else if (t >= 0.75 * duration_s) {
      s4 += static_cast<double>(b);
      ++n4;
    }
  }
  r.backlog_mid = n3 > 0 ? s3 / static_cast<double>(n3) : 0;
  r.backlog_end = n4 > 0 ? s4 / static_cast<double>(n4) : 0;
  const bool growing = r.backlog_end > 1.5 * r.backlog_mid + 2.0;
  r.saturated = r.saturated || growing || n4 == 0 ||
                r.achieved_qps < 0.9 * r.offered_qps;
  r.pass = !r.saturated && r.failed == 0 && r.completed == r.sent &&
           r.p99_us <= limit_us;
}

// --- in-process serving -----------------------------------------------------

/// Closed loop: kLanes caller threads, each issuing QueryEngine::query back
/// to back over its contiguous slice of the stream (wrapping). Queries
/// started in the first `warmup_s` are served but not recorded.
LoopResult closed_inprocess(const serve::QueryEngine& engine,
                            const std::vector<serve::Query>& stream,
                            const std::vector<Dist>& ref, double seconds,
                            double warmup_s) {
  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration<double>(warmup_s);
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<LoopResult> lanes(kLanes);
  std::vector<std::thread> threads;
  const std::size_t n = stream.size();
  for (int lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      LoopResult& r = lanes[static_cast<std::size_t>(lane)];
      std::size_t pos = n * static_cast<std::size_t>(lane) / kLanes;
      for (;;) {
        const auto t0 = Clock::now();
        if (t0 >= end) break;
        const serve::Query& q = stream[pos];
        const Dist d = engine.query(q.u, q.v);
        const auto t1 = Clock::now();
        ++r.attempted;
        if (pos < ref.size() && d != ref[pos]) ++r.failed;
        if (t0 >= warm_end) r.lat_ns.push_back(ns_between(t0, t1));
        pos = (pos + 1) % n;
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult all;
  for (auto& r : lanes) all.merge(std::move(r));
  return all;
}

/// Open loop: each lane serves its own schedule of due times (rate/kLanes
/// each); a lane that falls behind serves overdue queries back to back, so
/// latency from the due time charges the queueing a stall causes.
Rung open_inprocess(const serve::QueryEngine& engine,
                    const std::vector<serve::Query>& stream,
                    const std::vector<Dist>& ref, double rate, double seconds,
                    double limit_us) {
  Rung rung;
  rung.offered_qps = rate;
  const auto start = Clock::now();
  const double interval = static_cast<double>(kLanes) / rate;
  std::atomic<bool> abort{false};
  std::vector<std::vector<Sample>> lat(kLanes);
  std::vector<BacklogSamples> backlog(kLanes);
  std::vector<std::int64_t> done(kLanes, 0), bad(kLanes, 0);
  std::vector<std::thread> threads;
  const std::size_t n = stream.size();
  for (int lane = 0; lane < kLanes; ++lane) {
    threads.emplace_back([&, lane] {
      const auto L = static_cast<std::size_t>(lane);
      const double offset = interval * lane / kLanes;
      std::size_t pos = n * L / kLanes;
      for (std::int64_t k = 0;; ++k) {
        const double due_s = offset + static_cast<double>(k) * interval;
        if (due_s >= seconds || abort.load(std::memory_order_relaxed)) break;
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(due_s));
        wait_until(due, true);
        const double at = seconds_since(start);
        const std::int64_t behind =
            static_cast<std::int64_t>((at - offset) / interval) + 1 - k;
        backlog[L].emplace_back(at, behind);
        if (static_cast<double>(behind) * interval > kMaxBehindS) {
          abort.store(true, std::memory_order_relaxed);
          break;
        }
        const serve::Query& q = stream[pos];
        const Dist d = engine.query(q.u, q.v);
        lat[L].push_back({ns_between(start, due), ns_between(due, Clock::now())});
        ++done[L];
        if (pos < ref.size() && d != ref[pos]) ++bad[L];
        pos = (pos + 1) % n;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = seconds_since(start);
  std::vector<Sample> all_lat;
  BacklogSamples all_backlog;
  for (std::size_t L = 0; L < lat.size(); ++L) {
    all_lat.insert(all_lat.end(), lat[L].begin(), lat[L].end());
    all_backlog.insert(all_backlog.end(), backlog[L].begin(),
                       backlog[L].end());
    rung.completed += done[L];
    rung.failed += bad[L];
  }
  rung.sent = rung.completed;  // in-process calls are answered when made
  rung.saturated = abort.load();
  judge_rung(rung, all_lat, all_backlog, seconds, wall, 1, limit_us);
  return rung;
}

// --- the wire ---------------------------------------------------------------

/// Cumulative bucket counts of one histogram on a METRICS page.
std::map<double, std::int64_t> scrape_buckets(const std::string& page,
                                              const std::string& name) {
  std::map<double, std::int64_t> cum;
  std::istringstream in(page);
  std::string line;
  const std::string prefix = name + "_bucket{le=\"";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t q = line.find('"', prefix.size());
    const std::string le = line.substr(prefix.size(), q - prefix.size());
    if (le == "+Inf") continue;
    cum[std::stod(le)] = std::stoll(line.substr(line.rfind(' ') + 1));
  }
  return cum;
}

/// Quantile of the observations recorded between two METRICS scrapes
/// (bucket upper bound, the histogram's 12.5% resolution).
double scrape_quantile(const std::string& before, const std::string& after,
                       const std::string& name, double p) {
  const auto a = scrape_buckets(before, name);
  const auto b = scrape_buckets(after, name);
  std::vector<std::pair<double, std::int64_t>> delta;
  std::int64_t prev_a = 0, prev_b = 0, total = 0;
  for (const auto& [le, cb] : b) {
    // Cumulative counts in `a` at this bound (a's keys are a subset).
    auto it = a.upper_bound(le);
    const std::int64_t ca = it == a.begin() ? 0 : std::prev(it)->second;
    const std::int64_t d = (cb - prev_b) - (ca - prev_a);
    prev_a = ca;
    prev_b = cb;
    if (d > 0) {
      delta.emplace_back(le, d);
      total += d;
    }
  }
  if (total == 0) return 0;
  const auto rank = static_cast<std::int64_t>(
      std::ceil(p * static_cast<double>(total)));
  std::int64_t seen = 0;
  for (const auto& [le, d] : delta) {
    seen += d;
    if (seen >= rank) return le;
  }
  return delta.back().first;
}

/// Decodes a batch reply into `answers` and compares it with the reference
/// answers at stream positions [pos, pos + kBatch). Returns false on any
/// mismatch, refusal (kBusy) or error frame.
bool check_batch_reply(const net::Frame& f, const std::vector<Dist>& ref,
                       std::size_t pos, std::vector<Dist>& answers) {
  if (f.type != net::MsgType::kBatchReply ||
      !net::parse_batch_reply(f.payload, answers) ||
      answers.size() != static_cast<std::size_t>(kBatch)) {
    return false;
  }
  return std::equal(answers.begin(), answers.end(),
                    ref.begin() + static_cast<std::ptrdiff_t>(pos));
}

struct WireClosed {
  LoopResult loop;
  std::vector<Dist> first_pass;      ///< answers by stream position
  std::vector<std::uint8_t> filled;  ///< one writer per position
  std::string metrics_before, metrics_after;
};

/// Closed loop over the wire: kConnections connections, each with one
/// batch of kBatch queries in flight, walking its half of the stream.
WireClosed closed_wire(std::uint16_t port,
                       const std::vector<serve::Query>& stream,
                       const std::vector<Dist>& ref,
                       const std::vector<std::vector<std::uint8_t>>& payloads,
                       double seconds, double warmup_s) {
  WireClosed out;
  out.first_pass.assign(stream.size(), 0);
  out.filled.assign(stream.size(), 0);
  std::vector<net::Client> clients(kConnections);
  for (auto& c : clients) c.connect("127.0.0.1", port);
  out.metrics_before = clients[0].metrics_text();

  const std::size_t per_conn = payloads.size() / kConnections;
  const auto start = Clock::now();
  const auto warm_end = start + std::chrono::duration<double>(warmup_s);
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<LoopResult> lanes(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      const auto C = static_cast<std::size_t>(c);
      LoopResult& r = lanes[C];
      net::Client& client = clients[C];
      std::vector<Clock::time_point> sent_at;  // by request id
      const auto send_next = [&] {
        const std::size_t k = sent_at.size();
        sent_at.push_back(Clock::now());
        client.send_frame(net::MsgType::kBatch, k,
                          payloads[C * per_conn + k % per_conn]);
      };
      try {
        send_next();
        net::Frame f;
        std::vector<Dist> answers;
        for (std::size_t received = 0; received < sent_at.size();
             ++received) {
          if (!client.recv_frame(f)) throw std::runtime_error("closed");
          const auto t1 = Clock::now();
          const auto k = static_cast<std::size_t>(f.request_id);
          if (k >= sent_at.size()) throw std::runtime_error("bad id");
          const std::size_t pos = (C * per_conn + k % per_conn) * kBatch;
          const bool ok = check_batch_reply(f, ref, pos, answers);
          for (std::size_t i = 0; i < answers.size() && i < kBatch; ++i) {
            if (out.filled[pos + i] == 0) {  // one writer per position
              out.first_pass[pos + i] = answers[i];
              out.filled[pos + i] = 1;
            }
          }
          if (sent_at[k] >= warm_end) {
            r.lat_ns.push_back(ns_between(sent_at[k], t1));
          }
          ++r.attempted;
          if (!ok) ++r.failed;
          if (t1 < end) send_next();
        }
      } catch (const std::exception&) {
        ++r.failed;  // transport failure: the connection is unusable
      }
    });
  }
  for (auto& t : threads) t.join();
  out.metrics_after = clients[0].metrics_text();
  for (auto& r : lanes) out.loop.merge(std::move(r));
  return out;
}

/// Open loop over the wire: per connection, one sender thread pipelines
/// kBatch frames on schedule through Client::send_frame and one receiver
/// thread matches replies by request id, so offered load does not depend
/// on reply time. Latency is measured from each frame's due time.
Rung open_wire(std::uint16_t port, const std::vector<Dist>& ref,
               const std::vector<std::vector<std::uint8_t>>& payloads,
               double rate, double seconds, double limit_us) {
  Rung rung;
  rung.offered_qps = rate;
  const double interval =
      static_cast<double>(kConnections * kBatch) / rate;  // per connection
  const auto max_sends = static_cast<std::size_t>(seconds / interval) + 2;
  const std::size_t per_conn = payloads.size() / kConnections;
  std::atomic<bool> abort{false};

  struct Conn {
    net::Client client;
    std::vector<std::atomic<std::int64_t>> due_ns;
    std::atomic<std::int64_t> sent{0};
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> answered{0};  ///< mirror of received
    std::int64_t received = 0, failed = 0;
    std::vector<Sample> lat_ns;
    std::vector<std::int64_t> late_ns;
    BacklogSamples backlog;
    explicit Conn(std::size_t cap) : due_ns(cap) {}
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Conn>(max_sends));
    conns.back()->client.connect("127.0.0.1", port);
  }

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    Conn& cn = *conns[static_cast<std::size_t>(c)];
    const std::size_t base = static_cast<std::size_t>(c) * per_conn;
    const double offset = interval * c / kConnections;
    threads.emplace_back([&, offset, base] {
      for (std::size_t k = 0; k < max_sends; ++k) {
        const double due_s = offset + static_cast<double>(k) * interval;
        if (due_s >= seconds || abort.load(std::memory_order_relaxed)) break;
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
        wait_until(due, false);
        const auto now = Clock::now();
        const std::int64_t inflight =
            static_cast<std::int64_t>(k) -
            cn.answered.load(std::memory_order_relaxed);
        if (inflight >= kMaxInflight) {
          abort.store(true, std::memory_order_relaxed);
          break;
        }
        cn.late_ns.push_back(ns_between(due, now));
        cn.backlog.emplace_back(seconds_since(start), inflight);
        cn.due_ns[k].store(ns_between(start, due), std::memory_order_relaxed);
        cn.sent.store(static_cast<std::int64_t>(k) + 1,
                      std::memory_order_release);
        try {
          cn.client.send_frame(net::MsgType::kBatch, k,
                               payloads[base + k % per_conn]);
        } catch (const std::exception&) {
          break;  // the receiver sees the connection drop
        }
      }
      cn.done.store(true, std::memory_order_release);
    });
    threads.emplace_back([&, base] {
      net::Frame f;
      std::vector<Dist> answers;
      for (;;) {
        const bool done = cn.done.load(std::memory_order_acquire);
        const std::int64_t sent = cn.sent.load(std::memory_order_acquire);
        if (cn.received >= sent) {
          if (done) break;
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          continue;
        }
        bool got = false;
        try {
          got = cn.client.recv_frame(f);
        } catch (const std::exception&) {
          got = false;
        }
        if (!got) {
          cn.failed += sent - cn.received;
          break;
        }
        const auto now = Clock::now();
        const auto k = static_cast<std::size_t>(f.request_id);
        if (k >= max_sends) {
          ++cn.failed;
          ++cn.received;
          continue;
        }
        const std::int64_t due = cn.due_ns[k].load(std::memory_order_relaxed);
        cn.lat_ns.push_back({due, ns_between(start, now) - due});
        const std::size_t pos = (base + k % per_conn) * kBatch;
        if (!check_batch_reply(f, ref, pos, answers)) ++cn.failed;
        ++cn.received;
        cn.answered.store(cn.received, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall = seconds_since(start);

  std::vector<Sample> lat;
  std::vector<std::int64_t> late;
  BacklogSamples backlog;
  for (auto& cp : conns) {
    Conn& cn = *cp;
    rung.sent += cn.sent.load();
    rung.completed += cn.received;
    rung.failed += cn.failed;
    lat.insert(lat.end(), cn.lat_ns.begin(), cn.lat_ns.end());
    late.insert(late.end(), cn.late_ns.begin(), cn.late_ns.end());
    backlog.insert(backlog.end(), cn.backlog.begin(), cn.backlog.end());
  }
  rung.gen_late_ms = quantile(late, 0.99) / 1e6;
  rung.saturated = abort.load();
  judge_rung(rung, lat, backlog, seconds, wall, kBatch, limit_us);
  return rung;
}

// --- the run ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

int usage(const char* msg) {
  std::cerr << "usne_perfbench: " << msg
            << "\nusage: usne_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads:";
  for (const auto& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--trace-out") a.trace_out = v;
    else return usage(("unknown flag " + k).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const WorkloadDef* wp = nullptr;
  for (const auto& w : workloads()) {
    if (a.workload == w.name) wp = &w;
  }
  if (wp == nullptr) return usage("unknown --workload");
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    return usage("--seconds must be > 0 and --trace 0 or 1");
  }
  const WorkloadDef& w = *wp;
  const bool traced = a.trace == 1;
  const bool congest = w.algo == std::string("emulator_congest");
  const auto run_start = Clock::now();
  Metrics e2e, layer;
  Ledger ledger;

  // ---- iterations: set up (generate, build, engine, server), then serve a
  // closed loop on the fresh stack. Repeating the whole pass spreads every
  // figure over the run instead of one window of it. A traced run alternates
  // untraced and traced (spans on, profile on) iterations and ends on a
  // traced one; the build_s ratio of the two kinds is the tracing overhead.
  // Iteration 0 is a warm-up whose times and latencies are not recorded (a
  // process's first builds run on fresh pages and read up to 45% slower);
  // its gates and operations count like any other.
  std::optional<Setup> last;  // the last iteration's stack stays up
  std::vector<double> setup_s, build_s, traced_build_s, gen_s, engine_s;
  std::vector<std::int64_t> lat;  // closed-loop latencies, every iteration
  std::vector<double> iter_p50_us;  // each timed iteration's closed-loop p50
  double served_window_s = 0;
  Fingerprint first;
  std::vector<serve::Query> stream;
  std::vector<std::vector<std::uint8_t>> payloads;  // wire: one per batch
  serve::BatchResult ref;  // QueryEngine::serve on the stream prefix
  serve::CacheStats cache_delta;
  WireClosed last_wire;
  net::ServerStats sstats0, sstats1;
  const int min_iterations = traced ? 5 : 4;
  for (int i = 0;; ++i) {
    const bool warmup = i == 0;
    const bool profile = traced && i % 2 == 1;
    const double elapsed = seconds_since(run_start);
    if (i >= min_iterations && (!traced || !profile) &&
        elapsed + elapsed / i > a.seconds) {
      break;  // another iteration would overrun --seconds
    }
    obs::trace_set_enabled(profile);
    last.reset();  // stop the previous server before starting the next
    Setup s = set_up(w, a.seed, profile);
    if (i == 0) first = s.fingerprint();
    ledger.gate("fingerprint_repeats", s.fingerprint() == first);
    ledger.gate("endpoints_consistent", s.out.endpoints_consistent() &&
                                            (!congest || !s.out.local.empty()));
    if (!warmup) {
      setup_s.push_back(s.total_s);
      (profile ? traced_build_s : build_s).push_back(s.build_s);
      gen_s.push_back(s.gen_s);
      engine_s.push_back(s.engine_s + s.server_s);
    }

    const Vertex n = s.g.num_vertices();
    if (i == 0) {
      serve::WorkloadSpec ws;
      ws.kind = w.kind;
      ws.num_queries = w.stream_len;
      ws.seed = a.seed;
      stream = serve::generate_workload(n, ws);
      for (std::size_t p = 0; w.wire && p + kBatch <= stream.size();
           p += kBatch) {
        payloads.push_back(net::encode_batch_request(
            std::span<const serve::Query>(stream.data() + p, kBatch)));
      }
      obs::TraceSpan span("bench.serve.reference");
      serve::QueryEngine fresh(s.out);  // own cache: the served one starts cold
      ref = fresh.serve(std::span<const serve::Query>(
                            stream.data(), static_cast<std::size_t>(w.ref_len)),
                        kLanes);
    }

    const double warmup_s = 0.1 * w.serve_s;
    const serve::CacheStats c0 = s.engine->cache_stats();
    LoopResult loop;
    if (w.wire) {
      obs::TraceSpan span("bench.net.closed_loop");
      sstats0 = s.server->stats();
      last_wire = closed_wire(s.server->port(), stream, ref.answers,
                              payloads, w.serve_s, warmup_s);
      sstats1 = s.server->stats();
      // Order-sensitive checksum of the wire's first answer at every stream
      // position it reached against the engine's answers there; over a full
      // pass (the usual case) the latter is BatchResult::checksum itself.
      std::uint64_t wire_h = serve::kChecksumSeed, ref_h = serve::kChecksumSeed;
      std::size_t reached = 0;
      for (std::size_t q = 0; q < stream.size(); ++q) {
        if (last_wire.filled[q] == 0) continue;
        ++reached;
        wire_h = serve::checksum_accumulate(wire_h, last_wire.first_pass[q]);
        ref_h = serve::checksum_accumulate(ref_h, ref.answers[q]);
      }
      if (reached == stream.size()) ledger.gate("full_pass_checksum", ref_h == ref.checksum);
      ledger.gate("wire_checksum_equals_engine", reached > 0 && wire_h == ref_h);
      ledger.gate("no_rejected_requests",
                  sstats1.rejected_busy == sstats0.rejected_busy &&
                      sstats1.rejected_error == sstats0.rejected_error);
      loop = std::move(last_wire.loop);
    } else {
      obs::TraceSpan span("bench.serve.closed_loop");
      loop = closed_inprocess(*s.engine, stream, ref.answers, w.serve_s,
                              warmup_s);
    }
    ledger.ops(loop.attempted, loop.failed);
    if (warmup) {
      last.emplace(std::move(s));
      continue;
    }
    const serve::CacheStats c1 = s.engine->cache_stats();
    cache_delta.hits += c1.hits - c0.hits;
    cache_delta.misses += c1.misses - c0.misses;
    cache_delta.coalesced += c1.coalesced - c0.coalesced;
    cache_delta.sssp_runs += c1.sssp_runs - c0.sssp_runs;
    cache_delta.evictions += c1.evictions - c0.evictions;
    iter_p50_us.push_back(quantile(loop.lat_ns, 0.50) / 1e3);
    lat.insert(lat.end(), loop.lat_ns.begin(), loop.lat_ns.end());
    served_window_s += w.serve_s - warmup_s;
    last.emplace(std::move(s));
  }
  Setup& s = *last;
  const Vertex n = s.g.num_vertices();

  // ---- open-loop ladder (traced runs: it feeds per-layer figures only) ------
  std::vector<Rung> rungs;
  const Rung* best = nullptr;
  if (traced) {
    obs::TraceSpan span("bench.ladder");
    const net::ServerStats before =
        w.wire ? s.server->stats() : net::ServerStats{};
    for (const double rate : w.rungs) {
      Rung r = w.wire ? open_wire(s.server->port(), ref.answers, payloads,
                                  rate, w.rung_s, w.limit_us)
                      : open_inprocess(*s.engine, stream, ref.answers, rate,
                                       w.rung_s, w.limit_us);
      ledger.ops(r.sent, r.failed);
      rungs.push_back(r);
      if (r.saturated) break;  // higher rates only saturate harder
    }
    // A rung that misses the limit below saturation (a passing stall) does
    // not stop the climb: goodput is the best passing rung.
    for (const Rung& r : rungs) {
      if (r.pass && (best == nullptr || r.achieved_qps > best->achieved_qps)) {
        best = &r;
      }
    }
    if (w.wire) {
      const net::ServerStats after = s.server->stats();
      ledger.gate("no_rejected_requests",
                  after.rejected_busy == before.rejected_busy &&
                      after.rejected_error == before.rejected_error);
    }
  }

  // ---- correctness: stretch vs BFS on G --------------------------------------
  serve::StretchSample stretch;
  double stretch_mean = 0;
  {
    obs::TraceSpan span("bench.eval.stretch");
    serve::WorkloadSpec ss;
    ss.kind = serve::WorkloadKind::kGrouped;
    ss.group_size = kStretchGroup;
    ss.num_queries = kStretchPairs;
    ss.seed = a.seed + 1;
    const auto pairs = serve::generate_workload(n, ss);
    stretch = serve::sample_query_stretch(s.g, *s.engine, pairs, kStretchPairs);
    // The sampled maximum is an extreme value and swings from draw to draw;
    // the mean over the same pairs is the steady end-to-end quality figure.
    std::vector<Dist> exact;
    Vertex exact_src = -1;
    double sum = 0;
    std::int64_t counted = 0;
    for (const serve::Query& q : pairs) {
      if (q.u == q.v) continue;
      if (q.u != exact_src) {
        exact = bfs_distances(s.g, q.u);
        exact_src = q.u;
      }
      const Dist dg = exact[static_cast<std::size_t>(q.v)];
      if (dg <= 0 || dg == kInfDist) continue;
      sum += static_cast<double>(s.engine->query(q.u, q.v)) /
             static_cast<double>(dg);
      ++counted;
    }
    stretch_mean = counted > 0 ? sum / static_cast<double>(counted) : 0.0;
  }
  ledger.gate("stretch_no_violations_or_underruns",
              stretch.ok() && stretch.pairs > 0);

  // ---- end-to-end metrics ----------------------------------------------------
  const double qps = static_cast<double>(lat.size()) *
                     (w.wire ? kBatch : 1) / served_window_s;
  const double p50_us = quantile(lat, 0.50) / 1e3;
  e2e.set("setup_s", median(setup_s), "s");
  e2e.set("build_s", median(build_s), "s");
  e2e.set("h_edges", static_cast<double>(s.out.h().num_edges()), "count");
  e2e.set("stretch_mean_mult", stretch_mean, "ratio");
  e2e.set("qps", qps, "1/s");
  e2e.set("latency_p50_us", p50_us, "us");
  e2e.set("latency_p95_us", quantile(lat, 0.95) / 1e3, "us");
  e2e.set("peak_rss_mb", util::peak_rss_mb(), "MiB");

  // ---- per-layer metrics (meaningful in a traced run) ------------------------
  layer.set("graph.gen_s", median(gen_s), "s");
  {
    const auto& net_stats = s.out.net;
    congest::StageTimes t;
    double detect_wall = 0;
    for (const auto& e : s.out.profile) {
      t += e.times;
      if (e.label.find(".detect") != std::string::npos) {
        detect_wall += e.times.wall_s;
      }
    }
    const auto per = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    layer.set("congest.rounds", static_cast<double>(net_stats.rounds), "count");
    layer.set("congest.messages", static_cast<double>(net_stats.messages),
              "count");
    layer.set("congest.words", static_cast<double>(net_stats.words), "count");
    layer.set("congest.ns_per_message",
              per(t.wall_s * 1e9, static_cast<double>(net_stats.messages)),
              "ns");
    layer.set("congest.ns_per_round",
              per(t.wall_s * 1e9, static_cast<double>(net_stats.rounds)), "ns");
    layer.set("congest.deliver_s", t.deliver_s, "s");
    layer.set("congest.compute_s", t.compute_s, "s");
    layer.set("congest.end_round_s", t.end_round_s, "s");
    layer.set("congest.serial_share", per(t.end_round_s, t.wall_s), "ratio");
    layer.set("congest.detect_share", per(detect_wall, t.wall_s), "ratio");
    layer.set("congest.profile_coverage", per(t.stage_sum_s(), t.wall_s),
              "ratio");
    if (traced && congest) {
      ledger.gate("profile_coverage_ge_0.95",
                  per(t.stage_sum_s(), t.wall_s) >= 0.95);
    }
  }
  layer.set("core.h_excess",
            static_cast<double>(s.out.h().num_edges() - (n - 1)), "count");
  layer.set("eval.stretch_pairs", static_cast<double>(stretch.pairs), "count");
  layer.set("eval.stretch_max_mult", stretch.max_mult, "ratio");
  layer.set("eval.violations", static_cast<double>(stretch.violations),
            "count");
  layer.set("eval.underruns", static_cast<double>(stretch.underruns), "count");

  {
    double med_us = 0;
    std::int64_t scratch_bytes = 0;
    const WeightedGraph::Csr csr = s.out.h().csr();
    if (traced) {
      obs::TraceSpan span("bench.path.sssp");
      const Dist max_w = max_edge_weight(csr);
      SsspScratch scratch;
      std::vector<double> us;
      for (int i = 0; i < kSsspProbeSources; ++i) {
        const auto src = static_cast<Vertex>(
            (a.seed * 2654435761u + static_cast<std::uint64_t>(i) * 40503u) %
            static_cast<std::uint64_t>(n));
        const auto t0 = Clock::now();
        const std::vector<Dist> d = dial_sssp_csr(csr, src, max_w, scratch);
        us.push_back(seconds_since(t0) * 1e6);
        ledger.gate("sssp_covers_h", d.size() == static_cast<std::size_t>(n));
      }
      med_us = median(us);
      scratch_bytes = scratch.resident_bytes();
    }
    layer.set("path.sssp_us", med_us, "us");
    layer.set("path.arcs_per_s",
              med_us > 0 ? static_cast<double>(csr.num_arcs()) / (med_us * 1e-6)
                         : 0.0,
              "1/s");
    layer.set("path.scratch_bytes", static_cast<double>(scratch_bytes), "B");
  }

  {
    const double attempts =
        static_cast<double>(cache_delta.hits + cache_delta.misses);
    const auto share = [&](std::int64_t x) {
      return attempts > 0 ? static_cast<double>(x) / attempts : 0.0;
    };
    layer.set("serve.hit_ratio", share(cache_delta.hits), "ratio");
    layer.set("serve.sssp_runs_per_query", share(cache_delta.sssp_runs),
              "ratio");
    layer.set("serve.coalesced", static_cast<double>(cache_delta.coalesced),
              "count");
    layer.set("serve.evictions", static_cast<double>(cache_delta.evictions),
              "count");
    layer.set("serve.engine_us_per_query",
              ref.wall_s * 1e6 / static_cast<double>(w.ref_len), "us");
    layer.set("serve.engine_setup_s", median(engine_s), "s");
    layer.set("serve.goodput_qps", best != nullptr ? best->achieved_qps : 0.0,
              "1/s");
  }

  {
    const auto scraped = [&](const char* name, double p) {
      return w.wire ? scrape_quantile(last_wire.metrics_before,
                                      last_wire.metrics_after, name, p)
                    : 0.0;
    };
    const double server_p50 = scraped("usne_net_request_latency_us", 0.50);
    layer.set("net.queue_wait_p50_us",
              scraped("usne_net_queue_wait_us", 0.50), "us");
    layer.set("net.queue_wait_p99_us",
              scraped("usne_net_queue_wait_us", 0.99), "us");
    layer.set("net.server_latency_p50_us", server_p50, "us");
    layer.set("net.io_us", w.wire ? p50_us - server_p50 : 0.0, "us");
    layer.set("net.rejected_busy",
              static_cast<double>(sstats1.rejected_busy - sstats0.rejected_busy),
              "count");
    layer.set("net.rejected_error",
              static_cast<double>(sstats1.rejected_error -
                                  sstats0.rejected_error),
              "count");
    const bool wire_rung = w.wire && best != nullptr;
    layer.set("net.gen_late_ms", wire_rung ? best->gen_late_ms : 0.0, "ms");
    layer.set("net.backlog_end", wire_rung ? best->backlog_end : 0.0,
              "count");
    const double frame_bytes =
        w.wire ? static_cast<double>(
                     2 * net::kHeaderBytes +
                     net::encode_batch_request(
                         std::span<const serve::Query>(stream.data(), kBatch))
                         .size() +
                     net::encode_batch_reply(std::vector<Dist>(kBatch, 0))
                         .size())
               : 0.0;
    layer.set("net.bytes_per_query", frame_bytes / kBatch, "B");
  }
  layer.set("obs.trace_overhead",
            traced ? median(traced_build_s) / median(build_s) : 0.0, "ratio");

  // Dumping is quiescent: every recording thread (the daemon's) has stopped.
  obs::trace_set_enabled(false);
  if (w.wire) s.server->stop();
  if (traced && !a.trace_out.empty()) {
    std::ofstream f(a.trace_out);
    f << obs::trace_dump_chrome_json();
    ledger.gate("trace_written", static_cast<bool>(f));
  }

  // ---- output ----------------------------------------------------------------
  std::ostringstream rungs_json;
  rungs_json << std::setprecision(10) << '[';
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& r = rungs[i];
    rungs_json << (i ? ", " : "") << "{\"offered_qps\": " << r.offered_qps
               << ", \"achieved_qps\": " << r.achieved_qps
               << ", \"sent\": " << r.sent << ", \"completed\": " << r.completed
               << ", \"failed\": " << r.failed << ", \"p99_us\": " << r.p99_us
               << ", \"gen_late_ms\": " << r.gen_late_ms
               << ", \"backlog_mid\": " << r.backlog_mid
               << ", \"backlog_end\": " << r.backlog_end
               << ", \"saturated\": " << (r.saturated ? "true" : "false")
               << ", \"pass\": " << (r.pass ? "true" : "false") << '}';
  }
  rungs_json << ']';
  std::ostringstream gates_json;
  {
    std::map<std::string, bool> folded;
    for (const auto& [name, ok] : ledger.gates) {
      auto [it, fresh] = folded.emplace(name, ok);
      if (!fresh) it->second = it->second && ok;
    }
    gates_json << '{';
    for (auto it = folded.begin(); it != folded.end(); ++it) {
      gates_json << (it == folded.begin() ? "" : ", ") << '"' << it->first
                 << "\": " << (it->second ? "true" : "false");
    }
    gates_json << '}';
  }

  std::cout << "{\"record\": {\"workload\": \"" << w.name
            << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
            << ", \"trace\": " << a.trace
            << ", \"stamp\": {\"build_info\": " << util::build_info_json()
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"budget\": {\"congest_lanes\": " << kLanes
            << ", \"serve_lanes\": " << kLanes
            << ", \"server_workers\": 2, \"server_io_threads\": 1"
            << ", \"connections\": " << kConnections
            << ", \"loadgen_threads\": " << 2 * kConnections
            << "}}, \"wall_s\": " << seconds_since(run_start)
            << ", \"iterations\": " << setup_s.size()
            << ", \"gates\": " << gates_json.str()
            << ", \"ladder\": " << rungs_json.str()
            << ", \"setup_s\": " << json_array(setup_s)
            << ", \"build_s\": " << json_array(build_s)
            << ", \"latency_p50_us\": " << json_array(iter_p50_us)
            << ", \"latency_us\": {\"p90\": " << quantile(lat, 0.90) / 1e3
            << ", \"p95\": " << quantile(lat, 0.95) / 1e3
            << ", \"p99\": " << quantile(lat, 0.99) / 1e3
            << ", \"p999\": " << quantile(lat, 0.999) / 1e3 << '}'
            << ", \"end_to_end\": " << e2e.json()
            << ", \"per_layer\": " << layer.json() << "}}\n";
  std::cout << "{\"correct\": " << (ledger.correct() ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted
            << ", \"failed\": " << ledger.failed
            << ", \"metrics\": " << (traced ? layer : e2e).json() << "}"
            << std::endl;
  return ledger.correct() ? 0 : 1;
}
