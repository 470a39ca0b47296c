#include "congest/engine.hpp"

#include <string>

#include "congest/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/invariant.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace usne::congest {
namespace {

/// Rounds delivering to fewer vertices than this run serially even under a
/// parallel policy: the fork/join handshake costs more than a handful of
/// on_round calls. Purely a wall-clock knob — results are identical either
/// way.
constexpr std::size_t kMinParallelFanout = 32;

/// Min-work cutoff: rounds carrying fewer delivered messages than this run
/// serially even when the fan-out is wide. The per-message on_round work is
/// tens of nanoseconds, so a sub-256-message round cannot amortize the
/// pool's fork/join handshake — BENCH_congest.json showed speedup < 1.0 for
/// exactly these rounds. Wall-clock only; counts and outputs are identical.
constexpr std::int64_t kMinParallelMessages = 256;

/// Chunks per pool lane for the on_round fan-out. One chunk per lane (the
/// old scheme) binds a round's wall-clock to its most loaded chunk — on
/// skewed inbox distributions (hubs, star centers) one lane drags while the
/// rest idle. With several chunks per lane the pool's shared task cursor
/// lets finished lanes steal the remaining chunks, and the boundaries below
/// additionally weight chunks by delivered-message count rather than by
/// receiver count. Purely a wall-clock knob: chunks are contiguous
/// ascending vertex ranges replayed in ascending order, so staging order —
/// and therefore every count and output — is bit-identical for any chunk
/// count (enforced by tests/test_congest_parallel.cpp).
constexpr std::size_t kChunksPerLane = 4;

}  // namespace

ScheduleReport Scheduler::run(NodeProgram& program) {
  USNE_TRACE_SPAN("congest.scheduler_run");
  ScheduleReport report;
  const NetworkStats before = net_->stats();

  // Stage profiling (StageTimes in network.hpp): pay-for-use — with no
  // sink installed not a single clock is read. Attribution is
  // boundary-chained: one clock read per stage boundary, and the whole
  // interval since the previous boundary is charged to the stage that just
  // ended — loop control and the clock reads themselves always land inside
  // some stage, never in an untimed gap (at ~10^4 rounds per task those
  // gaps would otherwise dominate and break the --profile >= 95% coverage
  // gate). Everything measured is pure measurement: counts and outputs are
  // bit-identical with profiling on or off.
  StageTimes* const prof = net_->profile_sink();
  MonoClock::time_point run_start{};
  MonoClock::time_point mark{};
  if (prof != nullptr) {
    run_start = MonoClock::now();
    mark = run_start;
  }
  const auto attribute = [&](double StageTimes::* field) {
    if (prof == nullptr) return;
    const MonoClock::time_point now = MonoClock::now();
    prof->*field += elapsed_s(mark, now);
    mark = now;
  };

  util::ThreadPool* const pool = net_->thread_pool();
  // Shards = work-stealing chunks, several per lane (see kChunksPerLane),
  // not one per lane: programs size their Sharded buffers to this count.
  const std::size_t shards =
      pool != nullptr
          ? static_cast<std::size_t>(pool->parallelism()) * kChunksPerLane
          : 1;
  program.set_shards(shards);

  // One staging outbox per shard, persistent across rounds so replay
  // buffers keep their high-water capacity.
  std::vector<Outbox> stage;
  if (pool != nullptr) {
    stage.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      stage.emplace_back(net_->graph(), s);
    }
  }
  // Chunk boundaries of the current round, reused across rounds.
  std::vector<std::size_t> chunk_begin;

  Outbox out(*net_);
  program.init(out);
  attribute(&StageTimes::init_s);
  for (std::int64_t round = 0; !program.done(round); ++round) {
    net_->advance_round();
    attribute(&StageTimes::deliver_s);
    const auto& delivered = net_->delivered_to();
    // Quiescence-aware idle accounting: a round is idle when nothing was
    // delivered AND nothing is riding the transport (under Ideal the
    // in-flight term is always zero, so this is the legacy definition).
    if (delivered.empty() && net_->in_flight() == 0) ++report.idle_rounds;
    if (pool != nullptr && delivered.size() >= kMinParallelFanout &&
        net_->delivered_messages() >= kMinParallelMessages) {
      // Contiguous chunks in ascending vertex order, with boundaries
      // weighted by delivered-message count: chunk s ends once the running
      // message total crosses fraction (s+1)/shards of the round's total,
      // so a hub's huge inbox fills one chunk instead of unbalancing a
      // receiver-count split. Workers pull chunks off the pool's shared
      // cursor (per-chunk work stealing), only read the network
      // (inbox/graph), and stage their sends locally; the ascending-order
      // replay below reproduces the serial staging order exactly.
      util::weighted_split(
          delivered.size(), shards, net_->delivered_messages(),
          [&](std::size_t i) {
            return static_cast<std::int64_t>(net_->inbox(delivered[i]).size());
          },
          chunk_begin);
      pool->parallel_for(static_cast<int>(shards), [&](int s) {
        const std::size_t su = static_cast<std::size_t>(s);
        Outbox& worker_out = stage[su];
        for (std::size_t i = chunk_begin[su]; i < chunk_begin[su + 1]; ++i) {
          const Vertex v = delivered[i];
          program.on_round(round, v, net_->inbox(v), worker_out);
        }
      });
      attribute(&StageTimes::compute_s);
      // Staged-send conservation: the ascending-order replay must hand the
      // network exactly the sends the workers staged — a replay that
      // drops, double-plays, or leaves a buffer behind would silently
      // desynchronize the parallel engine from the serial one.
      std::int64_t expected_pending = -1;
      if (inv::audits_enabled()) {
        expected_pending = net_->pending_messages();
        for (const Outbox& worker_out : stage) {
          expected_pending += worker_out.staged_messages_;
        }
      }
      for (Outbox& worker_out : stage) worker_out.replay_into(*net_);
      USNE_AUDIT(inv::Category::kScheduler,
                 expected_pending < 0 ||
                     net_->pending_messages() == expected_pending,
                 "parallel replay staged " + std::to_string(expected_pending) +
                     " message(s) but the network holds " +
                     std::to_string(net_->pending_messages()));
      attribute(&StageTimes::replay_s);
    } else {
      for (const Vertex v : delivered) {
        program.on_round(round, v, net_->inbox(v), out);
      }
      attribute(&StageTimes::compute_s);
    }
    program.end_round(round, out);
    attribute(&StageTimes::end_round_s);
    // Idle-round fast-forward (see engine.hpp): rounds round + 1 .. next - 1
    // would deliver nothing and run no hook that acts, so they are counted,
    // not driven. The skip is charged to deliver_s, the stage that would
    // have carried those rounds.
    const std::int64_t next = program.next_busy_round(round);
    if (next > round + 1 &&
        net_->pending_messages() + net_->in_flight() == 0) {
      const std::int64_t skipped = next - round - 1;
      net_->skip_idle_rounds(skipped);
      report.idle_rounds += skipped;
      round = next - 1;
      attribute(&StageTimes::deliver_s);
    }
  }

  if (net_->transport().ideal()) {
    // Flush-or-throw: a program whose done() trips after sends were issued
    // would leak its staged messages into the next program run on this
    // network. Make that a loud model violation instead.
    if (net_->pending_messages() != 0) {
      throw CongestViolation(
          "program ended with " + std::to_string(net_->pending_messages()) +
          " staged message(s) undelivered (done() tripped after sends)");
    }
  } else {
    // Generalized quiescence: under a faulty/async transport a
    // fixed-schedule program may legitimately finish while messages are
    // still staged or riding the latency wheel. Drain them — the drain
    // rounds count toward this program's report — so nothing leaks into
    // the next program on the same network.
    while (net_->pending_messages() + net_->in_flight() > 0) {
      net_->advance_round();
    }
    attribute(&StageTimes::drain_s);
  }

  const NetworkStats after = net_->stats();
  report.rounds = after.rounds - before.rounds;
  report.traffic = {after.rounds - before.rounds,
                    after.messages - before.messages,
                    after.words - before.words};
  if (prof != nullptr) {
    prof->wall_s += elapsed_s(run_start, MonoClock::now());
    prof->rounds += report.rounds;
    prof->messages += report.traffic.messages;
    prof->words += report.traffic.words;
  }
  // Layer-level traffic totals on the global metrics page; two relaxed
  // adds per program run, nowhere near any hot path.
  static obs::Counter& rounds_total =
      obs::counter("usne_congest_rounds_total");
  static obs::Counter& messages_total =
      obs::counter("usne_congest_messages_total");
  rounds_total.add(report.rounds);
  messages_total.add(report.traffic.messages);
  // Idle-round and traffic accounting: idle rounds are a subset of the
  // rounds this program drove, and a program cannot un-send traffic. Cheap
  // enough to keep always-on — a miscount here corrupts the CONGEST cost
  // model every bench row is built on.
  USNE_CHECK(inv::Category::kScheduler,
             report.idle_rounds >= 0 && report.idle_rounds <= report.rounds &&
                 report.traffic.messages >= 0 && report.traffic.words >= 0,
             "schedule report inconsistent: rounds " +
                 std::to_string(report.rounds) + ", idle " +
                 std::to_string(report.idle_rounds) + ", messages " +
                 std::to_string(report.traffic.messages) + ", words " +
                 std::to_string(report.traffic.words));
  return report;
}

}  // namespace usne::congest
