#pragma once

// Synchronous CONGEST-model network simulator.
//
// Processors live on the vertices of the input graph G and communicate with
// graph neighbours in synchronous rounds. Per the CONGEST model (paper
// §1.5.1), a message is O(1) words (O(log n) bits); we enforce a hard cap of
// kMaxWords words per message and one message per directed edge per round.
// Violating either cap throws CongestViolation — the model is enforced, not
// merely assumed, and the test suite injects violations to prove it.
//
// The simulator meters rounds, messages and words; the distributed
// experiments (bench E4) report these against the paper's O(beta * n^rho)
// bound. Rounds with no traffic still count (algorithms in this repository
// run on fixed, parameter-determined schedules exactly like the paper's).
//
// Storage is a pair of double-buffered flat arenas rather than per-vertex
// queues. A send appends one Staged record to a contiguous staging buffer;
// a broadcast appends ONE record for all of its deg messages (recipient
// kBroadcast), so staging costs O(1) per broadcast, not O(deg). The
// per-edge cap of a broadcast is a stamp over the sender's contiguous CSR
// slot range, and the meters still count deg messages and deg * size
// words. advance_round() counting-sorts the round's delivery batch into a
// CSR-shaped arena (one contiguous Received run per receiving vertex),
// expanding each broadcast record straight into its receivers' runs by
// walking the sender's CSR neighbours. The receivers are put in ascending
// order without a comparison sort whenever the round is dense enough: each
// is marked in an n-bit bitmap as it is first counted, and a scan of the
// n/64 words lists them in order; a round with few receivers on a large
// graph sorts them instead (the choice depends on the receiver count and
// n only). All buffers are reused across rounds, so round advancement
// performs no heap allocation once the per-round traffic high-water mark
// has been reached. Sufficiently large batches are counting-sorted in
// parallel on the execution thread pool, with delivery order bit-identical
// to the serial pass; the union of the shards' receivers goes through the
// same bitmap. A quiescent network skips k idle rounds in O(1)
// (skip_idle_rounds), which the Scheduler uses to fast-forward fixed
// schedules.
//
// What happens to a staged message *between* the send and the next round's
// inbox is delegated to a pluggable DeliveryModel (congest/transport.hpp):
// the default Ideal model delivers everything exactly once next round (the
// classic synchronous CONGEST semantics, bit-for-bit the pre-transport
// engine); Faulty and Async inject seeded drops/duplicates and per-message
// latencies. configure_transport() installs a model. Faulty and Async act
// per message, so for every model but Ideal the network expands broadcast
// records into per-neighbour Staged records, in staging order, just before
// handing the round to the model.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"

namespace usne::util {
class ThreadPool;
}  // namespace usne::util

namespace usne::congest {

class DeliveryModel;
struct TransportSpec;

/// One machine word as transmitted on an edge.
using Word = std::int64_t;

/// Maximum words per message ("O(1) words").
inline constexpr int kMaxWords = 4;

/// A CONGEST message: up to kMaxWords words.
struct Message {
  Word words[kMaxWords] = {};
  int size = 0;

  /// Builds a message from 1..kMaxWords integral words; arity is checked at
  /// compile time against the O(1)-word cap.
  template <typename... Ws>
  static Message of(Ws... ws) {
    static_assert(sizeof...(Ws) >= 1 &&
                      sizeof...(Ws) <= static_cast<std::size_t>(kMaxWords),
                  "a CONGEST message carries 1..kMaxWords words");
    static_assert((std::is_convertible_v<Ws, Word> && ...),
                  "message payload must be integral words");
    return Message{{static_cast<Word>(ws)...},
                   static_cast<int>(sizeof...(Ws))};
  }
};

/// A delivered message, tagged with the sending neighbour.
struct Received {
  Vertex from = -1;
  Message msg;
};

/// Recipient of a broadcast record: every neighbour of the sender.
inline constexpr Vertex kBroadcast = -1;

/// A staged message: recipient plus the Received it will become. The unit
/// the transport layer (DeliveryModel) operates on. `to == kBroadcast`
/// marks a broadcast record standing for one message to each neighbour of
/// rcv.from, in ascending neighbour order.
struct Staged {
  Vertex to = -1;
  Received rcv;
};

/// Thrown when an algorithm violates the CONGEST constraints.
class CongestViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Cumulative traffic statistics.
struct NetworkStats {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

/// Wall-clock decomposition of Scheduler::run — where a CONGEST program's
/// time actually goes, stage by stage:
///   init       program.init (seeding round 0)
///   deliver    Network::advance_round (transport + counting-sort scatter)
///   compute    the on_round fan-out, incl. parallel chunk planning
///   replay     ascending-order replay of staged parallel sends
///   end_round  the central end_round hook
///   drain      end-of-program quiescence (non-ideal transports)
/// Accumulated by the Scheduler into the sink installed via
/// Network::set_profile_sink (nullptr = profiling off, zero clock reads).
/// Several programs run back to back on one network accumulate into the
/// same sink; callers snapshot per-program deltas via operator- exactly
/// like they do with Network::stats(). Next to the times the sink carries
/// each run's traffic (its NetworkStats delta), so wall_s / messages is
/// the task's ns/message.
///
/// Measurement only: the profile never feeds algorithm output, and counts
/// and results are bit-identical with profiling on or off.
struct StageTimes {
  double init_s = 0;
  double deliver_s = 0;
  double compute_s = 0;
  double replay_s = 0;
  double end_round_s = 0;
  double drain_s = 0;
  double wall_s = 0;  ///< total Scheduler::run wall time
  std::int64_t rounds = 0;
  std::int64_t messages = 0;  ///< traffic the timed programs sent
  std::int64_t words = 0;

  /// Sum of the attributed stages; wall_s minus this is untimed scheduler
  /// overhead (loop control, report assembly). The --profile acceptance
  /// gate asserts stage_sum_s() >= 0.95 * wall_s.
  double stage_sum_s() const noexcept {
    return init_s + deliver_s + compute_s + replay_s + end_round_s + drain_s;
  }

  StageTimes& operator+=(const StageTimes& o) noexcept {
    init_s += o.init_s;
    deliver_s += o.deliver_s;
    compute_s += o.compute_s;
    replay_s += o.replay_s;
    end_round_s += o.end_round_s;
    drain_s += o.drain_s;
    wall_s += o.wall_s;
    rounds += o.rounds;
    messages += o.messages;
    words += o.words;
    return *this;
  }

  friend StageTimes operator-(StageTimes a, const StageTimes& b) noexcept {
    a.init_s -= b.init_s;
    a.deliver_s -= b.deliver_s;
    a.compute_s -= b.compute_s;
    a.replay_s -= b.replay_s;
    a.end_round_s -= b.end_round_s;
    a.drain_s -= b.drain_s;
    a.wall_s -= b.wall_s;
    a.rounds -= b.rounds;
    a.messages -= b.messages;
    a.words -= b.words;
    return a;
  }
};

/// One labeled slice of a construction profile ("p0.detect", "p1.forest",
/// ...): the stage times accrued while that task's scheduler runs drove
/// the network. Builders emit one entry per (phase, task).
struct PhaseProfileEntry {
  std::string label;
  StageTimes times;
};

/// The simulator. One instance per algorithm execution; primitives send
/// during a round and call advance_round() to deliver.
class Network {
 public:
  /// Throws std::invalid_argument on an empty graph (a CONGEST network
  /// needs at least one processor; edge-slot arithmetic assumes n > 0).
  /// Starts with the Ideal delivery model installed.
  explicit Network(const Graph& g);
  ~Network();

  // Movable, not copyable. Defined in network.cpp where ThreadPool and
  // DeliveryModel are complete (the in-class default would not compile for
  // clients).
  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;

  const Graph& graph() const noexcept { return *graph_; }
  Vertex num_vertices() const noexcept { return graph_->num_vertices(); }

  /// Execution-policy knob read by the Scheduler: total worker lanes for
  /// the parallel round fan-out. 1 (the default) selects the serial
  /// engine; 0 resolves to the hardware concurrency. The engines are
  /// bit-for-bit equivalent, so this only affects wall-clock time.
  void set_execution_threads(int threads);
  int execution_threads() const noexcept { return exec_threads_; }

  /// The persistent worker pool backing the parallel scheduler. Lazily
  /// created on first use; nullptr while execution_threads() == 1.
  util::ThreadPool* thread_pool();

  /// Installs the delivery model described by `spec` (validates it first).
  /// Must be called while the network is quiescent — throws
  /// std::logic_error if messages are staged or in flight (a model swap
  /// would strand them).
  void configure_transport(const TransportSpec& spec);

  /// Installs a caller-built delivery model (same quiescence rule). The
  /// extension point for custom transports; the invariant tests use it to
  /// rig a model that breaks message conservation on purpose.
  void configure_transport(std::unique_ptr<DeliveryModel> model);

  /// The installed delivery model (Ideal unless configure_transport said
  /// otherwise). Exposes kind()/name()/counters().
  const DeliveryModel& transport() const noexcept { return *model_; }

  /// Messages the transport holds for delivery in a later round (Async's
  /// latency wheel; 0 for Ideal/Faulty). Quiescence for the Scheduler is
  /// pending_messages() + in_flight() == 0.
  std::int64_t in_flight() const noexcept;

  /// Sends `msg` from `from` to neighbouring vertex `to` for delivery at the
  /// start of the next round. Throws CongestViolation if (from,to) is not an
  /// edge, the message exceeds kMaxWords, or a second message is sent on the
  /// same directed edge within one round.
  void send(Vertex from, Vertex to, const Message& msg);

  /// Sends `msg` from `from` to every neighbour (one message per edge),
  /// staged as a single broadcast record. Throws CongestViolation if the
  /// message exceeds kMaxWords or any of the sender's edges already carries
  /// a message this round; on a throw nothing is staged.
  void broadcast(Vertex from, const Message& msg);

  /// Ends the current round: hands the staged sends to the delivery model
  /// and materializes the model's batch in the inboxes.
  void advance_round();

  /// Advances `k` rounds (the first delivers pending messages; the rest are
  /// idle rounds that still count, matching fixed schedules).
  void advance_rounds(std::int64_t k);

  /// Advances `k` rounds that deliver nothing, in O(1): the same state and
  /// stats as k advance_round() calls on a quiescent network. Throws
  /// std::logic_error unless pending_messages() + in_flight() == 0. The
  /// Scheduler's idle-round fast-forward (NodeProgram::next_busy_round).
  void skip_idle_rounds(std::int64_t k);

  /// Messages delivered to v at the start of the current round, sorted by
  /// sender. The span points into the delivery arena and is invalidated by
  /// the next advance_round().
  std::span<const Received> inbox(Vertex v) const {
    const std::int64_t count = inbox_count_[static_cast<std::size_t>(v)];
    if (count == 0) return {};
    return {arena_.data() + inbox_begin_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(count)};
  }

  /// Vertices with a non-empty inbox this round (ascending).
  const std::vector<Vertex>& delivered_to() const noexcept {
    return delivered_;
  }

  /// Messages in the current round's delivery batch (the Scheduler's
  /// min-work signal for the parallel fan-out cutoff).
  std::int64_t delivered_messages() const noexcept {
    return delivered_messages_;
  }

  /// Messages staged for the next round but not yet handed to the
  /// transport. A program must end with zero staged and zero in-flight
  /// messages (the Scheduler enforces / drains this): anything left here
  /// would silently leak into the next program run on the same network.
  std::int64_t pending_messages() const noexcept { return pending_count_; }

  const NetworkStats& stats() const noexcept { return stats_; }

  /// Installs (or clears, with nullptr) the stage-profile accumulator the
  /// Scheduler writes into. While null — the default — the Scheduler reads
  /// no clocks at all, so profiling is pay-for-use. The sink must outlive
  /// every Scheduler::run on this network (builders keep it in their build
  /// state and snapshot deltas per task).
  void set_profile_sink(StageTimes* sink) noexcept { profile_ = sink; }
  StageTimes* profile_sink() const noexcept { return profile_; }

  /// Messages materialized in delivery batches since construction, across
  /// every installed transport. One side of the conservation ledger the
  /// kTransport audit balances every round:
  ///   sent + duplicated == delivered + dropped + in_flight.
  std::int64_t delivered_total() const noexcept { return delivered_total_; }

 private:
  std::int64_t directed_edge_id(Vertex from, Vertex to) const;

  /// Replaces each broadcast record in pending_ by its per-neighbour
  /// records, keeping staging order (for per-message delivery models).
  void expand_broadcasts();

  /// Counting-sorts deliver_ into the arena (receivers ascending, one
  /// contiguous run each, runs sorted by sender) and fills delivered_.
  void scatter_serial();
  void scatter_parallel(util::ThreadPool& pool);

  /// Appends v to receivers_ and sets its bit in receiver_bits_ (v must not
  /// be marked yet).
  void mark_receiver(Vertex v);

  /// Puts receivers_ in ascending order and clears their bits: a scan of
  /// the bitmap when the round is dense enough, std::sort otherwise.
  void order_receivers();

  void sort_inbox_run(Vertex v);

  const Graph* graph_ = nullptr;
  // Double-buffered arenas: sends and broadcast records of the current
  // round append to pending_ (flat, staging order); advance_round() hands
  // pending_ to the delivery model, which fills deliver_ (this round's
  // batch), and counting-sorts deliver_ into arena_ (flat, CSR by
  // receiver, addressed by inbox_begin_/inbox_count_).
  std::vector<Staged> pending_;
  std::vector<Staged> deliver_;
  std::vector<Staged> expanded_;              // scratch of expand_broadcasts
  std::int64_t pending_count_ = 0;            // messages pending_ stands for
  std::vector<Received> arena_;
  std::vector<std::int64_t> inbox_begin_;     // per-vertex offset into arena_
  std::vector<std::int64_t> inbox_count_;     // per-vertex run length
  std::vector<std::int64_t> recv_count_;      // per-vertex batch count (scratch)
  std::vector<Vertex> delivered_;             // nodes with non-empty inbox
  std::vector<Vertex> receivers_;             // scratch: batch receivers
  std::vector<std::uint64_t> receiver_bits_;  // scratch: receivers_ as bits
  std::int64_t delivered_messages_ = 0;       // size of the current batch
  std::int64_t delivered_total_ = 0;          // cumulative batch messages
  // Injected-event counters folded in from transports retired by
  // configure_transport, so the conservation ledger survives model swaps.
  std::int64_t retired_dropped_ = 0;
  std::int64_t retired_duplicated_ = 0;
  // Per-directed-edge round stamp for the one-message-per-edge cap; lazily
  // reset by comparing against the current round number.
  std::vector<std::int64_t> edge_round_stamp_;
  NetworkStats stats_;
  // Stage-profile sink for the Scheduler (see set_profile_sink); not owned.
  StageTimes* profile_ = nullptr;
  // The transport policy (never null; Ideal by default).
  std::unique_ptr<DeliveryModel> model_;
  // Execution policy for the Scheduler (see set_execution_threads).
  int exec_threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;
  // Parallel counting-sort scratch, lazily sized on the first large batch:
  // message-weighted shard boundaries over deliver_, per-shard destination
  // counts (doubling as write cursors) and touched lists.
  std::vector<std::size_t> shard_begin_;
  std::vector<std::vector<std::int64_t>> shard_count_;
  std::vector<std::vector<Vertex>> shard_touched_;
};

}  // namespace usne::congest
