#include "congest/network.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <thread>

#include "congest/transport.hpp"
#include "util/invariant.hpp"
#include "util/thread_pool.hpp"

namespace usne::congest {
namespace {

/// Delivery batches smaller than this are counting-sorted serially even
/// under a parallel execution policy: the three fork/join handshakes of
/// the sharded pass cost more than a small batch's scatter. Purely a
/// wall-clock knob — delivery order is bit-identical either way.
constexpr std::int64_t kMinParallelScatter = 4096;

/// Calls fn(receiver) for each message a staged record stands for: its
/// recipient, or every CSR neighbour of the sender for a broadcast record.
template <typename Fn>
void for_each_receiver(const Graph& g, const Staged& p, Fn&& fn) {
  if (p.to != kBroadcast) {
    fn(p.to);
    return;
  }
  for (const Vertex to : g.neighbors(p.rcv.from)) fn(to);
}

/// Messages a staged record stands for.
std::int64_t record_messages(const Graph& g, const Staged& p) {
  return p.to == kBroadcast ? g.degree(p.rcv.from) : 1;
}

void check_message_size(const Message& msg) {
  if (msg.size < 1 || msg.size > kMaxWords) {
    throw CongestViolation("message exceeds O(1)-word cap: " +
                           std::to_string(msg.size) + " words");
  }
}

}  // namespace

Network::Network(const Graph& g)
    : graph_(&g),
      inbox_begin_(static_cast<std::size_t>(g.num_vertices()), 0),
      inbox_count_(static_cast<std::size_t>(g.num_vertices()), 0),
      recv_count_(static_cast<std::size_t>(g.num_vertices()), 0),
      receiver_bits_((static_cast<std::size_t>(g.num_vertices()) + 63) / 64, 0),
      edge_round_stamp_(static_cast<std::size_t>(g.num_edges()) * 2, -1),
      model_(make_delivery_model(TransportSpec{})) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument(
        "Network requires a non-empty graph (n >= 1 processors)");
  }
}

Network::~Network() = default;
Network::Network(Network&&) noexcept = default;
Network& Network::operator=(Network&&) noexcept = default;

void Network::set_execution_threads(int threads) {
  if (threads == 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  if (threads != exec_threads_) {
    pool_.reset();  // rebuilt lazily at the new width
    shard_count_.clear();
    shard_touched_.clear();
    exec_threads_ = threads;
  }
}

util::ThreadPool* Network::thread_pool() {
  if (exec_threads_ <= 1) return nullptr;
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(exec_threads_);
  return pool_.get();
}

void Network::configure_transport(const TransportSpec& spec) {
  configure_transport(make_delivery_model(spec));
}

void Network::configure_transport(std::unique_ptr<DeliveryModel> model) {
  if (model == nullptr) {
    throw std::invalid_argument("configure_transport: null delivery model");
  }
  if (pending_messages() + in_flight() != 0) {
    throw std::logic_error(
        "configure_transport requires a quiescent network (messages are "
        "staged or in flight)");
  }
  // Fold the retiring model's injected-event counters into the network-level
  // base so the conservation ledger spans model swaps.
  retired_dropped_ += model_->counters().dropped;
  retired_duplicated_ += model_->counters().duplicated;
  model_ = std::move(model);
}

std::int64_t Network::in_flight() const noexcept {
  return model_->in_flight();
}

std::int64_t Network::directed_edge_id(Vertex from, Vertex to) const {
  const auto nbrs = graph_->neighbors(from);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  if (it == nbrs.end() || *it != to) return -1;
  // Directed edge slots are laid out as the CSR adjacency itself.
  return graph_->csr_offset(from) + (it - nbrs.begin());
}

void Network::send(Vertex from, Vertex to, const Message& msg) {
  check_message_size(msg);
  const std::int64_t eid = directed_edge_id(from, to);
  if (eid < 0) {
    throw CongestViolation("send along non-edge (" + std::to_string(from) +
                           "," + std::to_string(to) + ")");
  }
  auto& stamp = edge_round_stamp_[static_cast<std::size_t>(eid)];
  if (stamp == stats_.rounds) {
    throw CongestViolation("second message on edge (" + std::to_string(from) +
                           "," + std::to_string(to) + ") in round " +
                           std::to_string(stats_.rounds));
  }
  stamp = stats_.rounds;

  pending_.push_back({to, {from, msg}});
  ++pending_count_;
  ++stats_.messages;
  stats_.words += msg.size;
}

void Network::broadcast(Vertex from, const Message& msg) {
  check_message_size(msg);
  const auto nbrs = graph_->neighbors(from);
  if (nbrs.empty()) return;
  // The sender's directed edges are its contiguous CSR slot range.
  std::int64_t* const stamps =
      edge_round_stamp_.data() + graph_->csr_offset(from);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (stamps[i] == stats_.rounds) {
      throw CongestViolation("second message on edge (" + std::to_string(from) +
                             "," + std::to_string(nbrs[i]) + ") in round " +
                             std::to_string(stats_.rounds));
    }
  }
  std::fill_n(stamps, nbrs.size(), stats_.rounds);

  pending_.push_back({kBroadcast, {from, msg}});
  const auto deg = static_cast<std::int64_t>(nbrs.size());
  pending_count_ += deg;
  stats_.messages += deg;
  stats_.words += deg * msg.size;
}

void Network::expand_broadcasts() {
  expanded_.clear();
  for (const Staged& p : pending_) {
    for_each_receiver(*graph_, p,
                      [&](Vertex to) { expanded_.push_back({to, p.rcv}); });
  }
  pending_.swap(expanded_);
}

void Network::sort_inbox_run(Vertex v) {
  const auto sv = static_cast<std::size_t>(v);
  Received* const first =
      arena_.data() + static_cast<std::size_t>(inbox_begin_[sv]);
  Received* const last = first + static_cast<std::size_t>(inbox_count_[sv]);
  const auto by_sender = [](const Received& a, const Received& b) {
    return a.from < b.from;
  };
  // Broadcast records staged in ascending sender order (the common shape)
  // land already sorted.
  if (std::is_sorted(first, last, by_sender)) return;
  if (model_->unique_senders_per_round()) {
    // Unique keys: plain (allocation-free) sort is already deterministic.
    std::sort(first, last, by_sender);
  } else {
    // Duplicates / multi-round batches repeat senders: stability keeps the
    // deterministic batch order (original before copy, earlier staging
    // round first) within equal senders.
    std::stable_sort(first, last, by_sender);
  }
}

void Network::advance_round() {
  // Retire the previous round's delivery state (only delivered vertices have
  // non-zero counts, so the reset touches exactly the prior traffic).
  for (const Vertex v : delivered_) inbox_count_[static_cast<std::size_t>(v)] = 0;
  delivered_.clear();

  // Transport policy: the model turns this round's staged sends into the
  // batch delivered next round (Ideal passes everything through; Faulty
  // drops/duplicates; Async files by drawn latency and surfaces the
  // messages that are due). Per-message models see broadcasts expanded.
  if (!model_->ideal()) expand_broadcasts();
  deliver_.clear();
  model_->collect(stats_.rounds, pending_, deliver_);
  pending_.clear();
  pending_count_ = 0;
  delivered_messages_ = 0;
  for (const Staged& p : deliver_) {
    delivered_messages_ += record_messages(*graph_, p);
  }
  delivered_total_ += delivered_messages_;

  // Message conservation across the Network / DeliveryModel handoff: every
  // send is eventually delivered, dropped, or still riding the transport,
  // and every extra delivery is an accounted duplicate. A model that loses
  // or invents messages without counting them breaks this ledger here, in
  // the round it happens.
  USNE_AUDIT(inv::Category::kTransport,
             stats_.messages + retired_duplicated_ +
                     model_->counters().duplicated ==
                 delivered_total_ + retired_dropped_ +
                     model_->counters().dropped + model_->in_flight(),
             "staged != delivered + dropped + in_flight (sent " +
                 std::to_string(stats_.messages) + ", delivered " +
                 std::to_string(delivered_total_) + ", dropped " +
                 std::to_string(retired_dropped_ +
                                model_->counters().dropped) +
                 ", duplicated " +
                 std::to_string(retired_duplicated_ +
                                model_->counters().duplicated) +
                 ", in flight " + std::to_string(model_->in_flight()) + ")");

  util::ThreadPool* const pool =
      delivered_messages_ >= kMinParallelScatter ? thread_pool() : nullptr;
  if (pool != nullptr) {
    scatter_parallel(*pool);
  } else {
    scatter_serial();
  }

  // Scatter conservation: the arena's per-receiver runs must account for
  // exactly the batch the transport produced.
  USNE_AUDIT(inv::Category::kTransport,
             [&] {
               std::int64_t in_runs = 0;
               for (const Vertex v : delivered_) {
                 in_runs += inbox_count_[static_cast<std::size_t>(v)];
               }
               return in_runs == delivered_messages_;
             }(),
             "delivery arena runs do not sum to the batch size " +
                 std::to_string(delivered_messages_));
  ++stats_.rounds;
}

void Network::mark_receiver(Vertex v) {
  const auto sv = static_cast<std::size_t>(v);
  receiver_bits_[sv / 64] |= std::uint64_t{1} << (sv % 64);
  receivers_.push_back(v);
}

void Network::order_receivers() {
  // A bitmap scan reads n/64 words and emits each receiver once; std::sort
  // spends about r log r compares. Take the scan whenever its word count is
  // within twice the sort's, so sparse rounds on a large graph still sort.
  const std::size_t words = receiver_bits_.size();
  const std::size_t r = receivers_.size();
  if (words <= 2 * r * static_cast<std::size_t>(std::bit_width(r))) {
    receivers_.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = receiver_bits_[w];
      if (bits == 0) continue;
      receiver_bits_[w] = 0;
      const auto base = static_cast<Vertex>(w * 64);
      do {
        receivers_.push_back(base + std::countr_zero(bits));
        bits &= bits - 1;
      } while (bits != 0);
    }
  } else {
    std::sort(receivers_.begin(), receivers_.end());
    // Every set bit is a receiver, so clearing whole words is exact.
    for (const Vertex v : receivers_) {
      receiver_bits_[static_cast<std::size_t>(v) / 64] = 0;
    }
  }
}

void Network::scatter_serial() {
  // Counting-sort the batch into the delivery arena: receivers in
  // ascending order, one contiguous run each.
  for (const Staged& p : deliver_) {
    for_each_receiver(*graph_, p, [&](Vertex to) {
      if (recv_count_[static_cast<std::size_t>(to)]++ == 0) mark_receiver(to);
    });
  }
  order_receivers();
  std::int64_t offset = 0;
  for (const Vertex v : receivers_) {
    inbox_begin_[static_cast<std::size_t>(v)] = offset;
    offset += recv_count_[static_cast<std::size_t>(v)];
  }
  const auto m = static_cast<std::size_t>(delivered_messages_);
  if (arena_.size() < m) arena_.resize(m);
  for (const Staged& p : deliver_) {
    for_each_receiver(*graph_, p, [&](Vertex to) {
      const auto t = static_cast<std::size_t>(to);
      arena_[static_cast<std::size_t>(inbox_begin_[t] + inbox_count_[t]++)] =
          p.rcv;
    });
  }
  // Deterministic processing order for receivers: sort each run by sender.
  for (const Vertex v : receivers_) {
    sort_inbox_run(v);
    recv_count_[static_cast<std::size_t>(v)] = 0;
  }
  delivered_.swap(receivers_);
  receivers_.clear();
}

void Network::scatter_parallel(util::ThreadPool& pool) {
  // Sharded counting sort: shard s owns the contiguous record chunk
  // [shard_begin_[s], shard_begin_[s+1]) of the batch, its boundaries
  // weighted by message count so one hub's broadcast does not unbalance
  // the shards. Within a receiver's arena run, shard s's messages are
  // written before shard s+1's, at each shard's precomputed cursor — so
  // the run's content order equals the serial (batch) order exactly, and
  // the per-run sender sort then matches the serial pass bit for bit.
  const std::size_t shards = static_cast<std::size_t>(pool.parallelism());
  const std::size_t n = static_cast<std::size_t>(graph_->num_vertices());
  if (shard_count_.size() != shards) {
    shard_count_.assign(shards, std::vector<std::int64_t>(n, 0));
    shard_touched_.assign(shards, {});
  }
  util::weighted_split(
      deliver_.size(), shards, delivered_messages_,
      [&](std::size_t i) { return record_messages(*graph_, deliver_[i]); },
      shard_begin_);

  // Pass 1 (parallel): per-shard destination counts.
  pool.parallel_for(static_cast<int>(shards), [&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    auto& count = shard_count_[su];
    auto& touched = shard_touched_[su];
    for (std::size_t i = shard_begin_[su]; i < shard_begin_[su + 1]; ++i) {
      for_each_receiver(*graph_, deliver_[i], [&](Vertex to) {
        if (count[static_cast<std::size_t>(to)]++ == 0) touched.push_back(to);
      });
    }
  });

  // Receivers: union of the touched lists, deduped by the receiver bitmap,
  // then put in ascending order (the delivery contract).
  for (const auto& touched : shard_touched_) {
    for (const Vertex v : touched) {
      const auto sv = static_cast<std::size_t>(v);
      if ((receiver_bits_[sv / 64] >> (sv % 64) & 1) == 0) mark_receiver(v);
    }
  }
  order_receivers();

  // Offsets: turn the per-shard counts into per-shard write cursors (an
  // exclusive prefix sum across shards within each receiver's run).
  std::int64_t offset = 0;
  for (const Vertex v : receivers_) {
    const auto sv = static_cast<std::size_t>(v);
    inbox_begin_[sv] = offset;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::int64_t c = shard_count_[s][sv];
      if (c != 0) {  // untouched (shard, v) slots must stay zero for reuse
        shard_count_[s][sv] = offset;
        offset += c;
      }
    }
    inbox_count_[sv] = offset - inbox_begin_[sv];
  }
  const auto m = static_cast<std::size_t>(delivered_messages_);
  if (arena_.size() < m) arena_.resize(m);

  // Pass 2 (parallel): scatter at the cursors.
  pool.parallel_for(static_cast<int>(shards), [&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    auto& cursor = shard_count_[su];
    for (std::size_t i = shard_begin_[su]; i < shard_begin_[su + 1]; ++i) {
      const Received& rcv = deliver_[i].rcv;
      for_each_receiver(*graph_, deliver_[i], [&](Vertex to) {
        arena_[static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(to)]++)] = rcv;
      });
    }
  });

  // Pass 3 (parallel): per-run sender sorts, receivers partitioned across
  // lanes; runs are independent, so order of execution is immaterial.
  const std::size_t r = receivers_.size();
  pool.parallel_for(static_cast<int>(shards), [&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    for (std::size_t i = r * su / shards; i < r * (su + 1) / shards; ++i) {
      sort_inbox_run(receivers_[i]);
    }
  });

  // Reset the scratch counts (touched entries only).
  pool.parallel_for(static_cast<int>(shards), [&](int s) {
    const std::size_t su = static_cast<std::size_t>(s);
    for (const Vertex v : shard_touched_[su]) {
      shard_count_[su][static_cast<std::size_t>(v)] = 0;
    }
    shard_touched_[su].clear();
  });

  delivered_.swap(receivers_);
  receivers_.clear();
}

void Network::advance_rounds(std::int64_t k) {
  for (std::int64_t i = 0; i < k; ++i) advance_round();
}

void Network::skip_idle_rounds(std::int64_t k) {
  if (k <= 0) return;
  if (pending_messages() + in_flight() != 0) {
    throw std::logic_error(
        "skip_idle_rounds requires a quiescent network (messages are staged "
        "or in flight)");
  }
  // What k advance_round() calls would leave: the previous round's inboxes
  // retired, an empty batch, the round counter k further on. The delivery
  // model has nothing to collect, and the per-edge stamps compare against
  // the round counter, so neither needs touching.
  for (const Vertex v : delivered_) inbox_count_[static_cast<std::size_t>(v)] = 0;
  delivered_.clear();
  delivered_messages_ = 0;
  stats_.rounds += k;
}

}  // namespace usne::congest
