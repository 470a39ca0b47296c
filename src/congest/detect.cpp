#include "congest/detect.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "congest/engine.hpp"

namespace usne::congest {
namespace {

constexpr Word kExplore = 4;  // <kExplore, source, dist>

/// Per-vertex open-addressing set of 32-bit source ids: key = source + 1,
/// 0 = empty slot, linear probing over a power-of-two table kept at load
/// <= 3/4. The element count lives with the caller (the owner's hit list
/// holds exactly the members), so the set is one pointer and a shift.
class SourceSet {
 public:
  /// Inserts `source` unless present; `count` is the current size. Returns
  /// true when it was new.
  bool insert(Vertex source, std::size_t count) {
    if ((count + 1) * 4 > capacity() * 3) grow(count);
    return place(static_cast<std::uint32_t>(source) + 1);
  }

 private:
  std::size_t capacity() const noexcept {
    return slots_ == nullptr ? 0 : std::size_t{1} << log2_;
  }

  std::size_t home(std::uint32_t key) const noexcept {
    // Fibonacci hashing: the top log2_ bits of the product.
    return static_cast<std::size_t>((key * 0x9e3779b9U) >> (32 - log2_));
  }

  bool place(std::uint32_t key) {
    const std::size_t mask = capacity() - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        return true;
      }
    }
  }

  void grow(std::size_t count) {
    const std::unique_ptr<std::uint32_t[]> old = std::move(slots_);
    const std::size_t old_capacity = old == nullptr ? 0 : std::size_t{1} << log2_;
    log2_ = 2;  // 4 slots at least
    while ((count + 1) * 4 > (std::size_t{1} << log2_) * 3) ++log2_;
    slots_ = std::make_unique<std::uint32_t[]>(std::size_t{1} << log2_);
    for (std::size_t i = 0; i < old_capacity; ++i) {
      if (old[i] != 0) place(old[i]);
    }
  }

  std::unique_ptr<std::uint32_t[]> slots_;
  std::uint32_t log2_ = 0;
};

/// Algorithm 2 as a NodeProgram. The schedule is delta strides of `cap`
/// rounds; in round t of a stride every vertex with a t-th entry
/// broadcasts the t-th source it learnt during the previous stride. Stride
/// boundaries pick the next lists (smallest (dist, id) first, truncated to
/// cap).
///
/// Cost follows traffic. Each vertex keeps one record: its hits in arrival
/// order, a hashed set of the sources it knows, and the stride bookkeeping.
/// Per explore message on_round pays one expected-O(1) probe of that set,
/// plus the append of a hit for a new source. A stride boundary visits only
/// the vertices that learnt a source during the stride, and for each only
/// the hits it learnt then: the tail of its hits from fresh_begin. Hits are
/// appended in arrival order and every message sent in stride s carries
/// dist s, so a hit of dist s + 1 can only arrive in stride s or, under a
/// delaying transport, later; the tail filtered by dist == s + 1 is
/// therefore exactly the full-list filter. The boundary orders the tail in
/// place (dist s + 1 first, by source) and the next stride's list is its
/// head, so pending entries are an index range, not a copy. A send round
/// visits only the vertices whose list is not yet exhausted: active_ is
/// compacted as lists run out. Once it is empty the rest of the stride is
/// idle, and next_busy_round lets the Scheduler skip it; if nothing was
/// learnt either, every later stride is idle too.
///
/// Parallel audit: on_round mutates only the record of its vertex v and
/// registers v in the Sharded learnt_ list under its outbox's shard. The
/// pending ranges and active_ are rewritten only in end_round (serial).
class DetectProgram final : public NodeProgram {
 public:
  DetectProgram(Vertex n, const std::vector<Vertex>& sources, Dist delta,
                std::int64_t cap)
      : cap_(cap), total_rounds_(delta * cap) {
    nodes_.resize(static_cast<std::size_t>(n));
    std::vector<Vertex> sorted = sources;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const Vertex s : sorted) {
      Node& node = nodes_[static_cast<std::size_t>(s)];
      node.known.insert(s, 0);
      node.hits.push_back({s, 0, -1});
      node.pending_count = 1;
      active_.push_back(s);
    }
  }

  void set_shards(std::size_t shards) override { learnt_.reset(shards); }

  void init(Outbox& out) override {
    if (total_rounds_ > 0) send_entries(0, out);
  }

  void on_round(std::int64_t, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    Node& node = nodes_[static_cast<std::size_t>(v)];
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kExplore) continue;
      const Vertex src = static_cast<Vertex>(r.msg.words[1]);
      if (!node.known.insert(src, node.hits.size())) continue;  // heard before
      if (!node.learnt) {  // v's first new source this stride
        node.learnt = true;
        node.fresh_begin = static_cast<std::uint32_t>(node.hits.size());
        learnt_.push(out.shard(), v);
      }
      node.hits.push_back({src, r.msg.words[2] + 1, r.from});
    }
  }

  void end_round(std::int64_t round, Outbox& out) override {
    if (round + 1 >= total_rounds_) return;  // schedule exhausted
    const std::int64_t t = round % cap_;
    if (t == cap_ - 1) {
      stride_boundary(round / cap_ + 1);
      send_entries(0, out);
    } else {
      send_entries(t + 1, out);
    }
  }

  bool done(std::int64_t next_round) const override {
    return next_round >= total_rounds_;
  }

  std::int64_t next_busy_round(std::int64_t round) const override {
    if (!active_.empty()) return round + 1;
    if (learnt_.empty()) return total_rounds_;
    // The boundary at the end of round + 1's stride is the next work.
    return std::min(((round + 1) / cap_ + 1) * cap_ - 1, total_rounds_);
  }

  std::vector<std::vector<SourceHit>> take_hits() {
    std::vector<std::vector<SourceHit>> hits(nodes_.size());
    for (std::size_t v = 0; v < nodes_.size(); ++v) {
      hits[v] = std::move(nodes_[v].hits);
      std::sort(hits[v].begin(), hits[v].end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.dist != b.dist ? a.dist < b.dist
                                          : a.source < b.source;
                });
    }
    nodes_.clear();
    return hits;
  }

 private:
  struct Node {
    std::vector<SourceHit> hits;  // arrival order, tails reordered per stride
    SourceSet known;              // the sources in hits
    std::uint32_t fresh_begin = 0;  // first hit learnt this stride
    std::uint32_t pending_begin = 0;  // this stride's list: hits[begin, +count)
    std::uint32_t pending_count = 0;
    bool learnt = false;  // learnt a source this stride (v is in learnt_)
  };

  /// Broadcasts entry t of every active list, then drops the lists that
  /// have no entry t + 1 (order kept, so sends stay in ascending vertex
  /// order).
  void send_entries(std::int64_t t, Outbox& out) {
    const auto next = static_cast<std::uint32_t>(t + 1);
    std::size_t kept = 0;
    for (const Vertex v : active_) {
      const Node& node = nodes_[static_cast<std::size_t>(v)];
      const SourceHit& h = node.hits[node.pending_begin + next - 1];
      out.broadcast(v, Message::of(kExplore, h.source, h.dist));
      if (node.pending_count > next) active_[kept++] = v;
    }
    active_.resize(kept);
  }

  /// Lists for the next stride = sources learnt during the stride just
  /// completed, truncated to the cap (smallest (dist, id) first —
  /// deterministic specialization of the paper's arbitrary choice).
  void stride_boundary(Dist completed_stride) {
    active_.clear();
    learnt_.drain_into(learnt_list_);
    std::sort(learnt_list_.begin(), learnt_list_.end());
    const auto by_source = [](const SourceHit& a, const SourceHit& b) {
      return a.source < b.source;  // equal dist within a stride
    };
    for (const Vertex v : learnt_list_) {
      Node& node = nodes_[static_cast<std::size_t>(v)];
      node.learnt = false;
      const auto first = node.hits.begin() + node.fresh_begin;
      const auto fresh = std::partition(first, node.hits.end(),
                                        [&](const SourceHit& h) {
                                          return h.dist == completed_stride;
                                        });
      const auto count = static_cast<std::int64_t>(fresh - first);
      if (count == 0) continue;
      const std::int64_t kept = std::min(count, cap_);
      if (kept < count) {
        std::partial_sort(first, first + kept, fresh, by_source);
      } else {
        std::sort(first, fresh, by_source);
      }
      node.pending_begin = node.fresh_begin;
      node.pending_count = static_cast<std::uint32_t>(kept);
      active_.push_back(v);
    }
    learnt_list_.clear();
  }

  std::int64_t cap_;
  std::int64_t total_rounds_;
  std::vector<Node> nodes_;
  std::vector<Vertex> active_;       // ascending; lists with entries left
  Sharded<Vertex> learnt_;           // vertices registered this stride
  std::vector<Vertex> learnt_list_;  // learnt_ drained at the boundary
};

}  // namespace

Dist DetectResult::distance_to(Vertex v, Vertex source) const {
  for (const SourceHit& h : hits[static_cast<std::size_t>(v)]) {
    if (h.source == source) return h.dist;
  }
  return kInfDist;
}

std::size_t DetectResult::heard_others(Vertex v) const {
  std::size_t count = 0;
  for (const SourceHit& h : hits[static_cast<std::size_t>(v)]) {
    if (h.source != v) ++count;
  }
  return count;
}

std::vector<Vertex> DetectResult::path_to(Vertex v, Vertex source) const {
  std::vector<Vertex> path;
  Vertex cur = v;
  while (cur != -1) {
    path.push_back(cur);
    if (cur == source) return path;
    const auto& list = hits[static_cast<std::size_t>(cur)];
    const auto it = std::find_if(list.begin(), list.end(), [&](const SourceHit& h) {
      return h.source == source;
    });
    if (it == list.end()) return {};
    cur = it->pred;
  }
  return {};
}

DetectResult detect_congest(Network& net, const std::vector<Vertex>& sources,
                            Dist delta, std::int64_t cap) {
  DetectProgram program(net.num_vertices(), sources, delta, cap);
  const ScheduleReport report = Scheduler(net).run(program);
  DetectResult result;
  result.hits = program.take_hits();
  result.rounds_used = report.rounds;
  return result;
}

}  // namespace usne::congest
