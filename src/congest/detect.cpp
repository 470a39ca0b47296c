#include "congest/detect.hpp"

#include <algorithm>

#include "congest/engine.hpp"

namespace usne::congest {
namespace {

constexpr Word kExplore = 4;  // <kExplore, source, dist>

/// Algorithm 2 as a NodeProgram. The schedule is delta strides of `cap`
/// rounds; in round t of a stride every active vertex broadcasts the t-th
/// source it learnt during the previous stride. Stride boundaries recompute
/// the pending lists (smallest (dist, id) first, truncated to cap).
///
/// Cost follows traffic. Per explore message on_round pays one O(log K)
/// lookup in v's sorted list of known sources (K = sources v knows) plus,
/// for a new source, the append and the sorted insert. A stride boundary
/// visits only the vertices that learnt a source during the stride, and
/// for each only the hits it learnt then: the tail of hits_[v] from
/// fresh_begin_[v]. Hits are appended in arrival order and every message
/// sent in stride s carries dist s, so a hit of dist s + 1 can only arrive
/// in stride s or, under a delaying transport, later; the tail filtered by
/// dist == s + 1 is therefore exactly the full-list filter.
///
/// Parallel audit: on_round mutates only per-vertex state of its vertex v
/// (hits_[v], known_[v], learnt_stride_[v], fresh_begin_[v]) and registers
/// v in the Sharded learnt_ list under its outbox's shard. pending_ and
/// active_ are rewritten exclusively at stride boundaries inside end_round
/// (serial).
class DetectProgram final : public NodeProgram {
 public:
  DetectProgram(Vertex n, const std::vector<Vertex>& sources, Dist delta,
                std::int64_t cap)
      : cap_(cap), total_rounds_(delta * cap) {
    const auto size = static_cast<std::size_t>(n);
    hits_.assign(size, {});
    known_.assign(size, {});
    pending_.assign(size, {});
    learnt_stride_.assign(size, -1);
    fresh_begin_.assign(size, 0);
    std::vector<Vertex> sorted = sources;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (const Vertex s : sorted) {
      hits_[static_cast<std::size_t>(s)].push_back({s, 0, -1});
      known_[static_cast<std::size_t>(s)].push_back(s);
      pending_[static_cast<std::size_t>(s)].push_back({s, 0, -1});
      active_.push_back(s);
    }
  }

  void set_shards(std::size_t shards) override { learnt_.reset(shards); }

  void init(Outbox& out) override {
    if (total_rounds_ > 0) send_entries(0, out);
  }

  void on_round(std::int64_t round, Vertex v, std::span<const Received> inbox,
                Outbox& out) override {
    const auto sv = static_cast<std::size_t>(v);
    auto& hits = hits_[sv];
    auto& known = known_[sv];
    for (const Received& r : inbox) {
      if (r.msg.words[0] != kExplore) continue;
      const Vertex src = static_cast<Vertex>(r.msg.words[1]);
      const auto it = std::lower_bound(known.begin(), known.end(), src);
      if (it != known.end() && *it == src) continue;  // heard before
      known.insert(it, src);
      const std::int64_t stride = round / cap_;
      if (learnt_stride_[sv] != stride) {  // v's first new source this stride
        learnt_stride_[sv] = stride;
        fresh_begin_[sv] = hits.size();
        learnt_.push(out.shard(), v);
      }
      hits.push_back({src, r.msg.words[2] + 1, r.from});
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

  std::vector<std::vector<SourceHit>> take_hits() {
    for (auto& known : hits_) {
      std::sort(known.begin(), known.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.dist != b.dist ? a.dist < b.dist
                                          : a.source < b.source;
                });
    }
    return std::move(hits_);
  }

 private:
  void send_entries(std::int64_t t, Outbox& out) {
    for (const Vertex v : active_) {
      const auto& list = pending_[static_cast<std::size_t>(v)];
      if (static_cast<std::int64_t>(list.size()) > t) {
        const SourceHit& h = list[static_cast<std::size_t>(t)];
        out.broadcast(v, Message::of(kExplore, h.source, h.dist));
      }
    }
  }

  /// Pending lists for the next stride = sources learnt during the stride
  /// just completed, truncated to the cap (smallest (dist, id) first —
  /// deterministic specialization of the paper's arbitrary choice).
  void stride_boundary(Dist completed_stride) {
    for (const Vertex v : active_) pending_[static_cast<std::size_t>(v)].clear();
    active_.clear();
    learnt_.drain_into(learnt_list_);
    std::sort(learnt_list_.begin(), learnt_list_.end());
    for (const Vertex v : learnt_list_) {
      const auto sv = static_cast<std::size_t>(v);
      const auto& hits = hits_[sv];
      auto& fresh = pending_[sv];
      for (std::size_t i = fresh_begin_[sv]; i < hits.size(); ++i) {
        if (hits[i].dist == completed_stride) fresh.push_back(hits[i]);
      }
      if (fresh.empty()) continue;
      std::sort(fresh.begin(), fresh.end(),
                [](const SourceHit& a, const SourceHit& b) {
                  return a.source < b.source;  // equal dist within a stride
                });
      if (static_cast<std::int64_t>(fresh.size()) > cap_) {
        fresh.resize(static_cast<std::size_t>(cap_));
      }
      active_.push_back(v);
    }
    learnt_list_.clear();
  }

  std::int64_t cap_;
  std::int64_t total_rounds_;
  std::vector<std::vector<SourceHit>> hits_;  // arrival order until take_hits
  std::vector<std::vector<Vertex>> known_;    // sources in hits_[v], sorted
  std::vector<std::vector<SourceHit>> pending_;
  std::vector<Vertex> active_;
  // Stride of v's latest new source, and where that stride's hits begin.
  std::vector<std::int64_t> learnt_stride_;
  std::vector<std::size_t> fresh_begin_;
  Sharded<Vertex> learnt_;            // vertices registered this stride
  std::vector<Vertex> learnt_list_;   // learnt_ drained at the boundary
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
