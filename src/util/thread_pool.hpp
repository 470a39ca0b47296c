#pragma once

// Minimal persistent thread pool backing the parallel CONGEST round
// scheduler (and reusable by any other fan-out work).
//
// One pool = `parallelism` lanes: `parallelism - 1` long-lived background
// workers plus the calling thread, which always participates in
// parallel_for. Task indices are handed out through a shared cursor, so
// batches larger than the lane count load-balance automatically. The pool
// is deliberately tiny: no futures, no task queue — the only primitive the
// engine needs is "run fn(0..tasks) and wait for all of them".

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace usne::util {

class ThreadPool {
 public:
  /// Creates a pool with `parallelism` total lanes (clamped to >= 1).
  /// `parallelism - 1` background threads are spawned immediately and live
  /// until destruction.
  explicit ThreadPool(int parallelism)
      : parallelism_(parallelism < 1 ? 1 : parallelism) {
    workers_.reserve(static_cast<std::size_t>(parallelism_ - 1));
    for (int w = 0; w + 1 < parallelism_; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  int parallelism() const noexcept { return parallelism_; }

  /// Invokes fn(i) once for every i in [0, tasks), distributed over the
  /// workers and the calling thread; returns when every index has
  /// completed. The first exception thrown by any invocation is rethrown
  /// here (remaining indices still run to completion). Not reentrant.
  void parallel_for(int tasks, const std::function<void(int)>& fn) {
    if (tasks <= 0) return;
    std::uint64_t generation;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &fn;
      total_ = tasks;
      next_ = 0;
      completed_ = 0;
      error_ = nullptr;
      generation = ++generation_;
    }
    job_cv_.notify_all();
    work_through(generation);
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return completed_ == total_; });
    job_ = nullptr;
    if (error_) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        job_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
      }
      work_through(seen);
    }
  }

  /// Drains task indices of batch `generation` until none remain. The
  /// unlocked `(*job_)` read is safe: job_ is published under the mutex
  /// before the generation bump and not cleared until every index of the
  /// batch has completed.
  void work_through(std::uint64_t generation) {
    for (;;) {
      int index;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (generation_ != generation || next_ >= total_) return;
        index = next_++;
      }
      std::exception_ptr error;
      try {
        (*job_)(index);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex_);
      if (error && !error_) error_ = error;
      if (++completed_ == total_) done_cv_.notify_all();
    }
  }

  const int parallelism_;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable job_cv_;   // wakes workers: new batch or stop
  std::condition_variable done_cv_;  // wakes the caller: batch complete
  const std::function<void(int)>* job_ = nullptr;
  int total_ = 0;
  int next_ = 0;
  int completed_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Splits items [0, count) into `parts` contiguous chunks of about equal
/// weight for a parallel_for: chunk p is [bounds[p], bounds[p + 1]).
/// Chunk p ends once the running weight crosses (p + 1) / parts of `total`,
/// the sum of weight(i) over all items, so one heavy item fills a chunk of
/// its own instead of unbalancing a count-based split.
template <typename WeightFn>
void weighted_split(std::size_t count, std::size_t parts, std::int64_t total,
                    WeightFn&& weight, std::vector<std::size_t>& bounds) {
  bounds.assign(parts + 1, count);
  bounds[0] = 0;
  std::size_t next = 1;
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < count && next < parts; ++i) {
    cumulative += weight(i);
    while (next < parts && cumulative * static_cast<std::int64_t>(parts) >=
                               static_cast<std::int64_t>(next) * total) {
      bounds[next++] = i + 1;
    }
  }
}

}  // namespace usne::util
