#pragma once
///
/// \file thread_pool.hpp
/// \brief Work-stealing thread pool with per-worker busy-time accounting —
/// the threading subsystem of the mini-AMT runtime.
///
/// Each worker owns a deque; `post` from a worker pushes to its own deque
/// (LIFO hot path), external posts go to a shared inject queue, and idle
/// workers steal FIFO from victims. Busy time (wall time spent executing
/// tasks) is accumulated per worker and exposed through the counter registry
/// as `/threads{locality#L/total}/busy_time`, the observable Algorithm 1
/// consumes.
///

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "amt/future.hpp"
#include "amt/unique_function.hpp"

namespace nlh::amt {

class thread_pool {
 public:
  /// \param num_threads worker count (>= 1)
  /// \param locality    id used for the busy_time counter path; pass -1 to
  ///                    skip counter registration (unit tests).
  explicit thread_pool(unsigned num_threads, int locality = -1);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Fire-and-forget task submission (wait-free for callers on worker
  /// threads except for the deque mutex).
  void post(unique_function<void()> task);

  /// Block the calling thread until `f` is ready. When called from one of
  /// this pool's workers the wait *helps*: it executes queued tasks instead
  /// of sleeping, so a single-threaded pool cannot deadlock on a dependent
  /// task chain.
  template <class T>
  void wait(const future<T>& f) {
    while (!f.is_ready()) {
      if (!try_help_one()) f.wait();
    }
  }

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }
  int locality() const { return locality_; }

  /// Total wall-seconds all workers spent executing tasks since the last
  /// reset_busy_time(), including the elapsed time of tasks still running.
  /// Counting in-flight work keeps the reading consistent for callers woken
  /// by a promise fulfilled *inside* a task (the task is observably "spent"
  /// even though its wrapper has not returned yet).
  double busy_time_s() const;

  /// busy_time_s() / (workers * interval length): the fraction HPX's
  /// busy_time counter reports. 0 when the interval is empty.
  double busy_fraction() const;

  /// Open a new measurement interval: the reading drops to exactly zero.
  /// Contract: tasks still in flight are attributed wholly to the interval
  /// being closed — their remaining time is not counted in the new one.
  /// Reset at a quiescent point (between steps/runs, as the balancing
  /// drivers do) for exact accounting.
  void reset_busy_time();

  std::uint64_t tasks_executed() const { return tasks_executed_.load(std::memory_order_relaxed); }

 private:
  struct worker_queue {
    std::mutex m;
    std::deque<unique_function<void()>> q;
  };

  void worker_loop(unsigned index);
  bool try_pop_local(unsigned index, unique_function<void()>& out);
  bool try_steal(unsigned index, unique_function<void()>& out);
  bool try_pop_inject(unique_function<void()>& out);
  /// Execute one queued task if any is available (used by helping waits,
  /// callable from any thread). Returns false when all queues were empty.
  bool try_help_one();
  /// Any task queued anywhere in the pool (inject queue or a worker deque).
  bool has_queued_work();
  void run_task(unique_function<void()> task);

  std::vector<std::unique_ptr<worker_queue>> queues_;
  std::mutex inject_m_;
  std::deque<unique_function<void()>> inject_;
  std::condition_variable work_cv_;
  std::mutex sleep_m_;
  /// Workers parked (or about to park) on work_cv_. post() only takes
  /// sleep_m_ to notify when this is non-zero, so posting to a busy pool
  /// never touches the sleep lock.
  std::atomic<int> sleepers_{0};

  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> tasks_executed_{0};
  mutable std::mutex active_m_;
  std::vector<std::int64_t> active_start_ns_;  ///< start stamps of running tasks
  std::uint64_t busy_epoch_ = 0;  ///< bumped by reset; orphans spanning tasks
  std::chrono::steady_clock::time_point interval_start_;
  mutable std::mutex interval_m_;
  int locality_ = -1;

  static thread_local thread_pool* current_pool_;
  static thread_local unsigned current_index_;
};

}  // namespace nlh::amt
