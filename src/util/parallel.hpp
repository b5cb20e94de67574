/// \file parallel.hpp
/// \brief Shared-memory parallelism: one-shot parallel_for and a persistent
/// ThreadPool with an MPMC task queue.
///
/// Preprocessing in croute is embarrassingly parallel across landmarks and
/// vertices (independent Dijkstra runs). parallel_for covers that one-shot
/// pattern: a plain std::thread fan-out with an atomic work counter — the
/// OpenMP "parallel for, dynamic schedule" pattern expressed in ISO C++
/// (the environment's HPC guides recommend standard C++ over vendor
/// extensions where a dozen lines suffice).
///
/// The serving path (src/service/) needs the opposite lifetime: workers
/// that outlive any single batch so that queries are not taxed with thread
/// creation. ThreadPool keeps a fixed set of workers blocked on a
/// multi-producer/multi-consumer queue; tasks receive their worker's index
/// so callers can maintain per-worker scratch (stats shards, reusable
/// buffers) without any synchronization on the hot path.
///
/// Determinism: tasks write only to disjoint, pre-sized output slots, and
/// any per-task randomness must come from an Rng forked per index *before*
/// dispatch, so results are independent of thread count and of how the
/// queue interleaves execution.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace croute {

/// Number of worker threads used by parallel_for and default-sized pools:
/// the value of the CROUTE_THREADS environment variable if set and
/// positive, otherwise std::thread::hardware_concurrency() (at least 1).
unsigned worker_count() noexcept;

/// Runs fn(i) for every i in [0, count), distributing indices dynamically
/// over worker_count() threads in chunks of \p grain. Falls back to a serial
/// loop when count is small or only one worker is available.
///
/// fn must be safe to call concurrently for distinct indices. Exceptions
/// thrown by fn are captured; the first one is rethrown on the caller's
/// thread after all workers finish.
void parallel_for(std::uint64_t count,
                  const std::function<void(std::uint64_t)>& fn,
                  std::uint64_t grain = 1);

/// A persistent pool of worker threads draining an MPMC task queue.
///
/// Workers are spawned once in the constructor and joined in the
/// destructor; submit() may be called from any thread (the queue is
/// multi-producer) and every worker competes for queued tasks
/// (multi-consumer). Each task is invoked with the index of the worker
/// executing it, in [0, size()), for addressing per-worker scratch.
///
/// The pool makes no fairness or ordering promises beyond FIFO dispatch;
/// callers that need deterministic *results* must make tasks write to
/// disjoint pre-sized slots (see for_each).
class ThreadPool {
 public:
  using Task = std::function<void(unsigned worker)>;

  /// Spawns \p threads workers (0 = worker_count()).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains outstanding tasks, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues one task. Thread-safe.
  void submit(Task task);

  /// Blocks until every task submitted so far has finished. Thread-safe,
  /// but interleaved submit() from other threads extends the wait.
  void wait();

  /// Runs fn(i, worker) for every i in [0, count) on the pool, claiming
  /// dynamically scheduled chunks of \p grain indices, and blocks until
  /// all are done. Results are deterministic when fn(i, ·) writes only to
  /// slot i; the worker argument must only feed per-worker scratch or
  /// telemetry, never the value of slot i.
  ///
  /// The first exception thrown by fn is rethrown on the caller's thread
  /// after the loop finishes. Reentrant calls from inside a task would
  /// deadlock a fully busy pool and are rejected with an exception.
  void for_each(std::uint64_t count,
                const std::function<void(std::uint64_t, unsigned)>& fn,
                std::uint64_t grain = 1);

 private:
  void worker_loop(unsigned index);

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_idle_;
  std::deque<Task> queue_;
  std::uint64_t unfinished_ = 0;  ///< queued + currently running
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(i, worker) for every i in [0, count) on \p pool when one is
/// given (ThreadPool::for_each), otherwise inline on the caller with
/// worker index 0. Lets code that borrows an optional pool (set-up
/// passes) keep one loop body for the serial and the sharded case.
void for_each_index(ThreadPool* pool, std::uint64_t count,
                    const std::function<void(std::uint64_t, unsigned)>& fn,
                    std::uint64_t grain = 1);

/// Worker slots a for_each_index call on \p pool may use: pool->size(),
/// or 1 for a null pool. Size per-worker scratch with it.
unsigned pool_workers(const ThreadPool* pool) noexcept;

}  // namespace croute
