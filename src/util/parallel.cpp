#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>

#include "util/assert.hpp"

namespace croute {

namespace {

/// Set while a worker thread is executing one of its pool's tasks, so
/// for_each can reject reentrant dispatch (which would deadlock a fully
/// busy pool) no matter whether the running task came from submit() or
/// from another for_each.
thread_local const ThreadPool* g_inside_pool = nullptr;

}  // namespace

unsigned worker_count() noexcept {
  if (const char* env = std::getenv("CROUTE_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::uint64_t count,
                  const std::function<void(std::uint64_t)>& fn,
                  std::uint64_t grain) {
  if (grain == 0) grain = 1;
  const unsigned workers = worker_count();
  if (count == 0) return;
  if (workers <= 1 || count <= grain) {
    for (std::uint64_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto body = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      // Relaxed: workers only claim disjoint ranges; the pool join is
      // the synchronization edge for the work they produce.
      const std::uint64_t begin =
          next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::uint64_t end = std::min(begin + grain, count);
      for (std::uint64_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
          return;  // stop this worker; others drain quickly
        }
      }
    }
  };

  const unsigned spawned = static_cast<unsigned>(
      std::min<std::uint64_t>(workers, (count + grain - 1) / grain));
  std::vector<std::thread> threads;
  threads.reserve(spawned);
  for (unsigned t = 1; t < spawned; ++t) threads.emplace_back(body);
  body();  // caller participates
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = worker_count();
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    all_idle_.wait(lock, [this] { return unfinished_ == 0; });
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(Task task) {
  CROUTE_REQUIRE(task != nullptr, "ThreadPool::submit: empty task");
  {
    std::scoped_lock lock(mutex_);
    CROUTE_REQUIRE(!stopping_, "ThreadPool::submit after shutdown began");
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock lock(mutex_);
  all_idle_.wait(lock, [this] { return unfinished_ == 0; });
}

void ThreadPool::worker_loop(unsigned index) {
  while (true) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    g_inside_pool = this;
    task(index);
    g_inside_pool = nullptr;
    bool idle;
    {
      std::scoped_lock lock(mutex_);
      idle = --unfinished_ == 0;
    }
    if (idle) all_idle_.notify_all();
  }
}

namespace {

/// Shared state of one for_each call: a chunk counter the drained tasks
/// compete on, plus completion and error collection. Heap-allocated and
/// shared so stray worker tasks can never outlive the caller's frame.
struct ForEachState {
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  unsigned pending = 0;  ///< driver tasks not yet finished
};

}  // namespace

void ThreadPool::for_each(std::uint64_t count,
                          const std::function<void(std::uint64_t, unsigned)>& fn,
                          std::uint64_t grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  CROUTE_REQUIRE(g_inside_pool != this,
                 "ThreadPool::for_each called from inside one of its own "
                 "tasks (would deadlock a busy pool)");
  if (size() <= 1 || count <= grain) {
    // Serial fallback on the caller's thread; worker index 0 is the
    // documented scratch slot for inline execution (the pool is quiescent
    // from this caller's perspective, per the wait()-between-batches
    // contract of RouteService::route-style users).
    for (std::uint64_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }

  auto state = std::make_shared<ForEachState>();
  const unsigned drivers = static_cast<unsigned>(std::min<std::uint64_t>(
      size(), (count + grain - 1) / grain));
  state->pending = drivers;

  for (unsigned d = 0; d < drivers; ++d) {
    submit([state, &fn, count, grain](unsigned worker) {
      while (!state->failed.load(std::memory_order_relaxed)) {
        // Relaxed, as in for_each above: claims are disjoint and the
        // completion latch is the synchronization edge.
        const std::uint64_t begin =
            state->next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= count) break;
        const std::uint64_t end = std::min(begin + grain, count);
        for (std::uint64_t i = begin; i < end; ++i) {
          try {
            fn(i, worker);
          } catch (...) {
            std::scoped_lock lock(state->error_mutex);
            if (!state->first_error)
              state->first_error = std::current_exception();
            state->failed.store(true, std::memory_order_relaxed);
            break;
          }
          if (state->failed.load(std::memory_order_relaxed)) break;
        }
      }
      bool last;
      {
        std::scoped_lock lock(state->done_mutex);
        last = --state->pending == 0;
      }
      if (last) state->done_cv.notify_all();
    });
  }

  std::unique_lock lock(state->done_mutex);
  state->done_cv.wait(lock, [&] { return state->pending == 0; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void for_each_index(ThreadPool* pool, std::uint64_t count,
                    const std::function<void(std::uint64_t, unsigned)>& fn,
                    std::uint64_t grain) {
  if (pool != nullptr) {
    pool->for_each(count, fn, grain);
    return;
  }
  for (std::uint64_t i = 0; i < count; ++i) fn(i, 0);
}

unsigned pool_workers(const ThreadPool* pool) noexcept {
  return pool != nullptr ? std::max(1u, pool->size()) : 1;
}

}  // namespace croute
