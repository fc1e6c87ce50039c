#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/trace.hpp"

namespace dsem {

namespace {

// DSEM_THREADS sizing for the global pool: a positive integer pins the
// worker count (1 = exact serial execution); unset, empty, 0, or
// malformed values fall back to hardware_concurrency.
std::size_t global_pool_size() {
  const char* env = std::getenv("DSEM_THREADS");
  if (env == nullptr || *env == '\0') {
    return 0;
  }
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value <= 0) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

} // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (tasks_.empty()) {
      return false;
    }
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  // A blocked waiter stealing work: the stolen task must not record trace
  // events into the waiter's logical scope (which task a waiter steals is
  // a scheduling accident).
  trace::ScopeReset scope_reset;
  trace::Span span("pool.steal", trace::cat::kPool,
                   Reliability::kTimingDependent);
  // Which thread steals how many tasks is a scheduling accident.
  metrics::counter("pool.steals", 1, Reliability::kTimingDependent);
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      if (stopping_ || !tasks_.empty()) {
        // Fast path: no idle span for an already-satisfied wait.
        if (tasks_.empty()) {
          return;
        }
      } else {
        trace::Span idle("pool.idle", trace::cat::kPool,
                         Reliability::kTimingDependent);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) {
          return; // stopping_ and drained
        }
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    trace::ScopeReset scope_reset;
    trace::Span span("pool.task", trace::cat::kPool,
                     Reliability::kTimingDependent);
    // Steals run some submissions inline, so the worker tally varies with
    // scheduling even though the submission count does not.
    metrics::counter("pool.tasks", 1, Reliability::kTimingDependent);
    task();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_size());
  return pool;
}

void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain) {
  if (begin >= end) {
    return;
  }
  if (pool.thread_count() <= 1) {
    // A lone worker cannot overlap anything with the caller: enqueueing
    // chunks would only buy condvar round-trips per region. Chunk geometry
    // is a scheduling accident callers must not depend on, so collapsing
    // to one inline chunk is observationally equivalent — and exactly the
    // "DSEM_THREADS=1 means serial" contract.
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  if (grain == 0) {
    // Aim for a few chunks per worker to smooth load imbalance.
    const std::size_t target = pool.thread_count() * 4;
    grain = std::max<std::size_t>(1, n / std::max<std::size_t>(1, target));
  }
  if (n <= grain) {
    fn(begin, end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n / grain + 1);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    futures.push_back(pool.submit([lo, hi, &fn] { fn(lo, hi); }));
  }
  // Propagate the first exception but always wait for every chunk, so the
  // caller never returns while tasks still reference its locals.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      pool.help_while_waiting(f);
      f.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_chunks(
      pool, begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, fn, grain);
}

} // namespace dsem
