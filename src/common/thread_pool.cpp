#include "common/thread_pool.hpp"

#include <algorithm>

namespace cqs {

namespace {
// Which pool (if any) the current thread belongs to, and its worker id.
// parallel_for consults these to run nested calls inline instead of
// deadlocking on the shared job slot.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (count == 0) return;
  if (tl_pool == this) {
    // Nested call from inside one of our own bodies: run inline, serially,
    // under the caller's worker id so per-worker scratch stays coherent.
    for (std::size_t i = 0; i < count; ++i) body(i, tl_worker);
    return;
  }
  {
    std::lock_guard lock(mutex_);
    job_.count = count;
    job_.body = &body;
    job_.next = 0;
    job_.done = 0;
    job_.error = nullptr;
    ++job_.generation;
  }
  work_cv_.notify_all();
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [this] { return job_.done == job_.count; });
  job_.body = nullptr;
  if (job_.error) {
    std::exception_ptr error = std::exchange(job_.error, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  tl_pool = this;
  tl_worker = worker_id;
  std::size_t seen_generation = 0;
  while (true) {
    std::unique_lock lock(mutex_);
    work_cv_.wait(lock, [&] {
      return stop_ ||
             (job_.body != nullptr && job_.generation != seen_generation &&
              job_.next < job_.count);
    });
    if (stop_) return;
    const std::size_t generation = job_.generation;
    // Chunked self-scheduling: grab a slice, run it unlocked, repeat.
    while (job_.body != nullptr && job_.generation == generation &&
           job_.next < job_.count) {
      const std::size_t chunk =
          std::max<std::size_t>(1, (job_.count - job_.next) /
                                       (2 * workers_.size() + 1));
      const std::size_t begin = job_.next;
      const std::size_t end = std::min(job_.count, begin + chunk);
      job_.next = end;
      const auto* body = job_.body;
      lock.unlock();
      std::exception_ptr error;
      try {
        for (std::size_t i = begin; i < end; ++i) (*body)(i, worker_id);
      } catch (...) {
        // Count the whole chunk as done (the rest of it is skipped); other
        // chunks still run so the caller's wait stays exact.
        error = std::current_exception();
      }
      lock.lock();
      if (error && !job_.error) job_.error = error;
      job_.done += end - begin;
      if (job_.done == job_.count) done_cv_.notify_all();
    }
    seen_generation = generation;
  }
}

}  // namespace cqs
