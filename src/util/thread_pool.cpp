#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace mrscan::util {

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
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
    depth = tasks_.size();
  }
  cv_task_.notify_one();
  if (observer_ != nullptr) observer_->on_enqueue(depth);
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_exception_) {
    std::exception_ptr e = nullptr;
    std::swap(e, first_exception_);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

std::size_t ThreadPool::dropped_exceptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_exceptions_;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  // Each worker claims the next unclaimed index, so a slow index never
  // holds back the ones after it; fn(i) writes only i's own slots, so
  // which worker ran it never shows in the output (DESIGN §8).
  const std::size_t tasks = std::min(end - begin, worker_count());
  std::atomic<std::size_t> next{begin};
  const auto claim = [&] {
    return next.fetch_add(1, std::memory_order_relaxed);
  };
  // A throwing index ends nothing: the task's first exception leaves it
  // after the range is claimed, and each later one is counted as dropped,
  // as if every throw had ended its own submitted task.
  const auto task = [&] {
    std::exception_ptr first = nullptr;
    for (std::size_t i = claim(); i < end; i = claim()) {
      try {
        fn(i);
      } catch (...) {
        if (!first) {
          first = std::current_exception();
        } else {
          std::lock_guard<std::mutex> lock(mutex_);
          ++dropped_exceptions_;
        }
      }
    }
    if (first) std::rethrow_exception(first);
  };
  for (std::size_t t = 0; t < tasks; ++t) submit(task);
  wait_idle();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr thrown = nullptr;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    if (observer_ != nullptr) observer_->on_task_done(worker_index);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Hand the reference off (or drop it) entirely inside the critical
      // section: releasing it after unlock would make the refcount drop
      // race with the waiter consuming the rethrown exception.
      if (thrown) {
        if (!first_exception_) {
          first_exception_ = std::move(thrown);
        } else {
          ++dropped_exceptions_;
        }
        thrown = nullptr;
      }
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace mrscan::util
