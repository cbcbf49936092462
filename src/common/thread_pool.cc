#include "common/thread_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hyppo {

namespace {

// Identifies the pool (if any) whose WorkerLoop is running on this thread,
// so Submit/Wait can apply the serial-when-nested fallback (see the class
// comment).
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::InWorkerThread() const {
  return current_worker_pool == this;
}

void ThreadPool::Submit(std::function<void()> task) {
  if (InWorkerThread()) {
    task();  // serial-when-nested: see the class comment
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  if (InWorkerThread()) {
    return;  // serial-when-nested: inline submissions already completed
  }
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this]() { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace hyppo
