#include "common/thread_pool.h"

#include <algorithm>

namespace hyppo {

ThreadPool::ThreadPool(int num_workers) {
  const int count = std::max(0, num_workers);
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

int64_t ThreadPool::ClaimLocked(Job* job) {
  const int64_t i = job->next++;
  if (job->next == job->n) {
    open_jobs_.erase(std::find(open_jobs_.begin(), open_jobs_.end(), job));
  }
  ++job->running;
  return i;
}

void ThreadPool::RunItem(Job* job, int64_t i,
                         std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  try {
    (*job->fn)(i);
  } catch (...) {
    error = std::current_exception();  // the caller rethrows it
  }
  lock.lock();
  if (error != nullptr && job->error == nullptr) {
    job->error = error;
  }
  // Notified under the lock: the caller cannot wake, return and destroy
  // the job before this thread lets go of the mutex.
  if (--job->running == 0 && job->next == job->n) {
    job->finished.notify_one();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 1 || workers_.empty()) {
    for (int64_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  std::unique_lock<std::mutex> lock(mutex_);
  open_jobs_.push_back(&job);
  const int64_t helpers =
      std::min<int64_t>(n - 1, static_cast<int64_t>(workers_.size()));
  for (int64_t h = 0; h < helpers; ++h) {
    work_available_.notify_one();
  }
  while (job.next < job.n) {
    RunItem(&job, ClaimLocked(&job), lock);
  }
  // Every item is claimed; wait for the ones other threads are running.
  job.finished.wait(lock, [&job]() { return job.running == 0; });
  if (job.error != nullptr) {
    std::rethrow_exception(job.error);
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(
        lock, [this]() { return shutting_down_ || !open_jobs_.empty(); });
    if (open_jobs_.empty()) {
      return;  // shutting down
    }
    Job* job = open_jobs_.front();
    RunItem(job, ClaimLocked(job), lock);
  }
}

}  // namespace hyppo
