#ifndef HYPPO_COMMON_THREAD_POOL_H_
#define HYPPO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hyppo {

/// \brief Persistent worker pool that callers split their work over.
///
/// The plan executor owns one pool for its lifetime: executor waves run
/// through it, and so do the operators inside them (forest trees, per-column
/// sorting and binning in tree fits), which receive the pool explicitly.
///
/// ParallelFor(n, fn) runs fn(0) ... fn(n - 1), each exactly once, and
/// returns when all of them have finished. The calling thread claims items
/// itself; idle workers help with the rest. A caller waits only for items
/// of its own call, and only for items another thread has already claimed
/// and is running, so:
/// - a ParallelFor nested inside an item (on a worker or on the caller)
///   completes, with help from whichever workers are idle, and never
///   deadlocks: a waiting thread never waits on work nobody has started;
/// - several external threads can share one pool, and no caller waits on
///   another caller's items.
/// Items run in no particular order and on no particular thread, so
/// callers write results into fixed per-item slots to stay deterministic.
class ThreadPool {
 public:
  /// Starts `num_workers` threads (negative counts as 0). The calling
  /// thread of each ParallelFor works too, so a pool meant for `p` threads
  /// of parallelism has `p - 1` workers; with 0 workers every call runs
  /// serially on its caller.
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Calls fn(i) for every i in [0, n) and returns once all calls have
  /// returned. n <= 1 runs inline on the calling thread. If calls throw,
  /// the first exception caught is rethrown here once no call of this
  /// ParallelFor is running; later items may or may not have run.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// One ParallelFor call; lives on its caller's stack. Guarded by mutex_.
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t n = 0;
    int64_t next = 0;     // first unclaimed item
    int64_t running = 0;  // claimed items not yet finished
    std::exception_ptr error;
    std::condition_variable finished;
  };

  /// Claims the next item of `job` (which must have one) and drops the job
  /// from the open list once its last item is claimed. Needs mutex_ held.
  int64_t ClaimLocked(Job* job);
  /// Runs item `i` of `job` with mutex_ released, then marks it finished.
  void RunItem(Job* job, int64_t i, std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  /// Jobs that still have unclaimed items, oldest first.
  std::deque<Job*> open_jobs_;
  std::vector<std::thread> workers_;
  bool shutting_down_ = false;
};

}  // namespace hyppo

#endif  // HYPPO_COMMON_THREAD_POOL_H_
