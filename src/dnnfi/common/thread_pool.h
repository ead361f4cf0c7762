// A small, dependency-free thread pool plus parallel_for. Campaign trials
// and batch training are "embarrassingly parallel with per-task state"; the
// pool gives us deterministic work partitioning (static chunking by index,
// never work stealing), so parallel results match serial results exactly.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dnnfi {

/// Fixed-size pool of worker threads executing enqueued tasks.
///
/// Work is posted in batches, each on a caller-owned Ticket; several
/// batches may be in flight at once and run in FIFO order. A batch posted
/// from one of the pool's own workers runs inline on that worker, as on a
/// serial pool, so a task may call parallel_for (or build a Campaign)
/// without deadlocking on its own queue. Tasks must not throw past the
/// pool boundary: the first exception thrown by any task of a batch is
/// captured on its ticket and rethrown by that ticket's `wait`.
class ThreadPool {
 public:
  /// One posted batch: its unfinished task count and first exception. A
  /// ticket carries one batch at a time and must outlive it. Destroying a
  /// ticket joins its batch, so tasks never outlive the buffers of a scope
  /// that declares its tickets after them; a task exception nobody waited
  /// for is dropped there, since that join runs while another exception
  /// unwinds the scope (a destructor must not throw).
  class Ticket {
   public:
    Ticket() = default;
    ~Ticket();
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;  ///< set by post; guards the destructor join
    std::size_t pending_ = 0;     ///< guarded by pool_->mutex_
    std::exception_ptr error_;
  };

  /// Creates a pool with `num_threads` workers. `num_threads == 0` means
  /// "serial": tasks run inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for a serial pool).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Queues `tasks` as one batch on `ticket` without blocking. A serial
  /// pool, or a call from one of this pool's workers, runs them inline,
  /// stopping at the first exception. The ticket must not carry an
  /// unjoined batch.
  void post(std::vector<std::function<void()>> tasks, Ticket& ticket);

  /// Blocks until every task of the ticket's batch has finished, then
  /// rethrows its first captured exception, if any.
  void wait(Ticket& ticket);

  /// post followed by wait.
  void run_batch(std::vector<std::function<void()>> tasks);

  /// The process-wide default pool, sized from DNNFI_THREADS or hardware
  /// concurrency. Constructed on first use.
  static ThreadPool& global();

 private:
  struct Job {
    std::function<void()> fn;
    Ticket* ticket;
  };

  void worker_loop();
  /// wait without the rethrow; the ticket keeps its exception.
  void join(Ticket& ticket) noexcept;

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable batch_done_;
  std::queue<Job> queue_;
  bool stopping_ = false;
};

/// Splits [0, count) into contiguous chunks and posts `body(begin, end)`
/// for each chunk as one batch on `ticket`; `body` must outlive the batch.
/// Chunk boundaries depend only on `count` and the pool size, never on
/// timing, so any per-chunk state is reproducible.
void post_chunks(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 ThreadPool::Ticket& ticket);

/// post_chunks followed by the wait.
void parallel_for_chunks(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// Runs `body(i)` for every i in [0, count) on the global pool.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

}  // namespace dnnfi
