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

/// Fixed-size pool of compute threads executing enqueued tasks.
///
/// Work is posted in batches, each on a caller-owned Ticket; several
/// batches may be in flight at once and run in FIFO order. The thread that
/// waits on a batch is one of the compute threads: until its batch is done
/// it runs queued tasks (of any batch, in FIFO order) next to the spawned
/// workers, and sleeps only once the queue is empty. A batch posted from a
/// task of this pool, on a worker or on a waiting thread, runs inline on
/// that thread, as on a serial pool, so a task may call parallel_for (or
/// build a Campaign) without deadlocking on its own queue. Tasks must not
/// throw past the pool boundary: the first exception thrown by any task of
/// a batch is captured on its ticket and rethrown by that ticket's `wait`.
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

  /// Creates a pool of `num_threads` compute threads: `num_threads - 1`
  /// spawned workers plus the thread that waits. `num_threads` 0 or 1 means
  /// "serial": tasks run inline on the calling thread.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of compute threads, the waiting thread included (1 for a
  /// serial pool).
  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Queues `tasks` as one batch on `ticket` without blocking. A serial
  /// pool, or a call from a task of this pool, runs them inline,
  /// stopping at the first exception. The ticket must not carry an
  /// unjoined batch.
  void post(std::vector<std::function<void()>> tasks, Ticket& ticket);

  /// Runs queued tasks on the calling thread until every task of the
  /// ticket's batch has finished (sleeping only while the queue is empty),
  /// then rethrows the batch's first captured exception, if any. A task of
  /// another batch run here records its exception on its own ticket.
  void wait(Ticket& ticket);

  /// post followed by wait.
  void run_batch(std::vector<std::function<void()>> tasks);

  /// The process-wide default pool: DNNFI_THREADS (or hardware
  /// concurrency) compute threads, the waiting thread included, so 1 is
  /// serial. Constructed on first use.
  static ThreadPool& global();

 private:
  struct Job {
    std::function<void()> fn;
    Ticket* ticket;
  };

  void worker_loop();
  /// Pops and runs the queue front with `lock` released, then records the
  /// task's exception on its ticket and counts it done. The one job body
  /// of workers and waiting threads; `lock` holds mutex_ on entry and exit.
  void run_front(std::unique_lock<std::mutex>& lock) noexcept;
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
