#include "dnnfi/common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "dnnfi/common/env.h"
#include "dnnfi/common/expects.h"

namespace dnnfi {

namespace {
/// The pool whose task runs on this thread, if any: set for good in
/// worker_loop, and around each task a waiting thread runs in join.
thread_local const ThreadPool* tls_worker_of = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  // The thread that waits on a batch is the last compute thread.
  const std::size_t spawned = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(spawned);
  for (std::size_t i = 0; i < spawned; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Ticket::~Ticket() {
  if (pool_ != nullptr) pool_->join(*this);
}

void ThreadPool::worker_loop() {
  tls_worker_of = this;
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and nothing left to run
    run_front(lock);
  }
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lock) noexcept {
  Job job = std::move(queue_.front());
  queue_.pop();
  lock.unlock();
  std::exception_ptr error;
  try {
    job.fn();
  } catch (...) {
    error = std::current_exception();
  }
  job.fn = nullptr;  // release the task's captures before the join
  lock.lock();
  Ticket& t = *job.ticket;
  if (error && !t.error_) t.error_ = error;
  // The waiter may destroy the ticket once the lock drops.
  if (--t.pending_ == 0) batch_done_.notify_all();
}

void ThreadPool::post(std::vector<std::function<void()>> tasks,
                      Ticket& ticket) {
  if (workers_.empty() || tls_worker_of == this) {
    // Serial pool, or a task of this pool posting more work: run inline
    // (a task that waited on its own queue could deadlock the pool); the
    // exception waits for wait() like a pooled one.
    ticket.error_ = nullptr;
    try {
      for (auto& t : tasks) t();
    } catch (...) {
      ticket.error_ = std::current_exception();
    }
    return;
  }
  {
    std::lock_guard lock(mutex_);
    DNNFI_EXPECTS(ticket.pending_ == 0);  // one batch per ticket
    ticket.pool_ = this;
    ticket.error_ = nullptr;
    ticket.pending_ = tasks.size();
    for (auto& t : tasks) queue_.push(Job{std::move(t), &ticket});
  }
  work_ready_.notify_all();
}

void ThreadPool::join(Ticket& ticket) noexcept {
  std::unique_lock lock(mutex_);
  for (;;) {
    // Sleeps only while the batch's last tasks run on workers.
    batch_done_.wait(lock, [&ticket, this] {
      return ticket.pending_ == 0 || !queue_.empty();
    });
    if (ticket.pending_ == 0) return;
    // Run the queue front, of any ticket, as a worker would: FIFO keeps an
    // earlier batch from waiting behind this one, and posts from inside
    // the task run inline.
    const ThreadPool* const outer = std::exchange(tls_worker_of, this);
    run_front(lock);
    tls_worker_of = outer;
  }
}

void ThreadPool::wait(Ticket& ticket) {
  join(ticket);
  if (std::exception_ptr e = std::exchange(ticket.error_, nullptr))
    std::rethrow_exception(e);
}

void ThreadPool::run_batch(std::vector<std::function<void()>> tasks) {
  Ticket ticket;
  post(std::move(tasks), ticket);
  wait(ticket);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool = [] {
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    return ThreadPool(env_size("DNNFI_THREADS", hw));
  }();
  return pool;
}

void post_chunks(ThreadPool& pool, std::size_t count,
                 const std::function<void(std::size_t, std::size_t)>& body,
                 ThreadPool::Ticket& ticket) {
  // Four chunks per compute thread balances load without timing-dependent
  // splits.
  const std::size_t chunks = std::min(count, pool.size() * 4);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = count / chunks + (c < count % chunks ? 1 : 0);
    const std::size_t end = begin + len;
    tasks.emplace_back([&body, begin, end] { body(begin, end); });
    begin = end;
  }
  DNNFI_ENSURES(begin == count);
  pool.post(std::move(tasks), ticket);
}

void parallel_for_chunks(ThreadPool& pool, std::size_t count,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::Ticket ticket;
  post_chunks(pool, count, body, ticket);
  pool.wait(ticket);
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(ThreadPool::global(), count,
                      [&body](std::size_t b, std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) body(i);
                      });
}

}  // namespace dnnfi
