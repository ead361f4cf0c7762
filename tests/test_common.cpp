// Unit tests for dnnfi/common: contracts, RNG streams, thread pool,
// parallel_for, tables, env parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <future>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <set>
#include <vector>

#include "dnnfi/common/env.h"
#include "dnnfi/common/expects.h"
#include "dnnfi/common/rng.h"
#include "dnnfi/common/table.h"
#include "dnnfi/common/thread_pool.h"

namespace dnnfi {
namespace {

TEST(Expects, ThrowsOnViolation) {
  EXPECT_THROW(DNNFI_EXPECTS(false), ContractViolation);
  EXPECT_NO_THROW(DNNFI_EXPECTS(true));
  EXPECT_THROW(DNNFI_ENSURES(1 == 2), ContractViolation);
}

TEST(Expects, MessageNamesExpressionAndLocation) {
  try {
    DNNFI_EXPECTS(2 + 2 == 5);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(msg.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  double lo = 1, hi = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowRespectsBound) {
  Rng r(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) ASSERT_LT(r.below(bound), bound);
  }
}

TEST(Rng, BelowCoversAllValues) {
  Rng r(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.below(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(17);
  std::vector<int> hist(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hist[r.below(10)];
  for (const int h : hist) {
    EXPECT_NEAR(h, n / 10, n / 10 / 5);  // within 20% of expectation
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = r.between(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasUnitMoments) {
  Rng r(23);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, DerivedStreamsAreIndependentAndStable) {
  Rng a = derive_stream(99, 0);
  Rng b = derive_stream(99, 1);
  Rng a2 = derive_stream(99, 0);
  EXPECT_NE(a(), b());
  Rng a3 = derive_stream(99, 0);
  (void)a2();
  // Same (seed, stream) always yields the same sequence.
  Rng fresh = derive_stream(99, 0);
  Rng fresh2 = derive_stream(99, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fresh(), fresh2());
  (void)a3;
}

TEST(ThreadPool, SerialPoolRunsInline) {
  ThreadPool pool(0);
  int counter = 0;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.emplace_back([&counter] { ++counter; });
  pool.run_batch(std::move(tasks));
  EXPECT_EQ(counter, 10);
}

TEST(ThreadPool, ParallelPoolRunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.emplace_back([&counter] { ++counter; });
  pool.run_batch(std::move(tasks));
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 10; ++i) tasks.emplace_back([] {});
  EXPECT_THROW(pool.run_batch(std::move(tasks)), std::runtime_error);
  // The pool remains usable after an exception.
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> more;
  more.emplace_back([&counter] { ++counter; });
  pool.run_batch(std::move(more));
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 20; ++i) tasks.emplace_back([&counter] { ++counter; });
    pool.run_batch(std::move(tasks));
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, OverlappingPostedBatchesBothComplete) {
  // Batch A's task can finish only once batch B's task has run, so B must
  // start while A is still in flight: post never waits for a batch.
  ThreadPool pool(2);
  std::promise<void> b_ran;
  std::shared_future<void> b_done = b_ran.get_future().share();
  std::atomic<bool> a_saw_b{false};
  std::atomic<int> counter{0};
  ThreadPool::Ticket a, b;
  std::vector<std::function<void()>> first;
  first.emplace_back([&] {
    a_saw_b = b_done.wait_for(std::chrono::seconds(10)) ==
              std::future_status::ready;
    ++counter;
  });
  pool.post(std::move(first), a);
  std::vector<std::function<void()>> second;
  second.emplace_back([&] {
    b_ran.set_value();
    ++counter;
  });
  for (int i = 0; i < 20; ++i) second.emplace_back([&counter] { ++counter; });
  pool.post(std::move(second), b);
  pool.wait(b);
  pool.wait(a);
  EXPECT_TRUE(a_saw_b.load());
  EXPECT_EQ(counter.load(), 22);
}

TEST(ThreadPool, ExceptionIsRethrownByItsOwnTicketOnly) {
  ThreadPool pool(3);
  ThreadPool::Ticket bad, good;
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> throwing;
  throwing.emplace_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 5; ++i) throwing.emplace_back([&counter] { ++counter; });
  pool.post(std::move(throwing), bad);
  std::vector<std::function<void()>> fine;
  for (int i = 0; i < 5; ++i) fine.emplace_back([&counter] { ++counter; });
  pool.post(std::move(fine), good);
  EXPECT_NO_THROW(pool.wait(good));
  EXPECT_THROW(pool.wait(bad), std::runtime_error);
  // The other tasks of the failing batch still ran, and the exception is
  // reported once.
  EXPECT_EQ(counter.load(), 10);
  EXPECT_NO_THROW(pool.wait(bad));
}

TEST(ThreadPool, SerialPoolPostRunsInline) {
  ThreadPool pool(0);
  ThreadPool::Ticket ticket;
  int counter = 0;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) tasks.emplace_back([&counter] { ++counter; });
  pool.post(std::move(tasks), ticket);
  EXPECT_EQ(counter, 4);  // before any wait
  EXPECT_NO_THROW(pool.wait(ticket));
  // A serial exception surfaces from wait, like a pooled one.
  std::vector<std::function<void()>> throwing;
  throwing.emplace_back([] { throw std::runtime_error("boom"); });
  throwing.emplace_back([&counter] { ++counter; });
  EXPECT_NO_THROW(pool.post(std::move(throwing), ticket));
  EXPECT_THROW(pool.wait(ticket), std::runtime_error);
  EXPECT_EQ(counter, 4);  // the batch stops at its first exception
}

TEST(ThreadPool, DestroyingThePoolWithNothingInFlightIsClean) {
  std::atomic<int> counter{0};
  {
    ThreadPool idle(3);  // never posted to
  }
  {
    ThreadPool pool(3);
    ThreadPool::Ticket ticket;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 9; ++i) tasks.emplace_back([&counter] { ++counter; });
    pool.post(std::move(tasks), ticket);
    pool.wait(ticket);
  }
  EXPECT_EQ(counter.load(), 9);
}

TEST(ThreadPool, DestroyingATicketJoinsItsBatch) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    ThreadPool::Ticket ticket;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 8; ++i)
      tasks.emplace_back([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ++counter;
      });
    tasks.emplace_back([] { throw std::runtime_error("dropped"); });
    pool.post(std::move(tasks), ticket);
  }  // no wait: the destructor joins and drops the exception
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, NestedCallsFromItsWorkersRunInline) {
  // Both compute threads (the one worker and the waiting caller) hold an
  // outer task that posts a batch to the same pool and waits for it:
  // queued, those batches would never find a free thread. They run inline
  // on the posting thread instead (a hang here is the deadlock; the ctest
  // TIMEOUT ends it).
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> hits(2 * 16);
  std::atomic<int> foreign{0};  // inner chunks run off their outer's thread
  std::vector<std::function<void()>> tasks;
  for (std::size_t t = 0; t < 2; ++t)
    tasks.emplace_back([&, t] {
      ++started;
      while (started.load() < 2) std::this_thread::yield();
      const std::thread::id outer = std::this_thread::get_id();
      parallel_for_chunks(pool, 16, [&](std::size_t b, std::size_t e) {
        if (std::this_thread::get_id() != outer) ++foreign;
        for (std::size_t i = b; i < e; ++i) ++hits[t * 16 + i];
      });
    });
  pool.run_batch(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign.load(), 0);
  // The pool still runs posted work on its workers afterwards.
  std::atomic<int> counter{0};
  parallel_for_chunks(pool, 8, [&](std::size_t b, std::size_t e) {
    counter += static_cast<int>(e - b);
  });
  EXPECT_EQ(counter.load(), 8);
}

/// Occupies one worker of `pool` with a task that blocks until the
/// HeldWorker is destroyed: the constructor returns once a worker has taken
/// it, so later batches can run only on the remaining workers and the
/// waiting thread.
class HeldWorker {
 public:
  explicit HeldWorker(ThreadPool& pool) {
    std::vector<std::function<void()>> hold;
    hold.emplace_back([this] {
      started_.count_down();
      release_.wait();
    });
    pool.post(std::move(hold), ticket_);
    started_.wait();
  }
  /// Releases the task; destroying the ticket then joins it.
  ~HeldWorker() { release_.count_down(); }

 private:
  std::latch started_{1};
  std::latch release_{1};
  ThreadPool::Ticket ticket_;
};

TEST(ThreadPool, WaitRunsItsBatchWhileTheOnlyWorkerIsHeld) {
  // ThreadPool(2) spawns one worker; the caller of wait is the second
  // compute thread. With the worker held, the second batch finishes only
  // because wait runs its tasks on the calling thread (a waiter that only
  // slept would hang here until the ctest TIMEOUT).
  ThreadPool pool(2);
  ASSERT_EQ(pool.size(), 2u);
  HeldWorker held(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(8);
  ThreadPool::Ticket ticket;
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < ran_on.size(); ++i)
    tasks.emplace_back([&ran_on, i] { ran_on[i] = std::this_thread::get_id(); });
  pool.post(std::move(tasks), ticket);
  pool.wait(ticket);
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, TaskRunByTheWaiterCanNestParallelFor) {
  // The waiting thread runs the outer task (the only worker is held), and
  // the task's own parallel_for_chunks on the same pool runs inline there,
  // as it would on a worker: every chunk has run before the nested post
  // returns, and nothing deadlocks.
  ThreadPool pool(2);
  HeldWorker held(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(16);
  std::atomic<int> foreign{0};
  std::atomic<bool> inline_post{false};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] {
    ThreadPool::Ticket inner;
    const std::function<void(std::size_t, std::size_t)> body =
        [&](std::size_t b, std::size_t e) {
          if (std::this_thread::get_id() != caller) ++foreign;
          for (std::size_t i = b; i < e; ++i) ++hits[i];
        };
    post_chunks(pool, hits.size(), body, inner);
    inline_post = hits.back().load() == 1;
    pool.wait(inner);
    parallel_for_chunks(pool, hits.size(), body);
  });
  pool.run_batch(std::move(tasks));
  EXPECT_TRUE(inline_post.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPool, ExceptionFromATaskTheWaiterRanStaysOnItsTicket) {
  // With the only worker held, the caller of wait(good) runs the queue in
  // FIFO order: first the earlier batch on `bad`, whose first task throws,
  // then good's. The exception lands on `bad` alone, and bad's other tasks
  // still run.
  ThreadPool pool(2);
  HeldWorker held(pool);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> counter{0};
  std::atomic<int> off_caller{0};
  const auto count = [&] {
    if (std::this_thread::get_id() != caller) ++off_caller;
    ++counter;
  };
  ThreadPool::Ticket bad, good;
  std::vector<std::function<void()>> throwing;
  throwing.emplace_back([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 5; ++i) throwing.emplace_back(count);
  pool.post(std::move(throwing), bad);
  std::vector<std::function<void()>> fine;
  for (int i = 0; i < 5; ++i) fine.emplace_back(count);
  pool.post(std::move(fine), good);
  EXPECT_NO_THROW(pool.wait(good));
  EXPECT_EQ(counter.load(), 10);  // bad's tasks ran first, on the caller
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_THROW(pool.wait(bad), std::runtime_error);
  EXPECT_NO_THROW(pool.wait(bad));
}

TEST(ThreadPool, RunsOnAtMostItsSizeThreadsCallerIncluded) {
  // ThreadPool(n) is n compute threads: n - 1 workers plus the caller of
  // wait. 0 and 1 are serial: post runs the batch inline.
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t n : {0u, 1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(n);
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), std::max<std::size_t>(n, 1));
    std::mutex m;
    std::set<std::thread::id> ids;
    std::atomic<int> counter{0};
    for (int batch = 0; batch < 20; ++batch) {
      ThreadPool::Ticket ticket;
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < 16; ++i)
        tasks.emplace_back([&] {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          const std::lock_guard lock(m);
          ids.insert(std::this_thread::get_id());
          ++counter;
        });
      pool.post(std::move(tasks), ticket);
      if (n <= 1) {
        EXPECT_EQ(counter.load(), 16 * (batch + 1));  // ran inline
      }
      pool.wait(ticket);
    }
    EXPECT_EQ(counter.load(), 20 * 16);
    EXPECT_LE(ids.size(), std::max<std::size_t>(n, 1));
    if (n <= 1) {
      EXPECT_EQ(*ids.begin(), caller);
    }
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunks(pool, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for_chunks(pool, 0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  parallel_for_chunks(pool, 1, [&](std::size_t b, std::size_t e) {
    one += static_cast<int>(e - b);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(Table, AlignedTextRendering) {
  Table t("demo");
  t.header({"name", "value"});
  t.row({"alpha", "1"});
  t.row({"b", "22222"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("| alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("x");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), ContractViolation);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table t("csv");
  t.header({"a", "b"});
  t.row({"has,comma", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
  EXPECT_EQ(Table::pct_ci(0.5, 0.012, 1), "50.0% ±1.2");
}

TEST(Env, ParsesSizesAndFallsBack) {
  ::setenv("DNNFI_TEST_N", "123", 1);
  EXPECT_EQ(env_size("DNNFI_TEST_N", 7), 123U);
  ::setenv("DNNFI_TEST_N", "not-a-number", 1);
  EXPECT_EQ(env_size("DNNFI_TEST_N", 7), 7U);
  ::unsetenv("DNNFI_TEST_N");
  EXPECT_EQ(env_size("DNNFI_TEST_N", 7), 7U);
}

TEST(Env, StringUnsetIsEmpty) {
  ::unsetenv("DNNFI_TEST_S");
  EXPECT_FALSE(env_string("DNNFI_TEST_S").has_value());
  ::setenv("DNNFI_TEST_S", "hello", 1);
  EXPECT_EQ(env_string("DNNFI_TEST_S").value(), "hello");
  ::unsetenv("DNNFI_TEST_S");
}

}  // namespace
}  // namespace dnnfi
