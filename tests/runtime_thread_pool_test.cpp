#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace fbmb {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.thread_count(), ThreadPool::default_thread_count());
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit(
      []() -> int { throw std::runtime_error("synthesis failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(boom.get(), std::runtime_error);
  // The worker that ran the throwing task must still be alive.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, SubmitFromInsideATaskDoesNotDeadlock) {
  ThreadPool pool(2);
  auto outer = pool.submit([&pool] {
    auto inner = pool.submit([] { return 21; });
    return inner.get() * 2;
  });
  EXPECT_EQ(outer.get(), 42);
}

TEST(ThreadPool, SubmitFromTaskWithTinyQueueRunsInline) {
  // A single worker submitting children and blocking on their futures:
  // the worker-inline path must kick in, because nobody else could ever
  // drain the queue. A queueing submit here would deadlock (and the test
  // would time out).
  ThreadPool pool(1, /*queue_capacity=*/1);
  auto outer = pool.submit([&pool] {
    int sum = 0;
    for (int i = 0; i < 10; ++i) {
      sum += pool.submit([i] { return i; }).get();
    }
    return sum;
  });
  EXPECT_EQ(outer.get(), 45);
}

TEST(ThreadPool, StressManyProducersBoundedQueue) {
  ThreadPool pool(4, /*queue_capacity=*/8);
  std::atomic<int> executed{0};
  constexpr int kProducers = 8;
  constexpr int kTasksPerProducer = 200;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &executed] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures.push_back(pool.submit([&executed] {
          executed.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& producer : producers) producer.join();
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
  EXPECT_LE(pool.max_queue_depth(), 8u);
}

TEST(ThreadPool, ParallelInvokeRunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(64);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    tasks.push_back([&counts, i] { counts[i].fetch_add(1); });
  }
  parallel_invoke(pool, tasks);
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelInvokeRethrowsFirstTaskError) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&ran, i] {
      ran.fetch_add(1);
      if (i == 5) throw std::runtime_error("restart 5 failed");
    });
  }
  EXPECT_THROW(parallel_invoke(pool, tasks), std::runtime_error);
  // Every task still ran (the join waits for all of them).
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ParallelInvokeNestedInsidePoolJobs) {
  // Jobs on the pool each fork their own parallel_invoke over the same
  // pool — the engine's SA-restart topology. Must complete on any pool
  // size without deadlock.
  ThreadPool pool(2);
  std::vector<std::future<long>> jobs;
  for (int j = 0; j < 6; ++j) {
    jobs.push_back(pool.submit([&pool] {
      std::vector<long> slots(8, 0);
      std::vector<std::function<void()>> tasks;
      for (std::size_t i = 0; i < slots.size(); ++i) {
        tasks.push_back([&slots, i] {
          slots[i] = static_cast<long>(i) + 1;
        });
      }
      parallel_invoke(pool, tasks);
      return std::accumulate(slots.begin(), slots.end(), 0L);
    }));
  }
  for (auto& job : jobs) EXPECT_EQ(job.get(), 36L);
}


TEST(ThreadPool, TrySubmitReturnsWorkingFuture) {
  ThreadPool pool(2);
  auto future = pool.try_submit([] { return 6 * 7; });
  ASSERT_TRUE(future.has_value());
  EXPECT_EQ(future->get(), 42);

  auto boom = pool.try_submit(
      []() -> int { throw std::runtime_error("job failed"); });
  ASSERT_TRUE(boom.has_value());
  EXPECT_THROW(boom->get(), std::runtime_error);
}

TEST(ThreadPool, TrySubmitRejectsOnFullQueueWithoutSideEffects) {
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto blocker = pool.submit([gate] { gate.wait(); });
  // Wait for the worker to pick the blocker up so the queue is empty.
  while (pool.pending() > 0) std::this_thread::yield();

  auto queued = pool.try_submit([] { return 1; });
  ASSERT_TRUE(queued.has_value());  // fills the single queue slot

  std::atomic<bool> ran{false};
  auto rejected = pool.try_submit([&ran] {
    ran.store(true);
    return 2;
  });
  // Unlike submit(), rejection neither blocks nor runs inline.
  EXPECT_FALSE(rejected.has_value());
  EXPECT_FALSE(ran.load());

  release.set_value();
  blocker.get();
  EXPECT_EQ(queued->get(), 1);
  EXPECT_FALSE(ran.load());  // the rejected task never ran at all

  // Capacity freed: admission works again.
  auto again = pool.try_submit([] { return 3; });
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->get(), 3);
}

TEST(ThreadPool, StressTrySubmitUnderContention) {
  // Many producers hammering a tiny queue: every accepted future must
  // complete, every rejected task must never execute, and the counts must
  // reconcile exactly.
  ThreadPool pool(2, /*queue_capacity=*/4);
  constexpr int kProducers = 8;
  constexpr int kAttempts = 500;
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(kAttempts);
      for (int i = 0; i < kAttempts; ++i) {
        auto future = pool.try_submit(
            [&executed] { executed.fetch_add(1); });
        if (future.has_value()) {
          accepted.fetch_add(1);
          futures.push_back(std::move(*future));
        } else {
          rejected.fetch_add(1);
        }
      }
      for (auto& future : futures) future.get();
    });
  }
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kAttempts);
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
  EXPECT_LE(pool.max_queue_depth(), 4u);
}

}  // namespace
}  // namespace fbmb
