#include "par/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

namespace egt::par {
namespace {

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(100, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::uint64_t n : {1u, 2u, 17u, 1000u, 4096u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::uint64_t b, std::uint64_t e) {
      for (std::uint64_t i = b; i < e; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RepeatedEmptyRangesReturnImmediately) {
  // Regression: n == 0 must short-circuit before the job is published (no
  // lock, no CV round-trip) — a hot loop of empty ranges used to pay the
  // full wait path.
  ThreadPool pool(4);
  for (int i = 0; i < 100000; ++i) {
    pool.parallel_for(0, [](std::uint64_t, std::uint64_t) {
      FAIL() << "body must never run for an empty range";
    });
  }
}

TEST(ThreadPool, TinyJobsClaimedByCallerSkipTheWait) {
  // Regression for the completion wait: when the caller claims every chunk
  // before any worker grabs the job, nothing is outstanding and
  // parallel_for must skip the lock + CV sleep. A tight loop of
  // single-index jobs on a busy pool hits this constantly; the loop being
  // fast (and correct) is the observable.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  constexpr int kJobs = 50000;
  for (int i = 0; i < kJobs; ++i) {
    pool.parallel_for(1, [&](std::uint64_t b, std::uint64_t e) {
      total.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(kJobs));
}

TEST(ThreadPool, SumReductionMatchesSerial) {
  ThreadPool pool(4);
  constexpr std::uint64_t kN = 100000;
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_for(kN, [&](std::uint64_t b, std::uint64_t e) {
    std::uint64_t local = 0;
    for (std::uint64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> count{0};
    pool.parallel_for(64, [&](std::uint64_t b, std::uint64_t e) {
      count.fetch_add(e - b, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 64u);
  }
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::uint64_t b, std::uint64_t) {
                          if (b == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // Pool still usable afterwards.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::uint64_t b, std::uint64_t e) {
    ok.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, OversubscribedPoolsCompleteWithoutSpinning) {
  // More workers than cores, several pools at once, many small jobs: with
  // the old busy-spin completion wait this configuration burned every core
  // on yield loops; with condition-variable signalling it must simply
  // finish, with every index covered exactly once per job.
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int p = 0; p < 3; ++p) {
    pools.push_back(std::make_unique<ThreadPool>(2 * hw));
  }
  std::vector<std::thread> drivers;
  std::atomic<std::uint64_t> total{0};
  for (auto& pool : pools) {
    drivers.emplace_back([&pool, &total] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(257);
        pool->parallel_for(hits.size(), [&](std::uint64_t b, std::uint64_t e) {
          for (std::uint64_t i = b; i < e; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (auto& h : hits) ASSERT_EQ(h.load(), 1);
        total.fetch_add(hits.size(), std::memory_order_relaxed);
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(total.load(), 3u * 20u * 257u);
}

}  // namespace
}  // namespace egt::par
