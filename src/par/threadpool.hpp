// The fitness block's thread pool: the paper's second, shared-memory level
// of parallelism (concurrent game play inside a rank's block).
//
// A minimal OpenMP-parallel-for equivalent: a fixed pool of workers executes
// contiguous index chunks; the calling thread participates, so a pool of
// size 1 degenerates to an inline loop with no synchronisation overhead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace egt::par {

class ThreadPool {
 public:
  /// `workers` extra threads; 0 means all work runs on the calling thread.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Calls body(begin, end) over disjoint chunks covering [0, n); blocks
  /// until all chunks finish. Exceptions from chunks propagate (first one).
  void parallel_for(std::uint64_t n,
                    const std::function<void(std::uint64_t, std::uint64_t)>& body);

 private:
  struct Job {
    const std::function<void(std::uint64_t, std::uint64_t)>* body = nullptr;
    std::uint64_t n = 0;
    std::uint64_t chunk = 0;
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> done{0};
    std::uint64_t grabbed = 0;  // workers that took this job (under mutex)
    std::atomic<std::uint64_t> exited{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    // Completion signalling: each worker bumps `exited` under `m` and
    // notifies; the caller sleeps on `finished` instead of spinning, so an
    // oversubscribed host gives the core to the straggler.
    std::mutex m;
    std::condition_variable finished;
  };

  void worker_loop();
  static void run_chunks(Job& job);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_;
  Job* job_ = nullptr;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace egt::par
