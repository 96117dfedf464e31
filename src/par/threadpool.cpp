#include "par/threadpool.hpp"

#include <algorithm>
#include <atomic>

#include "obs/tracer.hpp"
#include "util/check.hpp"

namespace egt::par {

ThreadPool::ThreadPool(unsigned workers) {
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_chunks(Job& job) {
  for (;;) {
    const std::uint64_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::uint64_t end = std::min(begin + job.chunk, job.n);
    if (!job.failed.load(std::memory_order_relaxed)) {
      // One task span per chunk: the agent-tier work unit. On the caller
      // thread it nests under the surrounding phase span; on pool workers
      // it lands on the kPoolPid timeline.
      obs::TraceSpan span(obs::kPoolChunk, obs::kCatPool, "items",
                          end - begin);
      try {
        (*job.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(job.error_mutex);
        if (!job.failed.exchange(true)) job.error = std::current_exception();
      }
    }
    job.done.fetch_add(end - begin, std::memory_order_release);
  }
}

void ThreadPool::worker_loop() {
  // Pool workers serve whichever rank submitted the job; attribute their
  // chunks to the pool pseudo-rank instead of a wrong real rank.
  obs::Tracer::set_thread_name("pool.worker");
  const obs::TraceRankScope pool_scope(obs::kPoolPid);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      job = job_;
      if (job != nullptr) ++job->grabbed;
    }
    if (job != nullptr) {
      run_chunks(*job);
      // Last touch of the job: signal under its mutex so the caller cannot
      // destroy the stack frame between our increment and the notify.
      std::lock_guard<std::mutex> done_lock(job->m);
      job->exited.fetch_add(1, std::memory_order_release);
      job->finished.notify_one();
    }
  }
}

void ThreadPool::parallel_for(
    std::uint64_t n,
    const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (n == 0) return;
  if (threads_.empty()) {
    body(0, n);
    return;
  }

  Job job;
  job.body = &body;
  job.n = n;
  // ~4 chunks per participant amortises scheduling while limiting imbalance.
  const std::uint64_t participants = threads_.size() + 1;
  job.chunk = std::max<std::uint64_t>(1, n / (participants * 4));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++epoch_;
  }
  cv_.notify_all();
  run_chunks(job);
  // run_chunks returned, so every chunk is claimed; workers may still be
  // inside their final one. Unpublish the job first (late wakers must not
  // grab it), then sleep on the job's condition variable until the last
  // claimed chunk is done and every worker that took the pointer has let
  // go of it — the job lives on this stack frame. Sleeping (rather than
  // the old yield() spin) matters on oversubscribed hosts, where the spin
  // was stealing the very core the straggler needed.
  std::uint64_t grabbed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = nullptr;
    grabbed = job.grabbed;
  }
  // Fast path: no worker grabbed the job before the caller claimed every
  // chunk, so nothing is outstanding — skip the lock + CV sleep (small n
  // on a busy pool hits this constantly).
  if (grabbed > 0 || job.done.load(std::memory_order_acquire) < n) {
    std::unique_lock<std::mutex> lock(job.m);
    job.finished.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) >= n &&
             job.exited.load(std::memory_order_acquire) >= grabbed;
    });
  }
  if (job.failed.load()) std::rethrow_exception(job.error);
}

}  // namespace egt::par
