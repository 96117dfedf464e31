// Multi-tenant job scheduler: the egtd daemon's core (DESIGN.md §11).
//
// A fixed pool of worker threads multiplexes many simulation jobs:
//
//   admission     a bounded backlog; a submission past queue_capacity is
//                 load-shed with an explicit `rejected: capacity` outcome
//                 *before* anything is journaled — the daemon never builds
//                 unbounded memory or replay debt.
//   fair share    the next dispatch goes to the runnable job whose tenant
//                 has consumed the fewest generations so far (FIFO within
//                 a tenant), so one tenant's flood cannot starve another's
//                 trickle.
//   preemption    with slice_generations > 0, a running job is evicted at
//                 the next generation boundary once its slice is up and
//                 another job is waiting: a job checkpoint is committed
//                 (serve/job_checkpoint.hpp) and the job requeues. Resume
//                 is bit-identical — table, fitness AND engine.* counters —
//                 because the engine checkpoint carries the fitness block.
//   watchdog      per-attempt deadlines, checked cooperatively at
//                 generation boundaries (the only safe in-process
//                 cancellation points). An expired attempt is abandoned
//                 and retried with exponential backoff; attempts_exhausted
//                 turns the job Failed, loudly.
//   durability    every externally acknowledged transition is a fsynced
//                 egt.jobs/v1 record (serve/journal.hpp). recover() replays
//                 the journal on restart: completed jobs keep their result
//                 and never run again; accepted-but-unfinished jobs requeue
//                 and resume from their newest intact checkpoint.
//
// Two stop modes mirror the chaos soak's needs: shutdown() is the SIGTERM
// path (checkpoint running jobs, then exit), hard_stop() is the in-process
// stand-in for SIGKILL (abandon everything immediately, no durability
// actions — whatever already hit the disk is what a restart sees).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"

namespace egt::core {
class Engine;
}  // namespace egt::core

namespace egt::serve {

struct SchedulerOptions {
  unsigned workers = 1;
  /// Admission bound: max jobs in a non-terminal state (queued + running).
  std::size_t queue_capacity = 64;
  /// Generations per dispatch before a job may be evicted for waiting
  /// work. 0 disables preemption (jobs run to completion).
  std::uint64_t slice_generations = 0;
  /// Max dispatch failures (kills, expiries, errors) before a job turns
  /// Failed. Preemptions and graceful shutdowns do not count.
  std::uint32_t max_attempts = 3;
  /// Per-attempt wall deadline; 0 disables the watchdog.
  double watchdog_seconds = 0.0;
  /// Backoff after the n-th consecutive failure:
  /// base * factor^(n-1) seconds.
  double backoff_base_seconds = 0.02;
  double backoff_factor = 2.0;
  /// Journal + checkpoints + metric streams live here; empty runs the
  /// scheduler ephemeral (no durability — unit tests, throwaway runs).
  std::string data_dir;
  /// Checkpoints retained per job (core::CheckpointDir retention).
  int checkpoint_keep = 2;
  /// Per-generation NDJSON metrics stream per dispatch
  /// (<data_dir>/streams/job_<id>_a<attempt>.ndjson); 0 disables.
  std::uint64_t metrics_stream_every = 0;
  /// Scheduler-level "serve.*" counters land here (not per-job engine
  /// counters — each dispatch runs against its own private registry).
  obs::MetricsRegistry* metrics = nullptr;
};

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t job_id = 0;
  /// "capacity" (load shed) or "invalid: <why>" when !accepted.
  std::string rejected;
};

struct JobStatus {
  std::uint64_t id = 0;
  std::string tenant;
  JobState state = JobState::Queued;
  std::uint32_t attempts = 0;
  std::uint32_t preemptions = 0;
  std::uint64_t next_generation = 0;  ///< progress (checkpoint frontier)
  std::string failure;
};

struct JobEvent {
  enum class Kind {
    Submitted,
    Rejected,
    Started,
    Preempted,
    Retrying,
    Completed,
    Failed,
    Cancelled,
    Recovered,
  };
  Kind kind = Kind::Submitted;
  std::uint64_t job_id = 0;
  std::string tenant;
  std::uint64_t generation = 0;  ///< progress at the event, when meaningful
  std::string detail;
};

const char* to_string(JobEvent::Kind k) noexcept;

class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options);
  ~Scheduler();  ///< graceful shutdown if still running

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Replay the data dir's journal (call before start()): completed jobs
  /// keep their results, unfinished acknowledged jobs requeue (resuming
  /// from their newest intact checkpoint), and the journal is compacted.
  struct RecoveryReport {
    std::size_t replayed = 0;   ///< journal records read
    std::size_t completed = 0;  ///< jobs restored in a terminal state
    std::size_t requeued = 0;   ///< jobs put back in the queue
    std::size_t corrupt_skipped = 0;
    bool truncated_tail = false;
  };
  RecoveryReport recover();

  /// Spawn the worker pool. Jobs may be submitted before or after.
  void start();

  /// Admission: parse, validate, journal, enqueue. A full queue or an
  /// invalid spec is rejected synchronously with nothing journaled.
  SubmitOutcome submit(const std::string& spec_json);

  /// Cancel a queued or running job (a running attempt aborts at the next
  /// generation boundary). False when the job is unknown or terminal.
  bool cancel(std::uint64_t job_id);

  /// Block until every accepted job reaches a terminal state.
  void drain();

  /// Graceful stop (SIGTERM path): running jobs are checkpointed at their
  /// next generation boundary and requeued in memory; workers exit. The
  /// journal keeps them acknowledged, so a restart resumes them.
  void shutdown();

  /// Simulated SIGKILL: abandon all in-memory work immediately — no
  /// checkpoints, no journal writes. Only what already reached the disk
  /// survives to the next recover().
  void hard_stop();

  std::vector<JobStatus> statuses() const;
  std::optional<JobState> state(std::uint64_t job_id) const;
  std::optional<JobResult> result(std::uint64_t job_id) const;

  /// Test/chaos hooks. Set before start().
  enum class FaultAction {
    None,
    Kill,    ///< simulate the worker dying mid-attempt
    Expire,  ///< simulate the watchdog deadline firing now
  };
  using FaultHook =
      std::function<FaultAction(std::uint64_t job_id, std::uint64_t generation)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  using EventSink = std::function<void(const JobEvent&)>;
  /// The sink runs on scheduler threads and must not call back into the
  /// scheduler.
  void set_event_sink(EventSink sink) { event_sink_ = std::move(sink); }

  const SchedulerOptions& options() const noexcept { return options_; }

 private:
  struct JobRec {
    std::uint64_t id = 0;
    std::string tenant;
    std::string spec_json;
    core::SimConfig config;
    JobState state = JobState::Queued;
    std::uint32_t attempts = 0;
    std::uint32_t preemptions = 0;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t next_generation = 0;
    std::uint64_t submit_order = 0;
    bool has_checkpoint = false;
    std::atomic<bool> cancel_requested{false};
    std::chrono::steady_clock::time_point not_before{};
    std::string failure;
    JobResult result;
  };

  enum class AttemptEnd {
    Completed,
    Preempted,
    Failure,   ///< transient: kill / expiry / engine error
    Graceful,  ///< shutdown flag seen; checkpointed and parked
    Hard,      ///< hard_stop flag seen; abandoned
    Cancelled,
  };
  struct AttemptResult {
    AttemptEnd end = AttemptEnd::Failure;
    JobResult result;
    std::string error;
    std::uint64_t reached_generation = 0;
    std::uint64_t ran_generations = 0;
    std::uint32_t attempts = 0;
    std::uint32_t preemptions = 0;
    bool checkpointed = false;
  };

  void worker_main();
  JobRec* pick_runnable_locked(std::chrono::steady_clock::time_point now);
  std::optional<std::chrono::steady_clock::time_point> earliest_backoff_locked()
      const;
  bool other_job_waiting(std::uint64_t self_id);
  AttemptResult run_attempt(JobRec& job);
  bool commit_checkpoint(JobRec& job, const core::Engine& engine,
                         const EngineCounters& counters, std::uint32_t attempts,
                         std::uint32_t preemptions);
  void append_journal(const JournalRecord& rec);
  void emit(JobEvent::Kind kind, const JobRec& job, std::uint64_t generation,
            const std::string& detail = std::string());
  void ensure_journal();
  std::string wal_path() const;
  std::string job_ckpt_dir(std::uint64_t id) const;
  obs::Counter* serve_counter(const char* name);
  void bump(const char* name, std::uint64_t n = 1);

  SchedulerOptions options_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::map<std::uint64_t, std::unique_ptr<JobRec>> jobs_;
  std::map<std::string, std::uint64_t> tenant_generations_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_order_ = 0;
  std::vector<std::thread> workers_;
  std::unique_ptr<JobJournal> journal_;
  std::atomic<bool> graceful_{false};
  std::atomic<bool> hard_{false};
  bool started_ = false;
  bool recovered_ = false;
  FaultHook fault_hook_;
  EventSink event_sink_;
};

}  // namespace egt::serve
