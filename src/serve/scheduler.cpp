#include "serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/checkpoint_store.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"
#include "obs/metrics_stream.hpp"
#include "serve/job_checkpoint.hpp"
#include "serve/jobspec.hpp"
#include "util/check.hpp"

namespace egt::serve {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

/// Internal control-flow signals for the cooperative cancellation points.
struct AttemptAborted {
  Scheduler::FaultAction action;
};
struct AttemptHardStopped {};
struct AttemptGraceful {};
struct AttemptCancelled {};

}  // namespace

const char* to_string(JobEvent::Kind k) noexcept {
  switch (k) {
    case JobEvent::Kind::Submitted:
      return "submitted";
    case JobEvent::Kind::Rejected:
      return "rejected";
    case JobEvent::Kind::Started:
      return "started";
    case JobEvent::Kind::Preempted:
      return "preempted";
    case JobEvent::Kind::Retrying:
      return "retrying";
    case JobEvent::Kind::Completed:
      return "completed";
    case JobEvent::Kind::Failed:
      return "failed";
    case JobEvent::Kind::Cancelled:
      return "cancelled";
    case JobEvent::Kind::Recovered:
      return "recovered";
  }
  return "unknown";
}

Scheduler::Scheduler(SchedulerOptions options) : options_(std::move(options)) {
  EGT_REQUIRE_MSG(options_.workers >= 1, "scheduler needs >= 1 worker");
  EGT_REQUIRE_MSG(options_.queue_capacity >= 1,
                  "scheduler queue capacity must be >= 1");
  EGT_REQUIRE_MSG(options_.max_attempts >= 1,
                  "scheduler max_attempts must be >= 1");
  if (!options_.data_dir.empty()) {
    fs::create_directories(options_.data_dir);
    fs::create_directories(options_.data_dir + "/ckpt");
    if (options_.metrics_stream_every > 0) {
      fs::create_directories(options_.data_dir + "/streams");
    }
  }
}

Scheduler::~Scheduler() {
  if (!hard_.load(std::memory_order_relaxed)) shutdown();
}

std::string Scheduler::wal_path() const {
  return options_.data_dir + "/jobs.wal";
}

std::string Scheduler::job_ckpt_dir(std::uint64_t id) const {
  return options_.data_dir + "/ckpt/job_" + std::to_string(id);
}

obs::Counter* Scheduler::serve_counter(const char* name) {
  if (options_.metrics == nullptr) return nullptr;
  return &options_.metrics->counter(name);
}

void Scheduler::bump(const char* name, std::uint64_t n) {
  if (options_.metrics != nullptr) options_.metrics->counter(name).inc(n);
}

void Scheduler::ensure_journal() {
  if (options_.data_dir.empty() || journal_ != nullptr) return;
  journal_ = std::make_unique<JobJournal>(wal_path());
}

void Scheduler::append_journal(const JournalRecord& rec) {
  if (options_.data_dir.empty()) return;
  ensure_journal();
  try {
    journal_->append(rec);
  } catch (const std::exception&) {
    // Warn-and-continue (same contract as checkpoint write errors): an
    // unwritable journal degrades durability, never the running jobs.
    bump("serve.journal_write_errors");
  }
}

void Scheduler::emit(JobEvent::Kind kind, const JobRec& job,
                     std::uint64_t generation, const std::string& detail) {
  if (!event_sink_) return;
  JobEvent ev;
  ev.kind = kind;
  ev.job_id = job.id;
  ev.tenant = job.tenant;
  ev.generation = generation;
  ev.detail = detail;
  event_sink_(ev);
}

Scheduler::RecoveryReport Scheduler::recover() {
  RecoveryReport report;
  if (options_.data_dir.empty()) return report;
  EGT_REQUIRE_MSG(!started_ && journal_ == nullptr,
                  "recover() must run before start()");
  const auto replay = JobJournal::replay(wal_path());
  report.replayed = replay.records.size();
  report.corrupt_skipped = replay.corrupt_skipped;
  report.truncated_tail = replay.truncated_tail;
  bump("serve.journal_records_replayed", replay.records.size());
  bump("serve.journal_corrupt_skipped", replay.corrupt_skipped);
  std::lock_guard<std::mutex> lock(mu_);
  for (const JournalRecord& rec : replay.records) {
    switch (rec.type) {
      case JournalRecord::Type::Submitted: {
        if (jobs_.count(rec.job_id) != 0) break;  // idempotent replay
        auto job = std::make_unique<JobRec>();
        job->id = rec.job_id;
        job->tenant = rec.tenant;
        job->spec_json = rec.spec_json;
        try {
          job->config = parse_job_spec(rec.spec_json).config;
        } catch (const std::exception& e) {
          // The canonical spec no longer parses (foreign edit, version
          // skew): surface the job as Failed instead of dropping it.
          job->state = JobState::Failed;
          job->failure = std::string("spec no longer parses: ") + e.what();
        }
        job->submit_order = next_order_++;
        jobs_.emplace(rec.job_id, std::move(job));
        break;
      }
      case JournalRecord::Type::Completed: {
        const auto it = jobs_.find(rec.job_id);
        if (it == jobs_.end()) break;
        it->second->state = JobState::Completed;
        it->second->result = rec.result;
        it->second->next_generation = rec.result.generations;
        it->second->attempts = rec.result.attempts;
        it->second->preemptions = rec.result.preemptions;
        break;
      }
      case JournalRecord::Type::Failed: {
        const auto it = jobs_.find(rec.job_id);
        if (it == jobs_.end()) break;
        it->second->state = JobState::Failed;
        it->second->failure = rec.reason;
        break;
      }
      case JournalRecord::Type::Cancelled: {
        const auto it = jobs_.find(rec.job_id);
        if (it == jobs_.end()) break;
        it->second->state = JobState::Cancelled;
        break;
      }
    }
    next_id_ = std::max(next_id_, rec.job_id + 1);
  }
  std::vector<JournalRecord> compacted;
  for (const auto& [id, job] : jobs_) {
    JournalRecord sub;
    sub.type = JournalRecord::Type::Submitted;
    sub.job_id = job->id;
    sub.tenant = job->tenant;
    sub.spec_json = job->spec_json;
    compacted.push_back(std::move(sub));
    switch (job->state) {
      case JobState::Completed: {
        JournalRecord rec;
        rec.type = JournalRecord::Type::Completed;
        rec.job_id = job->id;
        rec.result = job->result;
        compacted.push_back(std::move(rec));
        ++report.completed;
        break;
      }
      case JobState::Failed: {
        JournalRecord rec;
        rec.type = JournalRecord::Type::Failed;
        rec.job_id = job->id;
        rec.reason = job->failure;
        compacted.push_back(std::move(rec));
        ++report.completed;
        break;
      }
      case JobState::Cancelled: {
        JournalRecord rec;
        rec.type = JournalRecord::Type::Cancelled;
        rec.job_id = job->id;
        compacted.push_back(std::move(rec));
        ++report.completed;
        break;
      }
      case JobState::Queued:
      case JobState::Running: {
        // Requeued. Resume from a checkpoint when one survived.
        job->state = JobState::Queued;
        std::error_code ec;
        if (fs::is_directory(job_ckpt_dir(job->id), ec)) {
          core::CheckpointDir dir(job_ckpt_dir(job->id),
                                  options_.checkpoint_keep);
          job->has_checkpoint = !dir.generations().empty();
        }
        ++report.requeued;
        emit(JobEvent::Kind::Recovered, *job, job->next_generation);
        break;
      }
    }
  }
  if (!replay.missing || !compacted.empty()) {
    try {
      JobJournal::compact(wal_path(), compacted);
    } catch (const std::exception&) {
      bump("serve.journal_write_errors");
    }
  }
  bump("serve.jobs_recovered", report.requeued);
  recovered_ = true;
  return report;
}

void Scheduler::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  ensure_journal();
  started_ = true;
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

SubmitOutcome Scheduler::submit(const std::string& spec_json) {
  SubmitOutcome out;
  JobSpec spec;
  try {
    spec = parse_job_spec(spec_json);
  } catch (const std::exception& e) {
    out.rejected = std::string("invalid: ") + e.what();
    bump("serve.jobs_rejected_invalid");
    return out;
  }
  const std::string canonical = job_spec_to_json(spec);
  std::unique_ptr<JobRec> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t live = 0;
    for (const auto& [id, j] : jobs_) {
      if (j->state == JobState::Queued || j->state == JobState::Running) {
        ++live;
      }
    }
    if (live >= options_.queue_capacity) {
      // Load shed before journaling: a rejected job leaves no trace to
      // replay, so backlog is bounded on disk as well as in memory.
      out.rejected = "capacity";
      bump("serve.jobs_rejected_capacity");
      return out;
    }
    job = std::make_unique<JobRec>();
    job->id = next_id_++;
    job->tenant = spec.tenant;
    job->spec_json = canonical;
    job->config = spec.config;
    job->submit_order = next_order_++;
    out.accepted = true;
    out.job_id = job->id;
  }
  // Durable before acknowledged: the Submitted record is fsynced before
  // the caller learns the id, so an accepted job can never be lost.
  JournalRecord rec;
  rec.type = JournalRecord::Type::Submitted;
  rec.job_id = job->id;
  rec.tenant = job->tenant;
  rec.spec_json = canonical;
  append_journal(rec);
  JobRec* raw;
  {
    std::lock_guard<std::mutex> lock(mu_);
    raw = job.get();
    jobs_.emplace(raw->id, std::move(job));
  }
  bump("serve.jobs_submitted");
  emit(JobEvent::Kind::Submitted, *raw, 0);
  work_cv_.notify_one();
  return out;
}

bool Scheduler::cancel(std::uint64_t job_id) {
  JobRec* terminal = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    JobRec& job = *it->second;
    switch (job.state) {
      case JobState::Queued:
        job.state = JobState::Cancelled;
        terminal = &job;
        break;
      case JobState::Running:
        // Cooperative: the owning worker sees the flag at the next
        // generation boundary and finishes the cancellation itself.
        job.cancel_requested.store(true, std::memory_order_relaxed);
        return true;
      default:
        return false;
    }
  }
  JournalRecord rec;
  rec.type = JournalRecord::Type::Cancelled;
  rec.job_id = job_id;
  append_journal(rec);
  bump("serve.jobs_cancelled");
  emit(JobEvent::Kind::Cancelled, *terminal, terminal->next_generation);
  drain_cv_.notify_all();
  return true;
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] {
    if (graceful_.load(std::memory_order_relaxed) ||
        hard_.load(std::memory_order_relaxed)) {
      return true;  // stopping: nothing more will finish
    }
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::Queued || job->state == JobState::Running) {
        return false;
      }
    }
    return true;
  });
}

void Scheduler::shutdown() {
  {
    // Set under mu_: a worker between its flag check and work_cv_.wait
    // holds mu_, so it either sees the flag or is already waiting when
    // the notify below fires.
    std::lock_guard<std::mutex> lock(mu_);
    graceful_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  drain_cv_.notify_all();
}

void Scheduler::hard_stop() {
  {
    // Set under mu_: a worker between its flag check and work_cv_.wait
    // holds mu_, so it either sees the flag or is already waiting when
    // the notify below fires.
    std::lock_guard<std::mutex> lock(mu_);
    hard_.store(true, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  drain_cv_.notify_all();
}

std::vector<JobStatus> Scheduler::statuses() const {
  std::vector<JobStatus> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) {
    JobStatus s;
    s.id = job->id;
    s.tenant = job->tenant;
    s.state = job->state;
    s.attempts = job->attempts;
    s.preemptions = job->preemptions;
    s.next_generation = job->next_generation;
    s.failure = job->failure;
    out.push_back(std::move(s));
  }
  return out;
}

std::optional<JobState> Scheduler::state(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->state;
}

std::optional<JobResult> Scheduler::result(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end() || it->second->state != JobState::Completed) {
    return std::nullopt;
  }
  return it->second->result;
}

Scheduler::JobRec* Scheduler::pick_runnable_locked(Clock::time_point now) {
  JobRec* best = nullptr;
  std::uint64_t best_tenant_gens = 0;
  for (auto& [id, job] : jobs_) {
    if (job->state != JobState::Queued) continue;
    if (job->not_before > now) continue;
    const std::uint64_t tg = tenant_generations_[job->tenant];
    // Fair share: least-served tenant first, FIFO inside a tenant.
    if (best == nullptr || tg < best_tenant_gens ||
        (tg == best_tenant_gens && job->submit_order < best->submit_order)) {
      best = job.get();
      best_tenant_gens = tg;
    }
  }
  return best;
}

std::optional<Clock::time_point> Scheduler::earliest_backoff_locked() const {
  std::optional<Clock::time_point> earliest;
  for (const auto& [id, job] : jobs_) {
    if (job->state != JobState::Queued) continue;
    if (!earliest || job->not_before < *earliest) {
      earliest = job->not_before;
    }
  }
  return earliest;
}

bool Scheduler::other_job_waiting(std::uint64_t self_id) {
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, job] : jobs_) {
    if (id == self_id) continue;
    if (job->state == JobState::Queued && job->not_before <= now) return true;
  }
  return false;
}

bool Scheduler::commit_checkpoint(JobRec& job, const core::Engine& engine,
                                  const EngineCounters& counters,
                                  std::uint32_t attempts,
                                  std::uint32_t preemptions) {
  if (options_.data_dir.empty()) return false;
  try {
    const std::string dir = job_ckpt_dir(job.id);
    fs::create_directories(dir);
    core::CheckpointDir store(dir, options_.checkpoint_keep);
    store.commit(engine.generation(),
                 encode_job_checkpoint(capture_job_checkpoint(
                     engine, counters, attempts, preemptions)));
    bump("serve.checkpoints_written");
    return true;
  } catch (const std::exception&) {
    bump("serve.checkpoint_write_errors");
    return false;
  }
}

Scheduler::AttemptResult Scheduler::run_attempt(JobRec& job) {
  AttemptResult out;
  out.attempts = job.attempts;
  out.preemptions = job.preemptions;
  obs::MetricsRegistry reg;
  EngineCounters base{};
  std::optional<core::Engine> engine;
  // Resume from the newest intact checkpoint; damage falls back to older
  // generations (CheckpointDir) and, past that, to a fresh start — a
  // deterministic engine makes every resume point bit-exact.
  if (job.has_checkpoint && !options_.data_dir.empty()) {
    std::error_code ec;
    if (fs::is_directory(job_ckpt_dir(job.id), ec)) {
      core::CheckpointDir store(job_ckpt_dir(job.id), options_.checkpoint_keep);
      const auto loaded = store.newest_intact(
          [this](std::uint64_t, const std::string&) {
            bump("serve.checkpoint_fallbacks");
          });
      if (loaded) {
        try {
          JobCheckpoint ckpt = decode_job_checkpoint(loaded->payload);
          base = ckpt.counters;
          out.attempts = std::max(out.attempts, ckpt.attempts + 1);
          out.preemptions = std::max(out.preemptions, ckpt.preemptions);
          engine.emplace(
              resume_job_engine(job.config, std::move(ckpt), &reg));
          bump("serve.jobs_resumed");
        } catch (const std::exception&) {
          bump("serve.checkpoint_fallbacks");
          engine.reset();
        }
      }
    }
  }
  if (!engine) {
    base = EngineCounters{};
    engine.emplace(job.config, &reg);
  }
  const std::uint64_t start_generation = engine->generation();

  std::optional<obs::MetricsStreamWriter> stream;
  if (!options_.data_dir.empty() && options_.metrics_stream_every > 0) {
    obs::MetricsStreamWriter::Options so;
    so.path = options_.data_dir + "/streams/job_" + std::to_string(job.id) +
              "_a" + std::to_string(out.attempts) + ".ndjson";
    so.every = options_.metrics_stream_every;
    stream.emplace(std::move(so));
  }

  const auto attempt_start = Clock::now();
  std::uint64_t ran_this_slice = 0;
  try {
    while (engine->generation() < job.config.generations) {
      // Cooperative cancellation points, checked once per generation.
      if (hard_.load(std::memory_order_relaxed)) throw AttemptHardStopped{};
      if (job.cancel_requested.load(std::memory_order_relaxed)) {
        throw AttemptCancelled{};
      }
      if (graceful_.load(std::memory_order_relaxed)) throw AttemptGraceful{};
      if (options_.watchdog_seconds > 0.0) {
        const std::chrono::duration<double> elapsed =
            Clock::now() - attempt_start;
        if (elapsed.count() > options_.watchdog_seconds) {
          throw AttemptAborted{FaultAction::Expire};
        }
      }
      if (fault_hook_) {
        const FaultAction action = fault_hook_(job.id, engine->generation());
        if (action != FaultAction::None) throw AttemptAborted{action};
      }
      engine->step();
      ++ran_this_slice;
      if (stream && stream->wants(engine->last_record().generation)) {
        stream->on_generation(engine->last_record().generation,
                              engine->population(), reg);
      }
      if (options_.slice_generations > 0 &&
          ran_this_slice >= options_.slice_generations &&
          engine->generation() < job.config.generations &&
          other_job_waiting(job.id)) {
        // Preemption: persist and yield the worker to the waiting job.
        const EngineCounters counters =
            counters_add(base, counters_from(reg.snapshot()));
        out.preemptions += 1;
        out.checkpointed = commit_checkpoint(job, *engine, counters,
                                             out.attempts, out.preemptions);
        out.end = AttemptEnd::Preempted;
        out.reached_generation = engine->generation();
        out.ran_generations = engine->generation() - start_generation;
        return out;
      }
    }
  } catch (const AttemptAborted& abort) {
    out.end = AttemptEnd::Failure;
    out.error = abort.action == FaultAction::Kill ? "worker killed"
                                                  : "deadline expired";
    bump(abort.action == FaultAction::Kill ? "serve.worker_kills"
                                           : "serve.watchdog_expiries");
    out.reached_generation = engine->generation();
    out.ran_generations = engine->generation() - start_generation;
    return out;
  } catch (const AttemptHardStopped&) {
    // Simulated SIGKILL: no checkpoint, no journaling, no state change.
    out.end = AttemptEnd::Hard;
    return out;
  } catch (const AttemptGraceful&) {
    const EngineCounters counters =
        counters_add(base, counters_from(reg.snapshot()));
    out.checkpointed = commit_checkpoint(job, *engine, counters, out.attempts,
                                         out.preemptions);
    out.end = AttemptEnd::Graceful;
    out.reached_generation = engine->generation();
    out.ran_generations = engine->generation() - start_generation;
    return out;
  } catch (const AttemptCancelled&) {
    out.end = AttemptEnd::Cancelled;
    out.reached_generation = engine->generation();
    out.ran_generations = engine->generation() - start_generation;
    return out;
  } catch (const std::exception& e) {
    out.end = AttemptEnd::Failure;
    out.error = std::string("engine error: ") + e.what();
    return out;
  }

  out.end = AttemptEnd::Completed;
  out.reached_generation = engine->generation();
  out.ran_generations = engine->generation() - start_generation;
  JobResult& res = out.result;
  res.generations = engine->generation();
  res.table_hash = engine->population().table_hash();
  const auto fit = engine->population().fitness();
  res.fitness.assign(fit.begin(), fit.end());
  res.fitness_hash = core::hash_fitness(engine->population().fitness());
  res.counters = counters_add(base, counters_from(reg.snapshot()));
  res.attempts = out.attempts;
  res.preemptions = out.preemptions;
  return out;
}

void Scheduler::worker_main() {
  while (true) {
    JobRec* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        if (graceful_.load(std::memory_order_relaxed) ||
            hard_.load(std::memory_order_relaxed)) {
          return;
        }
        job = pick_runnable_locked(Clock::now());
        if (job != nullptr) break;
        const auto wake = earliest_backoff_locked();
        if (wake) {
          work_cv_.wait_until(lock, *wake);
        } else {
          work_cv_.wait(lock);
        }
      }
      job->state = JobState::Running;
      ++job->attempts;
    }
    emit(JobEvent::Kind::Started, *job, job->next_generation);
    AttemptResult res = run_attempt(*job);

    if (res.end == AttemptEnd::Hard) return;

    // Journal the terminal transitions before exposing them (WAL
    // discipline: acknowledged implies durable).
    if (res.end == AttemptEnd::Completed) {
      JournalRecord rec;
      rec.type = JournalRecord::Type::Completed;
      rec.job_id = job->id;
      rec.result = res.result;
      append_journal(rec);
    }

    bool permanent_failure = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      tenant_generations_[job->tenant] += res.ran_generations;
      job->attempts = res.attempts;
      job->preemptions = res.preemptions;
      switch (res.end) {
        case AttemptEnd::Completed:
          job->state = JobState::Completed;
          job->result = std::move(res.result);
          job->next_generation = job->result.generations;
          job->consecutive_failures = 0;
          break;
        case AttemptEnd::Preempted:
          job->state = JobState::Queued;
          job->next_generation = res.reached_generation;
          job->has_checkpoint = job->has_checkpoint || res.checkpointed;
          job->consecutive_failures = 0;
          job->not_before = Clock::time_point{};  // immediately runnable
          break;
        case AttemptEnd::Graceful:
          job->state = JobState::Queued;
          job->next_generation = res.reached_generation;
          job->has_checkpoint = job->has_checkpoint || res.checkpointed;
          break;
        case AttemptEnd::Cancelled:
          job->state = JobState::Cancelled;
          break;
        case AttemptEnd::Failure: {
          ++job->consecutive_failures;
          job->failure = res.error;
          if (job->consecutive_failures >= options_.max_attempts) {
            job->state = JobState::Failed;
            permanent_failure = true;
          } else {
            job->state = JobState::Queued;
            const double backoff =
                options_.backoff_base_seconds *
                std::pow(options_.backoff_factor,
                         static_cast<double>(job->consecutive_failures - 1));
            job->not_before =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(backoff));
          }
          break;
        }
        case AttemptEnd::Hard:
          break;  // unreachable
      }
    }

    switch (res.end) {
      case AttemptEnd::Completed:
        bump("serve.jobs_completed");
        emit(JobEvent::Kind::Completed, *job, res.reached_generation);
        break;
      case AttemptEnd::Preempted:
        bump("serve.preemptions");
        emit(JobEvent::Kind::Preempted, *job, res.reached_generation);
        break;
      case AttemptEnd::Graceful:
        break;
      case AttemptEnd::Cancelled: {
        JournalRecord rec;
        rec.type = JournalRecord::Type::Cancelled;
        rec.job_id = job->id;
        append_journal(rec);
        bump("serve.jobs_cancelled");
        emit(JobEvent::Kind::Cancelled, *job, res.reached_generation);
        break;
      }
      case AttemptEnd::Failure:
        if (permanent_failure) {
          JournalRecord rec;
          rec.type = JournalRecord::Type::Failed;
          rec.job_id = job->id;
          rec.reason = res.error;
          append_journal(rec);
          bump("serve.jobs_failed");
          emit(JobEvent::Kind::Failed, *job, res.reached_generation,
               res.error);
        } else {
          bump("serve.retries");
          emit(JobEvent::Kind::Retrying, *job, res.reached_generation,
               res.error);
        }
        break;
      case AttemptEnd::Hard:
        break;
    }
    work_cv_.notify_all();
    drain_cv_.notify_all();
  }
}

}  // namespace egt::serve
