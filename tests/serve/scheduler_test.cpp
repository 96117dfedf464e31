// Scheduler semantics: admission control and load shedding, fair-share
// dispatch, watchdog/kill retries with bounded attempts, checkpoint-based
// preemption exactness, and journal-backed restart (no acknowledged job
// lost, no completed job run twice).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/jobspec.hpp"
#include "serve/journal.hpp"
#include "serve/scheduler.hpp"

namespace egt::serve {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("egt_sched_test_" + tag + "_" +
               std::to_string(
                   ::testing::UnitTest::GetInstance()->random_seed()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

std::string spec_json(const std::string& tenant, std::uint64_t seed,
                      std::uint64_t generations = 20) {
  JobSpec spec;
  spec.tenant = tenant;
  spec.config.ssets = 8;
  spec.config.memory = 1;
  spec.config.generations = generations;
  spec.config.pc_rate = 0.4;
  spec.config.mutation_rate = 0.2;
  spec.config.seed = seed;
  spec.config.fitness_mode = core::FitnessMode::Sampled;
  return job_spec_to_json(spec);
}

JobResult serial_oracle(const std::string& spec_json_text) {
  const JobSpec spec = parse_job_spec(spec_json_text);
  obs::MetricsRegistry reg;
  core::Engine engine(spec.config, &reg);
  engine.run(spec.config.generations);
  JobResult res;
  res.generations = engine.generation();
  res.table_hash = engine.population().table_hash();
  const auto fit = engine.population().fitness();
  res.fitness.assign(fit.begin(), fit.end());
  const obs::MetricsSnapshot s = reg.snapshot();
  res.counters.generations = s.counter_value("engine.generations");
  res.counters.pc_events = s.counter_value("engine.pc_events");
  res.counters.adoptions = s.counter_value("engine.adoptions");
  res.counters.moran_events = s.counter_value("engine.moran_events");
  res.counters.mutations = s.counter_value("engine.mutations");
  res.counters.pairs_evaluated = s.counter_value("engine.pairs_evaluated");
  res.counters.games_played = s.counter_value("engine.games_played");
  return res;
}

void expect_matches_oracle(const JobResult& got, const std::string& spec) {
  const JobResult want = serial_oracle(spec);
  EXPECT_EQ(got.table_hash, want.table_hash);
  ASSERT_EQ(got.fitness.size(), want.fitness.size());
  EXPECT_EQ(std::memcmp(got.fitness.data(), want.fitness.data(),
                        got.fitness.size() * sizeof(double)),
            0);
  EXPECT_TRUE(got.counters == want.counters)
      << got.counters.pairs_evaluated << " vs "
      << want.counters.pairs_evaluated;
}

/// Collects events under its own lock (the sink contract forbids calling
/// back into the scheduler).
struct EventLog {
  std::mutex mu;
  std::vector<JobEvent> events;
  void operator()(const JobEvent& ev) {
    std::lock_guard<std::mutex> lock(mu);
    events.push_back(ev);
  }
  std::vector<JobEvent> kind(JobEvent::Kind k) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<JobEvent> out;
    for (const auto& ev : events) {
      if (ev.kind == k) out.push_back(ev);
    }
    return out;
  }
};

TEST(Scheduler, CompletesAJobBitIdenticalToSerial) {
  SchedulerOptions opts;  // ephemeral: no data dir
  Scheduler sched(opts);
  sched.start();
  const std::string spec = spec_json("alice", 42);
  const SubmitOutcome out = sched.submit(spec);
  ASSERT_TRUE(out.accepted);
  sched.drain();
  ASSERT_EQ(sched.state(out.job_id), JobState::Completed);
  expect_matches_oracle(*sched.result(out.job_id), spec);
  sched.shutdown();
}

TEST(Scheduler, InvalidSpecsAreRejectedWithTheReason) {
  Scheduler sched(SchedulerOptions{});
  EXPECT_FALSE(sched.submit("this is not json").accepted);
  const SubmitOutcome bad_game =
      sched.submit("{\"game\": \"no_such_game\"}");
  EXPECT_FALSE(bad_game.accepted);
  EXPECT_NE(bad_game.rejected.find("invalid"), std::string::npos);
  const SubmitOutcome bad_schema =
      sched.submit("{\"schema\": \"egt.other/v9\"}");
  EXPECT_FALSE(bad_schema.accepted);
}

TEST(Scheduler, AdmissionBoundLoadShedsBeforeJournaling) {
  TempDir dir("admission");
  SchedulerOptions opts;
  opts.queue_capacity = 2;
  opts.data_dir = dir.str();
  {
    Scheduler sched(opts);  // not started: jobs stay queued
    EXPECT_TRUE(sched.submit(spec_json("a", 1)).accepted);
    EXPECT_TRUE(sched.submit(spec_json("a", 2)).accepted);
    const SubmitOutcome shed = sched.submit(spec_json("a", 3));
    EXPECT_FALSE(shed.accepted);
    EXPECT_EQ(shed.rejected, "capacity");
  }
  // The shed job left no replay debt: only the two accepted Submitted
  // records are journaled.
  const auto replay = JobJournal::replay(dir.str() + "/jobs.wal");
  EXPECT_EQ(replay.records.size(), 2u);
}

TEST(Scheduler, KilledAttemptsRetryAndStayBitIdentical) {
  SchedulerOptions opts;
  opts.backoff_base_seconds = 0.001;
  Scheduler sched(opts);
  EventLog log;
  sched.set_event_sink(std::ref(log));
  // Kill the first dispatch of job 1 at generation 5, once.
  std::mutex mu;
  bool fired = false;
  sched.set_fault_hook([&](std::uint64_t id, std::uint64_t gen) {
    std::lock_guard<std::mutex> lock(mu);
    if (id == 1 && gen == 5 && !fired) {
      fired = true;
      return Scheduler::FaultAction::Kill;
    }
    return Scheduler::FaultAction::None;
  });
  sched.start();
  const std::string spec = spec_json("alice", 7);
  ASSERT_TRUE(sched.submit(spec).accepted);
  sched.drain();
  ASSERT_EQ(sched.state(1), JobState::Completed);
  const JobResult res = *sched.result(1);
  EXPECT_EQ(res.attempts, 2u);  // the kill cost one dispatch
  expect_matches_oracle(res, spec);
  EXPECT_EQ(log.kind(JobEvent::Kind::Retrying).size(), 1u);
  sched.shutdown();
}

TEST(Scheduler, AttemptsExhaustedTurnsTheJobFailedLoudly) {
  SchedulerOptions opts;
  opts.max_attempts = 3;
  opts.backoff_base_seconds = 0.001;
  Scheduler sched(opts);
  EventLog log;
  sched.set_event_sink(std::ref(log));
  sched.set_fault_hook([](std::uint64_t, std::uint64_t) {
    return Scheduler::FaultAction::Expire;  // every attempt dies
  });
  sched.start();
  ASSERT_TRUE(sched.submit(spec_json("alice", 9)).accepted);
  sched.drain();
  ASSERT_EQ(sched.state(1), JobState::Failed);
  EXPECT_FALSE(sched.result(1).has_value());
  const auto failed = log.kind(JobEvent::Kind::Failed);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_NE(failed[0].detail.find("deadline"), std::string::npos);
  // Exactly max_attempts dispatches, two of them retries.
  EXPECT_EQ(log.kind(JobEvent::Kind::Started).size(), 3u);
  EXPECT_EQ(log.kind(JobEvent::Kind::Retrying).size(), 2u);
  sched.shutdown();
}

TEST(Scheduler, PreemptionIsExactAndFairAcrossTenants) {
  TempDir dir("preempt");
  SchedulerOptions opts;
  opts.workers = 1;
  opts.slice_generations = 4;
  opts.data_dir = dir.str();
  Scheduler sched(opts);
  EventLog log;
  sched.set_event_sink(std::ref(log));
  // Submit before start so dispatch order is pure fair-share.
  const std::string a1 = spec_json("alice", 11, 24);
  const std::string a2 = spec_json("alice", 12, 24);
  const std::string b1 = spec_json("bob", 13, 24);
  ASSERT_TRUE(sched.submit(a1).accepted);   // job 1
  ASSERT_TRUE(sched.submit(a2).accepted);   // job 2
  ASSERT_TRUE(sched.submit(b1).accepted);   // job 3
  sched.start();
  sched.drain();
  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_EQ(sched.state(id), JobState::Completed) << "job " << id;
  }
  // Preempted-and-resumed jobs finish bit-identical to undisturbed runs.
  expect_matches_oracle(*sched.result(1), a1);
  expect_matches_oracle(*sched.result(2), a2);
  expect_matches_oracle(*sched.result(3), b1);
  EXPECT_FALSE(log.kind(JobEvent::Kind::Preempted).empty());
  // Fair share: the single worker starts alice's first job, but bob (zero
  // generations served) must be dispatched before alice's second.
  const auto started = log.kind(JobEvent::Kind::Started);
  ASSERT_GE(started.size(), 2u);
  EXPECT_EQ(started[0].job_id, 1u);
  EXPECT_EQ(started[1].job_id, 3u);
  sched.shutdown();
}

TEST(Scheduler, CancelQueuedJobIsTerminalAndJournaled) {
  TempDir dir("cancel");
  SchedulerOptions opts;
  opts.data_dir = dir.str();
  {
    Scheduler sched(opts);  // not started: job 1 stays queued
    ASSERT_TRUE(sched.submit(spec_json("alice", 21)).accepted);
    EXPECT_TRUE(sched.cancel(1));
    EXPECT_EQ(sched.state(1), JobState::Cancelled);
    EXPECT_FALSE(sched.cancel(1));  // already terminal
    EXPECT_FALSE(sched.cancel(99));
  }
  Scheduler restarted(opts);
  restarted.recover();
  EXPECT_EQ(restarted.state(1), JobState::Cancelled);
}

TEST(Scheduler, RestartReplaysResultsWithoutRerunning) {
  TempDir dir("restart");
  SchedulerOptions opts;
  opts.data_dir = dir.str();
  const std::string spec = spec_json("alice", 33);
  JobResult first_result;
  {
    Scheduler sched(opts);
    sched.start();
    ASSERT_TRUE(sched.submit(spec).accepted);
    sched.drain();
    first_result = *sched.result(1);
    sched.shutdown();
  }
  Scheduler sched(opts);
  EventLog log;
  sched.set_event_sink(std::ref(log));
  const auto rep = sched.recover();
  EXPECT_EQ(rep.completed, 1u);
  EXPECT_EQ(rep.requeued, 0u);
  sched.start();
  sched.drain();
  sched.shutdown();
  // Never dispatched again; the journal-replayed result is bit-identical.
  EXPECT_TRUE(log.kind(JobEvent::Kind::Started).empty());
  ASSERT_EQ(sched.state(1), JobState::Completed);
  const JobResult replayed = *sched.result(1);
  EXPECT_EQ(replayed.table_hash, first_result.table_hash);
  EXPECT_EQ(std::memcmp(replayed.fitness.data(), first_result.fitness.data(),
                        replayed.fitness.size() * sizeof(double)),
            0);
  EXPECT_TRUE(replayed.counters == first_result.counters);
  expect_matches_oracle(replayed, spec);
}

TEST(Scheduler, GracefulShutdownParksUnfinishedWorkForTheNextRun) {
  TempDir dir("graceful");
  SchedulerOptions opts;
  opts.data_dir = dir.str();
  opts.workers = 1;
  const std::string spec = spec_json("alice", 55, 4000);
  {
    Scheduler sched(opts);
    sched.start();
    ASSERT_TRUE(sched.submit(spec).accepted);
    // Shut down as soon as the job is underway; the worker checkpoints at
    // its next generation boundary and parks the job.
    while (sched.state(1) == JobState::Queued) {
    }
    sched.shutdown();
    EXPECT_NE(sched.state(1), JobState::Completed);
  }
  Scheduler sched(opts);
  const auto rep = sched.recover();
  EXPECT_EQ(rep.requeued, 1u);
  sched.start();
  sched.drain();
  sched.shutdown();
  ASSERT_EQ(sched.state(1), JobState::Completed);
  expect_matches_oracle(*sched.result(1), spec);
}

// Lost-wakeup regression: shutdown() and hard_stop() must reach a worker
// that is between its stop-flag check and its wait. Many idle schedulers
// stopped right after start() hit that window; each must join promptly.
TEST(Scheduler, IdleSchedulersAlwaysJoinOnStop) {
  SchedulerOptions opts;  // ephemeral: no data dir
  opts.workers = 2;
  for (int k = 0; k < 1000; ++k) {
    Scheduler sched(opts);
    sched.start();
    auto stopped = std::async(std::launch::async, [&sched, k] {
      if (k % 2 == 0) {
        sched.shutdown();
      } else {
        sched.hard_stop();
      }
    });
    if (stopped.wait_for(std::chrono::seconds(5)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "scheduler %d did not join within 5 s\n", k);
      std::abort();  // a hung worker would otherwise block the suite
    }
  }
}

}  // namespace
}  // namespace egt::serve
