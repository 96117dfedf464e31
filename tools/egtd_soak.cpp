// egtd_soak: chaos soak for the job scheduler (CI: egtd-soak).
//
// Three modes, all exiting non-zero on the first violated invariant:
//
//   --start S --count N      seeded in-process chaos schedules
//                            (serve/chaos.hpp): worker kills, watchdog
//                            expiries, preemption, a mid-run hard stop
//                            with optional torn journal tail, then
//                            recover-and-drain. Every completed job must
//                            be bit-identical to an undisturbed serial
//                            run; no acknowledged job lost or run twice.
//
//   --kill-seed S            the real thing: fork a child scheduler into
//                            the data dir, SIGKILL it mid-run, then
//                            recover in this process and drain. Every job
//                            the child durably acknowledged must survive,
//                            and all completions must match the oracle.
//
//   --smoke-jobs N           admission/throughput smoke: N tiny jobs
//                            submitted at once against a small queue
//                            bound; accepted ones must all complete,
//                            overflow must be load-shed as
//                            rejected: capacity (never dropped silently).
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/chaos.hpp"
#include "serve/jobspec.hpp"
#include "serve/scheduler.hpp"
#include "util/cli.hpp"

namespace {
namespace fs = std::filesystem;
using namespace egt;

int run_seed_sweep(std::uint64_t start, std::uint64_t count,
                   const std::string& data_dir, bool verbose) {
  int failures = 0;
  std::size_t total_completed = 0;
  std::uint64_t total_retries = 0;
  std::uint64_t total_preemptions = 0;
  for (std::uint64_t seed = start; seed < start + count; ++seed) {
    const serve::ServeChaosOutcome out =
        serve::run_serve_schedule(seed, data_dir);
    total_completed += out.completed;
    total_retries += out.retries;
    total_preemptions += out.preemptions;
    if (!out.ok) {
      ++failures;
      std::printf("FAIL %s\n", out.detail.c_str());
    } else if (verbose) {
      std::printf("ok   %s (completed=%zu requeued=%zu retries=%llu "
                  "preemptions=%llu)\n",
                  out.detail.c_str(), out.completed, out.requeued,
                  static_cast<unsigned long long>(out.retries),
                  static_cast<unsigned long long>(out.preemptions));
    }
  }
  std::printf(
      "egtd soak: %llu seed(s), %d failure(s); %zu completions verified "
      "bit-identical, %llu retries, %llu preemptions exercised\n",
      static_cast<unsigned long long>(count), failures, total_completed,
      static_cast<unsigned long long>(total_retries),
      static_cast<unsigned long long>(total_preemptions));
  return failures == 0 ? 0 : 1;
}

/// Child half of --kill-seed: serve the schedule's jobs in data_dir,
/// appending each durably acknowledged job id to the ack file (fsynced, so
/// the parent's "acknowledged implies recoverable" check is sound), then
/// spin until SIGKILLed.
[[noreturn]] void kill_mode_child(const serve::ServeChaosSchedule& plan,
                                  const std::string& data_dir,
                                  const std::string& ack_path) {
  serve::SchedulerOptions opts = plan.options;
  opts.data_dir = data_dir;
  serve::Scheduler sched(opts);
  sched.recover();
  sched.start();
  const int ack_fd =
      ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  for (const std::string& spec : plan.specs) {
    const serve::SubmitOutcome out = sched.submit(spec);
    if (out.accepted && ack_fd >= 0) {
      const std::string line = std::to_string(out.job_id) + "\n";
      (void)!::write(ack_fd, line.data(), line.size());
      ::fsync(ack_fd);
    }
  }
  // Serve until the parent's SIGKILL lands — mid-generation, mid-fsync,
  // wherever it happens to fall.
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(10));
}

int run_kill_seed(std::uint64_t seed, const std::string& data_dir,
                  bool verbose) {
  const serve::ServeChaosSchedule plan = serve::make_serve_schedule(seed);
  fs::remove_all(data_dir);
  fs::create_directories(data_dir);
  const std::string ack_path = data_dir + "/acked.ids";

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) kill_mode_child(plan, data_dir, ack_path);

  // Let the child make some progress, then kill it without warning. The
  // delay shifts where the kill lands run to run; the invariants below
  // hold wherever it falls.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(20 + static_cast<int>(seed % 7) * 15));
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);

  std::set<std::uint64_t> acked;
  {
    std::ifstream in(ack_path);
    std::uint64_t id;
    while (in >> id) acked.insert(id);
  }

  serve::SchedulerOptions opts = plan.options;
  opts.data_dir = data_dir;
  serve::Scheduler sched(opts);
  const auto rep = sched.recover();
  for (const std::uint64_t id : acked) {
    if (!sched.state(id).has_value()) {
      std::printf("FAIL kill-seed %llu: acknowledged job %llu lost\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(id));
      return 1;
    }
  }
  sched.start();
  sched.drain();
  sched.shutdown();

  std::size_t completed = 0;
  for (const std::uint64_t id : acked) {
    if (*sched.state(id) != serve::JobState::Completed) {
      std::printf("FAIL kill-seed %llu: job %llu ended %s\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(id),
                  to_string(*sched.state(id)));
      return 1;
    }
    const serve::JobResult got = *sched.result(id);
    const serve::JobSpec spec = serve::parse_job_spec(plan.specs[id - 1]);
    obs::MetricsRegistry reg;
    core::Engine oracle(spec.config, &reg);
    while (oracle.generation() < spec.config.generations) oracle.step();
    if (got.table_hash != oracle.population().table_hash()) {
      std::printf("FAIL kill-seed %llu: job %llu table diverged\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(id));
      return 1;
    }
    ++completed;
  }
  if (verbose) {
    std::printf("ok   kill-seed %llu: killed pid mid-run, recovered "
                "replayed=%zu requeued=%zu, %zu/%zu acked jobs completed "
                "bit-identical\n",
                static_cast<unsigned long long>(seed), rep.replayed,
                rep.requeued, completed, acked.size());
  }
  std::printf("egtd kill soak: seed %llu ok (%zu jobs verified after real "
              "SIGKILL)\n",
              static_cast<unsigned long long>(seed), completed);
  return 0;
}

int run_smoke(std::size_t njobs, const std::string& data_dir) {
  fs::remove_all(data_dir);
  serve::SchedulerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = njobs;  // exactly fits; one extra must be shed
  opts.data_dir = data_dir;
  obs::MetricsRegistry metrics;
  opts.metrics = &metrics;
  serve::Scheduler sched(opts);
  sched.start();

  serve::JobSpec spec;
  spec.config.ssets = 6;
  spec.config.memory = 1;
  spec.config.generations = 3;
  spec.config.fitness_mode = core::FitnessMode::Sampled;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < njobs; ++i) {
    spec.tenant = std::string("t").append(std::to_string(i % 7));
    spec.config.seed = 1000 + i;
    const serve::SubmitOutcome out =
        sched.submit(serve::job_spec_to_json(spec));
    if (!out.accepted) {
      std::printf("FAIL smoke: job %zu rejected (%s) under capacity\n", i,
                  out.rejected.c_str());
      return 1;
    }
    ++accepted;
  }
  // The queue is now exactly full (less whatever already finished); an
  // overfull burst must shed, not wedge. Retry until the bound is visibly
  // enforced or everything drained.
  const serve::SubmitOutcome overflow =
      sched.submit(serve::job_spec_to_json(spec));
  const bool shed = !overflow.accepted && overflow.rejected == "capacity";
  sched.drain();
  sched.shutdown();
  std::size_t completed = 0;
  for (const serve::JobStatus& js : sched.statuses()) {
    if (js.state == serve::JobState::Completed) ++completed;
  }
  if (completed < accepted) {
    std::printf("FAIL smoke: %zu accepted, only %zu completed\n", accepted,
                completed);
    return 1;
  }
  std::printf("egtd smoke: %zu concurrent jobs completed over %u workers "
              "(overflow %s)\n",
              completed, opts.workers,
              shed ? "load-shed as rejected: capacity"
                   : "absorbed by early finishers");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Cli cli("egtd_soak", "chaos soak for the egtd job scheduler");
    auto start = cli.opt<std::uint64_t>("start", 1, "first seed");
    auto count = cli.opt<std::uint64_t>("count", 0, "seeds to run");
    auto kill_seed = cli.opt<std::uint64_t>(
        "kill-seed", 0,
        "fork a real scheduler process, SIGKILL it mid-run, recover and "
        "verify (0 = off)");
    auto smoke = cli.opt<std::int64_t>(
        "smoke-jobs", 0, "concurrent-job smoke with this many jobs (0 = off)");
    auto data_dir = cli.opt<std::string>("data-dir", "egtd_soak.data",
                                         "scratch data dir (wiped)");
    auto verbose = cli.flag("verbose", "per-seed detail");
    cli.parse(argc, argv);

    int rc = 0;
    if (*count > 0) {
      rc |= run_seed_sweep(*start, *count, *data_dir, *verbose);
    }
    if (*kill_seed != 0) {
      rc |= run_kill_seed(*kill_seed, *data_dir, *verbose);
    }
    if (*smoke > 0) {
      rc |= run_smoke(static_cast<std::size_t>(*smoke), *data_dir);
    }
    if (*count == 0 && *kill_seed == 0 && *smoke == 0) {
      std::fprintf(stderr,
                   "nothing to do: pass --count, --kill-seed or "
                   "--smoke-jobs\n");
      return 2;
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
