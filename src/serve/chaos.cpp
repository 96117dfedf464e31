#include "serve/chaos.hpp"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "core/trace.hpp"
#include "game/spec/registry.hpp"
#include "obs/metrics.hpp"
#include "serve/jobspec.hpp"
#include "util/rng.hpp"

namespace egt::serve {
namespace fs = std::filesystem;

namespace {

using util::pick;
using util::pick_real;

constexpr const char* kTenants[] = {"alice", "bob", "carol"};

/// Presets safe under every schedule. Analytic is drawn only for the
/// 2-action iterated presets (group play and one-shot games stay on the
/// sampled paths the whole engine test matrix exercises for them).
constexpr const char* kIteratedPresets[] = {"ipd", "hawk_dove", "snowdrift",
                                            "stag_hunt"};
constexpr const char* kOtherPresets[] = {"rps", "pgg"};

}  // namespace

ServeChaosSchedule make_serve_schedule(std::uint64_t seed) {
  util::Xoshiro256 rng(util::mix64(seed ^ 0x5e4ced5c4edull));
  ServeChaosSchedule s;

  const std::size_t njobs = pick(rng, 3, 6);
  const std::size_t ntenants = pick(rng, 2, 3);

  s.options.workers = static_cast<unsigned>(pick(rng, 1, 2));
  s.options.queue_capacity = njobs + 2;  // admission rejects tested apart
  s.options.slice_generations = pick(rng, 0, 1) == 0 ? 0 : pick(rng, 2, 5);
  s.options.max_attempts = 4;
  s.options.backoff_base_seconds = 0.001;  // keep retry storms fast
  s.options.metrics_stream_every = pick(rng, 0, 1) == 0 ? 0 : 2;

  std::ostringstream sum;
  sum << "seed " << seed << ": jobs=" << njobs
      << " workers=" << s.options.workers
      << " slice=" << s.options.slice_generations;

  for (std::size_t i = 0; i < njobs; ++i) {
    JobSpec spec;
    spec.tenant = kTenants[pick(rng, 0, ntenants - 1)];
    const bool iterated = pick(rng, 0, 3) != 0;
    const char* preset =
        iterated ? kIteratedPresets[pick(rng, 0, std::size(kIteratedPresets) -
                                                     1)]
                 : kOtherPresets[pick(rng, 0, std::size(kOtherPresets) - 1)];
    spec.config.game = *game::find_game(preset);
    spec.config.ssets = static_cast<int>(pick(rng, 6, 12));
    spec.config.memory = iterated ? 1 : 0;  // one-shot/group games: memory 0
    spec.config.generations = pick(rng, 8, 20);
    spec.config.pc_rate = pick_real(rng, 0.2, 0.6);
    spec.config.mutation_rate = pick_real(rng, 0.05, 0.3);
    spec.config.seed = util::mix64(seed * 131 + i + 1);
    if (iterated && pick(rng, 0, 2) == 0) {
      spec.config.fitness_mode = core::FitnessMode::Analytic;
    } else if (pick(rng, 0, 2) == 0) {
      spec.config.fitness_mode = core::FitnessMode::SampledFrozen;
    } else {
      spec.config.fitness_mode = core::FitnessMode::Sampled;
    }
    s.specs.push_back(job_spec_to_json(spec));

    // Faults: strictly fewer per job than max_attempts, so every job that
    // is not cancelled must end Completed — a Failed job is a soak bug.
    const std::uint64_t job_id = i + 1;
    const std::uint64_t nfaults = pick(rng, 0, 2);
    for (std::uint64_t f = 0; f < nfaults; ++f) {
      const std::uint64_t gen = pick(rng, 0, spec.config.generations - 1);
      const auto action = pick(rng, 0, 1) == 0 ? Scheduler::FaultAction::Kill
                                               : Scheduler::FaultAction::Expire;
      s.faults[job_id][gen] = action;
    }
    sum << " j" << job_id << "=" << preset << "/g" << spec.config.generations
        << "/f" << s.faults.count(job_id);
  }

  s.stop_after_completed = pick(rng, 0, njobs);
  s.tear_journal_tail = pick(rng, 0, 1) == 0;
  if (pick(rng, 0, 2) == 0) s.cancel_job = pick(rng, 1, njobs);
  sum << " stop@" << s.stop_after_completed
      << (s.tear_journal_tail ? " torn" : "");
  if (s.cancel_job != 0) sum << " cancel=j" << s.cancel_job;
  s.summary = sum.str();
  return s;
}

namespace {

/// Thread-safe observation of scheduler events plus one-shot fault
/// injection, shared by both scheduler phases of a soak run.
struct SoakState {
  std::mutex mu;
  std::map<std::uint64_t, std::map<std::uint64_t, Scheduler::FaultAction>>
      pending_faults;
  std::set<std::uint64_t> completed;  ///< durably acknowledged (event seen)
  std::set<std::uint64_t> terminal;   ///< completed + failed + cancelled
  std::set<std::uint64_t> phase2_started;
  std::uint64_t retries = 0;
  std::uint64_t preemptions = 0;
  bool phase2 = false;

  Scheduler::FaultAction consume_fault(std::uint64_t job_id,
                                       std::uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = pending_faults.find(job_id);
    if (it == pending_faults.end()) return Scheduler::FaultAction::None;
    auto gt = it->second.find(generation);
    if (gt == it->second.end()) return Scheduler::FaultAction::None;
    const Scheduler::FaultAction action = gt->second;
    it->second.erase(gt);
    return action;
  }

  void on_event(const JobEvent& ev) {
    std::lock_guard<std::mutex> lock(mu);
    switch (ev.kind) {
      case JobEvent::Kind::Completed:
        completed.insert(ev.job_id);
        terminal.insert(ev.job_id);
        break;
      case JobEvent::Kind::Failed:
      case JobEvent::Kind::Cancelled:
        terminal.insert(ev.job_id);
        break;
      case JobEvent::Kind::Retrying:
        ++retries;
        break;
      case JobEvent::Kind::Preempted:
        ++preemptions;
        break;
      case JobEvent::Kind::Started:
        if (phase2) phase2_started.insert(ev.job_id);
        break;
      default:
        break;
    }
  }

  std::size_t completed_count() {
    std::lock_guard<std::mutex> lock(mu);
    return completed.size();
  }
  std::size_t terminal_count() {
    std::lock_guard<std::mutex> lock(mu);
    return terminal.size();
  }
};

void wire(Scheduler& sched, SoakState& state) {
  sched.set_fault_hook([&state](std::uint64_t id, std::uint64_t gen) {
    return state.consume_fault(id, gen);
  });
  sched.set_event_sink([&state](const JobEvent& ev) { state.on_event(ev); });
}

/// Append half a record frame, as a crash mid-append would leave.
void tear_tail(const std::string& wal) {
  std::ofstream out(wal, std::ios::binary | std::ios::app);
  const std::uint32_t magic = kRecordMagic;
  const std::uint32_t len = 64;
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&len), sizeof len);
  out.write("torn", 4);  // 60 payload bytes and the CRC never made it
}

bool fitness_bits_equal(const std::vector<double>& a,
                        const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

ServeChaosOutcome run_serve_schedule(std::uint64_t seed,
                                     const std::string& data_dir) {
  ServeChaosOutcome out;
  const ServeChaosSchedule plan = make_serve_schedule(seed);
  out.detail = plan.summary;
  try {
    fs::remove_all(data_dir);
    fs::create_directories(data_dir);

    SoakState state;
    state.pending_faults = plan.faults;
    const std::size_t njobs = plan.specs.size();

    // Phase 1: run under fault injection, then die without warning.
    SchedulerOptions opts = plan.options;
    opts.data_dir = data_dir;
    {
      Scheduler sched(opts);
      wire(sched, state);
      sched.start();
      for (std::size_t i = 0; i < njobs; ++i) {
        const SubmitOutcome sub = sched.submit(plan.specs[i]);
        if (!sub.accepted || sub.job_id != i + 1) {
          out.detail += " | submit " + std::to_string(i + 1) +
                        " rejected: " + sub.rejected;
          return out;
        }
      }
      if (plan.cancel_job != 0) sched.cancel(plan.cancel_job);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (state.completed_count() < plan.stop_after_completed &&
             state.terminal_count() < njobs) {
        if (std::chrono::steady_clock::now() > deadline) {
          out.detail += " | phase 1 stalled";
          return out;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      sched.hard_stop();
    }
    const std::set<std::uint64_t> acked_completed = state.completed;
    const std::set<std::uint64_t> acked_terminal = state.terminal;

    if (plan.tear_journal_tail) tear_tail(data_dir + "/jobs.wal");

    // Phase 2: recover and drain the survivors.
    state.phase2 = true;
    Scheduler sched(opts);
    wire(sched, state);
    const Scheduler::RecoveryReport rep = sched.recover();
    out.requeued = rep.requeued;
    if (plan.tear_journal_tail && !rep.truncated_tail) {
      out.detail += " | torn tail not detected on replay";
      return out;
    }
    for (const std::uint64_t id : acked_completed) {
      if (sched.state(id) != JobState::Completed) {
        out.detail += " | acknowledged completion of job " +
                      std::to_string(id) + " lost across restart";
        return out;
      }
    }
    for (std::size_t i = 1; i <= njobs; ++i) {
      if (!sched.state(i).has_value()) {
        out.detail +=
            " | acknowledged job " + std::to_string(i) + " lost across restart";
        return out;
      }
    }
    sched.start();
    sched.drain();
    sched.shutdown();

    // No job acknowledged terminal before the kill may have run again.
    for (const std::uint64_t id : acked_terminal) {
      if (state.phase2_started.count(id) != 0) {
        out.detail += " | terminal job " + std::to_string(id) +
                      " was dispatched again after restart";
        return out;
      }
    }

    // Every surviving job must have completed; compare each against an
    // undisturbed serial run of the same spec.
    for (std::size_t i = 1; i <= njobs; ++i) {
      const JobState st = *sched.state(i);
      if (st == JobState::Cancelled) {
        if (plan.cancel_job != i) {
          out.detail += " | job " + std::to_string(i) + " cancelled unasked";
          return out;
        }
        continue;
      }
      if (st != JobState::Completed) {
        out.detail += " | job " + std::to_string(i) +
                      " ended " + to_string(st);
        for (const JobStatus& js : sched.statuses()) {
          if (js.id == i && !js.failure.empty()) {
            out.detail += " (" + js.failure + ")";
          }
        }
        return out;
      }
      const JobResult got = *sched.result(i);
      const JobSpec spec = parse_job_spec(plan.specs[i - 1]);
      obs::MetricsRegistry reg;
      core::Engine oracle(spec.config, &reg);
      while (oracle.generation() < spec.config.generations) oracle.step();
      const auto fit = oracle.population().fitness();
      const std::vector<double> want_fitness(fit.begin(), fit.end());
      if (got.table_hash != oracle.population().table_hash()) {
        out.detail += " | job " + std::to_string(i) + " table diverged";
        return out;
      }
      if (!fitness_bits_equal(got.fitness, want_fitness) ||
          got.fitness_hash != core::hash_fitness(fit)) {
        out.detail += " | job " + std::to_string(i) + " fitness diverged";
        return out;
      }
      if (got.counters != core::counters_from(reg.snapshot())) {
        out.detail += " | job " + std::to_string(i) + " counters diverged";
        return out;
      }
      ++out.completed;
    }
    out.retries = state.retries;
    out.preemptions = state.preemptions;
    out.ok = true;
  } catch (const std::exception& e) {
    out.detail += std::string(" | threw: ") + e.what();
    out.ok = false;
  }
  return out;
}

}  // namespace egt::serve
