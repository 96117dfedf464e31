#!/usr/bin/env python3
"""Layer-ledger benchmark of egtsim: build, run one workload, report.

    python3 perfbench/run.py --workload sampled_m6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 10 [--workload W ...]   # spread vs bounds
    python3 perfbench/run.py --write-spec                     # BENCHMARK.json
    python3 perfbench/run.py --selftest                       # benchmark's tests

Run from the repository root. The first call builds the library from src/
and the `ledger` program into $CARGO_TARGET_DIR (default .bench_build). A
run prints a provenance line, then as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The benchmark definition; BENCHMARK.json is written from it.
SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {"name": "sampled_m6",
         "why": "paper IPD: memory-6 pure, 2% noise, 256 SSets, sampled play on "
                "run_parallel at 4 ranks vs 1; the game kernel is nearly all "
                "the work, comm is ~200 B/generation"},
        {"name": "analytic_churn_ft",
         "why": "analytic mixed memory-1 (Mem1Markov + dedup), 1024 SSets, pc 1.0, "
                "mu 0.2 on run_parallel_ft at 4 ranks: column refresh, ft star "
                "protocol, decision log, block checkpoints"},
        {"name": "egtd_mix",
         "why": "serve::Scheduler, 2 workers, open loop at a pinned Poisson 6 "
                "jobs/s (~20% of capacity), 3 tenants: 128-SSet jobs under "
                "fair share, preemption, checkpoint resume, fsync"},
    ],
    "end_to_end": [
        {"name": "gens_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [],  # filled from PER_LAYER below
}

# Per-layer metrics of a --trace 1 run (name, unit); keep in step with
# kLayerMetrics / kLedgerLayers in ledger.cpp.
PER_LAYER = [
    ("game.route.sampled_stream.pairs", "count"),
    ("game.route.mem1_markov.pairs", "count"),
    ("game.route.pure_exact.pairs", "count"),
    ("game.route.nway_spec.pairs", "count"),
    ("game.sampled_stream.ns_per_pair", "ns"),
    ("game.mem1_markov.ns_per_pair", "ns"),
    ("game.pure_exact.ns_per_pair", "ns"),
    ("fitness.initialize_s", "s"),
    ("fitness.game_play_s", "s"),
    ("fitness.apply_update_s", "s"),
    ("fitness.pairs_evaluated", "count"),
    ("fitness.games_played", "count"),
    ("fitness.dedup_hit_ratio", "ratio"),
    ("fitness.cache_inserts", "count"),
    ("fitness.cache_prunes", "count"),
    ("nature.plan_s", "s"),
    ("nature.decision_s", "s"),
    ("engine.pc_events", "count"),
    ("engine.mutations", "count"),
    ("engine.adoptions", "count"),
    ("comm.bcast_bytes_per_gen", "B"),
    ("comm.p2p_bytes_per_gen", "B"),
    ("comm.messages_per_gen", "count"),
    ("comm.recv_wait_s", "s"),
    ("comm.rank_busy_imbalance", "ratio"),
    ("par.scaling_eff", "ratio"),
    ("parallel.plan_bcast_s", "s"),
    ("parallel.fitness_return_s", "s"),
    ("parallel.decision_bcast_s", "s"),
    ("ft.log.bytes", "B"),
    ("ft.log.appends", "count"),
    ("ft.checkpoint.writes", "count"),
    ("ft.checkpoint.bytes", "B"),
    ("ft.checkpoint_s", "s"),
    ("ft.resends", "count"),
    ("ft.false_alarms", "count"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_latency_p90_s", "s"),
    ("proc.peak_rss_mb", "MB"),
    ("serve.submit_latency_p50_ms", "ms"),
    ("serve.submit_latency_p90_ms", "ms"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p90_s", "s"),
    ("serve.attempt_run_s", "s"),
    ("serve.preemptions", "count"),
    ("serve.jobs_resumed", "count"),
    ("serve.generator_lag_p90_ms", "ms"),
    ("ckpt.job_bytes_mean", "B"),
    ("ckpt.encode_s", "s"),
    ("ckpt.resume_s", "s"),
    ("journal.records", "count"),
    ("journal.bytes", "B"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.trace_dropped_events", "count"),
    ("ledger.wall_s", "s"),
    ("ledger.residual_s", "s"),
    ("layers.unaccounted_frac", "ratio"),
] + [("ledger.%s_s" % layer, "s") for layer in (
    "fitness.game_play", "fitness.apply_update", "nature.plan",
    "nature.decision", "par.fitness_return", "comm.send", "comm.recv_wait",
    "engine.loop", "ft.checkpoint", "ft.recovery", "pool",
    "serve.engine_setup", "ckpt.resume", "ckpt.commit", "journal.complete",
    "serve.worker_idle", "other")]

# Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = {"fitness.dedup_hit_ratio", "serve.jobs_per_s",
                    "par.scaling_eff"}


def spec():
    s = dict(SPEC)
    s["per_layer"] = [
        {"name": n, "unit": u,
         "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
        for n, u in PER_LAYER]
    return s


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    """Configure (once) and build; False when there is nothing to build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no egt source tree (src/CMakeLists.txt) next to perfbench/")
        return False
    cmake_dir = os.path.join(build_dir(), "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def filesystem_of(path):
    """Filesystem type of the mount holding `path` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 3 and (path == parts[1] or path.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def git_describe():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def failure(why):
    log(why)
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_once(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (provenance, result)."""
    data_dir = os.path.join(build_dir(), "egtd_data")
    exe = os.path.join(build_dir(), "cmake", "ledger")
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--data-dir", data_dir,
           "--deadline", "160"]
    provenance = {"workload": workload, "seed": seed, "trace": trace,
                  "git_describe": git_describe(), "build_type": "Release",
                  "nproc": os.cpu_count(),
                  "data_dir_fs": filesystem_of(build_dir()),
                  "env_force_scalar": os.environ.get("EGT_FORCE_SCALAR", "")}
    try:
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        return provenance, failure("%s passed the 170 s process deadline; "
                                   "killed" % workload)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    for line in lines[:-1]:
        try:
            provenance.update(json.loads(line).get("provenance", {}))
        except ValueError:
            pass
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return provenance, failure("%s exited %d without a result" %
                                   (workload, out.returncode))
    if out.returncode != 0:
        result["correct"] = False
    return provenance, result


def steady(args, s):
    """Run each workload on N seeds; report each end-to-end metric's median
    and quartiles against its bound. Exit 1 when a spread is over its bound
    (set-up time excepted, as its spread is not gated)."""
    names = args.workload or [w["name"] for w in s["workloads"]]
    metrics = s["end_to_end"]
    bad, samples = [], {}
    for w in names:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.steady):
            _, res = run_once(w, seed, args.seconds or s["run_seconds"], 0)
            if not res["correct"] or res["failed"]:
                bad.append("%s seed %d: failed run" % (w, seed))
            for m in metrics:
                if m["name"] in res["metrics"]:
                    values[m["name"]].append(res["metrics"][m["name"]]["value"])
            log("%s seed %d done" % (w, seed))
        samples[w] = values
        print("%s (%d seeds)" % (w, args.steady))
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                bad.append("%s %s: too few values" % (w, m["name"]))
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            gated = m["name"] != "setup_s"
            over = gated and spread > m["bound"]
            print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
                  "bound %4.0f%%%s" % (m["name"], med, q1, q3, 100 * spread,
                                      100 * m["bound"],
                                      "  OVER" if over else ("" if gated else
                                                             "  (not gated)")))
            if over:
                bad.append("%s %s: spread %.1f%% > bound %.0f%%" % (
                    w, m["name"], 100 * spread, 100 * m["bound"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(samples, f, indent=1)
    for b in bad:
        print("STEADINESS FAIL: " + b)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="steadiness mode: N seeds per workload")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="steadiness mode: write raw values here")
    p.add_argument("--write-spec", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    s = spec()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(s, f, indent=2)
            f.write("\n")
        return 0
    if args.selftest:
        if not build(["ledger_test"]):
            return 1
        return subprocess.run([os.path.join(build_dir(), "cmake",
                                            "ledger_test")]).returncode
    if not build(["ledger"]):
        return 1
    if args.steady:
        return steady(args, s)
    if not args.workload or len(args.workload) != 1:
        p.error("--workload NAME is required (exactly one)")
    workload = args.workload[0]
    if workload not in [w["name"] for w in s["workloads"]]:
        p.error("unknown workload " + workload)
    provenance, result = run_once(workload, args.seed,
                                  args.seconds or s["run_seconds"], args.trace)
    wanted = s["per_layer"] if args.trace else s["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if result["correct"] and missing:
        result["correct"] = False
        log("missing metrics: " + ", ".join(missing))
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
