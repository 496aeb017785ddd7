#!/usr/bin/env python3
"""Benchmark of the BFC simulator: build, run one workload, check, report.

Run from the root of a checkout:

  python3 perfbench/run.py --workload t1_incast --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --steadiness [--workloads a,b] [--seeds 1,2,3]
  python3 perfbench/run.py --self-test

A measured run builds perfbench/ (and bfc_core from src/) into
$CARGO_TARGET_DIR (default .bench_build), runs the runner with every
inherited BFC_* variable cleared, prints each metric by name with its
unit, and ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(from a run that alternates untraced and traced repetitions). A failed
output check prints correct=false and exits 1; a build or usage error
exits 2 without a result line. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (unit, better, bound). Must match BENCHMARK.json (the self-test
# checks it).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_norm_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "flows_completed_frac": ("fraction", "higher", 0.01),
    "short_p99_slowdown": ("x", "lower", 0.25),
    "long_mean_slowdown": ("x", "lower", 0.15),
}

# name -> (unit, better). Per-layer metrics have no bound; each is the
# median over the traced repetitions of a --trace 1 run.
PER_LAYER = {
    "topology.build_s": ("s", "lower"),
    "topology.partition_s": ("s", "lower"),
    "workload.replay_s": ("s", "lower"),
    "workload.arrivals": ("count", "lower"),
    "harness.construct_s": ("s", "lower"),
    "harness.collect_s": ("s", "lower"),
    "engine.traffic_s": ("s", "lower"),
    "engine.drain_s": ("s", "lower"),
    "engine.events": ("count", "lower"),
    "engine.ns_per_event": ("ns", "lower"),
    "engine.events_per_s": ("1/s", "higher"),
    "engine.shard_imbalance": ("ratio", "lower"),
    "engine.events_stolen": ("count", "lower"),
    "engine.inbox_overflows": ("count", "lower"),
    "engine.clock_waits": ("count", "lower"),
    "engine.clock_wait_ns": ("ns", "lower"),
    "engine.ring_flush_events": ("count", "lower"),
    "engine.steal_batches": ("count", "lower"),
    "engine.wheel_hw": ("count", "lower"),
    "engine.inbox_hw": ("count", "lower"),
    "engine.arena_blocks_hw": ("count", "lower"),
    "switch.ports_hw": ("count", "lower"),
    "switch.table_chunks": ("count", "lower"),
    "switch.reclaim_sweeps": ("count", "lower"),
    "switch.bfc_pauses": ("count", "lower"),
    "switch.bfc_resumes": ("count", "lower"),
    "switch.collision_frac": ("fraction", "lower"),
    "switch.buffer_p99_mb": ("MB", "lower"),
    "switch.pfc_frac": ("fraction", "lower"),
    "switch.drops": ("count", "lower"),
    "nic.class_transitions": ("count", "lower"),
    "nic.receiver_slots_hw": ("count", "lower"),
    "fault.reroutes": ("count", "lower"),
    "fault.parks": ("count", "lower"),
    "fault.blackholed": ("count", "lower"),
    "snapshot.save_s": ("s", "lower"),
    "snapshot.restore_s": ("s", "lower"),
    "snapshot.resave_s": ("s", "lower"),
    "snapshot.image_mb": ("MB", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}

WORKLOADS = ["t1_incast", "t3_scale", "t3_fault_warm"]


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


# ---- build ------------------------------------------------------------------

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(targets):
    """Configures (once) and builds `targets`; returns the build directory.
    Raises RuntimeError when the sources are missing or the build fails."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no BFC source tree (src/ and CMakeLists.txt) "
                           f"at {ROOT}")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "perfbench_build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target"]
                 + list(targets))
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=clean_env()).returncode != 0:
                tail = logfile.read_text(errors="replace").splitlines()[-30:]
                raise RuntimeError("build failed: " + " ".join(cmd) + "\n"
                                   + "\n".join(tail))
    return bdir


def clean_env():
    """The caller's environment minus every BFC_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("BFC_")}


# ---- one run ----------------------------------------------------------------

def run_runner(bdir, workload, seed, seconds, trace):
    """Runs the runner; returns (exit code, parsed JSON lines)."""
    out = ROOT / ".bench_out" / workload
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "bfc_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=clean_env(),
                          text=True)
    lines = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            lines.append(json.loads(line))
    return proc.returncode, lines


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0], xs[0]) if xs else (0.0, 0.0, 0.0)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[1], q[2]


def evaluate(code, lines, trace):
    """Turns the runner's lines into (result, info). The result is the
    final JSON line's object; info carries the digest, sample counts
    and environment."""
    reps = [d for d in lines if "rep" in d]
    summary = next((d["summary"] for d in lines if "summary" in d), None)
    env = next((d["env"] for d in lines if "env" in d), {})
    failed_checks = [c for d in reps for c in d["failed_checks"]]
    correct = (code == 0 and summary is not None and bool(reps)
               and not failed_checks)
    started = int(summary["flows_started"]) if summary else 0
    completed = int(summary["flows_completed"]) if summary else 0
    correct = correct and 0 < completed <= started
    metrics = {}
    if correct and trace == 0:
        vals = {
            "setup_s": median([d["values"]["setup_s"] for d in reps]),
            "wall_norm_s": median(
                [d["values"]["wall_norm_s"] for d in reps]),
            "peak_rss_mb": max(d["values"]["peak_rss_mb"] for d in reps),
            "flows_completed_frac": completed / started,
            "short_p99_slowdown": summary["short_p99_slowdown"],
            "long_mean_slowdown": summary["long_mean_slowdown"],
        }
        metrics = {k: {"value": vals[k], "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    elif correct:
        traced = [d for d in reps if d["traced"]]
        correct = bool(traced)
        vals = {k: median([d["values"][k] for d in traced])
                for k in PER_LAYER if k != "obs.trace_overhead"}
        vals["obs.trace_overhead"] = trace_overhead(reps)
        metrics = {k: {"value": vals[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
    result = {"correct": bool(correct), "attempted": max(1, started),
              "failed": max(0, started - completed), "metrics": metrics}
    info = {"sim_digest": summary["sim_digest"] if summary else None,
            "repetitions": len(reps),
            "wall_s_median": median([d["values"]["wall_s"] for d in reps]),
            "reference_ms_median": median(
                [d["values"]["reference_ms"] for d in reps]),
            "sub_runs": summary["sub_runs"] if summary else 0,
            "flows_started": started, "flows_completed": completed,
            "short_n": summary["short_n"] if summary else 0,
            "long_n": summary["long_n"] if summary else 0,
            "failed_checks": failed_checks, "runner_exit": code, "env": env}
    return result, info


def trace_overhead(reps):
    """Median over (untraced, traced) pairs of one sub-run of
    traced wall_norm_s / untraced wall_norm_s, minus 1."""
    ratios = []
    for a, b in zip(reps, reps[1:]):
        if (not a["traced"] and b["traced"] and a["sub_run"] == b["sub_run"]
                and a["values"]["wall_norm_s"] > 0):
            ratios.append(b["values"]["wall_norm_s"]
                          / a["values"]["wall_norm_s"])
    return median(ratios) - 1 if ratios else 0.0


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def measure(bdir, workload, seed, seconds, trace):
    code, lines = run_runner(bdir, workload, seed, seconds, trace)
    result, info = evaluate(code, lines, trace)
    info.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                git_commit=git_commit())
    return result, info


def print_report(result, info):
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("info: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)


# ---- steadiness -------------------------------------------------------------

def spread(xs):
    q1, med, q3 = quartiles(xs)
    return (q3 - q1) / med if med else math.inf


def worse_by(a_med, b_med, better):
    """How much worse median b is than median a, as a share of a."""
    if a_med == 0:
        return 0.0 if b_med == a_med else math.inf
    d = (b_med - a_med) / a_med
    return d if better == "lower" else -d


def compare_sets(set_a, set_b):
    """set_x: {metric: [values]}. Returns per-metric rows and overall ok."""
    rows, ok = {}, True
    for name, (unit, better, bound) in END_TO_END.items():
        a, b = set_a.get(name, []), set_b.get(name, [])
        qa, qb = quartiles(a), quartiles(b)
        sa, sb = spread(a), spread(b)
        drift = max(worse_by(qa[1], qb[1], better),
                    worse_by(qb[1], qa[1], better))
        spread_ok = name == "setup_s" or (sa <= bound and sb <= bound)
        agree = spread_ok and drift <= bound
        ok = ok and agree
        rows[name] = {"unit": unit, "bound": bound,
                      "a": {"q1": qa[0], "median": qa[1], "q3": qa[2],
                            "spread": sa},
                      "b": {"q1": qb[0], "median": qb[1], "q3": qb[2],
                            "spread": sb},
                      "drift": drift, "agree": agree,
                      "spread_below_third": sa <= bound / 3 and sb <= bound / 3}
    return rows, ok


def steadiness(bdir, workloads, seeds, seconds):
    """Two interleaved sets of runs on the same seeds; per metric and
    workload, both sets' quartiles and whether they agree within the
    metric's bound, plus the sim_digest identity across the sets."""
    report, all_ok = {}, True
    for w in workloads:
        sets = {"a": {}, "b": {}}
        digests = {"a": {}, "b": {}}
        correct = True
        for i, seed in enumerate(seeds):
            for s in (("a", "b") if i % 2 == 0 else ("b", "a")):
                result, info = measure(bdir, w, seed, seconds, 0)
                log(f"[{w} seed {seed} set {s}] correct={result['correct']} "
                    + " ".join(f"{k}={m['value']:.5g}"
                               for k, m in result["metrics"].items()))
                correct = correct and result["correct"]
                digests[s][seed] = info["sim_digest"]
                for k, m in result["metrics"].items():
                    sets[s].setdefault(k, []).append(m["value"])
        rows, ok = compare_sets(sets["a"], sets["b"])
        digest_ok = digests["a"] == digests["b"]
        all_ok = all_ok and ok and digest_ok and correct
        report[w] = {"metrics": rows, "digests_identical": digest_ok,
                     "all_correct": correct, "seeds": seeds,
                     "seconds": seconds}
        print(f"\n{w}: digests identical across sets: {digest_ok}; "
              f"all runs correct: {correct}")
        print(f"  {'metric':22} {'unit':8} {'bound':>6} "
              f"{'A q1/med/q3':>30} {'A spr':>6} {'B q1/med/q3':>30} "
              f"{'B spr':>6} {'drift':>7} agree")
        for name, r in rows.items():
            a, b = r["a"], r["b"]
            print(f"  {name:22} {r['unit']:8} {r['bound']:6.3f} "
                  f"{a['q1']:9.5g}/{a['median']:9.5g}/{a['q3']:9.5g} "
                  f"{a['spread']:6.3f} "
                  f"{b['q1']:9.5g}/{b['median']:9.5g}/{b['q3']:9.5g} "
                  f"{b['spread']:6.3f} {r['drift']:7.3f} {r['agree']}")
    out = ROOT / ".bench_out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nsteadiness report: {out}; all agree: {all_ok}")
    return all_ok


# ---- main -------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the
    # runner it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.self_test:
        return self_test()
    if not args.steadiness and args.workload is None:
        ap.error("--workload is required")
    try:
        bdir = build(["bfc_perfbench"])
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 2
    if args.steadiness:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        workloads = [w for w in args.workloads.split(",") if w]
        return 0 if steadiness(bdir, workloads, seeds, args.seconds) else 1
    result, info = measure(bdir, args.workload, args.seed, args.seconds,
                           args.trace)
    print_report(result, info)
    return 0 if result["correct"] else 1


def self_test():
    """Python unit tests of this file, then the C++ self-test."""
    import unittest
    sys.path.insert(0, str(HERE))
    suite = unittest.defaultTestLoader.loadTestsFromName("test_run")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    try:
        bdir = build(["perfbench_selftest"])
    except RuntimeError as e:
        log(f"perfbench: {e}")
        return 2
    return subprocess.run([str(bdir / "perfbench_selftest")],
                          env=clean_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
