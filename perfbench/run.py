#!/usr/bin/env python3
"""End-to-end simulator benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tcp_infinite --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one after another

Builds perfbench/ (a CMake project over src/) in Release if needed, then runs
e2e_bench repetitions of one workload, one process each and single-threaded,
for --seconds seconds.  Each repetition is a full paper-length run: set-up,
the 902 simulated seconds in 0.5 s run_until steps, truth and every estimator
call.  The first repetition always uses the workload's default seed, whose
outputs are pinned in perfbench/expected.json; the second uses --seed itself;
the rest use seeds derived from --seed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each seed three
times (untraced, traced with a Chrome/Perfetto span file, hashed under
core::HashScope) and prints the per-layer metrics.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before it
are a human-readable table and the run manifest.  Build output goes to
stderr.  Exit status: 0 with a result, 1 when the benchmark could not build
or run at all (no result printed), 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

DEFAULT_SEED = 7  # run.seed of every workload spec; its outputs are pinned
MIN_REPS = 3

# Fig 9 re-analysis grid: alpha x tau (ms).
FIG9_GRID = (["0.05", "0.1", "0.2"], ["20", "40", "80"])
WORKLOADS = {
    "tcp_infinite": {"grid": None},
    "web_sessions": {"grid": None},
    "cbr_fig9": {"grid": FIG9_GRID},
}


def med(values):
    return statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, value from the untraced repetitions)
def end_to_end(plain, canary):
    truth = canary["truth"]
    return {
        "setup_s": ("s", med(r["setup_s"] for r in plain)),
        "sim_s_per_s": ("s/s", med(r["sim_s"] / r["run_s"] for r in plain)),
        "estimate_s": ("s", med(r["estimate_s"] for r in plain)),
        "wall_s": ("s", med(r["setup_s"] + r["run_s"] + r["estimate_s"] for r in plain)),
        "peak_rss_mb": ("MB", med(r["peak_rss_kb"] / 1024.0 for r in plain)),
        # Accuracy against the simulator's ground-truth taps, at the default
        # seed and marking: the pinned repetition every run makes.
        "freq_abs_err": ("fraction", abs(canary["f_hat"] - truth["frequency"])),
        "dur_rel_err": ("ratio",
                        ratio(abs(canary["d_hat_s"] - truth["mean_duration_s"]),
                              truth["mean_duration_s"])),
    }


# name -> (unit, value of one traced repetition); the median is reported.
PER_LAYER = {
    "sim.events": ("count", lambda r: r["events"]),
    "sim.cancel_ratio": ("ratio", lambda r: ratio(r["cancelled"], r["events"] + r["cancelled"])),
    "sim.events_per_pkt": ("ratio", lambda r: ratio(r["events"], r["queue_arrivals"])),
    "sim.ns_per_event": ("ns", lambda r: ratio(r["run_s"] * 1e9, r["events"])),
    "sim.arena_slots": ("count", lambda r: r["arena_slots"]),
    "sim.step_ms_p50": ("ms", lambda r: r["step_ms_p50"]),
    "sim.step_ms_p99": ("ms", lambda r: r["step_ms_p99"]),
    "queue.arrivals": ("count", lambda r: r["queue_arrivals"]),
    "queue.drops": ("count", lambda r: r["queue_drops"]),
    "queue.departures": ("count", lambda r: r["queue_departures"]),
    "queue.loss_rate": ("ratio", lambda r: ratio(r["queue_drops"], r["queue_arrivals"])),
    "tcp.segments": ("count", lambda r: r["tcp_segments"]),
    "tcp.retransmits": ("count", lambda r: r["tcp_retransmits"]),
    "tcp.timeouts": ("count", lambda r: r["tcp_timeouts"]),
    "traffic.web.sessions": ("count", lambda r: r["web_sessions"]),
    "traffic.web.objects_started": ("count", lambda r: r["web_objects_started"]),
    "traffic.web.objects_completed": ("count", lambda r: r["web_objects_completed"]),
    "measure.truth_s": ("s", lambda r: r["truth_s"]),
    "measure.drops_total": ("count", lambda r: r["drops_total"]),
    "measure.episodes": ("count", lambda r: r["truth"]["episodes"]),
    "probes.sent": ("count", lambda r: r["probes_sent"]),
    "probes.received": ("count", lambda r: r["probe_packets_received"]),
    "probes.analyze_s": ("s", lambda r: r["analyze_s"]),
    "probes.ns_per_probe": ("ns", lambda r: ratio(r["analyze_s"] * 1e9, r["probes_sent"])),
    "core.design_s": ("s", lambda r: r["design_s"]),
    "core.grid_s": ("s", lambda r: r["grid_s"]),
    "core.stream_s": ("s", lambda r: r["stream_s"]),
    "core.reports": ("count", lambda r: r["reports"]),
    "core.ns_per_report": ("ns", lambda r: ratio(r["stream_s"] * 1e9, r["reports"])),
    "scenarios.spec_s": ("s", lambda r: r["spec_s"]),
    "scenarios.build_s": ("s", lambda r: r["build_s"]),
}

# Outputs that must not depend on tracing or hashing, and that the pins cover.
OUTPUT_KEYS = ("truth", "queue_arrivals", "queue_drops", "probes_sent", "f_hat", "d_hat_s")


def rep_seeds(seed):
    """Default seed, then --seed, then seeds derived from --seed."""
    yield DEFAULT_SEED
    if seed != DEFAULT_SEED:
        yield seed
    k = 2
    while True:
        digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
        yield int.from_bytes(digest[:4], "little") & 0x7FFFFFFF
        k += 1


def build(build_dir):
    """Configure (once) and build e2e_bench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2e_bench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    exe = build_dir / "e2e_bench"
    return exe if exe.is_file() else None


def run_rep(exe, workload, seed, mode, trace_dir):
    cmd = [str(exe), "--spec", str(BENCH_DIR / "workloads" / f"{workload}.json"),
           "--seed", str(seed)]
    grid = WORKLOADS[workload]["grid"]
    if grid:
        cmd += ["--grid-alpha", ",".join(grid[0]), "--grid-tau-ms", ",".join(grid[1])]
    if mode == "traced":
        cmd += ["--trace-out", str(trace_dir / f"{workload}-seed{seed}.json")]
    elif mode == "hashed":
        cmd += ["--hash"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        return None


def check(rep, workload, pins):
    """Problems with one repetition's outputs (empty list = correct)."""
    problems = []
    for flag in ("stream_agrees", "design_matches", "queue_conserved"):
        if not rep[flag]:
            problems.append(flag)
    if rep["steps"] != round(rep["sim_s"] / 0.5):  # 0.5 s run_until steps
        problems.append("step count")
    grid = WORKLOADS[workload]["grid"]
    if rep["grid_cells"] != (len(grid[0]) * len(grid[1]) if grid else 0):
        problems.append("grid cells")
    if rep["seed"] == DEFAULT_SEED:
        for key in OUTPUT_KEYS:
            if rep[key] != pins[key]:
                problems.append(f"pinned {key}: {rep[key]} != {pins[key]}")
    return problems


def manifest(build_dir, workload, seed, seeds):
    cache = {}
    cache_file = build_dir / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    spec = (BENCH_DIR / "workloads" / f"{workload}.json").read_bytes()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")])),
        "git_commit": commit,
        "seed": seed,
        "rep_seeds": seeds,
        "spec_sha256": hashlib.sha256(spec).hexdigest(),
    }


def measure(exe, build_dir, workload, args):
    """Repetitions of one workload for args.seconds; prints its block and
    returns the result object, or None when no repetition completed."""
    pins = json.loads((BENCH_DIR / "expected.json").read_text())[workload]
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    modes = ["plain", "traced", "hashed"] if args.trace else ["plain"]

    start = time.monotonic()
    cycles = []  # per seed: {mode: rep}
    cycle_s = []
    attempted = failed = 0
    seeds = rep_seeds(args.seed)
    while len(cycles) < MIN_REPS or (time.monotonic() - start + med(cycle_s) <= args.seconds):
        seed = next(seeds)
        t0 = time.monotonic()
        cycle = {}
        for mode in modes:
            attempted += 1
            rep = run_rep(exe, workload, seed, mode, trace_dir)
            problems = ["did not run"] if rep is None else check(rep, workload, pins)
            if rep is not None and "plain" in cycle and any(
                    rep[k] != cycle["plain"][k] for k in OUTPUT_KEYS):
                problems.append(f"{mode} outputs differ from the untraced run")
            if problems:
                failed += 1
                print(f"FAIL {workload} seed {seed} {mode}: {'; '.join(problems)}")
                continue
            cycle[mode] = rep
            print(f"rep {len(cycles)} seed {seed} {mode}: setup {rep['setup_s']:.4f} s, "
                  f"run {rep['run_s']:.3f} s, estimate {rep['estimate_s']:.3f} s, "
                  f"F^ {rep['f_hat']:.5f} (F {rep['truth']['frequency']:.5f})")
        cycle_s.append(time.monotonic() - t0)
        if len(cycle) == len(modes):
            cycles.append(cycle)
        if len(cycle_s) >= 4 * MIN_REPS and not cycles:
            break
    if not cycles:
        print(f"perfbench: no repetition of {workload} completed", file=sys.stderr)
        return None

    plain = [c["plain"] for c in cycles]
    if args.trace:
        traced = [c["traced"] for c in cycles]
        metrics = {name: (unit, med(fn(r) for r in traced))
                   for name, (unit, fn) in PER_LAYER.items()}
        metrics["obs.hash_ratio"] = ("ratio", med(c["hashed"]["run_s"] / c["plain"]["run_s"]
                                                  for c in cycles))
        wall = lambda r: r["setup_s"] + r["run_s"] + r["estimate_s"]  # noqa: E731
        metrics["obs.trace_overhead_s"] = ("s", med(wall(c["traced"]) - wall(c["plain"])
                                                    for c in cycles))
    else:
        canary = plain[0]
        if canary["seed"] != DEFAULT_SEED:
            print(f"perfbench: the default-seed repetition of {workload} failed",
                  file=sys.stderr)
            failed = max(failed, 1)
        metrics = end_to_end(plain, canary)

    print(f"\n{workload}: {len(cycles)} seeds, {attempted} runs, "
          f"{time.monotonic() - start:.1f} s")
    for name, (unit, value) in metrics.items():
        print(f"  {name:32s} {value:16.9g} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:16.9g} ratio")
    man = manifest(build_dir, workload, args.seed, [c["plain"]["seed"] for c in cycles])
    print("manifest " + json.dumps(man, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": man, "result": result, "runs": cycles}, indent=1) + "\n")
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    exe = build(build_dir)
    if exe is None:
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(exe, build_dir, name, args)
        if results[name] is None:
            return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
