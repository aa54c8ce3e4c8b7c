"""Sweep benchmark for rispose: trials/s of named ``run_sweep`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload snr_sweep_n225 --seed 1 --seconds 15 --trace 0

``--trace 0`` times untraced sweeps and prints the end-to-end metrics;
``--trace 1`` traces every layer's public functions and prints per-layer
metrics.  Both run the correctness gate.  Every metric is printed by name
with its unit, then an ``env`` line, and last one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The full result (and,
traced, every span) is written under ``.perfbench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import workloads
from envinfo import blas_threads, environment
from gate import Gate
from tracer import Tracer

MIN_SETUP_PROBES = 7
MIN_REPS = 3
MIN_TRACED_TRIALS = 100  # so run_trial's p90 has at least 10 samples beyond it
OUT_DIR = workloads.ROOT / ".perfbench_out"
ONE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Rep:
    """One timed ``run_sweep`` call."""

    master: int
    wall_s: float
    cpu_s: float
    trials: int
    failures: int
    csv: str


def run_rep(wl, master: int, gate: Gate) -> Rep:
    cpu0, t0 = time.process_time(), time.perf_counter()
    table = wl.run(master)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    gate.check_finite(master, table)
    per_point = {(row.sweep_var, row.sweep_value): row.failures for row in table.rows}
    return Rep(master=master, wall_s=wall, cpu_s=cpu, trials=wl.trials_per_rep,
               failures=sum(per_point.values()), csv=table.to_csv())


def run_reps(wl, seed: int, seconds: float, gate: Gate, reps: list[Rep],
             between=None) -> None:
    """Append reps with master seeds rep_seed(seed, 0), (seed, 1), ... until
    ``seconds`` of reps have passed and there are at least MIN_REPS reps.
    ``between()`` runs after each rep; its time does not count."""
    start = time.perf_counter()
    excluded = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() - start - excluded < seconds:
        reps.append(run_rep(wl, workloads.rep_seed(seed, len(reps)), gate))
        if between is not None:
            t0 = time.perf_counter()
            between()
            excluded += time.perf_counter() - t0


def setup_time(name: str) -> float:
    """Seconds from spawning a fresh interpreter to it being ready to sweep."""
    probe = str(workloads.ROOT / "perfbench" / "setup_probe.py")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, name], stdout=subprocess.PIPE,
                          text=True, cwd=workloads.ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        if child.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {child.returncode})")
    return elapsed


def one_thread_reference(wl, seed: int, seconds: float) -> dict:
    """Untraced timing of the same workload in a child with one BLAS thread.

    Informational only: the gated metrics use the library's default threads.
    """
    cmd = [sys.executable, __file__, "--workload", wl.name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--timed-only"]
    out = subprocess.run(cmd, env={**os.environ, **ONE_THREAD_ENV}, cwd=workloads.ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def throughput(reps: list[Rep]) -> dict:
    tps = [r.trials / r.wall_s for r in reps]
    return {
        "trials_per_s": statistics.median(tps) if reps else 0.0,
        "cpu_ms_per_trial": (statistics.median(1e3 * r.cpu_s / r.trials for r in reps)
                             if reps else 0.0),
        "cpu_per_wall": sum(r.cpu_s for r in reps) / sum(r.wall_s for r in reps)
                        if reps else 0.0,
        "tps_quartiles": statistics.quantiles(tps, n=4) if len(tps) > 1 else tps,
    }


def timed_run(wl, args, gate: Gate, reps: list[Rep], info: dict) -> dict:
    # The machine's speed drifts over seconds, so set-up is probed after
    # every rep rather than in one burst.  The first probe is discarded: it
    # compiles bytecode and warms the file cache, which repeated runs skip.
    setup_time(wl.name)
    setup: list[float] = []
    warm = run_rep(wl, workloads.rep_seed(args.seed, 0), gate)
    run_reps(wl, args.seed, args.seconds, gate, reps,
             between=lambda: setup.append(setup_time(wl.name)))
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(setup_time(wl.name))
    info["setup_s_samples"] = setup
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate.check_identical("repeated", warm.master, warm.csv, reps[0].csv)
    gate.check_noiseless(wl, args.seed)
    tp = throughput(reps)
    info.update(reps=len(reps), trials_per_s_quartiles=tp["tps_quartiles"],
                cpu_per_wall=tp["cpu_per_wall"])
    return {
        "trials_per_s": (tp["trials_per_s"], "1/s"),
        "cpu_ms_per_trial": (tp["cpu_ms_per_trial"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def traced_run(wl, args, gate: Gate, reps: list[Rep], info: dict) -> dict:
    warm = run_rep(wl, workloads.rep_seed(args.seed, 0), gate)
    # Each traced rep is followed by its untraced twin, so drift in the
    # machine's speed hits both sides of trace.overhead_frac alike.
    tracer = Tracer()
    untraced: list[Rep] = []
    start = time.perf_counter()
    while (len(reps) < MIN_REPS or time.perf_counter() - start < args.seconds
           or sum(r.trials for r in reps) < MIN_TRACED_TRIALS):
        master = workloads.rep_seed(args.seed, len(reps))
        with tracer:
            reps.append(run_rep(wl, master, gate))
        untraced.append(run_rep(wl, master, gate))
    for traced_rep, plain in zip(reps, untraced):
        gate.check_identical("traced vs untraced", plain.master, plain.csv, traced_rep.csv)
    gate.check_identical("repeated", warm.master, warm.csv, untraced[0].csv)
    gate.check_noiseless(wl, args.seed)

    traced_wall = sum(r.wall_s for r in reps)
    metrics = tracer.summarize(traced_wall, sum(r.trials for r in reps))
    plain = throughput(untraced)
    metrics["estimator.noiseless_inexact_frac"] = (
        gate.random_poses_inexact / gate.random_poses, "frac")
    metrics["trace.overhead_frac"] = (traced_wall / sum(r.wall_s for r in untraced) - 1,
                                      "frac")
    ref = one_thread_reference(wl, args.seed, args.seconds / 4)
    metrics["reference.one_thread.trials_per_s"] = (ref["trials_per_s"], "1/s")
    metrics["reference.one_thread.cpu_per_wall"] = (ref["cpu_per_wall"], "frac")
    metrics["reference.default_threads.trials_per_s"] = (plain["trials_per_s"], "1/s")
    metrics["reference.default_threads.cpu_per_wall"] = (plain["cpu_per_wall"], "frac")
    info.update(reps=len(reps), missing_names=tracer.missing,
                one_thread_blas_threads=ref["blas_threads"])
    spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.dump()))
    info["spans_file"] = str(spans_path.relative_to(workloads.ROOT))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the one-thread reference child only times reps
    parser.add_argument("--timed-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.build(args.workload)

    if args.timed_only:
        reps: list[Rep] = []
        run_rep(wl, workloads.rep_seed(args.seed, 0), Gate())
        run_reps(wl, args.seed, args.seconds, Gate(), reps)
        tp = throughput(reps)
        print(json.dumps({"trials_per_s": tp["trials_per_s"],
                          "cpu_per_wall": tp["cpu_per_wall"],
                          "blas_threads": blas_threads()}))
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    gate = Gate()
    reps = []
    info: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                  "trials_per_rep": wl.trials_per_rep}
    try:
        metrics = (traced_run if args.trace else timed_run)(wl, args, gate, reps, info)
    except Exception:  # a raising sweep fails the run; report it, don't crash
        traceback.print_exc()
        gate.problems.append("benchmark raised: " + traceback.format_exc(limit=1))
        metrics = {}
    info["noiseless_max_rel_err"] = gate.noiseless_max_rel_err
    info["gate_problems"] = gate.problems
    info["noiseless_random_poses_inexact"] = (
        f"{gate.random_poses_inexact}/{gate.random_poses} (recorded, not gated)")

    attempted = sum(r.trials for r in reps) or wl.trials_per_rep
    estimation_failures = sum(r.failures for r in reps)
    info["estimation_failures"] = estimation_failures
    if not args.trace:
        ok_frac = 1 - estimation_failures / attempted if gate.ok else 0.0
        metrics["ok_trial_frac"] = (ok_frac, "frac")

    env = environment(workloads.ROOT, workloads.SRC)
    for name, (value, unit) in metrics.items():
        print(f"{name:<50} {value:>14.6g} {unit}")
    for key, value in info.items():
        print(f"# {key}: {value}")
    print("env " + json.dumps(env))
    result = {
        "correct": gate.ok,
        "attempted": attempted,
        "failed": 0 if gate.ok else attempted,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"result": result, "info": info, "env": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
