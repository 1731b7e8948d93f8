#!/usr/bin/env python3
"""Benchmark of the mayo yield optimizer: builds the harness, runs one
workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload fc_optimize --seed 1 --seconds 20 \
        --trace 0

Run from the repository root (any directory works; paths are resolved
from this file).  The library and harness are built from source into
.bench_build/perfbench (Release, obs on).  The last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: with --trace 0
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics.  attempted/failed count DC and transient solves; a repetition that
throws or fails its output check counts all of its solves as failed.  The
exit code is 0 only when every output check passed and every metric could
be computed.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_harness"
WORKLOADS = ("fc_optimize", "miller_optimize", "fc_mc_sweep")

# Output checks.  fc_optimize: a feasible start and a lower 95% bound of
# the importance-sampled (IS) final yield of at least 0.99.
# miller_optimize: a verified yield of at least 0.95.
FC_IS_LOWER_MIN = 0.99
MILLER_YIELD_MIN = 0.95
# fc_mc_sweep reference: per-performance mean and standard deviation of
# 16384 samples (the sweep's 2048 samples for each of the seeds
# 1001..1008, seeds never used for timing) at the initial design and
# nominal operating point.  A run's mean must lie within
# SWEEP_TOL_SIGMA * sd * (1/sqrt(n) + 1/sqrt(16384)) of the reference.
# Order: A0 [dB], ft [MHz], CMRR [dB], SR+ [V/us], Power [mW].
SWEEP_REF_MEAN = [79.0734, 41.6526, 90.3524, 31.2823, 1.41561]
SWEEP_REF_SD = [0.3301, 0.924, 9.784, 0.8121, 0.009086]
SWEEP_REF_SAMPLES = 16384
SWEEP_TOL_SIGMA = 5.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_command(command, timeout, stdout):
    """Runs `command` in its own process group; on timeout the whole group
    (make and compiler children included) is killed and waited for."""
    with subprocess.Popen(command, stdout=stdout, text=True,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, command)
    return out


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    # Configure every time: cheap once cached, and it resets a tree that was
    # reconfigured by hand to the Release, obs-on build the metrics assume.
    run_command(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release", "-DMAYO_OBS=ON"],
                timeout=300, stdout=sys.stderr)
    run_command(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
                 "perfbench_harness"], timeout=840, stdout=sys.stderr)


def check_rep(workload, rep):
    """Output check of one repetition; returns a list of failures."""
    if rep["error"] is not None:
        return [f"threw: {rep['error']}"]
    bad = []
    if workload == "fc_optimize":
        if not rep["feasible"]:
            bad.append("no feasible start")
        if not (rep["is_run"] and rep["is_lower"] >= FC_IS_LOWER_MIN):
            bad.append(f"IS yield lower bound {rep['is_lower']} < "
                       f"{FC_IS_LOWER_MIN} (estimate {rep['is_yield']})")
    elif workload == "miller_optimize":
        if not rep["verified_yield"] >= MILLER_YIELD_MIN:
            bad.append(f"verified yield {rep['verified_yield']} < "
                       f"{MILLER_YIELD_MIN}")
    else:
        if not rep["finite"]:
            bad.append("non-finite performance")
        n = rep["samples"]
        for i, (mean, ref, sd) in enumerate(
                zip(rep["perf_mean"], SWEEP_REF_MEAN, SWEEP_REF_SD)):
            tol = SWEEP_TOL_SIGMA * sd * (
                1 / math.sqrt(n) + 1 / math.sqrt(SWEEP_REF_SAMPLES))
            if mean is None or not abs(mean - ref) <= tol:
                bad.append(f"performance {i} mean {mean} not within "
                           f"{tol:.3g} of {ref}")
    return bad


def check_run(workload, run):
    """Checks every repetition and that all of them -- traced and untraced
    alike -- agree bitwise.  Returns (correct, attempted, failed); every
    solve of a repetition that failed a check counts as failed, and when
    the repetitions disagree, every repetition has failed."""
    bad = [check_rep(workload, rep) for rep in run["reps"]]
    fingerprints = {rep["fingerprint"] for rep in run["reps"]
                    if rep["error"] is None}
    if len(fingerprints) > 1:
        for reasons in bad:
            reasons.append("repetitions disagree bitwise (final_d, yields "
                           "or evaluation counts)")
    attempted, failed = 0, 0
    for k, (rep, reasons) in enumerate(zip(run["reps"], bad)):
        for reason in reasons:
            log(f"check failed (repetition {k}): {reason}")
        tally = metrics.solve_tally(rep)
        if tally is None:  # obs compiled out: count repetitions instead
            tally = (1, 0)
        solves, nonconverged = tally
        attempted += max(solves, 1)
        failed += max(solves, 1) if reasons else nonconverged
    return not any(bad), attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.monotonic()
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    log(f"perfbench: build ready in {time.monotonic() - started:.1f} s")

    command = [str(HARNESS), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        run = json.loads(run_command(command, timeout=args.seconds + 150,
                                     stdout=subprocess.PIPE))
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 2
    except subprocess.CalledProcessError as e:
        log(f"perfbench: harness exited with {e.returncode}")
        return 2
    log(f"perfbench: {args.workload} seed {args.seed}: {len(run['reps'])} "
        f"repetitions, {run['threads']} worker thread(s), "
        f"{run['build_type']} build")
    if not all(r["report"]["obs_enabled"] for r in run["reps"]):
        log("perfbench: obs compiled out; counter metrics are missing")

    correct, attempted, failed = check_run(args.workload, run)
    # Metrics come from the repetitions that did not throw.
    clean = dict(run, reps=[r for r in run["reps"] if r["error"] is None])
    try:
        if args.trace:
            values = metrics.per_layer(clean)
        else:
            values = metrics.end_to_end(clean)
            blocks, beyond = metrics.block_samples(clean)
            log(f"block latency: {blocks} model requests, {beyond} beyond p90")
    except (IndexError, ValueError) as e:
        log(f"perfbench: no metrics: {e}")
        values = {}

    result, missing = {}, False
    for m in wanted:
        if m["name"] not in values:
            log(f"perfbench: missing metric {m['name']}")
            missing = True
            continue
        value = values[m["name"]]
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:36s} {value:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct and not missing else 1


if __name__ == "__main__":
    sys.exit(main())
