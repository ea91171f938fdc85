#!/usr/bin/env python3
"""ClockMark end-to-end benchmark: one command, every workload.

    python3 perfbench/run.py --workload served_triggered --seed 1 \
        --seconds 30 --trace 0

Builds the benchmark program from the sources in this checkout (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs one workload for --seconds,
checks every verdict against ground truth, prints each metric with its
unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every run also replays the workload's first jobs one at a time with spans
around every layer call; the replay is the reference the measured
verdicts are checked against. --trace 0 reports the end-to-end metrics;
--trace 1 reports the per-layer metrics the replay's spans give instead.
--workload all runs the three workloads in turn (human-readable output
only). Exits nonzero on a job that does not complete, a verdict that
differs from its reference, or a failed build; wrong verdicts against the
ground truth are printed and counted in fail_ratio. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the checkout stays as git would commit it
import metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["served_triggered", "served_blind", "stream_early_stop"]
# Workloads whose jobs trust the capture's alignment (SyncPolicy
# kTriggered), so a detected peak must sit at the true rotation.
TRIGGERED = {"served_triggered", "stream_early_stop"}
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    out = build_dir() / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "clockmark_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return out / "clockmark_perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_program(program, workload, seed, seconds, trace):
    runs = build_dir() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record_path = runs / f"{workload}-seed{seed}-trace{trace}.json"
    record_path.unlink(missing_ok=True)
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(record_path)]
    # subprocess.run kills and reaps the program on timeout.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"clockmark_perfbench exited with {done.returncode}")
    with open(record_path) as f:
        return json.load(f)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, trace, record):
    """Prints the human-readable report; returns the result object."""
    triggered = workload in TRIGGERED
    values, samples, notes, acct = metrics.end_to_end(record, triggered)
    correct, failed, mismatches = metrics.gate(record, acct)
    calib = metrics.median(record["calibration_s"])
    print(f"== {workload}  seed={seed}  trace={trace}  "
          f"window={record['window_s']:.2f}s")
    print(f"box: cpu='{cpu_model()}' nproc={os.cpu_count()} "
          f"calib_s={calib:.6g} (median of {len(record['calibration_s'])} "
          f"compute_spread_spectrum calls, 65536 cycles x 4095 rotations)")
    for name, unit in metrics.END_TO_END:
        note = f", {notes[name]}" if name in notes else ""
        print(f"  {name:28s} {fmt(values[name]):>14s} {unit:7s} "
              f"(n={samples[name]}{note})")
    print(f"  {'fail_ratio':28s} {fmt(acct['fail_ratio']):>14s} {'ratio':7s} "
          f"(n={acct['attempted']}: {acct['rejected']} rejected, "
          f"{acct['failed']} failed, {acct['cancelled']} cancelled, "
          f"{acct['wrong']} wrong verdicts)")
    for job in record["jobs"]:
        if job["status"] == "done" and not metrics.verdict_ok(job, triggered):
            print(f"  wrong verdict: job {job['index']} chip {job['chip']} "
                  f"{'present' if job['present'] else 'absent'}, "
                  f"detected={job['detected']} z={job['peak_z']:.4f} "
                  f"rotation={job['peak_rotation']} "
                  f"(true {job['true_rotation']})")
    jobs = record["jobs"]
    repeats = len(jobs) - len({j["capture"] for j in jobs})
    print(f"  verdicts checked: {len(record['traced'])} against the replay, "
          f"{repeats} against an earlier job on the same capture; "
          f"{len(mismatches)} differ")
    result_metrics = {name: {"value": values[name], "unit": unit}
                      for name, unit in metrics.END_TO_END}
    if trace:
        layer, seconds = metrics.per_layer(record)
        print(f"  traced pass: {len(record['traced'])} jobs replayed, "
              f"{len(record['spans'])} spans")
        for name, unit in metrics.PER_LAYER:
            print(f"  {name:28s} {fmt(layer[name]):>14s} {unit}")
        for name, value in seconds.items():
            print(f"  {name:28s} {fmt(value):>14s} s  (printed only)")
        if layer["trace.unattributed_share"] > 0.10:
            log("warning: spans itemise less than 90% of the job time")
        result_metrics = {name: {"value": layer[name], "unit": unit}
                          for name, unit in metrics.PER_LAYER}
    if acct["errors"]:
        log(f"error: {acct['errors']} of {acct['attempted']} jobs did not "
            f"complete")
    if mismatches:
        log(f"error: verdicts differ from their reference on jobs "
            f"{mismatches}")
    return {"correct": correct, "attempted": acct["attempted"],
            "failed": failed, "metrics": result_metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    try:
        program = build()
        results = []
        for workload in WORKLOADS if args.workload == "all" else [args.workload]:
            record = run_program(program, workload, args.seed, args.seconds,
                                args.trace)
            results.append(report(workload, args.seed, args.trace, record))
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    log(f"perfbench: done in {time.monotonic() - started:.1f}s")
    if args.workload != "all":
        print(json.dumps(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
