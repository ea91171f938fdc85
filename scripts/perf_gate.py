#!/usr/bin/env python3
"""Perf-regression gate over the BenchJson records.

Compares a freshly produced bench --json record against the committed
baseline in bench_results/ and fails (exit 1) when any tracked throughput
metric regressed by more than the allowed fraction.

Usage:
  scripts/perf_gate.py --baseline bench_results/BENCH_acq.json \
      --current build/bench_smoke/BENCH_acq.json [--max-regression 0.25]

Update mode (after an intentional perf change):
  scripts/perf_gate.py --update --record chip1 --record chip2 \
      --baseline bench_results/BENCH_acq.json \
      --current build/bench_smoke/BENCH_acq.json [--build-dir build]
replaces only the named records of the committed baseline with the
fresh ones (a named record the baseline lacks is appended) and copies
every other record through unchanged, byte for byte. --update without
a --record is refused: re-recording a whole file would re-baseline the
records the change does not move to whatever box ran it. The baseline
and the fresh record must have the same "threads". As a guard against
enshrining numbers from a broken tree, --update first runs ctest in
--build-dir and refuses to touch the baseline when any test fails
(--skip-tests for the rare emergency). The comparison is still
printed, so the change being baked in is visible in the terminal.

Comparison rules (kept deliberately small):
  * the top-level "threads" of baseline and current must match, else
    the gate fails before comparing anything (timings at different
    worker counts are different measurements),
  * records are matched by "name"; a record present only on one side is
    reported but never fails the gate (benches grow new cases),
  * higher-is-better metrics (anything ending in "_per_sec" or named
    "speedup") fail when current < baseline * (1 - max_regression),
  * lower-is-better timing metrics (anything ending in "_s_per_rep" or
    "_s_per_iter") fail when current > baseline * (1 + max_regression),
  * other metrics (cycles, thresholds, flags) are ignored,
  * a tracked baseline metric absent from a *matched* fresh record fails
    the gate with a pointer at --update (the bench stopped emitting a
    number the gate was guarding).

Baselines are recorded on the reference box (single core, gcc -O3); the
default 25 % margin absorbs normal scheduler/turbo noise there. On
different hardware the absolute numbers shift together, so the gate
stays meaningful as long as baseline and current come from the same
machine — regenerate the baselines (see README) after intentional perf
changes or when moving the reference box.
"""

import argparse
import json
import os
import subprocess
import sys

HIGHER_IS_BETTER_SUFFIXES = ("_per_sec",)
HIGHER_IS_BETTER_NAMES = ("speedup", "items_per_sec", "samples_per_sec")
LOWER_IS_BETTER_SUFFIXES = ("_s_per_rep", "_s_per_iter")


def classify(metric):
    """Returns 'higher', 'lower' or None (untracked)."""
    if metric in HIGHER_IS_BETTER_NAMES or metric.endswith(
        HIGHER_IS_BETTER_SUFFIXES
    ):
        return "higher"
    if metric.endswith(LOWER_IS_BETTER_SUFFIXES):
        return "lower"
    return None


def load_records(path):
    """Returns (bench name, thread count or None, {record: metrics})."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    records = {}
    for record in doc.get("records", []):
        name = record.get("name")
        if name is None:
            raise ValueError(f"{path}: record without a name")
        metrics = {
            k: v
            for k, v in record.items()
            if k != "name" and isinstance(v, (int, float))
        }
        records[name] = metrics
    return doc.get("bench", "?"), doc.get("threads"), records


def record_lines(text):
    """Maps record name -> its line for files in the BenchJson layout
    (one record object per line); None when the layout differs."""
    lines = {}
    for line in text.splitlines():
        body = line.strip().rstrip(",")
        if not body.startswith("{") or not body.endswith("}"):
            continue
        try:
            record = json.loads(body)
        except ValueError:
            return None
        if "name" in record:
            lines[record["name"]] = body
    return lines


def record_texts(text):
    """Record name -> the record's text, taken verbatim from its line when
    the file has the BenchJson layout (one record object per line)."""
    records = json.loads(text).get("records", [])
    lines = record_lines(text)
    if lines is None or len(lines) != len(records):
        return {r["name"]: json.dumps(r) for r in records}
    return lines


def updated_baseline(baseline_path, current_path, names):
    """The baseline text with the records in `names` taken from the
    current file; every other record keeps its text."""
    with open(current_path, "r", encoding="utf-8") as fh:
        current_text = fh.read()
    fresh = record_texts(current_text)
    order = []
    old = {}
    doc = json.loads(current_text)  # first recording: the fresh header
    if os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline_text = fh.read()
        doc = json.loads(baseline_text)
        order = [r["name"] for r in doc.get("records", [])]
        old = record_texts(baseline_text)
    out = [fresh[n] if n in names else old[n] for n in order]
    out += [fresh[n] for n in dict.fromkeys(names) if n not in order]
    text = "{\n"
    for key, value in doc.items():
        if key != "records":
            text += f"  {json.dumps(key)}: {json.dumps(value)},\n"
    return text + '  "records": [\n    ' + ",\n    ".join(out) + "\n  ]\n}\n"


def main(argv):
    parser = argparse.ArgumentParser(
        description="Fail when a bench --json record regressed vs baseline."
    )
    parser.add_argument(
        "--baseline", required=True, help="committed BenchJson baseline"
    )
    parser.add_argument(
        "--current", required=True, help="freshly produced BenchJson record"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="replace the --record records of --baseline with the "
        "fresh ones instead of gating (refuses when ctest fails in "
        "--build-dir)",
    )
    parser.add_argument(
        "--record",
        action="append",
        default=[],
        metavar="NAME",
        help="record to re-baseline with --update (repeatable; every "
        "other record is copied through unchanged)",
    )
    parser.add_argument(
        "--build-dir",
        default="build",
        help="build tree whose ctest must pass before --update (default:"
        " build)",
    )
    parser.add_argument(
        "--skip-tests",
        action="store_true",
        help="--update without the ctest guard (emergency use only)",
    )
    args = parser.parse_args(argv)
    if args.update and not args.record:
        print(
            "perf gate: refusing --update without --record NAME: name "
            "the records this change moves; the others keep their "
            "committed values",
            file=sys.stderr,
        )
        return 1
    if args.record and not args.update:
        print("perf gate: --record only applies to --update",
              file=sys.stderr)
        return 1

    bench_cur, threads_cur, current = load_records(args.current)
    if os.path.exists(args.baseline):
        bench_base, threads_base, baseline = load_records(args.baseline)
    elif args.update:
        # First recording of a new bench: nothing to compare against.
        bench_base, threads_base, baseline = bench_cur, threads_cur, {}
    else:
        print(f"perf gate: missing baseline {args.baseline}",
              file=sys.stderr)
        return 1
    if bench_base != bench_cur:
        print(
            f"perf gate: comparing different benches "
            f"('{bench_base}' baseline vs '{bench_cur}' current)",
            file=sys.stderr,
        )
        return 1
    if threads_base != threads_cur:
        # Timings at different thread counts are different measurements:
        # a 4-thread run would hide a 2x single-thread regression, and an
        # update would mix thread counts within one file.
        print(
            f"perf gate: {bench_cur}: thread count mismatch (baseline "
            f"{args.baseline} has threads={threads_base}, current "
            f"{args.current} has threads={threads_cur}); rerun the bench "
            f"with --threads={threads_base}",
            file=sys.stderr,
        )
        return 1

    if args.update:
        unknown = [n for n in args.record if n not in current]
        if unknown:
            print(
                f"perf gate: refusing --update: record(s) "
                f"{', '.join(unknown)} not in {args.current}",
                file=sys.stderr,
            )
            return 1
        if args.skip_tests:
            print("perf gate: --update with --skip-tests: ctest guard "
                  "bypassed")
        else:
            print(f"perf gate: --update: running ctest in {args.build_dir}")
            result = subprocess.run(
                ["ctest", "--output-on-failure"], cwd=args.build_dir
            )
            if result.returncode != 0:
                print(
                    "perf gate: refusing --update: ctest failed in "
                    f"{args.build_dir} (fix the tests or pass --skip-tests)",
                    file=sys.stderr,
                )
                return 1

    failures = []
    missing = []
    compared = 0
    for name, base_metrics in sorted(baseline.items()):
        if name not in current:
            # Not an error: smoke runs filter benches down to a subset of
            # the baseline's records.
            print(f"  [skip] record '{name}' missing from current run")
            continue
        cur_metrics = current[name]
        for metric, base_value in sorted(base_metrics.items()):
            direction = classify(metric)
            if direction is None:
                continue
            if metric not in cur_metrics:
                # A matched record that stopped emitting a tracked metric
                # means the bench changed shape: the gate would silently
                # stop guarding that number. Fail with a pointer instead.
                print(f"  [missing] {name}.{metric}: in baseline but absent "
                      f"from the fresh record")
                missing.append(f"{name}.{metric}")
                continue
            cur_value = cur_metrics[metric]
            if base_value <= 0.0:
                continue
            compared += 1
            change = cur_value / base_value - 1.0
            if direction == "higher":
                bad = change < -args.max_regression
            else:
                bad = change > args.max_regression
            marker = "FAIL" if bad else "ok"
            print(
                f"  [{marker}] {name}.{metric}: baseline {base_value:.6g}, "
                f"current {cur_value:.6g} ({change:+.1%})"
            )
            if bad:
                failures.append(f"{name}.{metric} ({change:+.1%})")
    for name in sorted(set(current) - set(baseline)):
        print(f"  [new]  record '{name}' has no baseline yet")

    if args.update:
        # The comparison above is informational; the named fresh records
        # enter the baseline regardless of direction.
        text = updated_baseline(args.baseline, args.current, args.record)
        with open(args.baseline, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(
            f"perf gate: baseline {args.baseline}: re-recorded "
            f"{', '.join(args.record)} from {args.current}; other records "
            "unchanged"
        )
        return 0
    if missing:
        print(
            f"perf gate: {bench_cur}: {len(missing)} baseline metric(s) "
            "missing from the fresh record: " + ", ".join(missing) + ". "
            "The bench no longer emits them; if the rename/removal is "
            "intentional, re-record the baseline with --update.",
            file=sys.stderr,
        )
        return 1
    if compared == 0:
        print(
            f"perf gate: no comparable metrics between {args.baseline} and "
            f"{args.current}",
            file=sys.stderr,
        )
        return 1
    if failures:
        print(
            f"perf gate: {bench_cur}: {len(failures)} metric(s) regressed "
            f"more than {args.max_regression:.0%}: " + ", ".join(failures),
            file=sys.stderr,
        )
        return 1
    print(
        f"perf gate: {bench_cur}: {compared} metric(s) within "
        f"{args.max_regression:.0%} of baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
