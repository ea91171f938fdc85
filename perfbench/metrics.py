"""Turns a run record of the benchmark program into the benchmark's metrics.

The program (src/main.cpp) writes what it measured: one entry per job of
the timed closed loop, the set-up repetitions, and for a traced run the
replayed verdicts and the spans. Everything derived from those numbers is
computed here, so the rules (percentiles, failure accounting, span self
time) live in one place and are unit-tested (test_perfbench.py).
"""

import math
import statistics

GUARD = 8  # cpa::DetectorPolicy::guard: rotations the peak may sit off
VERDICT_BITS = ("detected", "peak_rotation", "peak_z")
TAIL_TARGET = 0.90
TAIL_BEYOND = 10

END_TO_END = [
    # name, unit
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("cpu_s_per_job", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("capture_cycles_per_verdict", "cycles"),
    ("peak_z_median", "z"),
    ("null_peak_z_median", "z"),
]

PER_LAYER = [
    ("trace.job_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("box.calib_s", "s"),
    ("setup.scenario_build_s", "s"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.run_share", "ratio"),
    ("serve.wire_share", "ratio"),
    ("serve.codec_share", "ratio"),
    ("serve.submit_bytes", "count"),
    ("serve.scenario_hit_ratio", "ratio"),
    ("serve.engine_hit_ratio", "ratio"),
    ("serve.queue_high_water", "count"),
    ("sim.open_stream_share", "ratio"),
    ("sim.chunk_share", "ratio"),
    ("sim.cycles_synthesised", "count"),
    ("stream.ingest_s", "s"),
    ("stream.finalize_s", "s"),
    ("stream.evaluations", "count"),
    ("stream.decision_fraction", "ratio"),
    ("stream.chunk_use_ratio", "ratio"),
    ("cpa.fold_s", "s"),
    ("cpa.sweep_s", "s"),
    ("sync.find_sync_share", "ratio"),
    ("sync.evaluations", "count"),
    ("sync.lock_ratio", "ratio"),
    ("sync.engine_build_share", "ratio"),
    ("detect.session_run_share", "ratio"),
]


def mean(xs):
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def median(xs):
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def tail_percentile(values, target=TAIL_TARGET, beyond=TAIL_BEYOND):
    """The highest percentile up to `target` that leaves at least
    `beyond` samples above it, by nearest rank.

    Returns (value, level, samples_beyond). With 100 or more samples this
    is the plain nearest-rank p90; with fewer, the rank moves down until
    ten samples lie beyond it, and `level` says which percentile that is.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"{n} samples: no percentile has {beyond} beyond it")
    rank = min(math.ceil(target * n), n - beyond)  # 1-based
    return xs[rank - 1], rank / n, n - rank


def circular_distance(a, b, period):
    d = abs(a - b) % period
    return min(d, period - d)


def verdict_ok(job, triggered):
    """Ground truth: present captures detected (on triggered-policy jobs
    with the peak within GUARD of the true rotation), absent ones not."""
    if job["status"] != "done":
        return False
    if job["detected"] != job["present"]:
        return False
    if job["present"] and triggered:
        return circular_distance(job["peak_rotation"], job["true_rotation"],
                                 job["period"]) <= GUARD
    return True


def accounting(jobs, triggered):
    """fail_ratio = (rejected + failed + cancelled + wrong verdict) /
    attempted, where a wrong verdict is a completed job that misses the
    ground truth. `errors` counts the jobs that did not complete."""
    counts = {"attempted": len(jobs), "rejected": 0, "failed": 0,
              "cancelled": 0, "wrong": 0}
    for job in jobs:
        status = job["status"]
        if status == "rejected":
            counts["rejected"] += 1
        elif status == "cancelled":
            counts["cancelled"] += 1
        elif status != "done":
            counts["failed"] += 1
        elif not verdict_ok(job, triggered):
            counts["wrong"] += 1
    counts["errors"] = (counts["rejected"] + counts["failed"] +
                        counts["cancelled"])
    bad = counts["errors"] + counts["wrong"]
    counts["bad"] = bad
    counts["correct"] = counts["attempted"] - bad
    counts["fail_ratio"] = bad / counts["attempted"] if jobs else 1.0
    return counts


def covered(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    end_so_far = -math.inf
    for start, end in sorted(intervals):
        if end <= end_so_far:
            continue
        total += end - max(start, end_so_far)
        end_so_far = end
    return total


def self_times(spans):
    """Self time per span id: its duration minus the part of its interval
    its child spans cover (children clipped to the parent)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    result = {}
    for sid, s in by_id.items():
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(sid, [])]
        kids = [(a, b) for a, b in kids if b > a]
        result[sid] = (s["end"] - s["start"]) - covered(kids)
    return result


def layer_times_per_job(spans):
    """{job: {span name: summed self time}} for every span under a root."""
    selfs = self_times(spans)
    per_job = {}
    for s in spans:
        per_job.setdefault(s["job"], {}).setdefault(s["name"], 0.0)
        per_job[s["job"]][s["name"]] += selfs[s["id"]]
    return per_job


def job_spans(spans):
    return [s for s in spans if s["name"] == "job" and not s["parent"]]


def unattributed_share(spans):
    jobs = job_spans(spans)
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in jobs)
    return sum(selfs[s["id"]] for s in jobs) / total if total > 0 else 0.0


def exact_set(record):
    return [j for j in record["jobs"] if j["index"] < record["exact_jobs"]]


def end_to_end(record, triggered):
    jobs = record["jobs"]
    acct = accounting(jobs, triggered)
    # A failed or refused job misses any latency limit.
    latencies = [j["latency_s"] if verdict_ok(j, triggered) else math.inf
                 for j in jobs]
    p90, level, beyond = tail_percentile(latencies)
    done = [j for j in jobs if j["status"] == "done"]
    exact = exact_set(record)
    present_z = [j["peak_z"] for j in exact if j["present"]]
    absent_z = [j["peak_z"] for j in exact if not j["present"]]
    values = {
        "jobs_per_s": acct["correct"] / record["window_s"],
        "latency_p50_s": median(latencies),
        "latency_p90_s": p90,
        "cpu_s_per_job": record["cpu_s"] / max(1, len(done)),
        "setup_s": median(s["total_s"] for s in record["setups"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "capture_cycles_per_verdict": mean(j["cycles"] for j in exact),
        "peak_z_median": median(present_z),
        "null_peak_z_median": median(absent_z),
    }
    samples = {
        "jobs_per_s": len(jobs),
        "latency_p50_s": len(latencies),
        "latency_p90_s": len(latencies),
        "cpu_s_per_job": len(done),
        "setup_s": len(record["setups"]),
        "peak_rss_mb": 1,
        "capture_cycles_per_verdict": len(exact),
        "peak_z_median": len(present_z),
        "null_peak_z_median": len(absent_z),
    }
    notes = {"latency_p90_s": f"p{100 * level:.0f}, {beyond} beyond"}
    return values, samples, notes, acct


def verdict_mismatches(record):
    """Traced jobs whose verdict bits differ from the untraced run (a job
    the untraced run did not complete counts as an error instead)."""
    untraced = {j["index"]: j for j in record["jobs"]}
    bad = []
    for t in record["traced"]:
        j = untraced.get(t["index"])
        if j is not None and j["status"] != "done":
            continue
        if j is None or any(t[key] != j[key] for key in VERDICT_BITS):
            bad.append(t["index"])
    return bad


def repeat_mismatches(record):
    """Completed jobs whose verdict bits differ from the first completed
    job on the same capture (the blind jobs cycle a pool of captures)."""
    first = {}
    bad = []
    for j in sorted(record["jobs"], key=lambda j: j["index"]):
        if j["status"] != "done":
            continue
        ref = first.setdefault(j["capture"], j)
        if any(j[key] != ref[key] for key in VERDICT_BITS):
            bad.append(j["index"])
    return bad


def gate(record, acct):
    """The correctness gate. The run is correct when every job completed
    and every checked verdict equals its reference: the traced replay of
    the same job, and every other job on the same capture.

    Wrong verdicts against the ground truth are not gated here: they are
    the detector's measured miss and false-alarm rate (fail_ratio), not
    outputs the program computed wrongly. Returns (correct, failed,
    mismatched job indices)."""
    mismatched = sorted(set(verdict_mismatches(record)) |
                        set(repeat_mismatches(record)))
    failed = acct["errors"] + len(mismatched)
    return failed == 0, failed, mismatched


def per_layer(record):
    """Per-layer metrics of a traced run, plus the absolute seconds of the
    layers a workload may skip (printed, not part of the result)."""
    spans = record["spans"]
    jobs = record["jobs"]
    traced = record["traced"]
    per_job = layer_times_per_job(spans)
    job_durations = {s["job"]: s["end"] - s["start"] for s in job_spans(spans)}
    total_job = sum(job_durations.values())

    def per_job_median(name):
        return median(per_job.get(k, {}).get(name, 0.0) for k in job_durations)

    def share(*names):
        if total_job <= 0:
            return 0.0
        return sum(per_job.get(k, {}).get(n, 0.0)
                   for k in job_durations for n in names) / total_job

    total_latency = sum(j["latency_s"] for j in jobs)

    def latency_share(values):
        return sum(values) / total_latency if total_latency > 0 else 0.0

    served_wait = [j["queue_s"] for j in jobs]
    served_run = [j["run_s"] for j in jobs]
    served = any(j["run_s"] > 0 for j in jobs)
    wire = [j["latency_s"] - j["queue_s"] - j["run_s"] for j in jobs] if served else []
    produced = sum(j["chunks_produced"] for j in jobs)
    consumed = sum(j["chunks_consumed"] for j in jobs)
    untraced_job = median((j["latency_s"] - j["queue_s"]) for j in jobs)
    setup_total = median(s["total_s"] for s in record["setups"])
    blind = any(t["sync_evaluations"] for t in traced)

    values = {
        "trace.job_s": median(job_durations.values()),
        "trace.unattributed_share": unattributed_share(spans),
        "trace.overhead": (median(job_durations.values()) / untraced_job
                           if untraced_job > 0 else 0.0),
        "box.calib_s": median(record["calibration_s"]),
        "setup.scenario_build_s": median(s["scenario_build_s"]
                                         for s in record["setups"]),
        "serve.queue_wait_share": latency_share(served_wait),
        "serve.run_share": latency_share(served_run),
        "serve.wire_share": latency_share(wire),
        "serve.codec_share": share("serve.codec"),
        "serve.submit_bytes": median(t["submit_bytes"] for t in traced),
        "serve.scenario_hit_ratio": (mean(1.0 if j["scenario_hit"] else 0.0
                                          for j in jobs)),
        "serve.engine_hit_ratio": mean(1.0 if j["engine_hit"] else 0.0
                                       for j in jobs),
        "serve.queue_high_water": record["queue_high_water"],
        "sim.open_stream_share": share("sim.open_stream"),
        "sim.chunk_share": share("sim.chunk"),
        "sim.cycles_synthesised": mean(t["cycles_synthesised"] for t in traced),
        "stream.ingest_s": per_job_median("stream.ingest"),
        "stream.finalize_s": per_job_median("stream.finalize"),
        "stream.evaluations": mean(t["evaluations"] for t in traced),
        "stream.decision_fraction": mean(t["decision_cycles"] / t["total_cycles"]
                                         for t in traced),
        # Served jobs ingest every chunk their source produces.
        "stream.chunk_use_ratio": consumed / produced if produced else 1.0,
        "cpa.fold_s": per_job_median("cpa.fold"),
        "cpa.sweep_s": per_job_median("cpa.sweep"),
        "sync.find_sync_share": share("sync.find_sync"),
        "sync.evaluations": mean(t["sync_evaluations"] for t in traced),
        "sync.lock_ratio": (mean(1.0 if t["sync_locked"] else 0.0 for t in traced)
                            if blind else 0.0),
        "sync.engine_build_share": (median(s["engine_build_s"]
                                           for s in record["setups"]) /
                                    setup_total if setup_total > 0 else 0.0),
        "detect.session_run_share": latency_share(j["session_s"] for j in jobs),
    }
    seconds = {
        "serve.queue_wait_s": median(served_wait) if served else None,
        "serve.run_s": median(served_run) if served else None,
        "serve.wire_s": median(wire) if served else None,
        "serve.codec_s": per_job_median("serve.codec") if served else None,
        "sim.open_stream_s": per_job_median("sim.open_stream"),
        "sim.chunk_s": per_job_median("sim.chunk"),
        "sync.find_sync_s": per_job_median("sync.find_sync") if blind else None,
        "sync.engine_build_s": (median(s["engine_build_s"]
                                       for s in record["setups"])
                                if blind else None),
        "detect.session_run_s": (median(j["session_s"] for j in jobs)
                                 if not served else None),
    }
    return values, {k: v for k, v in seconds.items() if v}
