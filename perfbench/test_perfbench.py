#!/usr/bin/env python3
"""The benchmark's own tests: the percentile rule, span self time,
failure accounting, the correctness gate and seeded job generation.

    python3 perfbench/test_perfbench.py

The job-generation test builds the benchmark program first (as run.py does).
"""

import math
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
import metrics  # noqa: E402
import run  # noqa: E402


def job(status="done", present=True, detected=True, peak=100, truth=100,
        period=4095):
    return {"status": status, "present": present, "detected": detected,
            "peak_rotation": peak, "true_rotation": truth, "period": period}


def span(sid, parent, start, end, name="x", job_id=0):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "job": job_id}


class TailPercentileTest(unittest.TestCase):
    def test_plain_p90_with_enough_samples(self):
        values, level, beyond = metrics.tail_percentile(range(1, 201))
        self.assertEqual(values, 180)  # nearest rank ceil(0.9 * 200)
        self.assertAlmostEqual(level, 0.90)
        self.assertEqual(beyond, 20)

    def test_rank_moves_down_to_keep_ten_beyond(self):
        value, level, beyond = metrics.tail_percentile(range(1, 51))
        self.assertEqual(value, 40)
        self.assertAlmostEqual(level, 0.80)
        self.assertEqual(beyond, 10)

    def test_exactly_one_hundred(self):
        value, level, beyond = metrics.tail_percentile(range(1, 101))
        self.assertEqual((value, beyond), (90, 10))

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(range(10))
        value, _, beyond = metrics.tail_percentile(range(11))
        self.assertEqual((value, beyond), (0, 10))

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.tail_percentile([5, 1, 4, 3, 2] * 10),
                         metrics.tail_percentile(sorted([5, 1, 4, 3, 2] * 10)))

    def test_failed_jobs_count_as_slowest(self):
        value, _, _ = metrics.tail_percentile([1.0] * 20 + [math.inf] * 10)
        self.assertEqual(value, 1.0)
        value, _, _ = metrics.tail_percentile([1.0] * 20 + [math.inf] * 11)
        self.assertEqual(value, math.inf)


class SelfTimeTest(unittest.TestCase):
    def test_children_overlap_and_overhang(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0),
                 span(3, 1, 2.0, 5.0), span(4, 1, 8.0, 12.0)]
        selfs = metrics.self_times(spans)
        # Children cover [1, 5] and [8, 10] of the parent: 6 of 10.
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)
        self.assertAlmostEqual(selfs[4], 4.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 0.0, 6.0),
                 span(3, 2, 1.0, 4.0)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 3.0)

    def test_unattributed_share_and_per_job_sums(self):
        spans = [span(1, 0, 0.0, 10.0, "job", 7),
                 span(2, 1, 0.0, 4.0, "sim.chunk", 7),
                 span(3, 1, 4.0, 9.0, "sim.chunk", 7),
                 span(4, 0, 20.0, 22.0, "job", 8),
                 span(5, 4, 20.0, 22.0, "stream.ingest", 8)]
        # 1 s of 12 s of job time is not covered by a child span.
        self.assertAlmostEqual(metrics.unattributed_share(spans), 1.0 / 12.0)
        per_job = metrics.layer_times_per_job(spans)
        self.assertAlmostEqual(per_job[7]["sim.chunk"], 9.0)
        self.assertAlmostEqual(per_job[7]["job"], 1.0)
        self.assertAlmostEqual(per_job[8]["stream.ingest"], 2.0)


class AccountingTest(unittest.TestCase):
    def test_every_kind_of_failure_counts(self):
        jobs = [job(), job(present=False, detected=False),
                job(status="rejected"), job(status="failed"),
                job(status="cancelled"),
                job(present=False, detected=True),     # false alarm
                job(detected=False),                   # miss
                job(peak=100 + metrics.GUARD + 1)]     # peak off the truth
        acct = metrics.accounting(jobs, triggered=True)
        self.assertEqual(acct["attempted"], 8)
        self.assertEqual((acct["rejected"], acct["failed"],
                          acct["cancelled"], acct["wrong"]), (1, 1, 1, 3))
        self.assertEqual(acct["correct"], 2)
        self.assertAlmostEqual(acct["fail_ratio"], 6 / 8)

    def test_peak_position_checked_only_on_triggered_jobs(self):
        off = job(peak=2000)
        self.assertFalse(metrics.verdict_ok(off, triggered=True))
        self.assertTrue(metrics.verdict_ok(off, triggered=False))

    def test_peak_distance_wraps_around_the_period(self):
        self.assertTrue(metrics.verdict_ok(job(peak=4093, truth=3),
                                           triggered=True))
        self.assertEqual(metrics.circular_distance(4093, 3, 4095), 5)

    def test_all_good(self):
        acct = metrics.accounting([job()] * 5, triggered=True)
        self.assertEqual((acct["bad"], acct["fail_ratio"]), (0, 0.0))


def record_of(jobs, traced=()):
    for i, j in enumerate(jobs):
        j.setdefault("index", i)
        j.setdefault("capture", j["index"])
        j.setdefault("peak_z", 6.0)
    return {"jobs": list(jobs), "traced": list(traced)}


class GateTest(unittest.TestCase):
    def gate(self, record):
        return metrics.gate(record, metrics.accounting(record["jobs"],
                                                       triggered=True))

    def test_wrong_verdicts_are_measured_not_gated(self):
        record = record_of([job(), job(present=False, detected=True),
                            job(detected=False)])
        acct = metrics.accounting(record["jobs"], triggered=True)
        self.assertEqual((acct["wrong"], acct["errors"]), (2, 0))
        self.assertAlmostEqual(acct["fail_ratio"], 2 / 3)
        self.assertEqual(self.gate(record), (True, 0, []))

    def test_jobs_that_do_not_complete_fail(self):
        record = record_of([job(), job(status="rejected"),
                            job(status="cancelled")])
        self.assertEqual(self.gate(record), (False, 2, []))

    def test_traced_verdict_must_match(self):
        record = record_of([job(), job()])
        same = {"index": 0, "detected": True, "peak_rotation": 100,
                "peak_z": 6.0}
        moved = dict(same, index=1, peak_z=6.0 + 1e-12)
        record["traced"] = [same, moved]
        self.assertEqual(self.gate(record), (False, 1, [1]))

    def test_unfinished_job_is_not_also_a_mismatch(self):
        record = record_of([job(status="failed", detected=False)])
        record["traced"] = [{"index": 0, "detected": True,
                             "peak_rotation": 100, "peak_z": 6.0}]
        self.assertEqual(self.gate(record), (False, 1, []))

    def test_repeats_of_a_capture_must_agree(self):
        record = record_of([job(), job(), job(peak=101), job()])
        for j, capture in zip(record["jobs"], (0, 1, 0, 1)):
            j["capture"] = capture
        self.assertEqual(self.gate(record), (False, 1, [2]))


class JobGenerationTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program = str(run.build())

    def jobs(self, workload, seed, n=32):
        out = subprocess.run([self.program, "--list-jobs", str(n),
                              "--workload", workload, "--seed", str(seed)],
                             check=True, capture_output=True, text=True)
        return out.stdout.splitlines()

    def test_same_seed_same_jobs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(self.jobs(workload, 5), self.jobs(workload, 5))

    def test_different_seed_different_jobs(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(self.jobs(workload, 5), self.jobs(workload, 6))

    def test_each_block_of_eight_has_the_fixed_mix(self):
        lines = self.jobs("served_triggered", 9, n=64)
        self.assertEqual(len(lines), 64)
        for block in range(8):
            kinds = [(l.split()[1], l.split()[2])
                     for l in lines[8 * block:8 * block + 8]]
            for chip in ("chip=1", "chip=2"):
                self.assertEqual(kinds.count((chip, "present=1")), 3)
                self.assertEqual(kinds.count((chip, "present=0")), 1)

    def test_repetitions_are_distinct(self):
        lines = self.jobs("stream_early_stop", 3, n=64)
        reps = [l.split()[5] for l in lines]
        self.assertEqual(len(set(reps)), 64)


if __name__ == "__main__":
    unittest.main()
