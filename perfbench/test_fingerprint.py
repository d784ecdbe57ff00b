#!/usr/bin/env python3
"""Determinism test of the benchmark harness.

    python3 perfbench/test_fingerprint.py

Each workload's fingerprint -- simulated latency and throughput, the
versal.* event counts, accel.sweeps, a digest of the sigma of a fixed
sample of results, and the accuracy set's converged count and sigma
digest -- must repeat exactly across repeated runs, across traced and
untraced runs, and across host thread counts. A change that
only makes the simulator faster must keep it; run this before and after.
Takes a few minutes; builds the harness like run.py does.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py: the build helpers)

EXE = None


def fingerprint(workload, seed, trace=0, threads=None, seconds=1):
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    if not record["correct"]:
        raise AssertionError(f"{cmd} reported failures: {record['failures']}")
    return record["fingerprint"]


class FingerprintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global EXE
        EXE = run.build(run.build_dir())

    def assertSame(self, runs):
        first = runs[0]
        self.assertIn("sigma_digest", first)
        self.assertIn("versal.kernel_invocations", first)
        for other in runs[1:]:
            self.assertEqual(first, other)

    def test_dense_repeats_traced_and_threaded(self):
        self.assertSame([fingerprint("dense-128", 7),
                         fingerprint("dense-128", 7),
                         fingerprint("dense-128", 7, trace=1, seconds=2),
                         fingerprint("dense-128", 7, threads=2)])

    def test_batch_across_thread_counts(self):
        self.assertSame([fingerprint("batch-64x16", 7, threads=1),
                         fingerprint("batch-64x16", 7),
                         fingerprint("batch-64x16", 7, threads=3)])

    def test_serve_repeats_traced_and_threaded(self):
        self.assertSame([fingerprint("serve-mixed", 7, seconds=2),
                         fingerprint("serve-mixed", 7, trace=1, seconds=4),
                         fingerprint("serve-mixed", 7, threads=2, seconds=2)])

    def test_seeds_differ(self):
        self.assertNotEqual(fingerprint("serve-mixed", 7, seconds=2)["sigma_digest"],
                            fingerprint("serve-mixed", 8, seconds=2)["sigma_digest"])


if __name__ == "__main__":
    unittest.main()
