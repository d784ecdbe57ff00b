#!/usr/bin/env python3
"""End-to-end benchmark of the HeteroSVD simulator: one run of one workload.

    python3 perfbench/run.py --workload dense-128 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the harness (perfbench/harness.cpp)
against the library in ./src with an optimised CMake build under
.bench_build/ (or $CARGO_TARGET_DIR), runs it, and prints as the last line
of standard output one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones, with spans written under the build directory.
The full run record (fingerprint, environment, both metric sets) is written
there too. Exits nonzero, without a result line, when the build or the run
fails, and with a result line but nonzero when an output is wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("dense-128", "batch-64x16", "serve-mixed")
SETUP_SAMPLES = 5  # set-up is timed this many times per run; median reported
RUN_LIMIT_S = 170  # every run must end within 180 s


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", *generator, "-S", str(ROOT), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_INCLUDE={BENCH_DIR / 'build.cmake'}"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "hsvd_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "hsvd_perfbench"


def run_harness(cmd, deadline):
    """Runs the harness; returns (seconds from spawn to READY, lines, exit code)."""
    start = time.perf_counter()
    ready = None
    lines = []
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - start
            lines.append(line.rstrip("\n"))
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise TimeoutError("harness exceeded the run time limit")
    if ready is None:
        raise RuntimeError(f"harness exited with {proc.returncode} before set-up ended")
    return ready, lines, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    for knob in ("HSVD_THREADS", "HSVD_PIPELINE"):
        if knob in os.environ:
            log(f"rejected: {knob} is set; workloads run with default knobs")
            return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    exe = build(out)
    deadline = max(deadline, time.perf_counter() + RUN_LIMIT_S)  # a cold build may take long
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / "runs").mkdir(exist_ok=True)
    (out / "spans").mkdir(exist_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = run_harness(cmd + ["--setup-only"], deadline)
            if code != 0:
                raise RuntimeError(f"set-up run exited with {code}")
            setup.append(ready)
    spans = out / "spans" / f"{tag}.json"
    ready, lines, code = run_harness(cmd + ["--spans", str(spans)], deadline)
    setup.append(ready)
    if code not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"harness exited with {code} and no record")
    record = json.loads(lines[-1])
    record["setup_samples_s"] = setup
    record["command"] = cmd
    (out / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    source = dict(record["layer" if args.trace else "e2e"])
    if not args.trace:
        source["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError(f"harness did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    fp = record["fingerprint"]
    ref = {k: record["layer"].get(f"harness.reference_{k}", {}).get("value")
           for k in ("ms", "iqr_pct")}
    log(f"{tag}: correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} digest={fp.get('sigma_digest')} "
        f"host reference {ref['ms']} ms (IQR {ref['iqr_pct']}%) "
        f"record={out / 'runs' / (tag + '.json')}")
    for why in record["failures"]:
        log(f"FAILED {why}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] and code == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError, TimeoutError,
            subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        sys.exit(1)
