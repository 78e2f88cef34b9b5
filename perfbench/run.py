#!/usr/bin/env python3
"""Build and run the hbmsim repository benchmark.

    python3 perfbench/run.py --workload paper_fig2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the hbmsim library from src/) into
.bench_build/perfbench; later calls only re-check the build. The workload
then runs in its own single-threaded process, hbmsim_perfbench, whose
last line of output is the result: one JSON object with the keys
correct, attempted, failed and metrics. That line is also this script's
last line of standard output; everything else it prints is the human
readable report and the per-simulation fingerprints.

Exit codes: 0 on success, 1 when a correctness check failed (the result
is still printed, with "correct": false), 2 when the benchmark could not
be built or run (no result is printed).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_fig2", "backlog_f4", "serve_slo")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "hbmsim_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build; serialized across concurrent callers."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD_DIR / "tmp"))
    (BUILD_DIR / "tmp").mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      env=env, timeout=BUILD_TIMEOUT_S,
                                      check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark did not finish: {e}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    report = lines if result is None else lines[:-1]
    print("\n".join(report))
    if (done.returncode not in (0, 1) or not isinstance(result, dict)
            or set(result) != {"correct", "attempted", "failed", "metrics"}):
        fail(f"benchmark exited {done.returncode} without a valid result")
    print(json.dumps(result))
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
