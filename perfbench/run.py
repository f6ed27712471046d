#!/usr/bin/env python3
"""Runs one workload of the benchmark and prints its metrics.

    python3 perfbench/run.py --workload cold_solve|serve_open|hop_bestfit \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the driver and the
library from source into $CARGO_TARGET_DIR (default .bench_build) under
the current directory; later runs reuse the build. The report goes to
stdout, ending with one JSON line: {"correct", "attempted", "failed",
"metrics"} — the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. Build output and driver progress go to stderr. Exits 1
when the build or the run fails or any response fails its checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402

WORKLOADS = ("cold_solve", "serve_open", "hop_bestfit")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            print("perfbench: build step failed: %s" % error, file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step), file=sys.stderr)
            return None
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).absolute()
    driver = build(build_root / "perfbench")
    if driver is None:
        return 1

    work = build_root / "perfbench-work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "results.json"
    try:
        done = subprocess.run(
            [str(driver), "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%s" % args.seconds, "--trace=%d" % args.trace,
             "--work=" + str(work), "--out=" + str(out)],
            stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            print("perfbench: driver exited with %d" % done.returncode, file=sys.stderr)
            return 1
        raw = json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines, result = analysis.summarize(raw)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
