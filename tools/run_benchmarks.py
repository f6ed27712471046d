#!/usr/bin/env python3
"""Kernel benchmark runner: micro_attendance alone, or A/B against a git ref.

Builds and runs bench/micro_attendance.cc, the google-benchmark binary
over the attendance-model and SoA span kernels, and prints each
benchmark's median real time and interquartile range (IQR) over
--repeat runs. With --compare=REF it checks REF out into a temporary
git worktree, builds REF's binary the same way and runs the two
binaries alternately for --repeat rounds. It writes no file. Standard
library only. The end-to-end benchmark is perfbench/
(docs/BENCHMARKS.md).

Workflow:

    python3 tools/run_benchmarks.py --repeat=5                    # timings
    python3 tools/run_benchmarks.py --compare=HEAD~1 --repeat=10  # A/B

Methodology:
  * test-free Release builds, the build type of perfbench and of CI's
    release job (--no-build reuses the working tree's --build-dir; REF
    is always built);
  * CPU pinning via taskset where available (skip with --no-pin);
  * in an A/B run REF runs first in even rounds and second in odd ones;
    a round is a win when the working tree's real time is lower, and a
    tie counts for neither side;
  * a benchmark reads faster (or slower) only with at least MIN_ROUNDS
    rounds, at least nine tenths of them won (or lost), and medians
    further apart than REF's IQR; anything else reads unresolved, since
    run-to-run spread on a shared host is often wider than a kernel
    change.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BUILD_DIR = os.path.join(REPO_ROOT, "build-bench")

MICRO_TARGET = "micro_attendance"
MICRO_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
MIN_ROUNDS = 10


def real_times_ns(raw):
    """{benchmark name: real time in ns} from one google-benchmark JSON dump.

    Keeps only per-iteration entries (no aggregates) and converts each
    time via its benchmark's time_unit.
    """
    times = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        factor = MICRO_TIME_UNIT_NS[entry.get("time_unit", "ns")]
        times[entry["name"]] = entry["real_time"] * factor
    if not times:
        raise ValueError("benchmark dump contains no iteration entries")
    return times


def spread(values):
    """(median, IQR) of a list of times; the IQR is None for one value."""
    if len(values) < 2:
        return values[0], None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def ab_row(ref_times, tree_times):
    """(REF median, tree median, REF IQR, wins, verdict) over paired rounds."""
    ref_median, ref_iqr = spread(ref_times)
    tree_median = statistics.median(tree_times)
    rounds = len(ref_times)
    wins = sum(tree < ref for ref, tree in zip(ref_times, tree_times))
    losses = sum(tree > ref for ref, tree in zip(ref_times, tree_times))
    verdict = "unresolved"
    if rounds >= MIN_ROUNDS and abs(tree_median - ref_median) > ref_iqr:
        if 10 * wins >= 9 * rounds:
            verdict = "faster"
        elif 10 * losses >= 9 * rounds:
            verdict = "slower"
    return ref_median, tree_median, ref_iqr, wins, verdict


def format_ns(value):
    return "n/a" if value is None else f"{value:.1f}"


def render_timings(runs):
    """Median and IQR of each benchmark's real time over the runs."""
    header = f"{'benchmark':<36} {'median ns':>14} {'IQR ns':>12}"
    lines = [header, "-" * len(header)]
    for name in sorted(runs[0]):
        median, iqr = spread([run[name] for run in runs])
        lines.append(f"{name:<36} {median:>14.1f} {format_ns(iqr):>12}")
    return "\n".join(lines)


def render_ab(ref, ref_runs, tree_runs):
    """One row per benchmark timed on both sides, then the one-sided names."""
    header = (f"{'benchmark':<36} {'ref ns':>14} {'tree ns':>14} "
              f"{'delta':>8} {'ref IQR ns':>12} {'wins':>6}  verdict")
    lines = [header, "-" * len(header)]
    ref_names, tree_names = set(ref_runs[0]), set(tree_runs[0])
    for name in sorted(ref_names & tree_names):
        ref_median, tree_median, ref_iqr, wins, verdict = ab_row(
            [run[name] for run in ref_runs], [run[name] for run in tree_runs])
        delta = ("n/a" if ref_median == 0 else
                 f"{(tree_median - ref_median) / ref_median * 100:+.1f}%")
        won = f"{wins}/{len(ref_runs)}"
        lines.append(f"{name:<36} {ref_median:>14.1f} {tree_median:>14.1f} "
                     f"{delta:>8} {format_ns(ref_iqr):>12} {won:>6}  "
                     f"{verdict}")
    for where, names in ((f"at {ref}", ref_names - tree_names),
                         ("in the working tree", tree_names - ref_names)):
        if names:
            lines.append(f"only {where}: {', '.join(sorted(names))}")
    return "\n".join(lines)


def build_micro(source_dir, build_dir):
    """Builds source_dir's micro_attendance as Release; returns its path."""
    subprocess.run(
        ["cmake", "-B", build_dir, "-S", source_dir,
         "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
        check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", MICRO_TARGET,
         "-j", str(os.cpu_count() or 2)],
        check=True)
    return os.path.join(build_dir, MICRO_TARGET)


def build_ref(ref, tmp_dir):
    """Builds REF's micro_attendance from a git worktree under tmp_dir.

    The worktree is removed as soon as the build ends, whether or not it
    succeeded; the binary stays in tmp_dir.
    """
    source = os.path.join(tmp_dir, "ref-src")
    subprocess.run(["git", "worktree", "add", "--detach", source, ref],
                   cwd=REPO_ROOT, check=True)
    try:
        return build_micro(source, os.path.join(tmp_dir, "ref-build"))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", source],
                       cwd=REPO_ROOT, check=True)


def run_rounds(binaries, rounds, tmp_dir, no_pin):
    """Runs every binary once per round, in reverse order in odd rounds.

    Returns, per binary, one {name: real time ns} dict per round.
    """
    runs = [[] for _ in binaries]
    for index in range(rounds):
        print(f"round {index + 1}/{rounds}", flush=True)
        order = range(len(binaries))
        for side in (order if index % 2 == 0 else reversed(order)):
            out = os.path.join(tmp_dir, f"side{side}.json")
            subprocess.run(
                pin_prefix(no_pin) + [
                    binaries[side], f"--benchmark_out={out}",
                    "--benchmark_out_format=json"],
                check=True, stdout=subprocess.DEVNULL)
            with open(out, encoding="utf-8") as fh:
                runs[side].append(real_times_ns(json.load(fh)))
    return runs


def pin_prefix(no_pin):
    """taskset prefix for a stable-frequency core, when available."""
    if no_pin or shutil.which("taskset") is None:
        return []
    return ["taskset", "-c", "0"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs of the binary, or A/B rounds with "
                             f"--compare (a verdict needs {MIN_ROUNDS})")
    parser.add_argument("--build-dir", default=DEFAULT_BUILD_DIR)
    parser.add_argument("--no-build", action="store_true",
                        help="reuse an existing --build-dir/micro_attendance")
    parser.add_argument("--no-pin", action="store_true",
                        help="skip taskset CPU pinning")
    parser.add_argument("--compare", metavar="REF", default="",
                        help="build micro_attendance at this git ref and "
                             "run it alternately with the working tree's")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    if args.compare and subprocess.run(
            ["git", "rev-parse", "--verify", "--quiet",
             f"{args.compare}^{{commit}}"],
            cwd=REPO_ROOT, capture_output=True, check=False).returncode:
        parser.error(f"--compare: {args.compare!r} names no commit")

    binary = os.path.join(args.build_dir, MICRO_TARGET)
    if not args.no_build:
        build_micro(REPO_ROOT, args.build_dir)
    if not os.path.exists(binary):
        parser.error(f"{binary} not found (build it or drop "
                     "--no-build; requires google-benchmark)")
    with tempfile.TemporaryDirectory() as tmp_dir:
        binaries = [binary]
        if args.compare:
            binaries.insert(0, build_ref(args.compare, tmp_dir))
            print(f"== {MICRO_TARGET}: {args.compare} (ref) vs working tree "
                  f"(tree), {args.repeat} round(s) ==", flush=True)
        else:
            print(f"== {MICRO_TARGET}: {args.repeat} run(s) ==", flush=True)
        runs = run_rounds(binaries, args.repeat, tmp_dir, args.no_pin)
    print(render_ab(args.compare, *runs) if args.compare
          else render_timings(runs[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
