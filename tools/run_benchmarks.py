#!/usr/bin/env python3
"""Kernel benchmark runner: micro_attendance in, canonical BENCH file out.

Builds and runs bench/micro_attendance.cc (the google-benchmark binary
over the attendance-model and SoA span kernels), aggregates repeats by
median, and writes the canonical BENCH_micro_attendance.json at the repo
root, the file `--compare` diffs against. Standard library only. The
end-to-end benchmark is perfbench/ (docs/BENCHMARKS.md).

Workflow:

    python3 tools/run_benchmarks.py                    # canonical run
    python3 tools/run_benchmarks.py --repeat=5         # more repeats
    python3 tools/run_benchmarks.py --compare=HEAD~1   # regression diff

Methodology:
  * test-free Release build into build-bench/ (skip with --no-build),
    the build type of perfbench and of CI's release job;
  * CPU pinning via taskset where available (skip with --no-pin);
  * N repeats (--repeat), element-wise median over every numeric
    field — medians shrug off the odd scheduling hiccup that would skew
    a mean.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BUILD_DIR = os.path.join(REPO_ROOT, "build-bench")

MICRO_SCENARIO = "micro_attendance"
MICRO_TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def median(values):
    """Median of a numeric list (mean of the middle pair on even sizes)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def median_tree(trees):
    """Element-wise median over parallel JSON trees.

    Numbers are replaced by the median across the repeats; dicts and
    lists recurse; anything else (strings, None) must agree across
    repeats and is carried through. Mixed shapes raise ValueError — a
    repeat that produced a different report schema is a bug, not data.
    """
    if not trees:
        raise ValueError("median_tree needs at least one tree")
    first = trees[0]
    if isinstance(first, bool) or not isinstance(first, (int, float, dict, list)):
        for tree in trees[1:]:
            if tree != first:
                raise ValueError(
                    f"non-numeric field disagrees across repeats: "
                    f"{first!r} vs {tree!r}")
        return first
    if isinstance(first, dict):
        keys = set(first)
        for tree in trees[1:]:
            if not isinstance(tree, dict) or set(tree) != keys:
                raise ValueError("report schema differs across repeats")
        return {key: median_tree([tree[key] for tree in trees]) for key in keys}
    if isinstance(first, list):
        length = len(first)
        for tree in trees[1:]:
            if not isinstance(tree, list) or len(tree) != length:
                raise ValueError("report schema differs across repeats")
        return [median_tree([tree[i] for tree in trees]) for i in range(length)]
    # int/float — a null in some repeats only (a benchmark that reported
    # items_per_second once but not always) is a schema change.
    numeric = [t for t in trees if isinstance(t, (int, float))
               and not isinstance(t, bool)]
    if len(numeric) != len(trees):
        raise ValueError("numeric field is null in some repeats")
    value = median(numeric)
    # Keep counts integral so BENCH diffs stay clean.
    if all(isinstance(t, int) for t in numeric) and float(value).is_integer():
        return int(value)
    return value


def bench_path(scenario, out_dir=REPO_ROOT):
    return os.path.join(out_dir, f"BENCH_{scenario}.json")


def write_canonical(scenario, size, reports, out_dir=REPO_ROOT):
    """Writes BENCH_<scenario>.json from per-repeat reports; returns path."""
    canonical = {
        "scenario": scenario,
        "size": size,
        "repeats": len(reports),
        "report": median_tree(reports),
    }
    path = bench_path(scenario, out_dir)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(canonical, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def render_compare(scenario, rows):
    lines = [f"{scenario}:"]
    for key, old_value, new_value, ratio in rows:
        delta = "n/a" if ratio is None else f"{ratio * 100:+.1f}%"
        lines.append(f"  {key:<16} {old_value:>12.3f} -> {new_value:>12.3f}"
                     f"  ({delta})")
    return "\n".join(lines)


def load_git_canonical(ref, scenario, repo_root=REPO_ROOT):
    """BENCH_<scenario>.json as of <ref>, or None when absent there."""
    proc = subprocess.run(
        ["git", "show", f"{ref}:BENCH_{scenario}.json"],
        capture_output=True, text=True, check=False, cwd=repo_root)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout)


def micro_report(raw):
    """Normalizes one google-benchmark JSON dump into a BENCH report.

    Keeps only per-iteration entries (no aggregates), converts times to
    nanoseconds via the per-benchmark time_unit, and carries
    items_per_second through when the benchmark reported it. The result
    is a plain {"benchmarks": {name: {...}}} tree that median_tree can
    fold across repeats.
    """
    benchmarks = {}
    for entry in raw.get("benchmarks", []):
        if entry.get("run_type", "iteration") != "iteration":
            continue
        factor = MICRO_TIME_UNIT_NS[entry.get("time_unit", "ns")]
        benchmarks[entry["name"]] = {
            "real_time_ns": entry["real_time"] * factor,
            "cpu_time_ns": entry["cpu_time"] * factor,
            "items_per_second": entry.get("items_per_second"),
        }
    if not benchmarks:
        raise ValueError("benchmark dump contains no iteration entries")
    return {"benchmarks": benchmarks}


def micro_summary_rows(canonical):
    """(name, real_time_ns, cpu_time_ns, items_per_second) per kernel."""
    rows = []
    for name in sorted(canonical["report"]["benchmarks"]):
        entry = canonical["report"]["benchmarks"][name]
        rows.append((name, entry["real_time_ns"], entry["cpu_time_ns"],
                     entry.get("items_per_second")))
    return rows


def render_micro_leaderboard(canonical):
    """Fixed-width per-benchmark table for one micro canonical tree."""
    header = (f"{'benchmark':<32} {'real ns':>12} {'cpu ns':>12} "
              f"{'items/s':>12}")
    lines = [header, "-" * len(header)]
    for name, real_ns, cpu_ns, items in micro_summary_rows(canonical):
        items_text = "-" if items is None else f"{items:.3e}"
        lines.append(f"{name:<32} {real_ns:>12.1f} {cpu_ns:>12.1f} "
                     f"{items_text:>12}")
    return "\n".join(lines)


def micro_compare_rows(old_canonical, new_canonical):
    """Per-benchmark (metric, old, new, delta-ratio) real-time rows.

    Benchmarks present on only one side are skipped — a renamed or new
    kernel has no baseline to diff against.
    """
    old_benchmarks = old_canonical["report"]["benchmarks"]
    new_benchmarks = new_canonical["report"]["benchmarks"]
    rows = []
    for name in sorted(set(old_benchmarks) & set(new_benchmarks)):
        old_ns = old_benchmarks[name]["real_time_ns"]
        new_ns = new_benchmarks[name]["real_time_ns"]
        ratio = None if old_ns == 0 else (new_ns - old_ns) / old_ns
        rows.append((f"{name} ns", old_ns, new_ns, ratio))
    return rows


def build_micro(build_dir):
    """Configures and builds the micro_attendance benchmark binary."""
    subprocess.run(
        ["cmake", "-B", build_dir, "-S", REPO_ROOT,
         "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
        check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "micro_attendance",
         "-j", str(os.cpu_count() or 2)],
        check=True)


def run_micro(binary, repeats, tmp_dir, no_pin):
    """Runs the micro binary N times; returns normalized reports."""
    reports = []
    for repeat in range(repeats):
        out = os.path.join(tmp_dir, f"micro_{repeat}.json")
        subprocess.run(
            pin_prefix(no_pin) + [
                binary, f"--benchmark_out={out}",
                "--benchmark_out_format=json"],
            check=True)
        with open(out, encoding="utf-8") as fh:
            reports.append(micro_report(json.load(fh)))
    return reports


def pin_prefix(no_pin):
    """taskset prefix for a stable-frequency core, when available."""
    if no_pin or shutil.which("taskset") is None:
        return []
    return ["taskset", "-c", "0"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="repeats of the binary; the median is canonical")
    parser.add_argument("--build-dir", default=DEFAULT_BUILD_DIR)
    parser.add_argument("--no-build", action="store_true",
                        help="reuse an existing --build-dir/micro_attendance")
    parser.add_argument("--no-pin", action="store_true",
                        help="skip taskset CPU pinning")
    parser.add_argument("--compare", metavar="REF", default="",
                        help="diff fresh results against "
                             "BENCH_micro_attendance.json at this git ref")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    if not args.no_build:
        build_micro(args.build_dir)
    binary = os.path.join(args.build_dir, "micro_attendance")
    if not os.path.exists(binary):
        parser.error(f"{binary} not found (build it or drop "
                     "--no-build; requires google-benchmark)")
    with tempfile.TemporaryDirectory() as tmp_dir:
        print(f"== {MICRO_SCENARIO} ({args.repeat} repeat(s)) ==",
              flush=True)
        reports = run_micro(binary, args.repeat, tmp_dir, args.no_pin)
    path = write_canonical(MICRO_SCENARIO, "micro", reports)
    print(f"wrote {os.path.relpath(path, REPO_ROOT)}\n")
    canonical = json.load(open(path, encoding="utf-8"))
    print(render_micro_leaderboard(canonical))
    if args.compare:
        print(f"\n-- compare vs {args.compare} --")
        old = load_git_canonical(args.compare, MICRO_SCENARIO)
        if old is None:
            print(f"{MICRO_SCENARIO}: absent at {args.compare}")
        else:
            print(render_compare(
                MICRO_SCENARIO, micro_compare_rows(old, canonical)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
