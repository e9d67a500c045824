#!/usr/bin/env python3
"""Build the receiver benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper_peak --seed 1 --seconds 30 --trace 0

Run from the repository root.  The first call configures and builds
perfbench/ (with the receiver libraries of src/) into .bench_build/, or
into $CARGO_TARGET_DIR when that is set; later calls rebuild only what
changed.  Build output goes to stderr, so the last line of stdout is the
benchmark binary's result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Before running, this prints a "fingerprint:" line with the git commit
(when the checkout is a git repository) and the src/ line count, next to
the binary's own "host:" line (CPUs, SIMD backend, build flags).  Traced
runs (--trace 1) write their span log into the build directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_peak", "turbo_mac_4cell", "city_scale")
# src/ line count when the benchmark was introduced; the fingerprint
# reports the net change against it.
SRC_LINES_BASELINE = 21519


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def src_lines():
    total = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            with open(os.path.join(directory, name), "rb") as f:
                total += f.read().count(b"\n")
    return total


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("receiver sources (src/) not found next to perfbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    binary = build(build_dir)

    lines = src_lines()
    print('fingerprint: {"git_sha": "%s", "src_lines": %d, '
          '"src_lines_net": %+d, "seed": %d}'
          % (git_sha(), lines, lines - SRC_LINES_BASELINE, args.seed),
          flush=True)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", build_dir]
    with subprocess.Popen(command) as child:
        try:
            return child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
