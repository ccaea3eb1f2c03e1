#!/usr/bin/env python3
"""Builds and runs the JustQL benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <order_read|traj_remote_read|stream_mixed>
                             --seed <n> --seconds <s> --trace <0|1> [--tiny]

The engine and the justbench binary are compiled from source into
.bench_build/ (CMake, Release; $CARGO_TARGET_DIR overrides the directory)
on first use; later runs rebuild only what changed. justbench prints a
run-record line (every metric with unit and sample count, plus build type,
commit, core count, seed, client count, rates and dataset sizes) and a
result line; this wrapper passes the record through and prints, as the
last line, the result object {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json names (end_to_end untraced, per_layer
traced). It exits non-zero, printing no result, if the build fails,
justbench fails, any answer was wrong, or a named metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("order_read", "traj_remote_read", "stream_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def repo_root():
    return os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.getcwd(), os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds justbench; returns its path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(repo_root(), "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "justbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(out, "justbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", repo_root(), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        sha = proc.stdout.decode().strip()
        if proc.returncode == 0 and sha:
            return sha
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def expected_metrics(trace):
    path = os.path.join(repo_root(), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (small tables, one set-up)")
    args = parser.parse_args()

    binary = build()
    out_dir = os.path.join(os.getcwd(), ".bench_run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--git-sha", git_sha()]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("justbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
        fail("justbench exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        fail("wrong answers or failed operations")
    wanted = expected_metrics(args.trace)
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        fail("result lacks metrics: %s" % ", ".join(missing))
    result["metrics"] = {m: result["metrics"][m] for m in wanted}
    sys.stdout.write("\n".join(lines[:-1]) + "\n" + json.dumps(result) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
