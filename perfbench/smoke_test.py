#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at smoke scale (--tiny) under two seeds, untraced and
traced, and checks that the oracle passed, that every metric BENCHMARK.json
names printed with its unit, and that the run record describes the run.
Also checks that the same seed yields the same inputs (equal dataset sizes).

    python3 perfbench/smoke_test.py        # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (11, 12)
RECORD_KEYS = ("build_type", "git_sha", "nproc", "seed", "clients",
               "dataset_rows", "raw_bytes", "on_disk_bytes", "block_cache_bytes")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d failed:\n%s" % (
            workload, seed, trace, proc.stderr.decode(errors="replace")[-3000:]))
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    layers = {}  # (workload, seed) -> traced metric values
    for workload in (w["name"] for w in spec["workloads"]):
        sizes = {}
        for seed in SEEDS:
            for trace in (0, 1):
                record, result = run(workload, seed, trace)
                tag = "%s seed=%d trace=%d" % (workload, seed, trace)
                if not result["correct"] or result["failed"] != 0:
                    failures.append(tag + ": oracle failed")
                if result["attempted"] < 1:
                    failures.append(tag + ": nothing attempted")
                for name, unit in wanted[trace].items():
                    got = result["metrics"].get(name)
                    if got is None:
                        failures.append("%s: metric %s missing" % (tag, name))
                    elif got.get("unit") != unit:
                        failures.append("%s: metric %s unit %r, want %r" % (
                            tag, name, got.get("unit"), unit))
                for key in RECORD_KEYS:
                    if key not in record["run_record"]:
                        failures.append("%s: run record lacks %s" % (tag, key))
                for name, m in record["all_metrics"].items():
                    if "unit" not in m:
                        failures.append("%s: %s has no unit" % (tag, name))
                sizes.setdefault(seed, set()).add(
                    record["run_record"].get("raw_bytes"))
                if trace:
                    layers[(workload, seed)] = {
                        k: v["value"] for k, v in result["metrics"].items()}
                print("ok  " + tag, flush=True)
        for seed, seen in sizes.items():
            if len(seen) != 1:
                failures.append("%s seed=%d: inputs differ between runs %s" % (
                    workload, seed, sorted(seen)))
    # Traced runs must separate the layers: modelled disk wait on the
    # disk-bound workload only, codec and RPC work on the remote one only,
    # flushes on the streaming one.
    checks = (
        ("order_read", "kvstore.disk_wait_ms_per_query", lambda v: v > 0),
        ("order_read", "compress.decode_us_per_query", lambda v: v == 0),
        ("order_read", "net.rpcs_per_query", lambda v: v == 0),
        ("traj_remote_read", "compress.decode_us_per_query", lambda v: v > 0),
        ("traj_remote_read", "net.rpcs_per_query", lambda v: v > 0),
        ("traj_remote_read", "kvstore.disk_wait_ms_per_query", lambda v: v < 0.01),
        ("stream_mixed", "kvstore.flushes", lambda v: v > 0),
    )
    for (workload, seed), values in sorted(layers.items()):
        for wl, name, ok in checks:
            if wl == workload and not ok(values.get(name, float("nan"))):
                failures.append("%s seed=%d: %s = %r" % (
                    workload, seed, name, values.get(name)))
    for f in failures:
        print("FAIL " + f)
    if failures:
        sys.exit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
