#!/usr/bin/env python3
"""Checks that the benchmark's exact-repeat counts repeat for a fixed seed.

    python3 perfbench/check_repeat.py [--seed 7] [--seconds 6]

Runs the traced run of pipelined-sim and crash-recovery twice each with the
same seed and compares the counts that are pure functions of (seed, program):
WAL flushes and bytes per transaction, protocol events and messages per
round, the conflict ratio and recovery's rerun count. Exits 1 if any differs.
"""
import argparse
import json
import os
import subprocess
import sys

COUNTS = {
    "pipelined-sim": ["wal.flushes_per_txn", "wal.bytes_per_txn",
                      "protocol.events_per_round", "protocol.messages_per_round",
                      "kv.conflict_ratio"],
    "crash-recovery": ["wal.flushes_per_txn", "wal.bytes_per_txn",
                       "protocol.events_per_round", "protocol.messages_per_round",
                       "kv.conflict_ratio", "recovery.reruns"],
}
RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_counts(workload, seed, seconds):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "1"],
                         stdout=subprocess.PIPE, check=True, text=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS[workload]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=6)
    args = parser.parse_args()
    same = True
    for workload in COUNTS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in COUNTS[workload]:
            verdict = "same" if first[name] == second[name] else "DIFFERENT"
            same = same and first[name] == second[name]
            print(f"{workload:15s} {name:30s} {first[name]!r:>22} {second[name]!r:>22} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
