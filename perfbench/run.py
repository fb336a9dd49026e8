#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. `--workload all` runs the three
workloads one after another and prints one result line each. The first call
configures and builds perfbench/ (the engine libraries from src/ plus the
driver) with CMake into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later calls only re-check the build. The driver's last stdout line is the JSON result; build
output goes to stderr. WALs live under the build directory for the length of
the run, and the traced run leaves its spans in <build>/run/spans/.
"""
import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("pipelined-sim", "threaded-4c", "crash-recovery")
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_root, exist_ok=True)
    # One run at a time per build directory: runs share the build and the
    # WAL directory.
    with open(os.path.join(build_root, "run.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            binary = build(build_root)
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"perfbench: build failed: {error}", file=sys.stderr)
            return 2
        status = 0
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            command = [binary, "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--work-dir", os.path.join(build_root, "run")]
            try:
                code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                print(f"perfbench: {workload} timed out", file=sys.stderr)
                code = 2
            status = status or code
        return status


if __name__ == "__main__":
    sys.exit(main())
