#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload, or all.

Usage (from the repository root):

    python3 perfbench/run.py --workload rlqvo_cold --seed 1 --seconds 15 --trace 0

`--workload all` runs every workload in turn and exits non-zero if any run
did.

The benchmark binary is configured and built under .bench_build/perfbench
(Release); later runs only re-check it. Everything the build and the run
write stays under .bench_build/. The binary's standard output is passed
through unchanged, so its last line is the result JSON; build output and
this script's own messages go to standard error. The exit code is the
binary's, or 2 when the build fails (for example when the repository
sources next to this directory are missing).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("rlqvo_cold", "directed_hot", "hub_parallel")


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log(f"repository sources not found next to {HERE}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        )
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources and build files: identifies the code
    under test when the checkout is not a git repository."""
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", os.path.relpath(HERE, ROOT)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    digest = hashlib.sha256()
    for path in paths:
        if path.endswith((".h", ".cc", ".txt")):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true", help="tiny inputs, for the self-test"
    )
    parser.add_argument(
        "--corrupt-expected",
        action="store_true",
        help="corrupt one expected match count (self-test of the gate)",
    )
    args = parser.parse_args()

    if not build():
        return 2
    if args.workload == "all":
        codes = [run_one(args, w) for w in WORKLOADS]
        return next((c for c in codes if c != 0), 0)
    return run_one(args, args.workload)


def run_one(args, workload):
    cmd = [
        BINARY,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(ROOT, ".bench_build", "perfbench-out"),
        "--git-sha", git_sha(),
        "--source-digest", source_digest(),
    ]
    if args.short:
        cmd.append("--short")
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
