#!/usr/bin/env python3
"""Self-test of the benchmark, in its short mode (tiny inputs, ~1 minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run prints every end-to-end metric, with its unit, and a
    traced run every per-layer metric, each with the unit BENCHMARK.json
    gives it;
  * the count metrics repeat exactly across two runs at one seed;
  * the correctness gate fails (non-zero exit, "correct": false) when an
    expected match count is corrupted.
It also checks that the benchmark exits non-zero without a result when only
BENCHMARK.json and this directory are present. Exits non-zero on any
failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
COUNT_METRICS = ("enum_per_query", "enum_vs_reference", "ok_share")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def check_metrics(tag, result, specs):
    got = result["metrics"] if result else {}
    for spec in specs:
        m = got.get(spec["name"])
        check(
            m is not None and m["unit"] == spec["unit"] and isinstance(m["value"], (int, float)),
            f"{tag}: {spec['name']} printed in {spec['unit']}",
        )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        code, first = run(w, 0, "--short")
        check(code == 0 and first is not None and first["correct"], f"{w}: clean run passes the gate")
        check_metrics(w, first, bench["end_to_end"])
        _, second = run(w, 0, "--short")
        for name in COUNT_METRICS:
            a = first and first["metrics"].get(name, {}).get("value")
            b = second and second["metrics"].get(name, {}).get("value")
            check(a is not None and a == b, f"{w}: {name} repeats exactly at seed {SEED} ({a} vs {b})")
        code, traced = run(w, 1, "--short")
        check(code == 0 and traced is not None and traced["correct"], f"{w}: traced run passes the gate")
        check_metrics(f"{w} traced", traced, bench["per_layer"])
        code, corrupt = run(w, 0, "--short", "--corrupt-expected")
        check(
            code != 0 and corrupt is not None and not corrupt["correct"] and corrupt["failed"] >= 1,
            f"{w}: a corrupted expected count fails the gate (exit {code})",
        )

    # Only BENCHMARK.json and the benchmark's own files: no sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = run(bench["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None, f"bare directory: exit {code} without a result")

    print(f"\n{len(failures)} failure(s)" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
