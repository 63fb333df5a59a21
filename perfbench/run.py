#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload provision|inspect \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds perfbench/main.exe from
source into .bench_build (release profile, no shared dune cache, so
nothing is read or written outside the tree), times the set-up in two
extra set-up-only processes, runs the measurement, and prints its
report. The last line of standard output is one JSON object with the
keys "correct", "attempted", "failed" and "metrics"; with --trace 0,
"setup_s" is the median of the three set-ups. Exits non-zero, without
a result line, when the build or a run fails, and with code 1 after the
result line when an output check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
SETUP_PROBES = 2
RUN_DEADLINE_S = 170


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled", "--display", "quiet",
        "./perfbench/main.exe",
    ]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return False
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
    return r.returncode == 0


def run_exe(args, timeout):
    r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=timeout)
    return r.returncode, r.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["provision", "inspect"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not build():
        return 2
    start = time.monotonic()
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]
    try:
        setups = []
        if a.trace == 0:
            for _ in range(SETUP_PROBES):
                code, out = run_exe(common + ["--trace", "0", "--setup-only"], timeout=60)
                if code != 0:
                    print("perfbench: set-up probe failed", file=sys.stderr)
                    return 2
                setups.append(float(out.split()[-1]))
        args = common + ["--trace", str(a.trace), "--nproc", str(len(os.sched_getaffinity(0)))]
        if a.trace == 1:
            args += ["--spans-out", os.path.join(
                BUILD_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
        remaining = RUN_DEADLINE_S - (time.monotonic() - start)
        code, out = run_exe(args, timeout=max(1, remaining))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 2

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        print("perfbench: run produced no result (exit %d)" % code, file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("# setup_s: median of %d set-ups: %s" % (
            len(setups), ", ".join("%.4f" % s for s in setups)))
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
