#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

    python3 e2e_bench/run.py --workload uniform --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set (relative to the checkout root), else .bench_build; the span logs of
traced runs and the daemon socket go to .bench_out. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. The
binary clears every IAWJ_* variable from its own environment.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("e2e_bench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s/src; run from a full checkout" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = os.path.join(build_dir, "e2e_bench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "3"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (step[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))
    return binary


def main():
    binary = build()
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
