#!/usr/bin/env python3
"""Repository benchmark entry point: build mecoff, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hit --seed 1 --seconds 10 --trace 0

It configures the repository's own CMake project in Release (with
perfbench/attach.cmake adding the harness target), builds mecoff_cli
and the harness under .bench_build/perfbench, and runs the harness.
Build output goes to standard error. The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics. perfbench/README.md describes the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("serve_hit", "serve_churn", "batch_multiuser")
# A run must end within 180 s; the harness gets this long before it and
# every process it started are killed.
HARNESS_TIMEOUT_S = 165
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_build_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(command)}")


def configured_for_this_tree():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip() == ROOT
    return False


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/; nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not configured_for_this_tree():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        configure = [cmake, "-S", ROOT, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release", "-DMECOFF_OBS=ON",
                     "-DCMAKE_PROJECT_mecoff_INCLUDE="
                     + os.path.join(HERE, "attach.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step([cmake, "--build", BUILD_DIR, "--target", "mecoff_cli",
                    "perfbench_harness", "-j", JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--cli", os.path.join(BUILD_DIR, "tools", "mecoff_cli"),
               "--work", WORK_DIR]
    # Own process group: a timeout or a signal to this script kills the
    # harness and the server it spawned together.
    harness = subprocess.Popen(command, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(harness.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        harness.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        fail(f"harness still running after {HARNESS_TIMEOUT_S} s; killed", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
