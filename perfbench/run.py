#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The runner and the repository's libraries are built from source with CMake
(Release) into $CARGO_TARGET_DIR, or .bench_build when it is unset, under
the checkout.  The runner's last output line, a JSON object with the keys
correct, attempted, failed and metrics, is printed as this script's last
line.  Traced runs also write their spans to <build>/traces/ as Chrome
Trace Event JSON.  See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fig1-500", "bm16-threads"]
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir, target):
    """Configure once, then build `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")

    for needed in ("CMakeLists.txt", "src", "examples/decks"):
        if not os.path.exists(os.path.join(REPO_ROOT, needed)):
            log("no repository sources next to perfbench/ (missing %s)"
                % needed)
            return 2

    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        if args.selftest:
            return subprocess.run(
                [build(build_dir, "perfbench_tests")],
                stdout=sys.stderr).returncode
        runner = build(build_dir, "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2

    command = [runner, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--deck-dir", os.path.join(REPO_ROOT, "examples", "decks")]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the runner and waits for it before raising.
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("%s exited with %d" % (args.workload, done.returncode))
        return done.returncode or 4
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
