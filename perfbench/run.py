#!/usr/bin/env python3
"""Synthesis-flow benchmark: the one command.

Builds the benchmark binary (and the library from the repository's src/
tree) with CMake into .bench_build/perfbench, then runs one workload and
relays its output. The last line of standard output is the result object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      [--smoke] [--expected-optima a,b,c,d]

Workloads: paper-synth, batch-mixed, layer-closure, fleet-replay (see
BENCHMARK.json and perfbench/README.md). With --trace 1 the spans are written
to .bench_build/perfbench/traces/. The exit code is 0 only when every output
check passed.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper-synth", "batch-mixed", "layer-closure", "fleet-replay")
# A run measures for --seconds plus set-up; the slowest (layer-closure) does
# one fixed pass of about a minute. Leave headroom under the 180 s limit.
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources not found at %s" % os.path.join(ROOT, "src"))
    for tool in ("cmake",):
        if shutil.which(tool) is None:
            raise RuntimeError("%s not found on PATH" % tool)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialize concurrent builds of one checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest input set of the workload (for the benchmark's test)")
    parser.add_argument("--expected-optima",
                        help="layer-closure: override the 4 expected optima (test hook)")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log("build failed: %s" % error)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.expected_optima:
        command += ["--expected-optima", args.expected_optima]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    except KeyboardInterrupt:
        child.kill()
        child.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
