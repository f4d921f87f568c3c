#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout's sources and run it.

    python3 e2ebench/run.py --workload table1_sweep --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --self-test

The binary is built (Release) under .bench_build/e2ebench at the root of the
checkout; the first run configures and compiles the library, later runs only
check that the build is up to date. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes its spans, as Chrome trace-event JSON, to
.bench_build/e2ebench/<workload>.trace.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ("table1_sweep", "large_assays", "service_warm")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: library sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("e2ebench: build failed: %s" % e)

    if args.self_test:
        command = [BINARY, "--self-test"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            command += ["--trace-out",
                        os.path.join(BUILD, args.workload + ".trace.json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
