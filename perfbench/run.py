#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: tree-alg1, dag-gdn-paged, serve-k4-replica (see WORKLOADS.md).
The benchmark and the library sources it links are built with CMake into
<build-root>/perfbench, where <build-root> is $CARGO_TARGET_DIR when set and
.bench_build otherwise. Durable homes and traces live under .perfbench_work.
Build output goes to standard error; the last line of standard output is
the result JSON printed by the benchmark binary.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "pipeline_bench",
         "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                env=env)
        if result.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" %
                             " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    # Compiler scratch files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(build_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(bench_dir, build_dir, env):
        return 2

    command = [
        os.path.join(build_dir, "pipeline_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(root, ".perfbench_work"),
    ]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
