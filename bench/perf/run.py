#!/usr/bin/env python3
"""Build dmpc_perf from source and run one workload of the benchmark.

    python3 bench/perf/run.py --workload mis_gnm_sparse --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. The harness and the dmpc library it links
(from src/) are built into $CARGO_TARGET_DIR/perf, default
.bench_build/perf; generated inputs live under that directory too and are
removed when the run ends. Build output goes to stderr, so the last line
on stdout is dmpc_perf's result JSON. Exits non-zero, without a result,
when the build fails.
"""
import argparse
import os
import signal
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # subprocess.run kills the build step when SystemExit unwinds through it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    source = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perf")
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.abspath(os.path.join(build, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not any(os.path.exists(os.path.join(build, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", source, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "dmpc_perf"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    binary = os.path.join(build, "dmpc_perf")
    command = [
        binary,
        "--spec=BENCHMARK.json",
        "--workloads=" + os.path.join(source, "workloads.json"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%s" % args.seconds,
        "--trace=%d" % args.trace,
        "--work=" + os.path.join(build, "work"),
    ]
    # Replace this process, so a signal meant for the benchmark reaches
    # dmpc_perf directly (and its children die with it).
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(binary, command, env)


if __name__ == "__main__":
    sys.exit(main())
