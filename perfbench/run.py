#!/usr/bin/env python3
"""Builds and runs the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--corrupt-oracle]

Run from the repository root. Builds the shipped `flow-server` binary and
the benchmark package (release profile, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark. Its standard output is
passed through unchanged: one line per metric, then the JSON result as the
last line. Build output goes to standard error. The exit code is the
benchmark's, or 1 if a build fails or the run overruns its time limit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(env, args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-oracle", action="store_true")
    opts = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env, ["-p", "flowistry-server", "--bin", "flow-server"])
    build(env, ["--manifest-path", os.path.join("perfbench", "Cargo.toml")])

    work_dir = os.path.join(target, "perfbench-work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", opts.workload,
        "--seed", opts.seed,
        "--seconds", opts.seconds,
        "--trace", opts.trace,
        "--server", os.path.join(target, "release", "flow-server"),
        "--work-dir", work_dir,
    ]
    if opts.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    # Own process group, so an overrun can stop the benchmark together with
    # the flow-server it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
