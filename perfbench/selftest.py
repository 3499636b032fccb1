#!/usr/bin/env python3
"""The benchmark's self-test.

    python3 perfbench/selftest.py [--seconds S] [workload ...]

For each workload (default: all four), from the repository root:

1. Determinism: two traced runs and two untraced runs with the same seed
   must report identical count metrics (`wire_kb`, `core.iterations`,
   `engine.dirty_fns`, `engine.hit_ratio`, `server.resp_bytes.*`).
2. A second seed runs clean, traced and untraced, so a later gain claim can
   be checked on a seed that was not used while writing it.
3. The oracle detects errors: with `--corrupt-oracle` one expected answer is
   replaced by a wrong one, and the run must fail (nonzero exit,
   `"correct": false`).

Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["corpus-cold", "edit-loop", "query-mix", "results-pull"]
SEED_A, SEED_B = 7, 8
COUNTS = ["core.iterations", "engine.dirty_fns", "engine.hit_ratio"]


def run(workload, seed, trace, seconds, corrupt=False):
    cmd = [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if corrupt:
        cmd.append("--corrupt-oracle")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def counts(result):
    metrics = result["metrics"]
    return {
        name: m["value"]
        for name, m in metrics.items()
        if name in COUNTS or name == "wire_kb" or name.startswith("server.resp_bytes.")
    }


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def clean(workload, seed, trace, seconds):
    code, result, err = run(workload, seed, trace, seconds)
    if code != 0 or result is None or not result["correct"] or result["failed"]:
        fail(f"{workload} seed={seed} trace={trace} exited {code}:\n{err[-2000:]}")
    return result


def main():
    args = sys.argv[1:]
    seconds = 1
    if args[:1] == ["--seconds"]:
        seconds, args = float(args[1]), args[2:]
    for workload in args or WORKLOADS:
        for trace in (0, 1):
            first = counts(clean(workload, SEED_A, trace, seconds))
            second = counts(clean(workload, SEED_A, trace, seconds))
            if first != second:
                fail(f"{workload} trace={trace}: counts differ between runs: {first} vs {second}")
            print(f"ok   {workload} trace={trace}: counts repeat exactly {first}")
            clean(workload, SEED_B, trace, seconds)
            print(f"ok   {workload} trace={trace}: seed {SEED_B} runs clean")
        code, result, _ = run(workload, SEED_A, 0, seconds, corrupt=True)
        if code == 0 or (result is not None and result["correct"]):
            fail(f"{workload}: a corrupted expected answer went unnoticed")
        print(f"ok   {workload}: corrupted oracle answer fails the run (exit {code})")
    print("selftest passed")


if __name__ == "__main__":
    main()
