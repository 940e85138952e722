#!/usr/bin/env python3
"""Builds and runs one workload of the urk benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compute --seed 1 --seconds 20 --trace 0

It builds the `perfbench` package (a Cargo package of its own, linking the
urk crates by path) into $CARGO_TARGET_DIR (default `.bench_build`), runs the
workload in a process of its own, and prints the result as its last line: one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics BENCHMARK.json lists; with
`--trace 1` they are its per-layer metrics, the spans go to
`$CARGO_TARGET_DIR/perfbench-traces/`, and the workload's deterministic
counters are computed again in a fresh process and must repeat exactly.

The traced run also drives an in-process server (the server probe) at two
fixed offered rates with a fixed latency limit, constants in `src/serve.rs`
that `perfbench/workloads.json` records.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compute", "frontend")
# Kill a run that has not finished after this long.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's output goes to stderr so the last stdout line stays the result.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        fail(f"building the benchmark failed (exit {done.returncode})")
    return os.path.join(target_dir(), "release", "urk-perfbench")


def run(cmd):
    """Runs the benchmark binary, relays its output, returns its last line parsed."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(cmd)}` did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"`{' '.join(cmd)}` printed nothing (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1]), done.returncode
    except json.JSONDecodeError:
        fail(f"`{' '.join(cmd)}` did not end with a JSON line (exit {done.returncode})")


def main():
    ap = argparse.ArgumentParser(description="Run one workload of the urk benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    binary = build()
    base = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(target_dir(), "perfbench-traces")]
    result, code = run(cmd)
    if code != 0 or not result.get("correct"):
        print(json.dumps(result))
        fail(f"the {args.workload} run failed its checks (exit {code})")

    listed = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    got = result["metrics"]
    if sorted(got) != sorted(listed):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(listed) - set(got))}, "
             f"extra {sorted(set(got) - set(listed))}")

    if args.trace:
        again, code = run(base + ["--counters-only"])
        if code != 0:
            fail("the counters-only run failed")
        for name, value in again["counters"].items():
            if got.get(name, {}).get("value") != value:
                result["correct"] = False
                print(f"counter {name} did not repeat: {got.get(name)} then {value}",
                      file=sys.stderr)
        print(f"counters: {len(again['counters'])} repeated exactly"
              if result["correct"] else "counters: NOT repeatable")

    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
