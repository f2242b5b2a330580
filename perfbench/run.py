#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds `pv-node` (from the repository
workspace) and the benchmark binary (`perfbench/`, a package of its own)
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and
forwards the binary's report. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: every end-to-end
metric of BENCHMARK.json with `--trace 0`, every per-layer metric with
`--trace 1`. A run that fails a correctness gate prints `"correct": false`
with no metrics and exits 1; a build failure or a result that does not
match BENCHMARK.json exits 1 without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "pv-net", "--bin", "pv-node"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def group_alive(pgid):
    """Whether any process of process group `pgid` is still alive."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state (field 3); the process group is field 5.
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(proc):
    """Kills whatever is left of the benchmark's process group (its spawned
    site processes included) and waits until all of it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    limit = time.monotonic() + 10
    while group_alive(proc.pid) and time.monotonic() < limit:
        time.sleep(0.05)


def check(result, spec, trace):
    keys = ["correct", "attempted", "failed", "metrics"]
    if sorted(result) != sorted(keys):
        return f"result keys {sorted(result)}"
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        return "metric names differ from BENCHMARK.json"
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            return f"unit of {m['name']} differs from BENCHMARK.json"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        fail(f"unknown workload {args.workload}")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(env)

    print(f"why: {why[args.workload]}", flush=True)
    cmd = [
        os.path.join(target, "release", "pv-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--node-bin", os.path.join(target, "release", "pv-node"),
        "--work-dir", os.path.join(ROOT, ".bench_run"),
    ]
    # A session of its own, so every process it spawns can be stopped.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, expire)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        timer.cancel()
        stop_group(proc)
    if timed_out.is_set():
        fail("run timed out")
    try:
        result = json.loads(last or "")
    except ValueError:
        fail(f"benchmark exited with {proc.returncode} and no result")
    if proc.returncode != 0 or result.get("correct") is not True:
        # A failed correctness gate: report the failure, not numbers.
        if result.get("correct") is False and not result.get("metrics"):
            print(last, flush=True)
        fail(f"benchmark exited with {proc.returncode}")
    problem = check(result, spec, args.trace == 1)
    if problem:
        fail(problem)
    print(last, flush=True)


if __name__ == "__main__":
    main()
