#!/usr/bin/env python3
"""Run one benchmark workload against the repository's own sources.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the OCaml runner (perfbench/perfbench.exe, which links the
repository's libraries) with dune into .bench_build/, runs the workload
from the repository root, and re-prints the runner's result as the last
line of stdout: one JSON object with "correct", "attempted", "failed" and
"metrics".  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones; the runner reads both lists from
BENCHMARK.json.  Exits non-zero without a result when the sources are
missing, the build fails, the runner fails, or its result is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
SCRATCH = os.path.join(BUILD_DIR, "perfbench-run")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(code, msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(2, f"{need} is missing: the benchmark builds the program from source")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                             stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(3, f"build failed: {e}")
    if res.returncode != 0:
        die(3, f"build failed with exit code {res.returncode}")


def run_workload(args):
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    cmd = [os.path.join(ROOT, EXE),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH]
    if args.trace:
        cmd += ["--spans", os.path.join(SCRATCH, f"spans-{args.workload}.json")]
    # own process group: a timeout takes the runner's daemon process with it
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # nothing may outlive the run
    except ProcessLookupError:
        pass
    if proc.returncode != 0:
        die(5, f"runner exited with code {proc.returncode}")
    return out


def validate(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        die(6, "runner printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(6, f"runner result is not JSON: {e}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die(6, f"runner result has keys {sorted(result)}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(2, f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(2, f"unknown workload {args.workload!r}; one of {names}")
    t0 = time.monotonic()
    build()
    print(f"run.py: build took {time.monotonic() - t0:.1f}s", file=sys.stderr)
    lines = validate(run_workload(args))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
