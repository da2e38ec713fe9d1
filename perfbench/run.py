#!/usr/bin/env python3
"""Build the replicaml benchmark and run one workload in its own process.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-poisson --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The benchmark binary (perfbench/bench.ml) is built from source with dune
in release mode into .bench_build/ at the repository root. Each workload
runs in a fresh process, so its peak RSS and GC counts are its own. The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give every metric with its unit
and sample count. --workload all runs every workload in turn and merges
their results under "<workload>/<metric>" names.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", os.path.basename(HERE), "bench.exe")
WORKLOADS = ["fleet-poisson", "power-updates", "scale-minpower"]
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    switch = os.environ.get("OPAM_SWITCH_PREFIX")
    if switch and os.path.isfile(os.path.join(switch, "bin", "dune")):
        return [os.path.join(switch, "bin", "dune")]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("library sources not found next to the benchmark; run from a "
             "full checkout of the repository")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ROOT, "--build-dir", os.path.join(ROOT, BUILD_DIR),
        "--profile", "release", "--display", "quiet",
        os.path.join(os.path.basename(HERE), "bench.exe"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(done.stdout + done.stderr)
        fail("build failed")


def run_one(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt:
        cmd.append("--corrupt")
    if args.domains is not None:
        cmd += ["--domains", str(args.domains)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(workload + ": run timed out")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s: benchmark exited with code %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(workload + ": last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(workload + ": malformed result keys")
    return lines, result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test input sizes")
    p.add_argument("--corrupt", action="store_true",
                   help="damage one placement before the reference check")
    p.add_argument("--domains", type=int,
                   help="fleet shard fan-out (default 1)")
    args = p.parse_args()
    # A terminated run stops its child: subprocess.run kills and reaps
    # the running process when the wait raises.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    if args.workload != "all":
        lines, _ = run_one(args.workload, args)
        print("\n".join(lines))
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_one(workload, args)
        print("== " + workload)
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][workload + "/" + name] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
