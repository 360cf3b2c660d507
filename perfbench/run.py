#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload (or all).

    python3 perfbench/run.py --workload paper_read --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one command

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics (and
writes the last traced repetition's spans to perfbench/out/ as Chrome
trace-event JSON). The exit status is non-zero when the build, the
harness-identity check, an output check or the steady-state guard fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["paper_read", "fattree_storm", "write_mix"]
# A run must end within 180 s; leave room for start-up and the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target="perfbench_driver"):
    """Configures (once) and builds `target`; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def load_spec():
    """(run seconds, steady-state bound) from BENCHMARK.json. The steady-state
    guard uses wall_us_per_job's bound."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    for metric in spec["end_to_end"]:
        if metric["name"] == "wall_us_per_job":
            return spec["run_seconds"], metric["bound"]
    fail("BENCHMARK.json has no wall_us_per_job bound")


def run_workload(workload, args, bound):
    """Runs the driver on one workload; returns (exit code, lines, result)."""
    work = os.path.join(HERE, "work", "%s-%d" % (workload, os.getpid()))
    cmd = [DRIVER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--steady-bound", repr(bound)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "%s-seed%d.trace.json" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads for the benchmark's tests")
    args = parser.parse_args()

    run_seconds, bound = load_spec()
    if args.seconds is None:
        args.seconds = run_seconds
    build()
    if args.workload != "all":
        code, lines, _ = run_workload(args.workload, args, bound)
        sys.stdout.write("\n".join(lines) + "\n")
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_workload(workload, args, bound)
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        worst = worst or code
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
