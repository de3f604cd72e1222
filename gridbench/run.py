#!/usr/bin/env python3
"""Build the grid from source, run one benchmark workload, check it, report.

Usage (from the repository root):

    python3 gridbench/run.py --workload grid_day --seed 1 --seconds 16 --trace 0

The grid libraries and the driver are built with CMake into the directory
named by CARGO_TARGET_DIR (default .bench_build).  The driver runs the
workload in a fresh process and prints one JSON line; this script checks
that line (conservation checks, digests against gridbench/digests.json,
the metric set against BENCHMARK.json) and prints every metric with its
unit, then, as the last line, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A failed check prints "correct": false and exits 1.  --seconds defaults to
run_seconds in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"gridbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then builds incrementally; logs go to the build dir."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "gridbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "cmake_install.cmake").exists():  # never generated
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    selftest = subprocess.run([str(build_dir / "gridbench_selftest")],
                              capture_output=True, text=True, cwd=ROOT)
    if selftest.returncode != 0:
        print(selftest.stdout[-4000:], file=sys.stderr)
        fail("gridbench_selftest failed")


def run_driver(build_dir, args):
    cmd = [str(build_dir / "gridbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.bin")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        print(proc.stderr[-4000:], file=sys.stderr)
        fail(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(report, args, declared, digests):
    """Returns the list of failed checks (empty when the run is correct)."""
    problems = list(report["violations"])
    name = args.workload
    recorded = digests.get(name)
    if recorded is None:
        problems.append(f"no recorded digests for {name}")
    else:
        for got in report["canary_digests"]:
            if got != recorded["canary_digest"]:
                problems.append(f"canary digest {got} != recorded "
                                f"{recorded['canary_digest']}")
        if args.seed == report["default_seed"] and \
                report["digest"] != recorded["digest"]:
            problems.append(f"run digest {report['digest']} != recorded "
                            f"{recorded['digest']}")
    got = report["metrics"]
    for metric in declared:
        value = got.get(metric["name"])
        if value is None:
            problems.append(f"metric {metric['name']} missing")
        elif value["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} unit {value['unit']} "
                            f"!= declared {metric['unit']}")
        elif value["value"] is None:
            problems.append(f"metric {metric['name']} is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=lambda s: int(s, 0))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    report = run_driver(build_dir, args)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    problems = check(report, args, declared, digests)

    print(f"workload {report['workload']} seed {report['seed']} "
          f"horizon {report['horizon_hours']} simulated h, "
          f"digest {report['digest']}")
    for note in report["notes"]:
        print(f"  note: {note}")
    metrics = {}
    for metric in declared:
        value = report["metrics"].get(metric["name"])
        if value is None:
            continue
        metrics[metric["name"]] = value
        print(f"  {metric['name']} = {value['value']} {value['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    attempted = max(1, int(report["attempted"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": 0 if correct else attempted,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
