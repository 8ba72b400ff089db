#!/usr/bin/env python3
"""Build and run the cocco benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload ga-resnet50 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --test          # the benchmark's own tests

The C++ program (perfbench/src) is built from source into
.bench_build/perfbench on first use. It prints every metric it measured
as its last stdout line; this wrapper prints them as a table and then,
as its own last line, the result object whose metrics are exactly the
BENCHMARK.json list for the run's mode: `end_to_end` for --trace 0,
`per_layer` for --trace 1. It exits non-zero, without a result line,
when the sources are missing, the build fails, or a listed metric was
not measured; and non-zero, after the result line, when a correctness
check failed.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
# Hard stop for one benchmark process (a run must end within 180 s).
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (os.path.isfile("CMakeLists.txt") and
            os.path.isfile(os.path.join("src", "core", "cocco.h"))):
        fail("run from the root of a cocco checkout (no src/ here)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", "perfbench", "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def metric_lists():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        return spec["end_to_end"], spec["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.test:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required")
    end_to_end, per_layer = metric_lists()
    exe = build("perfbench")

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD_DIR, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark printed no report (exit {proc.returncode})")

    measured = report["metrics"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, m in measured.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:40s} {value:>16s} {m['unit']:10s} n={m['n']}")
    for problem in report["problems"]:
        print(f"FAIL: {problem}")

    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for entry in wanted:
        m = measured.get(entry["name"])
        if m is None or m["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} [{entry['unit']}] not measured")
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    correct = report["correct"] and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
