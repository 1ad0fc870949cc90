#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Builds the perfbench package (and the simulator libraries it links, from
src/) in Release under .bench_build/perfbench, runs one workload, and prints
the binary's detail lines followed by one JSON result line holding exactly the
metrics BENCHMARK.json declares for the mode: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. A per-layer metric the
workload does not exercise reads 0; a missing end-to-end metric, a unit that
disagrees with BENCHMARK.json, or a metric BENCHMARK.json does not declare is
an error. Span files of traced runs go to .bench_build/traces.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        build()
    except subprocess.CalledProcessError as e:
        fail(f"build failed: {e}")

    TRACES.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(BUILD / "perfbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(TRACES)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        fail(f"metrics not declared in BENCHMARK.json: {undeclared}")
    out = {}
    for name, unit in declared.items():
        if name not in metrics:
            if not args.trace:
                fail(f"end-to-end metric {name} missing")
            out[name] = {"value": 0, "unit": unit}
            continue
        if metrics[name]["unit"] != unit:
            fail(f"{name} has unit {metrics[name]['unit']}, "
                 f"BENCHMARK.json says {unit}")
        if not isinstance(metrics[name]["value"], (int, float)):
            fail(f"{name} is not a finite number")
        out[name] = metrics[name]
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": out}))


if __name__ == "__main__":
    main()
