#!/usr/bin/env python3
"""Steadiness tool for perfbench: repeat runs, summarise, compare.

Run each workload N times with consecutive seeds and print, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
range over the median) against the metric's bound in BENCHMARK.json; the
values are saved as JSON for a later comparison:

    python3 perfbench/steady.py run --workload paper-grid,service-open \\
        --runs 10 --seed 1 --save before.json

Compare two saved sets: each metric's median change, signed so that positive
is worse, against its bound:

    python3 perfbench/steady.py compare before.json after.json

Check that every per-layer counter of the traced run repeats exactly for a
seed (two traced runs per workload):

    python3 perfbench/steady.py counters --workload membound-grid --seed 3
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in SPEC["end_to_end"]}


def run_once(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']}"
                         f" failed={result['failed']}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarise(workload, runs):
    print(f"{workload}: {len(runs)} runs")
    print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for name, metric in E2E.items():
        values = [r[name] for r in runs]
        med, q1, q3, s = spread(values)
        bound = metric["bound"]
        if s <= bound / 3:
            verdict = "ok"
        elif s <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "OVER BOUND"
        print(f"  {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{s:>9.3f}{bound:>7.2f}  {verdict}")


def cmd_run(args):
    saved = {}
    for workload in args.workload.split(","):
        runs = []
        for k in range(args.runs):
            runs.append(run_once(workload, args.seed + k, 0))
            print(f"  {workload} seed {args.seed + k}: "
                  + ", ".join(f"{n}={runs[-1][n]:.6g}" for n in E2E),
                  flush=True)
        summarise(workload, runs)
        saved[workload] = runs
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))


def cmd_compare(args):
    before = json.loads(Path(args.before).read_text())
    after = json.loads(Path(args.after).read_text())
    worst = 0
    for workload in before:
        if workload not in after:
            continue
        print(workload)
        for name, metric in E2E.items():
            a = statistics.median(r[name] for r in before[workload])
            b = statistics.median(r[name] for r in after[workload])
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok" if worse <= metric["bound"] else "WORSE THAN BOUND"
            worst |= verdict != "ok"
            print(f"  {name:<16}{a:>14.6g} -> {b:<14.6g} worse by "
                  f"{worse:+.3f} (bound {metric['bound']:.2f})  {verdict}")
    sys.exit(1 if worst else 0)


def cmd_counters(args):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    bad = 0
    for workload in args.workload.split(","):
        first = run_once(workload, args.seed, 1)
        second = run_once(workload, args.seed, 1)
        counts = [n for n, u in units.items() if u == "count"]
        differ = [n for n in counts if first[n] != second[n]]
        bad += len(differ)
        print(f"{workload}: {len(counts) - len(differ)} of {len(counts)} "
              f"counters repeat exactly" + (f"; differ: {differ}" if differ
                                            else ""))
    sys.exit(1 if bad else 0)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--workload", required=True,
                     help="comma-separated workload names")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1, help="first seed")
    run.add_argument("--save")
    cmp = sub.add_parser("compare")
    cmp.add_argument("before")
    cmp.add_argument("after")
    cnt = sub.add_parser("counters")
    cnt.add_argument("--workload", required=True)
    cnt.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    {"run": cmd_run, "compare": cmd_compare, "counters": cmd_counters}[
        args.cmd](args)


if __name__ == "__main__":
    main()
