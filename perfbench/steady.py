#!/usr/bin/env python3
"""Steadiness check: run one workload k times, one seed each, and print
every metric's median and quartiles against its bound.

    python3 perfbench/steady.py --workload paper --runs 10
    python3 perfbench/steady.py --workload grow --runs 5 --first-seed 100
    python3 perfbench/steady.py --workload all --runs 10 --data-seed 23

Run from the repository root. Each run measures for BENCHMARK.json's
`run_seconds`, with tracing off. The spread of a metric is the distance
between its first and third quartile (`statistics.quantiles(n=4)`) as a
share of its median; the bound is the metric's `bound` in BENCHMARK.json.
Exits 1 if a run fails or reports failed operations, or if any spread
exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, data_seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if data_seed is not None:
        cmd += ["--data-seed", str(data_seed)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}")
    context = json.loads(lines[-2]) if len(lines) > 1 else {}
    return json.loads(lines[-1]), context


def report(workload, results, bounds):
    ok = True
    names = list(results[0]["metrics"])
    print(f"\n{workload}: {len(results)} runs")
    print(f"  {'metric':<30} {'unit':<9} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>7}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        if spread <= bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "within bound, above a third"
        else:
            verdict = "OVER BOUND"
            ok = False
        print(f"  {name:<30} {unit:<9} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.2%} {bound:>7.1%}  {verdict}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"  operations: {attempted} attempted, {failed} failed")
    return ok and failed == 0 and all(r["correct"] for r in results)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--data-seed", type=int, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in names if args.workload == "all" else [args.workload]:
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            try:
                result, context = run_once(workload, seed, bench["run_seconds"],
                                           args.data_seed)
            except RuntimeError as e:
                print(f"  {e}", flush=True)
                ok = False
                continue
            print(f"  {workload} seed {seed}: digest {context.get('digest', '?')}", flush=True)
            results.append(result)
        if results:
            ok = report(workload, results, bounds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
