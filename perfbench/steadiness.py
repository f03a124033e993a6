"""Repeat whole benchmark runs and report how steady each metric is.

    python3 perfbench/steadiness.py --workload ridge_tall [--workload ...] \
        [--runs 10] [--seconds S]

Each run is a fresh `run.py` process with its own seed (1, 2, ..., runs). For each end-to-end metric it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, and for each
run the attempted and failed operations. Every result line is also appended
to perfbench/out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    print("  " + proc.stderr.strip().splitlines()[-1], flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread_table(results: list, bounds: dict) -> list:
    rows = []
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        rows.append((name, results[0]["metrics"][name]["unit"], med, q1, q3, spread, bounds[name]))
    return rows


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(OUT, exist_ok=True)
    for workload in args.workload:
        results = []
        for seed in range(1, args.runs + 1):
            res = one_run(workload, seed, args.seconds)
            results.append(res)
            with open(os.path.join(OUT, "steadiness.jsonl"), "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "seconds": args.seconds, **res}) + "\n")
            print(f"{workload} seed={seed}: attempted={res['attempted']} failed={res['failed']} "
                  f"correct={res['correct']} share_failed={res['failed'] / res['attempted']:.4f}", flush=True)
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s")
        print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, unit, med, q1, q3, spread, bound in spread_table(results, bounds):
            # "ok" below a third of the bound, "near" within it, "WIDE" beyond it
            verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "near"
            print(f"{name:40s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f} {verdict}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
