#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload decode-exhaustive --seeds 1-10
    python3 perfbench/spread.py --summarize runs.jsonl [more.jsonl ...]

Runs are sequential, one process at a time, with the command and
run_seconds of BENCHMARK.json. Each run's result and report are appended
to --out (JSON lines). For every workload and end-to-end metric the
summary gives the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, the metric's bound and whether the spread is
below a third of it. Given two or more files, it also prints the change
of each median against the first file, as a share of the first median
(positive = worse, in the metric's own direction).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "process_s": wall,
        "report": json.loads(lines[-2])["report"],
        "result": json.loads(lines[-1]),
    }


def summarize(bench, files):
    runs_by_file = [
        [json.loads(line) for line in Path(f).read_text().splitlines() if line.strip()]
        for f in files
    ]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    first_medians = {}
    for f, runs in zip(files, runs_by_file):
        print(f"== {f}")
        for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
            rows = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
            bad = [r["seed"] for r in rows if not r["result"]["correct"] or r["result"]["failed"]]
            slowest = max(r["process_s"] for r in rows)
            print(f"{workload}: {len(rows)} runs, process_s max {slowest:.1f},"
                  f" incorrect or failed seeds {bad}")
            for name, m in metrics.items():
                values = [r["result"]["metrics"][name]["value"] for r in rows]
                med = statistics.median(values)
                q1, _, q3 = (
                    statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                )
                spread = (q3 - q1) / med
                line = (f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                        f"  spread {spread:7.4f}  bound {m['bound']:.3f}"
                        f"  {'ok' if spread < m['bound'] / 3 else 'WIDE'}")
                key = (workload, name)
                if key in first_medians:
                    base = first_medians[key]
                    sign = 1 if m["better"] == "lower" else -1
                    line += f"  change {sign * (med - base) / base:+.4f}"
                else:
                    first_medians[key] = med
                print(line)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--out", default=None, help="JSON lines file to append runs to")
    p.add_argument("--summarize", nargs="+", default=None, metavar="FILE")
    args = p.parse_args(argv)
    bench = load_benchmark()
    if args.summarize:
        summarize(bench, args.summarize)
        return 0
    out = Path(args.out) if args.out else ROOT / "perfbench" / "out" / "spread.jsonl"
    out.parent.mkdir(exist_ok=True)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            run = run_one(bench, workload, seed, args.trace)
            with out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(run) + "\n")
            res = run["result"]
            print(f"{workload} seed {seed}: {run['process_s']:.1f}s correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if args.trace == 0),
                  flush=True)
    if args.trace == 0:
        summarize(bench, [out])
    return 0


if __name__ == "__main__":
    sys.exit(main())
