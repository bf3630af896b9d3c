#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it checks that a plain run prints
each end-to-end metric with its declared unit, that a traced run prints
each per-layer metric with its unit, that both pass their output checks,
that two runs on one seed give the same output digest and that another
seed gives another. It also checks that the tracer reports a missing
function as absent, and that the benchmark refuses to run without
phmm's sources. Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(bench, workload, seed, trace, cwd=ROOT):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(done, what):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{what}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_result(result, declared, what):
    assert set(result) == RESULT_KEYS, f"{what}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{what}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result}"
    got = result["metrics"]
    assert set(got) == set(declared), f"{what}: metrics {sorted(set(got) ^ set(declared))}"
    for name, unit in declared.items():
        value = got[name]["value"]
        assert got[name]["unit"] == unit, f"{what}: {name} unit {got[name]['unit']!r}"
        is_number = isinstance(value, (int, float)) and math.isfinite(value)
        assert is_number, f"{what}: {name}={value!r}"


def check_workload(bench, workload):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    report, result = parse(run(bench, workload, 5, 0), f"{workload} plain")
    check_result(result, e2e, f"{workload} plain")
    for name, value in result["metrics"].items():
        assert value["value"] != 0, f"{workload}: {name} is 0"
    again, _ = parse(run(bench, workload, 5, 0), f"{workload} plain rerun")
    assert again["digest"] == report["digest"], f"{workload}: digest differs on one seed"
    other, _ = parse(run(bench, workload, 6, 0), f"{workload} plain seed 6")
    assert other["digest"] != report["digest"], f"{workload}: seed does not change the inputs"
    traced, result = parse(run(bench, workload, 5, 1), f"{workload} traced")
    check_result(result, layers, f"{workload} traced")
    assert traced["absent"] == [], f"{workload}: absent {traced['absent']}"
    assert traced["digest"] == report["digest"], f"{workload}: traced digest differs"


def check_absent_function():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from phmm import hmm, parallel
    from tracer import Tracer

    original = hmm.viterbi_score_lattice
    tracer = Tracer("phmm", [
        "hmm.viterbi_score_lattice", "hmm.no_such_kernel",
        "no_such_module.fn", "parallel._Unit.no_such_method",
    ])
    tracer.install()
    try:
        assert tracer.absent == [
            "hmm.no_such_kernel", "no_such_module.fn", "parallel._Unit.no_such_method"
        ], tracer.absent
        assert parallel.viterbi_score_lattice is hmm.viterbi_score_lattice is not original
        with tracer.root("bench.op"):
            parallel.viterbi_score_lattice(np.zeros(2), np.zeros((2, 2)), np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert parallel.viterbi_score_lattice is original and hmm.viterbi_score_lattice is original
    table = tracer.aggregate()
    assert table[("hmm.viterbi_score_lattice", "bench.op")][0] == 1, table


def check_refuses_without_sources(bench):
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        done = run(bench, bench["workloads"][0]["name"], 5, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0, "ran without phmm's sources"
    assert '"correct"' not in done.stdout, "printed a result without phmm's sources"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        check_workload(bench, w["name"])
        print(f"ok {w['name']}", flush=True)
    check_absent_function()
    print("ok tracer reports missing functions as absent")
    check_refuses_without_sources(bench)
    print("ok refuses to run without phmm's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
