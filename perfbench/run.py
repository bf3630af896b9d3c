#!/usr/bin/env python3
"""phmm benchmark: one closed-loop workload per run, stdlib and numpy only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; phmm is imported from the ``src`` directory next to
this one, never from an installed copy. The last line of standard output
is the result, ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is a report with the environment, the figures under the
names the metrics are known by in phmm's own terms, and the output
digest.

--trace 0 sets up SETUP_REPEATS times (setup_s is their median), then
runs operations for --seconds seconds after one full pass over the
corpus (or one training of each channel), and reports the end-to-end
metrics.

--trace 1 runs that first pass twice on fresh set-ups: plainly, then
with phmm's functions wrapped by the span tracer. It reports the
per-layer metrics of the traced pass, the tracing overhead against the
plain pass, and writes every span to perfbench/out/. Its work is fixed,
so call counts repeat exactly for a seed.

--tiny shrinks every input, for the smoke run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-embedded", "decode-exhaustive", "decode-synced-long")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke run")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(args, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_loop(wl, spec, args, lexicon, corpus, deadline=None, root=None, probe_steps=True):
    root = root or wl.untraced_root
    if spec.kind == "train":
        return wl.train_loop(
            spec, args.workload, args.seed, lexicon, corpus, deadline, root, probe_steps
        )
    return wl.decode_loop(spec, lexicon, corpus, deadline, root)


def quality(wl, spec, lexicon, corpus, outcome, root=None):
    root = root or wl.untraced_root
    if spec.kind == "train":
        return wl.train_quality(corpus, outcome.first)
    return wl.decode_quality(lexicon, corpus, outcome.first, root)


def timed_run(wl, spec, args, workdir):
    probe = wl.SpeedProbe()
    setups = []
    for _ in range(wl.SETUP_REPEATS):
        k = probe.sample()
        lexicon, corpus, took = wl.setup(spec, args.workload, args.seed, workdir)
        setups.append((took, k))
    probe.sample()
    raw_setup_s = statistics.median(took for took, _ in setups)
    setup_s = statistics.median(took / probe.slowdown(k) for took, k in setups)
    outcome = run_loop(wl, spec, args, lexicon, corpus, time.perf_counter() + args.seconds)
    lat = wl.latency_summary(outcome, spec.tail_pct)
    raw = wl.latency_summary(outcome, spec.tail_pct, scaled=False)
    qual = quality(wl, spec, lexicon, corpus, outcome)
    rss = peak_rss_mb()
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "steps_per_s": metric(lat["steps_per_s"], "1/s"),
        "step_p50_ms": metric(lat["step_p50_ms"], "ms"),
        "step_tail_ms": metric(lat["step_tail_ms"], "ms"),
        "nll_per_frame": metric(qual["nll_per_frame"], "nat/frame"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    named = {"setup_s": metric(setup_s, "s"), "peak_rss_mb": metric(rss, "MB")}
    if spec.kind == "train":
        per_channel = {}
        for op, ch in zip(outcome.ops, itertools.cycle(lexicon.channels)):
            if op.ok:
                per_channel.setdefault(ch, []).append(
                    math.fsum(t / outcome.probe.slowdown(k) for t, k in op.steps)
                )
        named["train_s"] = metric(
            math.fsum(statistics.median(v) for v in per_channel.values()), "s"
        )
        named["train_loglik"] = metric(qual["train_loglik"], "nat")
        extra = {"iterations": qual["iterations"], "converged": qual["converged"]}
    else:
        named["decode_utt_per_s"] = metric(lat["steps_per_s"], "1/s")
        named["decode_p50_ms"] = metric(lat["step_p50_ms"], "ms")
        named["decode_tail_ms"] = metric(lat["step_tail_ms"], "ms")
        named["sign_error_rate"] = metric(qual["sign_error_rate"], "ratio")
        named["exact_match_rate"] = metric(qual["exact_match_rate"], "ratio")
        extra = {"n_reference_signs": qual["n_reference_signs"]}
    report = {
        "named_metrics": named,
        "median_slowdown": {
            "setup": statistics.median(probe.samples) / wl.REFERENCE_S,
            "run": statistics.median(outcome.probe.samples) / wl.REFERENCE_S,
        },
        "unscaled": {
            "setup_s": raw_setup_s,
            **{k: raw[k] for k in ("steps_per_s", "step_p50_ms", "step_tail_ms")},
        },
        "tail_percentile": lat["tail_percentile"],
        "tail_samples_beyond": lat["tail_samples_beyond"],
        "n_steps": lat["n_steps"],
        "n_ops": len(outcome.ops),
        "corpus_utterances": len(corpus),
        "digest": outcome.digest,
        "problems": outcome.problems(),
        **extra,
    }
    return outcome, metrics, report


def traced_run(wl, spec, args, workdir):
    from tracer import Tracer

    lexicon, corpus, _ = wl.setup(spec, args.workload, args.seed, workdir)
    plain = run_loop(wl, spec, args, lexicon, corpus, probe_steps=False)

    tracer = Tracer("phmm", wl.LAYERS)
    tracer.install()
    try:
        lexicon, corpus, _ = wl.setup(spec, args.workload, args.seed, workdir, tracer.root)
        outcome = run_loop(wl, spec, args, lexicon, corpus, root=tracer.root, probe_steps=False)
        quality(wl, spec, lexicon, corpus, outcome, tracer.root)
    finally:
        tracer.uninstall()

    by_root = tracer.aggregate()
    totals = {}
    for (name, _), row in by_root.items():
        acc = totals.setdefault(name, [0, 0, 0])
        for j in range(3):
            acc[j] += row[j]
    op_wall_s = totals.get(wl.OP, [0, 0, 0])[1] / 1e9
    plain_wall = math.fsum(op.wall for op in plain.ops)
    # Compare the passes at equal host speed; each operation is scaled by
    # the probes around it.
    overhead_pct = 100.0 * (
        math.fsum(op.wall / outcome.probe.slowdown(op.probe_index) for op in outcome.ops)
        / math.fsum(op.wall / plain.probe.slowdown(op.probe_index) for op in plain.ops)
        - 1.0
    )

    metrics = {}
    layers = []
    for target in wl.LAYERS:
        if target in tracer.absent:
            continue
        calls, incl, self_ns = totals.get(target, (0, 0, 0))
        metrics[f"{target}.calls"] = metric(calls, "count")
        metrics[f"{target}.s"] = metric(incl / 1e9, "s")
        metrics[f"{target}.self_s"] = metric(self_ns / 1e9, "s")
        layers.append((target, calls, incl / 1e9, self_ns / 1e9))

    viterbi = "hmm.viterbi_score_lattice"
    compose = "parallel.compose_models"
    scored = by_root.get((viterbi, wl.OP), (0,))[0]
    composed = by_root.get((compose, wl.OP), (0,))[0]
    ratio_base = None
    if viterbi not in tracer.absent:
        metrics["parallel.candidates_scored"] = metric(scored / len(lexicon.channels), "count")
        if compose not in tracer.absent:
            hit_ratio = 1.0 - composed / scored if scored else 0.0
            metrics["parallel.compose_cache.hit_ratio"] = metric(hit_ratio, "ratio")
            ratio_base = {
                "compose_calls_in_ops": composed,
                "viterbi_score_lattice_calls_in_ops": scored,
            }
    metrics["trace.op_wall_s"] = metric(op_wall_s, "s")
    metrics["trace.overhead_pct"] = metric(overhead_pct, "%")

    layers.sort(key=lambda row: -row[3])
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    report = {
        "absent": tracer.absent,
        "largest_self_layer": layers[0][0] if layers else None,
        "op_wall_s": op_wall_s,
        "plain_op_wall_s": plain_wall,
        "trace_overhead_pct": overhead_pct,
        "compose_cache_hit_ratio_base": ratio_base,
        "layers_by_self_time": [
            {
                "layer": name,
                "calls": calls,
                "s": incl,
                "self_s": self_s,
                "self_share_of_op_wall": self_s / op_wall_s if op_wall_s else None,
            }
            for name, calls, incl, self_s in layers
        ],
        "n_spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digest": outcome.digest,
        "plain_digest": plain.digest,
        "problems": (plain.problems() + outcome.problems())[:5],
    }
    if plain.digest != outcome.digest:
        report["problems"].append("traced pass and plain pass decoded differently")
    merged = wl.Outcome(ops=plain.ops + outcome.ops)
    return merged, metrics, report, plain.digest == outcome.digest


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "phmm" / "__init__.py").is_file():
        print(f"error: phmm sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import phmm

    if Path(phmm.__file__).resolve().parent != (src / "phmm").resolve():
        print(f"error: imported phmm from {phmm.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    spec = (wl.TINY if args.tiny else wl.WORKLOADS)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    consistent = True
    try:
        if args.trace:
            outcome, metrics, report, consistent = traced_run(wl, spec, args, workdir)
        else:
            outcome, metrics, report = timed_run(wl, spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["environment"] = environment(args, numpy.__version__)
    failed = outcome.failed
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(outcome.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
