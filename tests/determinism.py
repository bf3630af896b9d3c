"""Hash-seed determinism check: phmm writes the same files under any
PYTHONHASHSEED.

    python tests/determinism.py OUTDIR [--phmm CMD] [--against OTHER]

saves the tests' Gaussian twin of the demo lexicon (helpers.gaussian_twin)
as OUTDIR/gaussian.json, runs STEPS in OUTDIR/hash1 and OUTDIR/hash2
under PYTHONHASHSEED 1 and 2, and compares FILES between the two byte
for byte. CMD starts phmm (default: this Python's -m phmm.cli, on the
phmm that this script imports, or this checkout's src if none is
installed; pass "phmm" to check an installed console script). With
--against, FILES in OUTDIR/hash1 are also compared byte for byte with
those in OTHER/hash1, the OUTDIR of an earlier run, say of another
commit. Exits 1, naming the files, if any differ; a failing command
stops the run.

The steps write corpora (one with noise hits and length jitter), models
(embedded and segmented training), training logs at INFO (each
channel's log-likelihood per iteration) and hypotheses: exhaustive
decoding at 1 sign, whose stack's band is read off one-sign chains
alone, at 3 and 4 signs, at 3 on the jittered corpus, whose channels
differ in length, and at 5 on five utterances, whose stack is cut into
blocks that a winner's channels span; synced decoding at the default
beam, at binding beams of 2 and of 1, where the epenthesis and best
sign tokens compete for the one place, and on ten utterances of 4-5
signs, whose winners are rebuilt from many segments. The Gaussian round
runs exhaustive decoding on a jittered corpus, and synced decoding and
embedded and segmented training with their logs on an unjittered one;
segmented training runs the one-block chains of the emission scatter.
Evaluation reports in both modes are compared without their timing
block, the one field that varies from run to run.
"""

import argparse
import contextlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path


def head(src, dst, n):
    """A step that copies the first n lines of src to dst."""

    def step(cwd):
        lines = (cwd / src).read_bytes().splitlines(keepends=True)
        (cwd / dst).write_bytes(b"".join(lines[:n]))

    return step


def untimed(src, dst):
    """A step that copies the evaluation report src to dst without its
    timing block."""

    def step(cwd):
        report = json.loads((cwd / src).read_text())
        del report["timing"]
        (cwd / dst).write_text(json.dumps(report))

    return step


# Run in order in one directory. A step is phmm's arguments, the same
# with the file that takes its INFO log, or a function of the directory.
STEPS = [
    "generate --lexicon demo --n 20 --seed 5 --noise 0.02 --out corpus.jsonl",
    "generate --lexicon demo --n 20 --seed 9 --noise 0.3 --jitter 2"
    " --max-signs 5 --out noisy.jsonl",
    (
        "train --corpus corpus.jsonl --lexicon demo --seed 6 --max-iters 3 --out model.json",
        "train.log",
    ),
    (
        "train --corpus corpus.jsonl --lexicon demo --seed 6 --max-iters 3 --mode segmented"
        " --out segmented.json",
        "segmented.log",
    ),
    "decode --model model.json --corpus corpus.jsonl --max-signs 1 --out hyps1.jsonl",
    "decode --model model.json --corpus corpus.jsonl --max-signs 3 --out hyps.jsonl",
    "decode --model model.json --corpus corpus.jsonl --max-signs 4 --out hyps4.jsonl",
    "decode --model model.json --corpus noisy.jsonl --max-signs 3 --out noisy3.jsonl",
    head("corpus.jsonl", "five.jsonl", 5),
    "decode --model model.json --corpus five.jsonl --max-signs 5 --out hyps5.jsonl",
    "decode --model segmented.json --corpus corpus.jsonl --mode synced --out synced.jsonl",
    "decode --model segmented.json --corpus corpus.jsonl --mode synced --beam-width 2"
    " --out synced2.jsonl",
    "decode --model segmented.json --corpus corpus.jsonl --mode synced --beam-width 1"
    " --out synced1.jsonl",
    "generate --lexicon demo --n 10 --seed 13 --noise 0.02 --min-signs 4 --max-signs 5"
    " --out long.jsonl",
    "decode --model model.json --corpus long.jsonl --mode synced --out long_synced.jsonl",
    "generate --lexicon ../gaussian.json --n 10 --seed 21 --noise 0.3 --jitter 2"
    " --out gauss.jsonl",
    "decode --model ../gaussian.json --corpus gauss.jsonl --max-signs 3 --out gauss_hyps.jsonl",
    "generate --lexicon ../gaussian.json --n 10 --seed 22 --noise 0.3 --out gauss_even.jsonl",
    "decode --model ../gaussian.json --corpus gauss_even.jsonl --mode synced"
    " --out gauss_synced.jsonl",
    (
        "train --lexicon ../gaussian.json --corpus gauss_even.jsonl --seed 6 --max-iters 3"
        " --out gauss_model.json",
        "gauss_train.log",
    ),
    (
        "train --lexicon ../gaussian.json --corpus gauss_even.jsonl --mode segmented --seed 6"
        " --max-iters 3 --out gauss_segmented.json",
        "gauss_segmented.log",
    ),
    "evaluate --model model.json --corpus corpus.jsonl --mode exhaustive"
    " --report timed_exhaustive.json",
    untimed("timed_exhaustive.json", "report_exhaustive.json"),
    "evaluate --model model.json --corpus corpus.jsonl --mode synced --report timed_synced.json",
    untimed("timed_synced.json", "report_synced.json"),
]

FILES = [
    "corpus.jsonl", "noisy.jsonl", "model.json", "segmented.json", "train.log",
    "segmented.log", "hyps1.jsonl", "hyps.jsonl", "hyps4.jsonl", "noisy3.jsonl",
    "hyps5.jsonl", "synced.jsonl", "synced2.jsonl", "synced1.jsonl", "long.jsonl",
    "long_synced.jsonl", "report_exhaustive.json", "report_synced.json",
    "gauss.jsonl", "gauss_hyps.jsonl", "gauss_even.jsonl", "gauss_synced.jsonl",
    "gauss_model.json", "gauss_train.log", "gauss_segmented.json", "gauss_segmented.log",
]


def run_steps(steps, cwd, phmm, env):
    """Run steps in cwd, phmm (a list) starting phmm with env."""
    for step in steps:
        if callable(step):
            step(cwd)
            continue
        args, log = (step, None) if isinstance(step, str) else step
        logged = {**env, "PHMM_LOG_LEVEL": "INFO"} if log else env
        with open(cwd / log, "w") if log else contextlib.nullcontext() as err:
            subprocess.run([*phmm, *args.split()], cwd=cwd, env=logged, stderr=err, check=True)


def differing(steps, files, outdir, phmm, env):
    """Run steps in outdir/hash1 and outdir/hash2 with env under
    PYTHONHASHSEED 1 and 2, and return those of files that differ
    between the two."""
    dirs = [Path(outdir) / "hash1", Path(outdir) / "hash2"]
    for seed, cwd in enumerate(dirs, 1):
        cwd.mkdir()
        run_steps(steps, cwd, phmm, {**env, "PYTHONHASHSEED": str(seed)})
    return unequal(files, *dirs)


def unequal(files, one, other):
    """Those of files whose bytes differ between directories one and
    other, or that either lacks."""
    return [
        f
        for f in files
        if not ((one / f).is_file() and (other / f).is_file())
        or (one / f).read_bytes() != (other / f).read_bytes()
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--phmm", help="the command that starts phmm")
    parser.add_argument(
        "--against", type=Path, metavar="OTHER", help="an earlier OUTDIR to compare hash1 with"
    )
    args = parser.parse_args(argv)
    try:
        import phmm
    except ModuleNotFoundError:  # not installed: the phmm of this checkout
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        import phmm
    from helpers import gaussian_twin
    from phmm.model_io import save_model

    env = dict(os.environ)
    if args.phmm is None:  # this Python, importing the phmm this script imports
        command = [sys.executable, "-m", "phmm.cli"]
        env["PYTHONPATH"] = str(Path(phmm.__file__).parents[1])
    else:
        command = shlex.split(args.phmm)
    args.outdir.mkdir(parents=True, exist_ok=True)
    save_model(args.outdir / "gaussian.json", gaussian_twin())
    bad = differing(STEPS, FILES, args.outdir, command, env)
    for f in bad:
        print(f"{f} differs between PYTHONHASHSEED 1 and 2", file=sys.stderr)
    print(f"{len(FILES) - len(bad)} of {len(FILES)} files equal across hash seeds")
    if args.against is not None:
        changed = unequal(FILES, args.outdir / "hash1", args.against / "hash1")
        for f in changed:
            print(f"{f} differs from {args.against / 'hash1' / f}", file=sys.stderr)
        print(f"{len(FILES) - len(changed)} of {len(FILES)} files equal to {args.against}")
        bad += changed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
