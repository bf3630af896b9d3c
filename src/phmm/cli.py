"""Command-line interface: generate, train, decode, evaluate, complexity.

All file formats are JSON (JSON Lines for corpora and hypotheses) with
full-precision numbers. Seeds are mandatory for generate and train, so
every run is reproducible. Exit codes: 0 success, 2 usage, 3 invalid
input, 4 training/numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .corpus import GenConfig, generate, read_corpus, write_corpus
from .demo import demo_lexicon
from .errors import DegenerateModelError, PhmmError, ValidationError
from .lexicon import Lexicon, PhonemeInventory, validate_lexicon
from .metrics import evaluate, report_to_dict
from .model_io import config_hash, load_model, save_model
from .parallel import DECODE_FAILURES, block_ids, decode, model_count
from .training import TrainConfig, train_embedded, train_segmented

log = logging.getLogger("phmm")


def _load_lexicon(spec):
    if spec == "demo":
        lex = demo_lexicon()
    else:
        lex, _ = load_model(spec)
    validate_lexicon(lex)
    log.info("loaded lexicon: %d channels, %d signs", len(lex.channels), len(lex.signs))
    return lex


def cmd_generate(args):
    lexicon = _load_lexicon(args.lexicon)
    corpus = generate(lexicon, args.config)
    write_corpus(args.out, corpus)
    print(f"wrote {len(corpus)} utterances to {args.out} (seed={args.seed})")
    return 0


def _cut_segments(lexicon, channel, corpus):
    """Slice utterances into per-phoneme segments using ground-truth paths.

    Each block of the composed utterance model, one phoneme occurrence,
    gives the run of frames its states hold, so a phoneme in two
    adjacent blocks gives two segments. Segments are listed in corpus
    order, then frame order.
    """
    inv = lexicon.inventory(channel)
    segments = {pid: [] for pid in inv.phonemes}
    for utt in corpus:
        if not utt.paths or channel not in utt.paths:
            raise ValidationError(
                "segmented training requires ground-truth paths in the corpus"
            )
        ids = block_ids(lexicon, channel, utt.signs)
        block_of = np.repeat(np.arange(len(ids)), [inv.phonemes[pid].n_states for pid in ids])
        path = utt.paths[channel]
        obs = utt.mobs.channels[channel]
        if len(path) != len(obs) or not all(
            isinstance(s, (int, np.integer)) and 0 <= s < len(block_of) for s in path
        ):
            raise ValidationError(
                f"{utt.utt_id}: the {channel!r} path does not fit the observations "
                "and the composed model"
            )
        blocks = block_of[path]
        starts = np.flatnonzero(np.diff(blocks, prepend=-1))
        for start, end in zip(starts, [*starts[1:], len(blocks)]):
            segments[ids[blocks[start]]].append(obs[start:end])
    return {pid: segs for pid, segs in segments.items() if segs}


def _log_iterations(channel):
    """An on_iteration hook that logs each EM iteration's total
    log-likelihood and its change at INFO level."""
    trajectory = []

    def hook(it, models, loglik):
        line = "channel %s iteration %d: loglik %.6f"
        if trajectory:
            log.info(line + " change %+.6g", channel, it, loglik, loglik - trajectory[-1])
        else:
            log.info(line, channel, it, loglik)
        trajectory.append(loglik)

    return hook


def cmd_train(args):
    lexicon = _load_lexicon(args.lexicon)
    corpus = read_corpus(args.corpus)
    if not corpus:
        raise ValidationError("training corpus is empty")
    trained = {}
    reports = {}
    for ch in lexicon.channels:
        for utt in corpus:
            if ch not in utt.mobs.channels:
                raise ValidationError(f"corpus lacks channel {ch!r}")
        log.info("%s training on channel %s", args.mode, ch)
        hook = _log_iterations(ch)
        if args.mode == "embedded":
            utts = [(utt.signs, utt.mobs.channels[ch]) for utt in corpus]
            trained[ch], reports[ch] = train_embedded(
                lexicon, ch, utts, args.config, on_iteration=hook
            )
        else:
            segments = _cut_segments(lexicon, ch, corpus)
            trained[ch], reports[ch] = train_segmented(lexicon, ch, segments, args.config)
            # Phonemes train one after another; their summed trajectory
            # is logged once they are done.
            for it, loglik in enumerate(reports[ch].loglik_trajectory):
                hook(it, trained[ch], loglik)

    out_lex = Lexicon(
        channels=list(lexicon.channels),
        inventories={
            ch: PhonemeInventory(
                phonemes=trained[ch],
                epenthesis=lexicon.inventory(ch).epenthesis,
            )
            for ch in lexicon.channels
        },
        signs=lexicon.signs,
        epenthesis_policy=lexicon.epenthesis_policy,
        exit_prob=lexicon.exit_prob,
    )
    validate_lexicon(out_lex)
    run_config = {
        "mode": args.mode,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "rel_tol": args.rel_tol,
        "smoothing": args.smoothing,
        "init": args.init,
    }
    save_model(
        args.out,
        out_lex,
        {"seed": args.seed, "config_hash": config_hash(run_config)},
    )
    for ch, report in reports.items():
        untouched = report.untouched_phonemes
        flags = f" untouched={','.join(untouched)}" if untouched else ""
        print(
            f"channel {ch}: loglik {report.loglik_trajectory[0]:.6f} -> "
            f"{report.loglik_trajectory[-1]:.6f} iterations={report.iterations_run} "
            f"converged={report.converged}{flags}"
        )
    print(f"wrote model to {args.out}")
    return 0


def cmd_decode(args):
    lexicon, _ = load_model(args.model)
    corpus = read_corpus(args.corpus)
    cache = {}
    n_err = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for utt in corpus:
            rec = {"hyp_version": 1, "id": utt.utt_id, "signs": [], "error": None}
            try:
                hyp = decode(
                    lexicon, utt.mobs, args.mode, args.max_signs, args.beam_width, cache
                )
                rec["signs"] = list(hyp.signs)
                rec["total_score"] = hyp.total
                rec["channel_scores"] = {ch: hyp.channel_scores[ch] for ch in lexicon.channels}
            except DECODE_FAILURES as exc:
                rec["error"] = type(exc).__name__.removesuffix("Error")
                n_err += 1
            fh.write(json.dumps(rec) + "\n")
    print(f"decoded {len(corpus)} utterances to {args.out} ({n_err} without hypothesis)")
    return 0


def cmd_evaluate(args):
    lexicon, _ = load_model(args.model)
    corpus = read_corpus(args.corpus)
    report = evaluate(
        lexicon,
        corpus,
        mode=args.mode,
        max_signs=args.max_signs,
        beam_width=args.beam_width,
    )
    blob = json.dumps(report_to_dict(report), indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(blob + "\n")
        print(f"wrote report to {args.report}")
        print(
            f"SER={report.sign_error_rate:.4f} "
            f"exact_match={report.exact_match_rate:.4f}"
        )
    else:
        print(blob)
    return 0


def cmd_complexity(args):
    lexicon = _load_lexicon(args.lexicon)
    factored, product = model_count(lexicon)
    print(f"factored={factored}")
    print(f"product={product}")
    print(f"ratio={product / factored}")
    return 0


def _add_threads(p):
    p.add_argument(
        "--threads",
        type=int,
        choices=[1],
        default=1,
        help="worker threads (only 1 is supported; kept for reproducibility contracts)",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phmm",
        description="multi-channel parallel HMM toolkit for sign-sequence recognition",
    )
    parser.add_argument("--version", action="version", version=f"phmm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a synthetic corpus from a lexicon")
    g.add_argument("--lexicon", required=True, help='"demo" or a model file path')
    g.add_argument("--n", type=int, required=True, help="number of utterances")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="output corpus (JSON Lines)")
    g.add_argument("--min-signs", type=int, default=1)
    g.add_argument("--max-signs", type=int, default=3)
    g.add_argument("--noise", type=float, default=0.0, help="per-channel noise rate/scale")
    g.add_argument("--jitter", type=int, default=0, help="max channel length difference")
    g.add_argument("--state-dwell", type=int, nargs=2, default=[2, 4], metavar=("LO", "HI"))
    g.add_argument("--eps-dwell", type=int, nargs=2, default=[2, 4], metavar=("LO", "HI"))
    g.add_argument("--no-paths", action="store_true", help="omit ground-truth paths")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train channel models on a corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--lexicon", required=True, help='"demo" or a model file path')
    t.add_argument("--mode", choices=["embedded", "segmented"], default="embedded")
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", required=True, help="output model file")
    t.add_argument("--max-iters", type=int, default=100)
    t.add_argument("--rel-tol", type=float, default=1e-6)
    t.add_argument("--smoothing", type=float, default=1e-8)
    t.add_argument(
        "--init",
        choices=["uniform_perturbed", "from_global_stats"],
        default="uniform_perturbed",
    )
    _add_threads(t)
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("decode", help="decode a corpus against a model")
    d.add_argument("--model", required=True)
    d.add_argument("--corpus", required=True)
    d.add_argument("--mode", choices=["exhaustive", "synced"], default="exhaustive")
    d.add_argument("--out", required=True, help="output hypotheses (JSON Lines)")
    d.add_argument("--max-signs", type=int, default=3)
    d.add_argument("--beam-width", type=int, default=1000)
    _add_threads(d)
    d.set_defaults(func=cmd_decode)

    e = sub.add_parser("evaluate", help="decode and score a corpus")
    e.add_argument("--model", required=True)
    e.add_argument("--corpus", required=True)
    e.add_argument("--mode", choices=["exhaustive", "synced"], default="exhaustive")
    e.add_argument("--max-signs", type=int, default=3)
    e.add_argument("--beam-width", type=int, default=1000)
    e.add_argument("--report", help="write the JSON report here instead of stdout")
    _add_threads(e)
    e.set_defaults(func=cmd_evaluate)

    c = sub.add_parser("complexity", help="print factored vs product model counts")
    c.add_argument("--lexicon", required=True, help='"demo" or a model file path')
    c.set_defaults(func=cmd_complexity)
    return parser


def _validate_usage(parser, args):
    """Exit 2 on an invalid option value. generate and train build their
    GenConfig or TrainConfig here as args.config, so a value it rejects
    is a usage error too."""
    if args.command in ("decode", "evaluate"):
        if args.max_signs < 1:
            parser.error("--max-signs must be >= 1")
        if args.beam_width < 1:
            parser.error("--beam-width must be >= 1")
    try:
        if args.command == "generate":
            args.config = GenConfig(
                n_utterances=args.n,
                seed=args.seed,
                signs_per_utterance=(args.min_signs, args.max_signs),
                state_dwell=tuple(args.state_dwell),
                epenthesis_dwell=tuple(args.eps_dwell),
                channel_noise=args.noise,
                desync_jitter=args.jitter,
                emit_paths=not args.no_paths,
            )
        if args.command == "train":
            args.config = TrainConfig(
                max_iters=args.max_iters,
                rel_tol=args.rel_tol,
                seed=args.seed,
                smoothing=args.smoothing,
                init_strategy=args.init,
            )
    except (ValueError, ValidationError) as exc:
        parser.error(str(exc))


def main(argv=None):
    logging.basicConfig(level=os.environ.get("PHMM_LOG_LEVEL", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_usage(parser, args)
    try:
        return args.func(args)
    except DegenerateModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PhmmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
