"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Oracles here are independent re-implementations (explicit path
enumeration, isolated per-channel Viterbi plus summation) rather than
calls back into the code paths under test.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from helpers import build_lexicon, gaussian_twin, random_discrete_hmm, sample_mobs

from phmm.cli import main as cli_main
from phmm.corpus import GenConfig, generate
from phmm.demo import demo_lexicon
from phmm.emissions import log_density_seq
from phmm.hmm import forward, validate, viterbi
from phmm.lexicon import Lexicon, MultiObservation, Sign, validate_lexicon
from phmm.logmath import logsumexp
from phmm.metrics import evaluate
from phmm.model_io import save_model
from phmm.parallel import (
    compose_utterance_model,
    decode_exhaustive,
    decode_synced,
    model_count,
)
from phmm.training import TrainConfig, baum_welch, train_embedded

MONO_SLACK = 1e-10
ORACLE_TOL = 1e-9


def _enumerate_path_scores(log_pi, log_trans, logb):
    """All path log scores, accumulated term-by-term like the lattice DP."""
    t_len, n = logb.shape
    paths = np.array(list(itertools.product(range(n), repeat=t_len)), dtype=np.intp)
    scores = log_pi[paths[:, 0]] + logb[0, paths[:, 0]]
    for t in range(1, t_len):
        scores = scores + log_trans[paths[:, t - 1], paths[:, t]]
        scores = scores + logb[t, paths[:, t]]
    return paths, scores


def _random_instances(n_instances, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        n_states = int(rng.integers(1, 5))
        alphabet = int(rng.integers(1, 5))
        t_len = int(rng.integers(1, 7))
        h = random_discrete_hmm(rng, n_states=n_states, alphabet=alphabet)
        obs = rng.integers(0, alphabet, size=t_len)
        yield h, obs


def test_criterion_1_forward_oracle():
    start = time.perf_counter()
    for h, obs in _random_instances(200, seed=1001):
        loglik, _ = forward(h, obs)
        log_pi, log_trans = h.log_params()
        logb = log_density_seq(h.emissions, obs)
        _, scores = _enumerate_path_scores(log_pi, log_trans, logb)
        assert abs(loglik - logsumexp(scores, axis=0)) <= ORACLE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: forward matches path-sum oracle on 200 instances "
          f"(<=1e-9, {elapsed:.1f}s)")


def test_criterion_2_viterbi_oracle():
    start = time.perf_counter()
    for h, obs in _random_instances(200, seed=2002):
        path, score = viterbi(h, obs)
        log_pi, log_trans = h.log_params()
        logb = log_density_seq(h.emissions, obs)
        paths, scores = _enumerate_path_scores(log_pi, log_trans, logb)
        smax = float(np.max(scores))
        assert abs(score - smax) <= ORACLE_TOL
        ties = paths[scores == smax]
        best = min(tuple(reversed(p)) for p in ties.tolist())
        assert path == list(reversed(best))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 2: viterbi matches argmax oracle with tie rule on 200 "
          f"instances ({elapsed:.1f}s)")


def test_criterion_3_em_monotonicity():
    start = time.perf_counter()
    for run in range(50):
        rng = np.random.default_rng((3003, run))
        gen = random_discrete_hmm(rng, n_states=int(rng.integers(2, 4)), alphabet=3)
        data = [
            rng.integers(0, 3, size=int(rng.integers(5, 16))) for _ in range(20)
        ]
        init = random_discrete_hmm(rng, n_states=gen.n_states, alphabet=3)

        def every_iteration_valid(it, model, loglik):
            validate(model)

        _, report = baum_welch(
            init,
            data,
            TrainConfig(max_iters=15, seed=run),
            on_iteration=every_iteration_valid,
        )
        traj = report.loglik_trajectory
        for a, b in zip(traj, traj[1:]):
            assert b >= a - MONO_SLACK, f"run {run}: {a} -> {b}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: 50 Baum-Welch runs monotone within 1e-10, all "
          f"iterations valid ({elapsed:.1f}s)")


def _criterion4_instance(trial):
    lex = build_lexicon(
        np.random.default_rng((4004, trial)),
        channels=("c0", "c1", "c2"),
        n_phonemes=3,
        vocab=3,
        n_states=2,
        alphabet=4,
        policy="between_signs" if trial % 2 else "none",
    )
    t_rng = np.random.default_rng((4104, trial))
    t_lens = {ch: int(t_rng.integers(3, 7)) for ch in lex.channels}
    true_signs = [f"s{t_rng.integers(0, 3)}"]
    if trial % 3 == 0:
        true_signs.append(f"s{t_rng.integers(0, 3)}")
    mobs = sample_mobs(lex, true_signs, t_lens, seed=(4204 + trial))
    return lex, mobs


def _oracle_decode(lex, mobs, max_signs):
    """Independent enumeration: isolated per-channel Viterbi, summed."""
    best = None
    for k in range(1, max_signs + 1):
        for signs in itertools.product(sorted(lex.signs), repeat=k):
            per_channel = []
            for ch in lex.channels:
                model = compose_utterance_model(lex, ch, signs)
                try:
                    _, s = viterbi(model, mobs.channels[ch])
                except Exception:
                    s = float("-inf")
                per_channel.append(s)
            total = math.fsum(per_channel)
            if total == float("-inf"):
                continue
            key = (-total, k, signs)
            if best is None or key < best[0]:
                best = (key, signs, total)
    return best


def test_criterion_4_equation_fidelity():
    start = time.perf_counter()
    for trial in range(50):
        lex, mobs = _criterion4_instance(trial)
        got = decode_exhaustive(lex, mobs, max_signs=2)
        _, oracle_signs, oracle_total = _oracle_decode(lex, mobs, max_signs=2)
        assert got.signs == oracle_signs
        assert abs(got.total - oracle_total) <= ORACLE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 4: exhaustive decode matches enumeration oracle on 50 "
          f"instances ({elapsed:.1f}s)")


def test_criterion_5_decoder_cross_check():
    # noise-free: the generating models carry exact zeros, so corrupted
    # symbols would make every hypothesis impossible by construction
    lex = demo_lexicon()
    cfg = GenConfig(
        n_utterances=100,
        seed=5005,
        signs_per_utterance=(1, 1),
        desync_jitter=0,
    )
    corpus = generate(lex, cfg)
    start = time.perf_counter()
    for utt in corpus:
        ex = decode_exhaustive(lex, utt.mobs, max_signs=1)
        sy = decode_synced(lex, utt.mobs, beam_width=10**9)
        assert abs(sy.total - ex.total) <= ORACLE_TOL
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: synced (unbounded beam) equals exhaustive on 100 "
          f"single-sign utterances ({elapsed:.1f}s)")


def test_criterion_6_sum_vs_product(tmp_path, capsys):
    def flat_lexicon(sizes):
        channels = [f"ch{i}" for i in range(len(sizes))]
        inventories = {}
        for ch, size in zip(channels, sizes):
            rng = np.random.default_rng(6006)
            sub = build_lexicon(rng, channels=(ch,), n_phonemes=size, vocab=1)
            inventories[ch] = sub.inventories[ch]
        signs = {
            "s0": Sign(
                "s0", {ch: [inventories[ch].content_ids[0]] for ch in channels}
            )
        }
        return Lexicon(
            channels=channels, inventories=inventories, signs=signs,
        )

    lex = flat_lexicon([10, 8, 4])
    path = tmp_path / "lex1084.json"
    save_model(path, lex)
    assert cli_main(["complexity", "--lexicon", str(path)]) == 0
    out = capsys.readouterr().out
    assert "factored=22" in out
    assert "product=320" in out

    four = flat_lexicon([10, 8, 4, 6])
    factored, product = model_count(four)
    assert factored == 28
    assert product == 1920
    print("PASS criterion 6: complexity prints factored=22 product=320; "
          "four-factor case gives sum 28 vs product 1920")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Criterion 7 pipeline, reused (and re-run) by criterion 8."""

    def run(base):
        files = {
            "train": base / "train.jsonl",
            "test": base / "test.jsonl",
            "model": base / "model.json",
            "hyps": base / "hyps.jsonl",
            "report": base / "report.json",
        }
        t0 = time.perf_counter()
        assert cli_main(
            ["generate", "--lexicon", "demo", "--n", "200", "--seed", "7007",
             "--out", str(files["train"]), "--min-signs", "1", "--max-signs", "3",
             "--noise", "0.02"]
        ) == 0
        assert cli_main(
            ["generate", "--lexicon", "demo", "--n", "50", "--seed", "7008",
             "--out", str(files["test"]), "--min-signs", "1", "--max-signs", "3",
             "--noise", "0.02"]
        ) == 0
        assert cli_main(
            ["train", "--corpus", str(files["train"]), "--lexicon", "demo",
             "--mode", "embedded", "--seed", "7011", "--out", str(files["model"]),
             "--max-iters", "20", "--threads", "1"]
        ) == 0
        assert cli_main(
            ["decode", "--model", str(files["model"]), "--corpus", str(files["test"]),
             "--mode", "exhaustive", "--max-signs", "3", "--out", str(files["hyps"]),
             "--threads", "1"]
        ) == 0
        assert cli_main(
            ["evaluate", "--model", str(files["model"]), "--corpus", str(files["test"]),
             "--mode", "exhaustive", "--max-signs", "3",
             "--report", str(files["report"]), "--threads", "1"]
        ) == 0
        return files, time.perf_counter() - t0

    files, elapsed = run(tmp_path_factory.mktemp("pipeline_a"))
    return files, elapsed, run, tmp_path_factory


def test_criterion_7_end_to_end_recovery(pipeline):
    files, elapsed, _, _ = pipeline
    report = json.loads(files["report"].read_text())
    assert report["sign_error_rate"] <= 0.05
    assert report["exact_match_rate"] >= 0.90
    assert elapsed < 120.0
    print(f"PASS criterion 7: end-to-end SER={report['sign_error_rate']:.4f} "
          f"exact={report['exact_match_rate']:.4f} ({elapsed:.1f}s)")


def test_criterion_8_pipeline_determinism(pipeline):
    files, _, run, factory = pipeline
    again, _ = run(factory.mktemp("pipeline_b"))
    for name in ("train", "test", "model", "hyps"):
        assert files[name].read_bytes() == again[name].read_bytes(), name
    print("PASS criterion 8: corpus, model and hypothesis files byte-identical "
          "across reruns")


def test_criterion_9_channel_permutation_invariance():
    perm = (2, 0, 1)
    rename = {"c0": "x0", "c1": "x1", "c2": "x2"}
    for trial in range(50):
        lex, mobs = _criterion4_instance(trial)
        base = decode_exhaustive(lex, mobs, max_signs=2)

        channels = [rename[lex.channels[i]] for i in perm]
        inventories = {rename[ch]: inv for ch, inv in lex.inventories.items()}
        signs = {
            sid: Sign(sid, {rename[ch]: seq for ch, seq in sign.channels.items()})
            for sid, sign in lex.signs.items()
        }
        permuted_lex = Lexicon(
            channels=channels,
            inventories=inventories,
            signs=signs,
            epenthesis_policy=lex.epenthesis_policy,
            exit_prob=lex.exit_prob,
        )
        permuted_mobs = MultiObservation(
            channels={rename[ch]: obs for ch, obs in mobs.channels.items()}
        )
        got = decode_exhaustive(permuted_lex, permuted_mobs, max_signs=2)
        assert got.signs == base.signs
        assert got.total == base.total
        for ch in lex.channels:
            assert got.channel_scores[rename[ch]] == base.channel_scores[ch]
    print("PASS criterion 9: decoded sequences and totals invariant under "
          "channel permutation on 50 instances")


def test_gaussian_pipeline_recovery():
    # Criterion 7 on continuous features: the demo lexicon's Gaussian
    # twin, trained embedded from its own statistics for 10 iterations
    # and decoded in both modes. The bounds are what this seed reached
    # while the E-step still gathered Gaussian statistics block by block:
    # (sign errors of 72, exact matches of 40) per mode.
    lex = gaussian_twin()
    train = generate(lex, GenConfig(120, 31, channel_noise=0.3))
    test = generate(lex, GenConfig(40, 32, channel_noise=0.3))
    start = time.perf_counter()
    trained = {}
    for ch in lex.channels:
        utts = [(utt.signs, utt.mobs.channels[ch]) for utt in train]
        trained[ch], report = train_embedded(lex, ch, utts, TrainConfig(max_iters=10, seed=6))
        traj = report.loglik_trajectory
        assert len(traj) == 11
        for a, b in zip(traj, traj[1:]):
            assert b >= a - MONO_SLACK * abs(a), f"{ch}: {a} -> {b}"
    model = dataclasses.replace(
        lex,
        inventories={
            ch: dataclasses.replace(lex.inventory(ch), phonemes=trained[ch]) for ch in lex.channels
        },
    )
    validate_lexicon(model)
    rates = []
    for mode, errors, exact in (("exhaustive", 4, 36), ("synced", 6, 34)):
        report = evaluate(model, test, mode=mode, max_signs=3)
        assert (report.n_utterances, report.n_reference_signs) == (40, 72)
        assert report.substitutions + report.insertions + report.deletions <= errors
        assert report.exact_match_rate >= exact / 40
        rates.append(f"{mode} SER={report.sign_error_rate:.4f} exact={report.exact_match_rate:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS Gaussian pipeline: monotone training, {', '.join(rates)} ({elapsed:.1f}s)")
