import itertools
import math

import numpy as np
import pytest

from helpers import build_lexicon, mixed_lexicon, random_phoneme, sample_mobs
from oracles import segment_scores_oracle, split_forward_oracle

from phmm import parallel
from phmm.emissions import GaussianEmission, log_density_seq
from phmm.errors import (
    EmptyObservationError,
    EmptySequenceError,
    NoFiniteHypothesisError,
    SearchSpaceTooLargeError,
    UnequalChannelLengthsError,
    UnknownSignError,
)
from phmm.hmm import forward, validate, viterbi
from phmm.lexicon import MultiObservation, validate_lexicon
from phmm.parallel import (
    Hypothesis,
    _channel_score_groups,
    _Unit,
    compose_models,
    compose_utterance_model,
    decode_exhaustive,
    decode_synced,
    model_count,
    score_hypothesis,
)


def test_lexicon_validation():
    lex = build_lexicon(np.random.default_rng(0))
    validate_lexicon(lex)
    lex_eps = build_lexicon(np.random.default_rng(0), policy="between_signs")
    validate_lexicon(lex_eps)


def test_compose_single_block_is_identity():
    rng = np.random.default_rng(1)
    lex = build_lexicon(rng, channels=("c0",), vocab=2)
    pid = lex.signs["s0"].channels["c0"][0]
    original = lex.inventories["c0"].phonemes[pid]
    composed = compose_utterance_model(lex, "c0", ["s0"])
    assert np.array_equal(composed.pi, original.pi)
    assert np.array_equal(composed.trans, original.trans)
    assert np.array_equal(composed.emissions.probs, original.emissions.probs)
    validate(composed)


def test_compose_state_counting():
    rng = np.random.default_rng(2)
    plain = build_lexicon(rng, channels=("c0",), n_phonemes=2, vocab=2, n_states=3)
    model = compose_utterance_model(plain, "c0", ["s0", "s1"])
    assert model.n_states == 6
    validate(model)

    with_eps = build_lexicon(
        np.random.default_rng(2),
        channels=("c0",),
        n_phonemes=2,
        vocab=2,
        n_states=3,
        policy="between_signs",
    )
    model_eps = compose_utterance_model(with_eps, "c0", ["s0", "s1"])
    assert model_eps.n_states == 9
    validate(model_eps)


def test_compose_exit_wiring():
    rng = np.random.default_rng(3)
    lex = build_lexicon(rng, channels=("c0",), n_phonemes=2, vocab=2, n_states=2)
    model = compose_utterance_model(lex, "c0", ["s0", "s1"])
    second = lex.inventories["c0"].phonemes[lex.signs["s1"].channels["c0"][0]]
    # first block's final state: self-loop complement routed to successor pi
    assert model.trans[1, 1] == pytest.approx(1.0 - lex.exit_prob)
    assert np.allclose(model.trans[1, 2:], lex.exit_prob * second.pi)
    # final block's last state stays absorbing
    assert model.trans[-1, -1] == 1.0


def test_compose_unknown_sign_and_empty():
    lex = build_lexicon(np.random.default_rng(4))
    with pytest.raises(UnknownSignError):
        compose_utterance_model(lex, "c0", ["nope"])
    with pytest.raises(EmptySequenceError):
        compose_utterance_model(lex, "c0", [])


def test_composed_forward_matches_split_oracle():
    rng = np.random.default_rng(5)
    for trial in range(8):
        lex = build_lexicon(
            np.random.default_rng(50 + trial),
            channels=("c0",),
            n_phonemes=2,
            vocab=2,
            n_states=2,
            alphabet=3,
        )
        inv = lex.inventories["c0"]
        pid_a = lex.signs["s0"].channels["c0"][0]
        pid_b = lex.signs["s1"].channels["c0"][0]
        a = inv.phonemes[pid_a]
        b = inv.phonemes[pid_b]
        obs = rng.integers(0, 3, size=7)
        composed = compose_utterance_model(lex, "c0", ["s0", "s1"])
        loglik, _ = forward(composed, obs)
        oracle = split_forward_oracle(
            a,
            b,
            lex.exit_prob,
            obs,
            log_density_seq(a.emissions, obs),
            log_density_seq(b.emissions, obs),
        )
        assert loglik == pytest.approx(oracle, abs=1e-9)


def test_score_hypothesis_single_channel_reduction():
    rng = np.random.default_rng(6)
    lex = build_lexicon(rng, channels=("c0",), vocab=2)
    mobs = sample_mobs(lex, ["s0"], 6, seed=1)
    hyp = score_hypothesis(lex, ["s0"], mobs)
    model = compose_utterance_model(lex, "c0", ["s0"])
    path, score = viterbi(model, mobs.channels["c0"])
    assert hyp.total == score
    assert hyp.channel_scores["c0"] == score
    assert hyp.state_paths["c0"] == path


def test_score_hypothesis_matches_isolated_viterbi_and_fsum():
    rng = np.random.default_rng(7)
    lex = build_lexicon(rng, vocab=2)
    mobs = sample_mobs(lex, ["s0", "s1"], {"c0": 6, "c1": 5, "c2": 4}, seed=2)
    hyp = score_hypothesis(lex, ["s0", "s1"], mobs)
    expected = {}
    for ch in lex.channels:
        model = compose_utterance_model(lex, ch, ["s0", "s1"])
        _, score = viterbi(model, mobs.channels[ch])
        expected[ch] = score
    assert hyp.channel_scores == expected
    assert hyp.total == math.fsum(expected.values())


def test_score_hypothesis_channel_permutation_invariant():
    rng = np.random.default_rng(8)
    lex = build_lexicon(rng, vocab=2)
    mobs = sample_mobs(lex, ["s1"], 6, seed=3)
    base = score_hypothesis(lex, ["s1"], mobs)
    permuted_lex = build_lexicon(np.random.default_rng(8), vocab=2)
    permuted_lex.channels = [lex.channels[i] for i in (2, 0, 1)]
    hyp = score_hypothesis(permuted_lex, ["s1"], mobs)
    assert hyp.total == base.total
    assert hyp.channel_scores == base.channel_scores


def test_all_paths_zero_channel_reported():
    lex = build_lexicon(np.random.default_rng(9), separated=True, vocab=2)
    mobs = sample_mobs(lex, ["s0"], 5, seed=4)
    # feed channel c1 symbols that its phonemes cannot emit
    impossible = dict(mobs.channels)
    own = lex.signs["s0"].channels["c1"][0]
    probs = lex.inventories["c1"].phonemes[own].emissions.probs
    dead = int(np.where(probs.sum(axis=0) == 0)[0][0])
    impossible["c1"] = np.full(5, dead, dtype=int)
    hyp = score_hypothesis(lex, ["s0"], MultiObservation(impossible))
    assert hyp.total == float("-inf")
    assert hyp.channel_scores["c1"] == float("-inf")
    assert hyp.state_paths["c1"] is None


def test_decode_exhaustive_single_candidate():
    lex = build_lexicon(np.random.default_rng(10), vocab=1)
    mobs = sample_mobs(lex, ["s0"], 5, seed=5)
    hyp = decode_exhaustive(lex, mobs, max_signs=1)
    assert hyp.signs == ("s0",)


def test_decode_exhaustive_recovers_sampled_sign():
    lex = build_lexicon(
        np.random.default_rng(11), vocab=5, n_phonemes=5, separated=True, n_states=3
    )
    for v in range(5):
        mobs = sample_mobs(lex, [f"s{v}"], 8, seed=100 + v)
        hyp = decode_exhaustive(lex, mobs, max_signs=1)
        assert hyp.signs == (f"s{v}",)


def test_decode_exhaustive_matches_enumeration_oracle():
    for trial in range(10):
        lex = build_lexicon(
            np.random.default_rng(200 + trial),
            vocab=3,
            policy="between_signs" if trial % 2 else "none",
        )
        true_signs = ["s0", "s1"] if trial % 3 else ["s2"]
        mobs = sample_mobs(lex, true_signs, 6, seed=300 + trial)
        got = decode_exhaustive(lex, mobs, max_signs=2)

        best = None
        sign_ids = sorted(lex.signs)
        for k in (1, 2):
            for signs in itertools.product(sign_ids, repeat=k):
                scores = {}
                for ch in lex.channels:
                    model = compose_utterance_model(lex, ch, signs)
                    try:
                        _, s = viterbi(model, mobs.channels[ch])
                    except Exception:
                        s = float("-inf")
                    scores[ch] = s
                total = math.fsum(scores.values())
                if total == float("-inf"):
                    continue
                key = (-total, len(signs), signs)
                if best is None or key < best[0]:
                    best = (key, signs, total)
        assert got.signs == best[1]
        assert got.total == pytest.approx(best[2], abs=1e-9)


def test_decode_exhaustive_search_space_guard():
    lex = build_lexicon(np.random.default_rng(12), vocab=3)
    mobs = sample_mobs(lex, ["s0"], 4, seed=6)
    with pytest.raises(SearchSpaceTooLargeError):
        decode_exhaustive(lex, mobs, max_signs=20)


def test_decode_exhaustive_no_finite_hypothesis():
    # single sign bound to phoneme 0; feed symbols only phoneme 1 can emit
    lex = build_lexicon(np.random.default_rng(13), separated=True, vocab=1)
    dead = {ch: np.full(4, 2, dtype=int) for ch in lex.channels}
    with pytest.raises(NoFiniteHypothesisError):
        decode_exhaustive(lex, MultiObservation(dead), max_signs=1)


def test_model_count_arithmetic():
    lex = build_lexicon(
        np.random.default_rng(14), channels=("a", "b", "c"), n_phonemes=4, vocab=2
    )
    factored, product = model_count(lex)
    assert factored == 12 and product == 64

    eps_lex = build_lexicon(
        np.random.default_rng(14),
        channels=("a", "b", "c"),
        n_phonemes=4,
        vocab=2,
        policy="between_signs",
    )
    f2, p2 = model_count(eps_lex)
    assert f2 == factored + 3
    assert p2 == product


def test_decode_synced_single_sign_equals_exhaustive():
    for trial in range(6):
        lex = build_lexicon(
            np.random.default_rng(400 + trial),
            vocab=3,
            separated=trial % 2 == 0,
        )
        mobs = sample_mobs(lex, [f"s{trial % 3}"], 7, seed=500 + trial)
        ex = decode_exhaustive(lex, mobs, max_signs=1)
        sy = decode_synced(lex, mobs, beam_width=10**9)
        assert sy.total == pytest.approx(ex.total, abs=1e-9)
        assert sy.signs == ex.signs


def test_decode_synced_single_channel_equals_exhaustive():
    for trial in range(6):
        lex = build_lexicon(
            np.random.default_rng(600 + trial),
            channels=("c0",),
            vocab=3,
            n_phonemes=3,
            separated=True,
            policy="between_signs" if trial % 2 else "none",
        )
        true_signs = ["s0", "s2"] if trial % 2 else ["s1"]
        t = 12 if trial % 2 else 6
        mobs = sample_mobs(lex, true_signs, t, seed=700 + trial)
        ex = decode_exhaustive(lex, mobs, max_signs=2)
        sy = decode_synced(lex, mobs, beam_width=10**9)
        assert sy.signs == ex.signs
        assert sy.total == pytest.approx(ex.total, abs=1e-9)


def test_decode_synced_beam_never_beats_exact():
    # overlapping random emissions keep synchronized boundaries feasible
    for trial in range(5):
        lex = build_lexicon(np.random.default_rng(800 + trial), vocab=3)
        mobs = sample_mobs(lex, ["s0", "s1"], 10, seed=900 + trial)
        exact = decode_synced(lex, mobs, beam_width=10**9)
        beamed = decode_synced(lex, mobs, beam_width=1)
        assert beamed.total <= exact.total + 1e-12


def test_decode_synced_rejects_unequal_lengths():
    lex = build_lexicon(np.random.default_rng(15))
    mobs = sample_mobs(lex, ["s0"], {"c0": 5, "c1": 6, "c2": 5}, seed=7)
    with pytest.raises(UnequalChannelLengthsError):
        decode_synced(lex, mobs, beam_width=4)


def test_decode_synced_leq_exhaustive_total():
    for trial in range(5):
        lex = build_lexicon(
            np.random.default_rng(950 + trial), vocab=3, separated=True, n_states=2
        )
        mobs = sample_mobs(lex, ["s0", "s2"], 9, seed=960 + trial)
        ex = decode_exhaustive(lex, mobs, max_signs=2)
        sy = decode_synced(lex, mobs, beam_width=10**9)
        assert sy.total <= ex.total + 1e-9


def test_decode_synced_paths_are_valid_in_composed_model():
    lex = build_lexicon(
        np.random.default_rng(16), vocab=3, policy="between_signs"
    )
    mobs = sample_mobs(lex, ["s0", "s1"], 12, seed=8)
    hyp = decode_synced(lex, mobs, beam_width=10**9)
    for ch in lex.channels:
        model = compose_utterance_model(lex, ch, hyp.signs)
        path = hyp.state_paths[ch]
        assert len(path) == 12
        assert model.pi[path[0]] > 0
        for a, b in zip(path, path[1:]):
            assert model.trans[a, b] > 0


def test_per_frame_shift_property():
    # adding k_c to every log emission of channel c at every frame shifts
    # each hypothesis total by sum_c T_c * k_c and keeps the argmax
    rng = np.random.default_rng(17)
    lex = build_lexicon(rng, vocab=3, separated=True)
    mobs = sample_mobs(lex, ["s1"], 6, seed=9)
    shifts = {"c0": 0.3, "c1": -0.2, "c2": 0.05}

    base = decode_exhaustive(lex, mobs, max_signs=2)
    scaled = build_lexicon(np.random.default_rng(17), vocab=3, separated=True)
    for ch in scaled.channels:
        for m in scaled.inventories[ch].phonemes.values():
            m.emissions.probs = m.emissions.probs * np.exp(shifts[ch])
    shifted = decode_exhaustive(scaled, mobs, max_signs=2)
    expected_delta = math.fsum(
        len(mobs.channels[ch]) * shifts[ch] for ch in lex.channels
    )
    assert shifted.signs == base.signs
    assert shifted.total - base.total == pytest.approx(expected_delta, abs=1e-9)


def test_hypothesis_total_is_exact_fsum():
    h = Hypothesis.combine(
        ("a",), {"c0": -1.1, "c1": -2.2, "c2": -3.3}, {"c0": [], "c1": [], "c2": []}
    )
    assert h.total == math.fsum([-1.1, -2.2, -3.3])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


BATCH_CASES = [
    dict(gaussian=g, ergodic=e, policy=p)
    for g in (False, True)
    for e in (False, True)
    for p in ("none", "between_signs")
]


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_batched_exhaustive_scores_equal_score_hypothesis(case):
    # phonemes of 1-3 states, signs of 1-2 phonemes, unequal channel lengths
    lex = mixed_lexicon(np.random.default_rng(30 + case), **BATCH_CASES[case])
    lengths = {"c0": 7, "c1": 1 + case % 4}
    mobs = sample_mobs(lex, ["s1", "s0"], lengths, seed=case)
    groups = _channel_score_groups(lex, mobs, 2, cache={})
    assert [len(candidates) for candidates, _ in groups] == [3, 9]
    for candidates, scores in groups:
        for b, signs in enumerate(candidates):
            ref = score_hypothesis(lex, signs, mobs)
            for ch in lex.channels:
                assert _bits(scores[ch][b]) == _bits(ref.channel_scores[ch])


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_batched_exhaustive_scores_keep_impossible_candidates(policy):
    # separated emissions: every candidate with a wrong phoneme scores -inf
    lex = build_lexicon(
        np.random.default_rng(19), vocab=3, separated=True, n_states=3, policy=policy
    )
    mobs = sample_mobs(lex, ["s2", "s0"], 8, seed=11)
    groups = _channel_score_groups(lex, mobs, 2, cache={})
    n_dead = 0
    for candidates, scores in groups:
        for b, signs in enumerate(candidates):
            ref = score_hypothesis(lex, signs, mobs)
            for ch in lex.channels:
                assert _bits(scores[ch][b]) == _bits(ref.channel_scores[ch])
            n_dead += ref.total == float("-inf")
    assert 0 < n_dead < 12


def test_decode_exhaustive_cache_reuse_matches_fresh_cache():
    lex = mixed_lexicon(np.random.default_rng(20), policy="between_signs")
    cache = {}
    for seed, signs in enumerate((["s0"], ["s2", "s1"], ["s1"])):
        mobs = sample_mobs(lex, signs, {"c0": 6, "c1": 4}, seed=seed)
        shared = decode_exhaustive(lex, mobs, max_signs=2, cache=cache)
        fresh = decode_exhaustive(lex, mobs, max_signs=2)
        assert shared == fresh


def test_decode_exhaustive_empty_channel_names_it(monkeypatch):
    lex = build_lexicon(np.random.default_rng(21), vocab=2)
    mobs = sample_mobs(lex, ["s0"], 5, seed=12)
    mobs.channels["c1"] = np.array([], dtype=int)

    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice ran on an empty channel")

    monkeypatch.setattr(parallel, "viterbi_score_lattice", no_lattice)
    with pytest.raises(EmptyObservationError, match="'c1'"):
        decode_exhaustive(lex, mobs, max_signs=2)


def _oracle_units(rng):
    """Units of 1, 2 and 4 states, a composed unit and one that cannot
    emit symbol 0 (so some frames have -inf log densities)."""
    for n_states in (1, 2, 4):
        for gaussian in (False, True):
            for ergodic in (False, True):
                yield random_phoneme(rng, n_states, gaussian, ergodic)
    a = random_phoneme(rng, 2)
    b = random_phoneme(rng, 3, ergodic=True)
    yield compose_models([("a", a), ("b", b)], 0.4)[0]
    gapped = random_phoneme(rng, 3)
    gapped.emissions.probs[:, 0] = 0.0
    gapped.emissions.probs /= gapped.emissions.probs.sum(axis=1, keepdims=True)
    yield gapped


@pytest.mark.parametrize("t_len", [1, 2, 9])
def test_segment_scores_equal_per_entry_frame_oracle(t_len):
    rng = np.random.default_rng(40 + t_len)
    for model in _oracle_units(rng):
        if isinstance(model.emissions, GaussianEmission):
            obs = rng.normal(0.0, 2.0, size=(t_len, model.emissions.dim))
        else:
            obs = rng.integers(0, model.emissions.alphabet_size, size=t_len)
        unit = _Unit(model, obs, exit_prob=0.3)
        exit_scores, last = unit.segment_scores()
        assert exit_scores.shape == (t_len, t_len) and last.shape == (t_len,)
        for t0 in range(t_len):
            ref_exit, ref_last = segment_scores_oracle(unit, t0)
            assert _bits(exit_scores[t0]) == _bits(ref_exit)
            assert _bits(last[t0]) == _bits(ref_last)
