import itertools
import math

import numpy as np
import pytest

from helpers import build_lexicon, mixed_lexicon, random_phoneme, sample_mobs
from oracles import (
    decode_synced_oracle,
    segment_scores_oracle,
    segment_viterbi_oracle,
    split_forward_oracle,
    synced_unit,
)

from phmm import parallel
from phmm.emissions import DiscreteEmission, GaussianEmission, log_density_seq
from phmm.errors import (
    EmptyObservationError,
    EmptySequenceError,
    NoFiniteHypothesisError,
    NonFiniteEntryError,
    SearchSpaceTooLargeError,
    UnequalChannelLengthsError,
    UnknownSignError,
    ValidationError,
    VariantMismatchError,
)
from phmm.hmm import Hmm, Topology, forward, validate, viterbi
from phmm.lexicon import Lexicon, MultiObservation, PhonemeInventory, Sign, validate_lexicon
from phmm.parallel import (
    EPS_UNIT,
    Hypothesis,
    _rebuild_hypothesis,
    _Token,
    _best_entries,
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


def test_decode_synced_missing_channel_names_it():
    lex = build_lexicon(np.random.default_rng(22), vocab=2)
    mobs = sample_mobs(lex, ["s1"], 5, seed=13)
    del mobs.channels["c2"]
    with pytest.raises(ValidationError, match="'c2'"):
        decode_synced(lex, mobs, beam_width=4)


def test_decode_exhaustive_rejects_float_symbols():
    lex = build_lexicon(np.random.default_rng(23), vocab=2)
    mobs = sample_mobs(lex, ["s0"], 5, seed=14)
    mobs.channels["c1"] = np.array([0.5, 1.0, 2.0, 0.0, 1.0])
    with pytest.raises(VariantMismatchError, match="integer symbols"):
        decode_exhaustive(lex, mobs, max_signs=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_exhaustive_rejects_non_finite_gaussian_observations(bad):
    lex = mixed_lexicon(np.random.default_rng(24), gaussian=True)
    mobs = sample_mobs(lex, ["s2"], 4, seed=15)
    mobs.channels["c0"][2, 0] = bad
    with pytest.raises(NonFiniteEntryError, match="observations"):
        decode_exhaustive(lex, mobs, max_signs=2)


def _stack_lexicon(rng, gaussian):
    """Two channels whose sign units have 1 to 7 states, so the stack
    pads them unequally: single phonemes of 1, 2 and 4 states (ergodic
    and Bakis), two-phoneme signs, an epenthesis filler and, in discrete
    channels, a phoneme that cannot emit symbol 0 (-inf log densities)."""
    inventories = {}
    signs = {f"s{v}": Sign(f"s{v}", {}) for v in range(5)}
    for c, ch in enumerate(("c0", "c1")):
        phonemes = {
            "p1": random_phoneme(rng, 1, gaussian),
            "p2": random_phoneme(rng, 2, gaussian, ergodic=True),
            "p4": random_phoneme(rng, 4, gaussian),
            "e": random_phoneme(rng, 2, gaussian),
        }
        if gaussian:
            phonemes["q"] = random_phoneme(rng, 3, gaussian, ergodic=True)
        else:
            gapped = random_phoneme(rng, 3)
            gapped.emissions.probs[:, 0] = 0.0
            gapped.emissions.probs /= gapped.emissions.probs.sum(axis=1, keepdims=True)
            phonemes["q"] = gapped
        inventories[ch] = PhonemeInventory(phonemes=phonemes, epenthesis="e")
        spellings = [["p1"], ["q"], ["p2", "p4"], ["p4", "q"], ["p1", "p2"]]
        for v, spelling in enumerate(spellings[c:] + spellings[:c]):
            signs[f"s{v}"].channels[ch] = spelling
    return Lexicon(["c0", "c1"], inventories, signs, "between_signs", exit_prob=0.3)


@pytest.mark.parametrize("t_len", [1, 2, 9])
def test_segment_scores_equal_per_entry_frame_oracle(t_len):
    # One mixed-size stack against every unit, entry frame and exit frame.
    rng = np.random.default_rng(40 + t_len)
    for gaussian in (False, True):
        lex = _stack_lexicon(rng, gaussian)
        if gaussian:
            data = {ch: rng.normal(0.0, 2.0, size=(t_len, 2)) for ch in lex.channels}
        else:
            # Symbol 0 at frame 0 gives the gapped phoneme a -inf log density.
            data = {ch: np.r_[0, rng.integers(0, 4, size=t_len - 1)] for ch in lex.channels}
        mobs = MultiObservation(data)
        keys = sorted(lex.signs) + [EPS_UNIT]
        stack = _Unit(lex, mobs, keys)
        assert stack.log_pi.shape == (7, len(keys), 2)
        columns = [stack.segment_scores(t) for t in range(t_len)]
        last = stack.last()
        assert last.shape == (t_len, len(keys), 2)
        n_inf = 0
        for k, key in enumerate(keys):
            for c, ch in enumerate(lex.channels):
                unit = synced_unit(lex, ch, key, mobs.channels[ch])
                log_pi, log_trans, logb = stack.unit(k, c)
                assert _bits(log_pi) == _bits(unit.log_pi)
                assert _bits(log_trans) == _bits(unit.log_trans)
                assert _bits(logb) == _bits(unit.logb)
                n_inf += int(np.isneginf(unit.logb).sum())
                for t0 in range(t_len):
                    ref_exit, ref_last = segment_scores_oracle(unit, t0)
                    for t in range(t0, t_len):
                        assert columns[t].shape == (t + 1, len(keys), 2)
                        assert _bits(columns[t][t0, k, c]) == _bits(ref_exit[t])
                    assert _bits(last[t0, k, c]) == _bits(ref_last)
        assert (n_inf > 0) == (not gaussian)


def test_best_entries_returns_fsum_winner_on_near_tie():
    # Left to right, 1e16 + 1.0 rounds to 1e16, so numpy sums row 0 to 0.0
    # and ranks row 1 (0.5) first; math.fsum scores row 0 at 1.0.
    parts = np.array([[[1e16, 1.0, -1e16]], [[0.5, 0.0, 0.0]]])
    entries = np.zeros((2, 1))
    assert parts[0].sum(axis=-1)[0] < parts[1].sum(axis=-1)[0]
    assert _best_entries(entries, parts) == [(1.0, [0])]
    # The entry score takes part in the rescoring: row 1 now wins.
    assert _best_entries(np.array([[-0.75], [0.0]]), parts) == [(0.5, [1])]


def test_best_entries_exact_ties_and_dead_rows():
    inf = float("-inf")
    parts = np.array(
        [
            [[-1.0, -2.0], [-1.0, inf], [-0.5, -0.5]],
            [[-2.0, -1.0], [-3.0, -0.5], [-0.25, -0.75]],
            [[-0.5, -2.5], [inf, -1.0], [-1.0, -1.0]],
        ]
    )
    entries = np.array([[0.0, 0.0, inf], [0.0, -0.5, 0.0], [0.0, 0.0, 0.0]])
    assert _best_entries(entries, parts) == [(-3.0, [0, 1, 2]), (-4.0, [1]), (-1.0, [1])]
    assert _best_entries(np.full((3, 3), inf), parts) == [(None, [])] * 3


def test_score_hypothesis_missing_channel_names_it():
    lex = build_lexicon(np.random.default_rng(25), vocab=2)
    mobs = sample_mobs(lex, ["s0"], 5, seed=16)
    del mobs.channels["c1"]
    with pytest.raises(ValidationError, match="'c1'"):
        score_hypothesis(lex, ["s0"], mobs)


def test_score_hypothesis_empty_channel_names_it():
    lex = build_lexicon(np.random.default_rng(26), vocab=2)
    mobs = sample_mobs(lex, ["s1"], 5, seed=17)
    mobs.channels["c2"] = np.array([], dtype=int)
    with pytest.raises(EmptyObservationError, match="'c2'"):
        score_hypothesis(lex, ["s1"], mobs)


def _uniform_lexicon():
    """Two channels of uniform ergodic phonemes (1-3 states, epenthesis
    between signs): every state path of a unit scores the same."""

    def uniform(n_states):
        return Hmm(
            np.full(n_states, 1.0 / n_states),
            np.full((n_states, n_states), 1.0 / n_states),
            DiscreteEmission(np.full((n_states, 2), 0.5)),
            Topology.ERGODIC,
        )

    inventories = {
        ch: PhonemeInventory(
            phonemes={"p1": uniform(1), "p2": uniform(2), "p3": uniform(3), "e": uniform(2)},
            epenthesis="e",
        )
        for ch in ("c0", "c1")
    }
    signs = {
        "s0": Sign("s0", {"c0": ["p3"], "c1": ["p1", "p2"]}),
        "s1": Sign("s1", {"c0": ["p2", "p1"], "c1": ["p3"]}),
    }
    return Lexicon(["c0", "c1"], inventories, signs, "between_signs", exit_prob=0.3)


REBUILD_CASES = [dict(gaussian=g, ergodic=e) for g in (False, True) for e in (False, True)]


@pytest.mark.parametrize("case", range(len(REBUILD_CASES) + 1))
def test_rebuild_hypothesis_equals_segment_viterbi_oracle(case):
    # Random synced tokens over random units: last and anchored segments,
    # one-frame segments and utterances, and (last case) all-tied scores.
    rng = np.random.default_rng(50 + case)
    if case < len(REBUILD_CASES):
        lex = mixed_lexicon(rng, policy="between_signs", **REBUILD_CASES[case])
    else:
        lex = _uniform_lexicon()
    keys = sorted(lex.signs) + [EPS_UNIT]
    checked = 0
    for trial in range(60):
        t_len = (1, 2, 3, 8)[trial % 4]
        mobs = sample_mobs(lex, ["s0"], t_len, seed=trial)
        n_cuts = int(rng.integers(0, t_len))
        cuts = sorted(rng.choice(np.arange(1, t_len), size=n_cuts, replace=False))
        bounds = list(zip([0, *cuts], [c - 1 for c in cuts] + [t_len - 1]))
        segments = tuple((keys[int(rng.integers(0, len(keys)))], t0, t1) for t0, t1 in bounds)
        token = _Token(0.0, tuple(k for k, _, _ in segments if k != EPS_UNIT), segments)
        expected = {}
        for ch in lex.channels:
            total, path, offset = 0.0, [], 0
            for k, (key, t0, t1) in enumerate(segments):
                unit = synced_unit(lex, ch, key, mobs.channels[ch])
                score, seg_path = segment_viterbi_oracle(unit, t0, t1, k == len(segments) - 1)
                total += score
                path.extend(offset + s for s in seg_path)
                offset += unit.n
            expected[ch] = (total, path)
        if any(total == float("-inf") for total, _ in expected.values()):
            continue  # the decoder never rebuilds a token that scores -inf
        hyp = _rebuild_hypothesis(_Unit(lex, mobs, keys), token)
        for ch in lex.channels:
            assert repr(hyp.channel_scores[ch]) == repr(expected[ch][0])
            assert hyp.state_paths[ch] == expected[ch][1]
        checked += 1
    assert checked >= 20


SYNCED_CASES = [
    dict(gaussian=g, ergodic=e, policy=p)
    for g in (False, True)
    for e in (False, True)
    for p in ("none", "between_signs")
] + ["three channels", "uniform"]


def _synced_result(lex, mobs, beam_width, decoder):
    try:
        hyp = decoder(lex, mobs, beam_width)
    except NoFiniteHypothesisError:
        return None
    return repr((hyp.signs, hyp.channel_scores, hyp.total, hyp.state_paths))


@pytest.mark.parametrize("case", range(len(SYNCED_CASES)))
def test_decode_synced_equals_per_unit_oracle(case):
    # Stacked fused search against the per-unit, per-entry-frame search:
    # signs, channel scores, total and state paths identical as repr.
    rng = np.random.default_rng(70 + case)
    spec = SYNCED_CASES[case]
    if spec == "uniform":
        lex = _uniform_lexicon()
    elif spec == "three channels":
        lex = build_lexicon(rng, vocab=4, policy="between_signs", phonemes_per_sign=2)
    else:
        lex = mixed_lexicon(rng, **spec)
    found = 0
    for trial in range(12):
        t_len = (1, 2, 5, 9)[trial % 4]
        n_signs = int(rng.integers(1, 4))
        signs = [sorted(lex.signs)[int(i)] for i in rng.integers(0, len(lex.signs), n_signs)]
        mobs = sample_mobs(lex, signs, t_len, seed=100 * case + trial)
        for beam_width in (1, 2, 1000):
            got = _synced_result(lex, mobs, beam_width, decode_synced)
            assert got == _synced_result(lex, mobs, beam_width, decode_synced_oracle)
            found += got is not None
    assert found >= 18
