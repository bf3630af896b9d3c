import itertools
import math

import numpy as np
import pytest

from helpers import (
    BATCH_CASES,
    absorbing_finals,
    bits,
    build_lexicon,
    mixed_lexicon,
    random_chains,
    random_phoneme,
    sample_mobs,
)
from oracles import (
    best_entries_oracle,
    decode_exhaustive_oracle,
    dense_stack,
    decode_synced_oracle,
    per_unit_segment_scores,
    segment_scores_oracle,
    segment_viterbi_oracle,
    split_forward_oracle,
    synced_unit,
)

from phmm import emissions, parallel
from phmm.emissions import DiscreteEmission, GaussianEmission, log_density_seq
from phmm.errors import (
    AllPathsZeroError,
    DimensionMismatchError,
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
from phmm.hmm import Hmm, Topology, band, forward, validate, viterbi
from phmm.lexicon import Lexicon, MultiObservation, PhonemeInventory, Sign, validate_lexicon
from phmm.parallel import (
    EPS_UNIT,
    Hypothesis,
    _rebuild_hypothesis,
    _Token,
    _best_entries,
    _candidate_scores,
    _sequence,
    _signs_above,
    _table_builder,
    _Unit,
    _unit_layout,
    _unit_token,
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


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda lex: setattr(lex, "channels", []), "lexicon has no channels"),
        (lambda lex: lex.channels.append("c0"), "channel names must be unique"),
        (
            lambda lex: setattr(lex, "epenthesis_policy", "always"),
            "unknown epenthesis policy 'always'",
        ),
        (
            lambda lex: setattr(lex.inventories["c1"], "phonemes", {}),
            "channel 'c1' has no phoneme inventory",
        ),
        (
            lambda lex: lex.inventories["c0"].phonemes.update(
                c0_p1=random_phoneme(np.random.default_rng(1), 2, alphabet=5)
            ),
            "channel 'c0': phoneme 'c0_p1' emission signature",
        ),
        (
            lambda lex: setattr(lex, "epenthesis_policy", "between_signs"),
            "policy between_signs requires an epenthesis phoneme in channel 'c0'",
        ),
        (
            lambda lex: setattr(lex.signs["s0"], "sign_id", "x"),
            "sign key 's0' does not match id 'x'",
        ),
        (
            lambda lex: lex.signs["s1"].channels.pop("c2"),
            "sign 's1' does not cover channel 'c2'",
        ),
        (
            lambda lex: lex.signs["s2"].channels.update(c1=["nope"]),
            "sign 's2' references unknown phoneme 'nope' in channel 'c1'",
        ),
    ],
    ids=[
        "no-channels",
        "duplicate-channel",
        "unknown-policy",
        "empty-inventory",
        "emission-signature",
        "missing-epenthesis",
        "sign-key",
        "sign-misses-channel",
        "unknown-phoneme",
    ],
)
def test_validate_lexicon_refusals(mutate, message):
    lex = build_lexicon(np.random.default_rng(0))
    mutate(lex)
    with pytest.raises(ValidationError, match=message):
        validate_lexicon(lex)


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


def test_compose_models_refuses_no_blocks():
    with pytest.raises(EmptySequenceError, match="no blocks to compose"):
        compose_models([])


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


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_score_hypothesis_unequal_lengths_equal_per_channel_viterbi(case):
    # One batched backtrack, each channel read at its own last frame:
    # every channel's score and path are hmm.viterbi's on its own
    # composed model, and a channel without a feasible path has none.
    lex = mixed_lexicon(np.random.default_rng(110 + case), **BATCH_CASES[case])
    n_finite = 0
    for seed, lengths in enumerate(({"c0": 9, "c1": 3}, {"c0": 1, "c1": 7}, {"c0": 6, "c1": 6})):
        mobs = sample_mobs(lex, ["s2", "s0"], lengths, seed=120 + seed)
        for signs in (["s0"], ["s2", "s0"], ["s1", "s1", "s2"]):
            hyp = score_hypothesis(lex, signs, mobs)
            for ch in lex.channels:
                model = compose_utterance_model(lex, ch, signs)
                try:
                    path, score = viterbi(model, mobs.channels[ch])
                except AllPathsZeroError:
                    path, score = None, float("-inf")
                assert repr(hyp.channel_scores[ch]) == repr(score)
                assert hyp.state_paths[ch] == path
                n_finite += path is not None
            assert hyp.total == math.fsum(hyp.channel_scores.values())
    assert n_finite >= 6


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
        want = decode_exhaustive_oracle(lex, mobs, max_signs=2)
        assert (got.signs, got.total) == (want.signs, want.total)


def test_decode_exhaustive_refuses_no_signs_to_try():
    lex = build_lexicon(np.random.default_rng(5), channels=("c0",))
    mobs = sample_mobs(lex, ["s0"], 6, seed=5)
    with pytest.raises(ValidationError, match="max_signs must be >= 1"):
        decode_exhaustive(lex, mobs, max_signs=0)
    lex.signs = {}
    with pytest.raises(ValidationError, match="lexicon has no signs"):
        decode_exhaustive(lex, mobs, max_signs=1)


def test_decode_exhaustive_search_space_guard():
    lex = build_lexicon(np.random.default_rng(12), vocab=3)
    mobs = sample_mobs(lex, ["s0"], 4, seed=6)
    with pytest.raises(SearchSpaceTooLargeError):
        decode_exhaustive(lex, mobs, max_signs=20)


class _StackBuilt(AssertionError):
    """Raised in place of building a candidate stack."""


def _no_stack(*args):
    raise _StackBuilt("a candidate stack was built past the memory guard")


def _no_compose(*args):
    raise AssertionError("a model was composed past the candidate guard")


def test_decode_exhaustive_stack_memory_guard(monkeypatch):
    # 7 signs of the demo lexicon fail the candidate guard (2,396,744
    # candidates) before any model is composed. 6 signs pass it (299,592)
    # and, with one stack column per distinct spelling sequence, the
    # memory guard: 24,487,488 bytes of cached stack (N = 33 rows by
    # 3 x 5,460 columns) plus 777,728 of transients: the kernel's 98 rows
    # of 992 columns, its widest block (delta's N, the emissions' N and
    # N - 1 rows of sums at offset 1). One byte less refuses
    # them before the stack is built; at the limit the build begins, and
    # is stopped there, so no 24 MB stack is built.
    from phmm.demo import demo_lexicon

    lex = demo_lexicon()
    mobs = sample_mobs(lex, ["sign0"], 12, seed=1)
    monkeypatch.setattr(parallel, "compose_models", _no_compose)
    with pytest.raises(SearchSpaceTooLargeError, match="enumerate 2396744 candidates"):
        decode_exhaustive(lex, mobs, max_signs=7)
    monkeypatch.undo()
    assert parallel._stack_layout(lex, 6)[:2] == (33, 3 * 5_460)
    need = 24_487_488 + 777_728
    assert need <= parallel.MAX_STACK_BYTES
    monkeypatch.setattr(parallel, "_stack", _no_stack)
    monkeypatch.setattr(parallel, "MAX_STACK_BYTES", need - 1)
    with pytest.raises(SearchSpaceTooLargeError, match=f"hold {need} bytes of candidate stacks"):
        decode_exhaustive(lex, mobs, max_signs=6)
    monkeypatch.setattr(parallel, "MAX_STACK_BYTES", need)
    with pytest.raises(_StackBuilt):
        decode_exhaustive(lex, mobs, max_signs=6)


def test_stack_memory_guard_counts_the_per_frame_temporary(monkeypatch):
    # Each demo channel has 4 distinct spellings, so at 4 signs the joint
    # stack holds 3 x (4 + 16 + 64 + 256) = 1,020 columns of N = 21 rows.
    # The cache takes 797,760 bytes: log_pi, columns and two band
    # diagonals of N x 1,020 entries, and a map of 4,680 candidates by 3
    # channels. The kernel adds 505,920 bytes of transients: 62 rows of
    # 1,020 columns, delta's N, the emissions' N and N - 1 rows of sums
    # at offset 1 (one block: 1,020 columns of 21 rows are within
    # _BLOCK_ENTRIES). The band is written without a dense N x N x B
    # log_trans, so nothing else is counted.
    from phmm.demo import demo_lexicon

    lex = demo_lexicon()
    need = 797_760 + 505_920
    monkeypatch.setattr(parallel, "MAX_STACK_BYTES", need - 1)
    monkeypatch.setattr(parallel, "_stack", _no_stack)
    mobs = sample_mobs(lex, ["sign0"], 12, seed=1)
    with pytest.raises(SearchSpaceTooLargeError, match=f"hold {need} bytes"):
        decode_exhaustive(lex, mobs, max_signs=4)
    monkeypatch.undo()
    cache = {}
    decode_exhaustive(lex, mobs, max_signs=4, cache=cache)
    assert _cached_bytes(cache) == 797_760
    assert _assert_guard_counts(lex, mobs, 4, cache[4]) == need


def _not_called(*args, **kwargs):
    raise AssertionError("a warm exhaustive decode composed a model or called score_hypothesis")


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_decode_exhaustive_backtracks_across_blocks(case, monkeypatch):
    # Blocks of a few columns put each channel's stack columns, and so
    # the winner's, in different blocks; the winner aligned on the
    # columns sliced out of them equals score_hypothesis on its signs.
    monkeypatch.setattr(parallel, "_BLOCK_ENTRIES", 20)
    lex = mixed_lexicon(np.random.default_rng(130 + case), **BATCH_CASES[case])
    cache = {}
    for seed, lengths in enumerate(({"c0": 9, "c1": 4}, {"c0": 3, "c1": 8}, 6)):
        mobs = sample_mobs(lex, ["s1", "s2"], lengths, seed=140 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=3, cache=cache)
        _assert_same_hypothesis(got, score_hypothesis(lex, got.signs, mobs))
        blocks, index = cache[3]
        m = [_sequence(sorted(lex.signs), i) for i in range(len(index))].index(got.signs)
        width = blocks[0][0].shape[1]
        assert len(blocks) > 2 and len({col // width for col in index[m].tolist()}) == 2


def test_warm_decode_exhaustive_composes_nothing(monkeypatch):
    # A warm utterance builds one density table and scores every block
    # keeping no past rows; its winner is aligned in one viterbi_lattice
    # call on its sliced stack columns only when its state paths are
    # first read. No model is composed and score_hypothesis is not called.
    lex = mixed_lexicon(np.random.default_rng(150), policy="between_signs")
    cache = {}
    monkeypatch.setattr(parallel, "_BLOCK_ENTRIES", 40)
    decode_exhaustive(lex, sample_mobs(lex, ["s0"], 6, seed=1), 3, cache)
    mobs = sample_mobs(lex, ["s2", "s1"], {"c0": 8, "c1": 5}, seed=2)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(parallel, name, wrapper)

    counted("_table_builder", parallel._table_builder)
    counted("viterbi_score_lattice", parallel.viterbi_score_lattice)
    counted("viterbi_lattice", parallel.viterbi_lattice)
    for name in ("compose_models", "score_hypothesis"):
        monkeypatch.setattr(parallel, name, _not_called)
    got = decode_exhaustive(lex, mobs, 3, cache)
    n_blocks = len(cache[3][0])
    assert n_blocks > 1
    assert calls == ["_table_builder"] + ["viterbi_score_lattice"] * n_blocks
    got.state_paths
    assert calls[1 + n_blocks :] == ["viterbi_lattice"]
    monkeypatch.undo()
    _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, 3))



@pytest.mark.parametrize("beam_width", [1, 2, 1000])
def test_warm_decode_synced_runs_one_frame_loop(beam_width, monkeypatch):
    # A warm utterance builds one density table and runs the token search,
    # its one frame loop: the winner keeps the channel scores its tokens
    # carried, so no model is composed and nothing is scored again. Its
    # segments are aligned in one viterbi_lattice call only when its
    # state paths are first read.
    rng = np.random.default_rng(168)
    lex = absorbing_finals(mixed_lexicon(rng, gaussian=True, policy="between_signs"))
    cache = {}
    decode_synced(lex, sample_mobs(lex, ["s0"], 6, seed=1), beam_width, cache)
    mobs = sample_mobs(lex, ["s2", "s1", "s0"], 14, seed=2)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(parallel, name, wrapper)

    def not_called(*args, **kwargs):
        raise AssertionError("a warm synced decode composed a model or scored its winner again")

    counted("_table_builder", parallel._table_builder)
    counted("viterbi_lattice", parallel.viterbi_lattice)
    for name in ("compose_models", "viterbi_score_lattice"):
        monkeypatch.setattr(parallel, name, not_called)
    got = decode_synced(lex, mobs, beam_width, cache)
    assert calls == ["_table_builder"]
    assert len(got.signs) == 3  # five segments, with the epenthesis between signs
    got.state_paths
    assert calls == ["_table_builder", "viterbi_lattice"]
    monkeypatch.undo()
    assert repr(got) == repr(decode_synced_oracle(lex, mobs, beam_width))

def _cached_bytes(cache):
    """Bytes of the candidate stacks in cache (its integer keys) as the
    memory guard counts them: without a block's C channel counts and the
    lexicon's density tables in cache["tables"]."""
    return sum(
        index.nbytes
        + sum(
            log_pi.nbytes + columns.nbytes + sum(w.nbytes for _, w in diagonals)
            for log_pi, diagonals, columns, _ in blocks
        )
        for blocks, index in (cache[key] for key in cache if isinstance(key, int))
    )


def _assert_guard_counts(lex, mobs, max_signs, stack):
    """Returns the bytes that the memory guard counts for stack, the
    cached (blocks, index) of max_signs: those of _cached_bytes and 8
    per entry of the kernel's rows of its widest block (delta's N, the
    emissions' N and N - |o| rows of sums per nonzero offset o). A limit
    one byte under them refuses a decode with that count, and a decode
    at the limit passes."""
    log_pi, diagonals = stack[0][0][:2]
    rows = len(log_pi) + sum(len(log_pi) - abs(o) for o, _ in diagonals)
    need = _cached_bytes({max_signs: stack}) + 8 * rows * max(b[0].shape[1] for b in stack[0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(parallel, "MAX_STACK_BYTES", need - 1)
        with pytest.raises(SearchSpaceTooLargeError, match=f"hold {need} bytes"):
            decode_exhaustive(lex, mobs, max_signs)
        mp.setattr(parallel, "MAX_STACK_BYTES", need)
        decode_exhaustive(lex, mobs, max_signs)
    return need


def _joined(blocks):
    """(log_pi, band, columns) of a _candidate_stack's blocks side by side."""
    offsets = [o for o, _ in blocks[0][1]]
    assert all([o for o, _ in diagonals] == offsets for _, diagonals, *_ in blocks)
    diagonals = [(o, np.hstack([b[1][k][1] for b in blocks])) for k, o in enumerate(offsets)]
    return np.hstack([b[0] for b in blocks]), diagonals, np.hstack([b[2] for b in blocks])


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_stack_bytes_equal_the_cached_stacks(policy):
    lex = mixed_lexicon(np.random.default_rng(44), policy=policy)
    mobs = sample_mobs(lex, ["s1", "s0"], 9, seed=45)
    cache = {}
    decode_exhaustive(lex, mobs, max_signs=3, cache=cache)
    _assert_guard_counts(lex, mobs, 3, cache[3])


def _check_cached_bands(case):
    """The cached stack of BATCH_CASES[case], at 1, 2 and 3 signs,
    against its _stack_layout, a dense_stack of the same models and
    score_hypothesis, bit for bit, whatever parallel._BLOCK_ENTRIES is.

    Ergodic phonemes with zeroed transitions and pi entries: the layout's
    offsets, read from one-sign and junction chains, are exactly those
    band() finds, with (2, 3) and without (1) steps across signs. At 2
    signs the junction chains are the two-sign models. The band, written
    straight from each model's diagonals, is bit-identical to band() of
    the dense stack."""
    rng = np.random.default_rng(80 + case)
    lex = mixed_lexicon(rng, **BATCH_CASES[case])
    for inv in lex.inventories.values():
        for model in inv.phonemes.values():
            if model.topology is Topology.ERGODIC and model.n_states > 1:
                trans = model.trans * (rng.random(model.trans.shape) < 0.6)
                np.fill_diagonal(trans, 1.0)
                model.trans = trans / trans.sum(axis=1, keepdims=True)
                model.pi = np.eye(model.n_states)[int(rng.integers(model.n_states))]
    mobs = sample_mobs(lex, ["s1", "s0"], 6, seed=case)
    bases = parallel._table_bases(lex)
    for max_signs in (1, 2, 3):
        cache = {}
        decode_exhaustive(lex, mobs, max_signs=max_signs, cache=cache)
        blocks, index = cache[max_signs]
        log_pi, diagonals, columns = _joined(blocks)
        layout = parallel._stack_layout(lex, max_signs)
        assert layout[:2] == log_pi.shape
        width = max(1, parallel._BLOCK_ENTRIES // len(log_pi))
        assert [b[0].shape[1] for b in blocks[:-1]] == [width] * (len(blocks) - 1)
        assert len(blocks) == -(-log_pi.shape[1] // width)
        for block_pi, block_band, block_columns, counts in blocks:
            arrays = [block_pi, block_columns] + [w for _, w in block_band]
            assert all(a.flags.c_contiguous for a in arrays)
            # The final row of every stack column reads its channel's states.
            owners = np.searchsorted(bases, block_columns[-1], side="right") - 1
            assert np.repeat(np.arange(len(lex.channels)), counts).tolist() == owners.tolist()
        scores = _candidate_scores(lex, *_table_builder(lex, mobs, {})(), max_signs, cache)
        for m, row in enumerate(scores):
            ref = score_hypothesis(lex, _sequence(sorted(lex.signs), m), mobs)
            assert bits(row) == bits([ref.channel_scores[ch] for ch in lex.channels])
        models, dense_columns, union = [], [], set()
        for c, ch in enumerate(lex.channels):
            states = parallel._state_columns(lex)[ch]
            own = np.unique(index[:, c])
            union |= {o for o, w in diagonals if np.isfinite(w[:, own]).any()}
            for signs in parallel._spellings(lex, ch, max_signs)[0]:
                models.append(compose_utterance_model(lex, ch, signs))
                ids = parallel.block_ids(lex, ch, signs)
                dense_columns.append([col for pid in ids for col in states[pid]])
        want_pi, want_trans, want_columns = dense_stack(models, dense_columns)
        assert [o for o, _ in diagonals] == layout[2] == sorted(union)
        assert [(o, bits(w)) for o, w in diagonals] == [
            (o, bits(w)) for o, w in band(want_trans)
        ]
        assert bits(log_pi) == bits(want_pi) and np.array_equal(columns, want_columns)
        _assert_guard_counts(lex, mobs, max_signs, cache[max_signs])


def test_stack_band_equals_band_of_the_dense_stack():
    # By default _stack reads the offsets from its models' nonzero
    # transitions: those band() finds, each diagonal bit-identical.
    rng = np.random.default_rng(81)
    for _ in range(10):
        models, columns = random_chains(rng, 6, 8)
        log_pi, diagonals, stacked = parallel._stack(models, columns)
        want_pi, want_trans, want_columns = dense_stack(models, columns)
        assert [(o, bits(w)) for o, w in diagonals] == [(o, bits(w)) for o, w in band(want_trans)]
        assert bits(log_pi) == bits(want_pi) and np.array_equal(stacked, want_columns)


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_band_offsets_equal_the_cached_bands(case):
    _check_cached_bands(case)


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_column_blocks_equal_one_stack(case, monkeypatch):
    # At most 40 entries per row array: blocks of a few columns, each
    # scored by its own kernel call, hold and score the same stack.
    monkeypatch.setattr(parallel, "_BLOCK_ENTRIES", 40)
    _check_cached_bands(case)


def test_band_offsets_skip_rewired_rows_and_follow_pi():
    # Sign x is phoneme a then b. Only a's last row steps back two states,
    # and a is never final, so its rewired row drops offset -2; b's pi
    # enters states 0 and 2, so a's last state steps forward 1 and 3.
    emit = DiscreteEmission(np.full((3, 2), 0.5))
    a = Hmm([1.0, 0, 0], [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]], emit.copy())
    b = Hmm([0.5, 0, 0.5], [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0, 1.0]], emit.copy())
    inventories = {"c": PhonemeInventory(phonemes={"a": a, "b": b})}
    lex = Lexicon(["c"], inventories, {"x": Sign("x", {"c": ["a", "b"]})}, "none")
    mobs = MultiObservation({"c": np.array([0, 1, 0, 1, 1, 0])})
    cache = {}
    for max_signs in (1, 2):
        decode_exhaustive(lex, mobs, max_signs=max_signs, cache=cache)
        [(_, diagonals, _, _)], _ = cache[max_signs]
        assert [o for o, _ in diagonals] == [0, 1, 3]
        assert parallel._stack_layout(lex, max_signs)[2] == [0, 1, 3]
        _assert_guard_counts(lex, mobs, max_signs, cache[max_signs])


def test_stack_band_follows_compose_models(monkeypatch):
    # A wiring whose non-final blocks exit into their successor's second
    # state steps forward 2 where pi, one-hot on the first state, says 1:
    # the cached band still holds every step that wiring composes.
    compose = parallel.compose_models

    def exit_into_second_state(blocks, exit_prob=0.5):
        model, offsets = compose(blocks, exit_prob)
        for off in offsets[1:]:
            model.trans[off - 1, off:] = 0.0
            model.trans[off - 1, off + 1] = exit_prob
        return model, offsets

    monkeypatch.setattr(parallel, "compose_models", exit_into_second_state)
    emit = DiscreteEmission(np.array([[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]))
    bakis = [[0.5, 0.5, 0], [0, 0.5, 0.5], [0, 0, 1.0]]
    a, b = (Hmm([1.0, 0, 0], bakis, emit.copy()) for _ in range(2))
    inventories = {"c": PhonemeInventory(phonemes={"a": a, "b": b})}
    signs = {"x": Sign("x", {"c": ["a"]}), "y": Sign("y", {"c": ["b", "a"]})}
    lex = Lexicon(["c"], inventories, signs, "none")
    mobs = MultiObservation({"c": np.array([0, 1, 0, 1, 1, 0, 1, 1])})
    scores = _candidate_scores(lex, *_table_builder(lex, mobs, {})(), 2, {})
    assert np.isfinite(scores).all()
    for m, row in enumerate(scores):
        ref = score_hypothesis(lex, _sequence(sorted(lex.signs), m), mobs)
        assert bits(row) == bits([ref.channel_scores["c"]])


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


def test_decode_synced_refuses_an_empty_beam():
    lex = build_lexicon(np.random.default_rng(6), channels=("c0",))
    mobs = sample_mobs(lex, ["s0"], 6, seed=6)
    with pytest.raises(ValidationError, match="beam_width must be >= 1"):
        decode_synced(lex, mobs, beam_width=0)


def test_decode_refuses_an_unknown_mode():
    lex = build_lexicon(np.random.default_rng(7), channels=("c0",))
    mobs = sample_mobs(lex, ["s0"], 6, seed=7)
    with pytest.raises(ValueError, match="unknown decode mode 'greedy'"):
        parallel.decode(lex, mobs, "greedy", 3, 1000, {})


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


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_decode_synced_never_beats_its_signs_aligned_channel_by_channel(policy):
    # With absorbing final states, every synced alignment is one path
    # per channel through the composed models of its signs.
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        lex = mixed_lexicon(rng, gaussian=bool(trial % 2), ergodic=True, policy=policy)
        absorbing_finals(lex)
        mobs = sample_mobs(lex, ["s0", "s2"], 8, seed=trial)
        sy = decode_synced(lex, mobs, beam_width=1000)
        assert sy.total <= score_hypothesis(lex, sy.signs, mobs).total + 1e-9


def _leaving_phoneme():
    """2 ergodic states over 2 symbols: the final state moves back half
    of the time."""
    probs = np.array([[0.6, 0.4], [0.3, 0.7]])
    return Hmm([1.0, 0.0], [[0.5, 0.5], [0.5, 0.5]], DiscreteEmission(probs), Topology.ERGODIC)


def _channel_lexicon(phonemes, signs, policy="none"):
    """One channel "c" of the phonemes (epenthesis "e"); signs maps each
    sign id to its phoneme ids."""
    inventory = PhonemeInventory(phonemes=phonemes, epenthesis="e")
    signs = {sid: Sign(sid, {"c": pids}) for sid, pids in signs.items()}
    lex = Lexicon(["c"], {"c": inventory}, signs, policy)
    validate_lexicon(lex)
    return lex


def test_decode_synced_rejects_a_sign_whose_final_state_can_leave():
    # The synced unit reprices only the final self-loop and keeps the
    # rest of the final row, which composition zeroes: here it totalled
    # -3.036 against the -5.116 of decode_exhaustive and score_hypothesis.
    lex = _channel_lexicon({"p": _leaving_phoneme(), "e": _leaving_phoneme()}, {"s": ["p"]})
    mobs = MultiObservation({"c": np.ones(5, dtype=int)})
    assert decode_exhaustive(lex, mobs, max_signs=1).total == pytest.approx(-5.116, abs=1e-3)
    assert score_hypothesis(lex, ["s"], mobs).total == pytest.approx(-5.116, abs=1e-3)
    with pytest.raises(ValidationError, match="phoneme 'p' of channel 'c'"):
        decode_synced(lex, mobs, beam_width=10)


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_decode_synced_checks_the_epenthesis_under_its_policy(policy):
    # A leaving final state inside a sign is rewired by composition, so
    # only a sign's last phoneme and the epenthesis filler in use count.
    bakis = random_phoneme(np.random.default_rng(61), 2, alphabet=2)
    phonemes = {"p": _leaving_phoneme(), "q": bakis, "e": _leaving_phoneme()}
    lex = _channel_lexicon(phonemes, {"s": ["p", "q"], "t": ["q"]}, policy)
    mobs = sample_mobs(lex, ["s", "t"], 8, seed=62)
    if policy == "between_signs":
        with pytest.raises(ValidationError, match="phoneme 'e' of channel 'c'"):
            decode_synced(lex, mobs, beam_width=10)
        return
    for beam_width in (1, 10):
        got = _synced_result(lex, mobs, beam_width, decode_synced)
        assert got == _synced_result(lex, mobs, beam_width, decode_synced_oracle)
    assert decode_synced(lex, mobs, 10).total <= decode_exhaustive(lex, mobs, 2).total


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_decode_synced_rejects_a_lexicon_without_signs(policy):
    bakis = random_phoneme(np.random.default_rng(63), 2, alphabet=2)
    lex = _channel_lexicon({"p": bakis, "e": bakis.copy()}, {}, policy)
    with pytest.raises(ValidationError, match="lexicon has no signs"):
        decode_synced(lex, MultiObservation({"c": np.ones(4, dtype=int)}), beam_width=10)


def test_decoding_converts_no_dense_transitions_to_a_band(monkeypatch):
    # Every stack the decoders build, and the synced units, are written
    # as bands: hmm.band, the dense conversion, is never needed.
    lex = mixed_lexicon(np.random.default_rng(64), policy="between_signs")
    mobs = sample_mobs(lex, ["s1", "s0", "s2"], 12, seed=65)

    def no_band(log_trans):
        raise AssertionError("a dense transition stack was converted")

    monkeypatch.setattr("phmm.hmm.band", no_band)
    hyp = decode_synced(lex, mobs, beam_width=1000)
    assert len(hyp.signs) > 1  # a rebuild of several segments
    score_hypothesis(lex, hyp.signs, mobs)
    decode_exhaustive(lex, mobs, max_signs=2)


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


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_batched_exhaustive_scores_equal_score_hypothesis(case):
    # phonemes of 1-3 states, signs of 1-2 phonemes, unequal channel lengths
    lex = mixed_lexicon(np.random.default_rng(30 + case), **BATCH_CASES[case])
    lengths = {"c0": 7, "c1": 1 + case % 4}
    mobs = sample_mobs(lex, ["s1", "s0"], lengths, seed=case)
    scores = _candidate_scores(lex, *_table_builder(lex, mobs, {})(), 2, cache={})
    assert scores.shape == (12, 2)
    for m, row in enumerate(scores):
        signs = _sequence(["s0", "s1", "s2"], m)
        ref = score_hypothesis(lex, signs, mobs)
        assert bits(row) == bits([ref.channel_scores[ch] for ch in lex.channels])


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_batched_exhaustive_scores_keep_impossible_candidates(policy):
    # separated emissions: every candidate with a wrong phoneme scores -inf
    lex = build_lexicon(
        np.random.default_rng(19), vocab=3, separated=True, n_states=3, policy=policy
    )
    mobs = sample_mobs(lex, ["s2", "s0"], 8, seed=11)
    scores = _candidate_scores(lex, *_table_builder(lex, mobs, {})(), 2, cache={})
    n_dead = 0
    for m, row in enumerate(scores):
        ref = score_hypothesis(lex, _sequence(["s0", "s1", "s2"], m), mobs)
        assert bits(row) == bits([ref.channel_scores[ch] for ch in lex.channels])
        n_dead += ref.total == float("-inf")
    assert 0 < n_dead < 12


@pytest.mark.parametrize("n_items", [1, 2, 3, 4])
def test_sequence_numbers_the_enumeration_order(n_items):
    items = ["w", "x", "y", "z"][:n_items]
    rows = [seq for k in (1, 2, 3) for seq in itertools.product(items, repeat=k)]
    assert [_sequence(items, m) for m in range(len(rows))] == rows


def test_sequence_and_decode_take_more_signs_than_numpy_dimensions():
    # numpy 1.24 allows at most 32 array dimensions, so the digits are
    # not read with np.unravel_index.
    assert _sequence(["a"], 39) == ("a",) * 40
    lex = build_lexicon(np.random.default_rng(17), vocab=1)
    mobs = sample_mobs(lex, ["s0"] * 3, 40, seed=17)
    got = decode_exhaustive(lex, mobs, max_signs=40)
    _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, max_signs=40))


def test_batched_scores_of_the_noisy_demo_lexicon_equal_score_hypothesis():
    # The decode benchmark's model, the demo lexicon with every emission
    # row mixed 2% toward uniform, on a noisy utterance: each of the 584
    # candidates of up to 3 signs scores like score_hypothesis, bit for bit.
    from phmm.corpus import GenConfig, generate
    from phmm.demo import demo_lexicon

    lex = demo_lexicon()
    for inv in lex.inventories.values():
        for model in inv.phonemes.values():
            probs = model.emissions.probs
            model.emissions = DiscreteEmission(0.98 * probs + 0.02 / probs.shape[1])
    cfg = GenConfig(n_utterances=1, seed=3, signs_per_utterance=(2, 3), channel_noise=0.02)
    [utt] = generate(demo_lexicon(), cfg)
    scores = _candidate_scores(lex, *_table_builder(lex, utt.mobs, {})(), 3, cache={})
    assert scores.shape == (584, 3)
    for m, row in enumerate(scores):
        ref = score_hypothesis(lex, _sequence(sorted(lex.signs), m), utt.mobs)
        assert bits(row) == bits([ref.channel_scores[ch] for ch in lex.channels])


def _tied_lexicon():
    # s1 is bound to s2's phonemes in every channel, so every sequence
    # with s2 ties exactly with the one that has s1 in its place.
    lex = mixed_lexicon(np.random.default_rng(49), policy="between_signs")
    lex.signs["s1"] = Sign("s1", dict(lex.signs["s2"].channels))
    return lex


@pytest.mark.parametrize("case", range(len(BATCH_CASES) + 1))
def test_decode_exhaustive_equals_one_at_a_time_oracle(case):
    if case < len(BATCH_CASES):
        lex = mixed_lexicon(np.random.default_rng(30 + case), **BATCH_CASES[case])
        true_signs = ["s1", "s0"]
    else:
        lex = _tied_lexicon()
        true_signs = ["s2", "s0"]
    cache = {}
    for seed in range(3):
        mobs = sample_mobs(lex, true_signs, {"c0": 7, "c1": 5 + seed}, seed=40 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=2, cache=cache)
        want = decode_exhaustive_oracle(lex, mobs, max_signs=2)
        for field in ("signs", "channel_scores", "total", "state_paths"):
            assert repr(getattr(got, field)) == repr(getattr(want, field))
        if case == len(BATCH_CASES):
            swapped = tuple("s2" if s == "s1" else s for s in got.signs)
            assert "s2" not in got.signs and swapped != got.signs
            assert score_hypothesis(lex, swapped, mobs).total == got.total


def test_decode_exhaustive_cache_reuse_matches_fresh_cache():
    lex = mixed_lexicon(np.random.default_rng(20), policy="between_signs")
    cache = {}
    for seed, signs in enumerate((["s0"], ["s2", "s1"], ["s1"])):
        mobs = sample_mobs(lex, signs, {"c0": 6, "c1": 4}, seed=seed)
        shared = decode_exhaustive(lex, mobs, max_signs=2, cache=cache)
        fresh = decode_exhaustive(lex, mobs, max_signs=2)
        assert shared == fresh


def _assert_same_hypothesis(got, want):
    for field in ("signs", "channel_scores", "total", "state_paths"):
        assert repr(getattr(got, field)) == repr(getattr(want, field))


def _respelled(lex, spellings):
    """lex with sign s spelled spellings[s][c] in channel c (content
    phoneme indices of mixed_lexicon)."""
    for sid, per_channel in spellings.items():
        channels = {
            ch: [lex.inventory(ch).content_ids[p] for p in pids]
            for ch, pids in zip(lex.channels, per_channel)
        }
        lex.signs[sid] = Sign(sid, channels)
    validate_lexicon(lex)
    return lex


@pytest.mark.parametrize("policy", ["none", "between_signs"])
def test_decode_exhaustive_maps_candidates_per_channel(policy):
    # s0 and s1 share their c0 spelling, s1 and s2 their c1 spelling, so
    # each channel stacks 2 + 4 + 8 distinct models for the 39 candidates
    # of up to 3 signs, through a different map.
    lex = mixed_lexicon(np.random.default_rng(61), policy=policy)
    lex = _respelled(lex, {"s0": ([0], [0, 1]), "s1": ([0], [2]), "s2": ([1, 2], [2])})
    cache = {}
    for seed, signs in enumerate((["s1"], ["s0", "s2"], ["s2", "s1", "s0"])):
        mobs = sample_mobs(lex, signs, 8, seed=60 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=3, cache=cache)
        _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, max_signs=3))
    blocks, index = cache[3]
    assert _joined(blocks)[2].shape[1] == 14 + 14 and index.shape == (39, 2)
    assert index[:3, 0].tolist() == [0, 0, 1] and index[:3, 1].tolist() == [14, 15, 15]
    assert index[3:12, 0].tolist() == [2, 2, 3, 2, 2, 3, 4, 4, 5]


def test_decode_exhaustive_equal_concatenations_keep_their_columns():
    # Without epenthesis a = [p, q] then b = [r] and c = [p] then
    # d = [q, r] compose the same c0 model p q r in distinct columns with
    # bit-identical scores; c1 spells a as c and b as d, so (a, b) and
    # (c, d) tie exactly and the oracle's tie rule must hold.
    lex = mixed_lexicon(np.random.default_rng(63), policy="none")
    lex.signs.clear()
    lex = _respelled(
        lex, {"a": ([0, 1], [0]), "b": ([2], [1]), "c": ([0], [0]), "d": ([1, 2], [1])}
    )
    cache = {}
    for seed, signs in enumerate((["c", "d"], ["a", "b"], ["d", "a", "c"])):
        mobs = sample_mobs(lex, signs, {"c0": 9, "c1": 6}, seed=70 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=3, cache=cache)
        _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, max_signs=3))
        scores = _candidate_scores(lex, *_table_builder(lex, mobs, {})(), 3, cache)
        ab, cd = 4 + 0 * 4 + 1, 4 + 2 * 4 + 3  # after the 4 one-sign rows
        assert _sequence("abcd", ab) == ("a", "b") and _sequence("abcd", cd) == ("c", "d")
        assert bits(scores[ab]) == bits(scores[cd])
    index = cache[3][1]
    assert index[ab, 0] != index[cd, 0]


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_decode_exhaustive_unequal_lengths_equal_the_oracle(case):
    lex = mixed_lexicon(np.random.default_rng(90 + case), **BATCH_CASES[case])
    cache = {}
    for seed, lengths in enumerate(({"c0": 9, "c1": 3}, {"c0": 2, "c1": 8})):
        mobs = sample_mobs(lex, ["s2", "s0"], lengths, seed=80 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=3, cache=cache)
        _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, max_signs=3))


def test_decode_exhaustive_cache_serves_every_max_signs():
    lex = mixed_lexicon(np.random.default_rng(64), policy="between_signs")
    cache = {}
    for seed, max_signs in enumerate((3, 2, 3)):
        mobs = sample_mobs(lex, ["s1", "s2"], {"c0": 8, "c1": 7}, seed=50 + seed)
        got = decode_exhaustive(lex, mobs, max_signs=max_signs, cache=cache)
        _assert_same_hypothesis(got, decode_exhaustive_oracle(lex, mobs, max_signs))
        if seed == 0:
            stacks = cache[3]
    assert set(cache) == {2, 3, "tables"} and cache[3] is stacks


def test_stack_bytes_runs_once_per_cache_and_max_signs(monkeypatch):
    # The guards, the layout and the fill of a stack are one pass, run
    # once per cache and max_signs.
    calls = []

    def counted(name):
        fn = getattr(parallel, name)

        def wrapper(lexicon, max_signs):
            calls.append((name, max_signs))
            return fn(lexicon, max_signs)

        monkeypatch.setattr(parallel, name, wrapper)

    counted("_candidate_stack")
    counted("_stack_layout")
    lex = mixed_lexicon(np.random.default_rng(65))
    cache = {}
    for seed in range(12):
        mobs = sample_mobs(lex, ["s0", "s2"][: 1 + seed % 2], 6, seed=seed)
        decode_exhaustive(lex, mobs, max_signs=2 + seed % 2, cache=cache)
    once = [[("_candidate_stack", k), ("_stack_layout", k)] for k in (2, 3)]
    assert calls == once[0] + once[1]
    decode_exhaustive(lex, mobs, max_signs=3)
    assert calls == once[0] + once[1] + once[1]


def test_decode_synced_cache_builds_one_unit_layout(monkeypatch):
    # One cache serves a corpus in both modes through decode: the synced
    # hypotheses equal uncached decodes repr for repr, and the unit
    # layout is built once, under a key apart from the exhaustive stack.
    calls = []
    unit_layout = parallel._unit_layout

    def counted(lexicon, keys):
        calls.append(list(keys))
        return unit_layout(lexicon, keys)

    monkeypatch.setattr(parallel, "_unit_layout", counted)
    lex = build_lexicon(np.random.default_rng(67), vocab=3, policy="between_signs")
    corpus = [
        sample_mobs(lex, [["s0"], ["s2", "s1"], ["s1", "s0", "s2"]][seed % 3], 9, seed=seed)
        for seed in range(6)
    ]
    cache = {}
    cached = []
    for mobs in corpus:
        cached.append(parallel.decode(lex, mobs, "synced", 2, 1000, cache))
        parallel.decode(lex, mobs, "exhaustive", 2, 1000, cache)
    assert calls == [["s0", "s1", "s2", EPS_UNIT]] and set(cache) == {2, "synced", "tables"}
    for mobs, got in zip(corpus, cached):
        _assert_same_hypothesis(got, decode_synced(lex, mobs, beam_width=1000))
    assert len(calls) == 1 + len(corpus)


def _table_lexicon(gaussian):
    """A mixed_lexicon whose density tables hold -inf (discrete: no
    phoneme's first state emits symbol 0) or log densities above 0
    (Gaussian: variances cut a hundredfold)."""
    lex = mixed_lexicon(np.random.default_rng(68), gaussian=gaussian, policy="between_signs")
    for inv in lex.inventories.values():
        for model in inv.phonemes.values():
            em = model.emissions
            if gaussian:
                em.variances /= 100.0
            else:
                em.probs[0, 0] = 0.0
                em.probs[0] /= em.probs[0].sum()
    return lex


@pytest.mark.parametrize("gaussian", [False, True])
def test_cached_density_tables_decode_as_uncached(gaussian, monkeypatch):
    # One cache serves a corpus in both modes: each channel's density
    # table is built once for it, and every hypothesis equals an
    # uncached decode's repr for repr.
    calls = []
    density_table = emissions.density_table

    def counted(parts):
        calls.append(len(parts))
        return density_table(parts)

    monkeypatch.setattr(emissions, "density_table", counted)
    lex = _table_lexicon(gaussian)
    corpus = [
        sample_mobs(lex, [["s0"], ["s2", "s1"], ["s1", "s0"]][seed % 3], 8, seed=seed)
        for seed in range(6)
    ]

    def decoded(mobs, mode, cache):
        return repr(parallel.decode(lex, mobs, mode, 2, 1000, cache))

    cache = {}
    cached = [decoded(mobs, mode, cache) for mobs in corpus for mode in ("exhaustive", "synced")]
    assert len(calls) == len(lex.channels)
    fresh = [decoded(mobs, mode, None) for mobs in corpus for mode in ("exhaustive", "synced")]
    assert cached == fresh and len(calls) == len(lex.channels) * (1 + 2 * len(corpus))
    table = _table_builder(lex, corpus[0], cache)()[0]
    assert (table > 0).any() if gaussian else np.isneginf(table[:, :3]).any()


@pytest.mark.parametrize("symbol", [-1, 4])
@pytest.mark.parametrize("mode", ["exhaustive", "synced"])
def test_warm_decode_rejects_symbols_outside_the_alphabet(mode, symbol):
    # A density table reads a symbol's row: -1 would read the last
    # symbol's and 4, the alphabet size, past the table. The check comes
    # first, also when the cache already holds the tables.
    lex = mixed_lexicon(np.random.default_rng(26), policy="between_signs")
    assert lex.inventory("c1").phonemes["c1_p0"].emissions.alphabet_size == 4
    decoder = decode_exhaustive if mode == "exhaustive" else decode_synced
    cache = {}
    decoder(lex, sample_mobs(lex, ["s0"], 6, seed=17), 2, cache)
    mobs = sample_mobs(lex, ["s1"], 6, seed=18)
    mobs.channels["c1"][3] = symbol
    with pytest.raises(DimensionMismatchError, match="out of range for alphabet size 4"):
        decoder(lex, mobs, 2, cache)


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


def _dense_band(diagonals, n):
    """The (N, N, ...) log transitions whose band is diagonals, -inf off
    them: log_trans[j - o, j] = w[j]."""
    log_trans = np.full((n,) + diagonals[0][1].shape, -np.inf)
    for o, w in diagonals:
        for j in range(max(o, 0), n + min(o, 0)):
            log_trans[j - o, j] = w[j]
    return log_trans


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
        stack = _Unit(lex, mobs, keys, _unit_layout(lex, keys))
        # Every spelling of a channel differs: one column per unit.
        assert stack.log_pi.shape == (7, len(keys) * 2)
        assert sorted(stack.index.ravel().tolist()) == list(range(len(keys) * 2))
        offsets = [o for o, _ in stack.band]
        assert 0 in offsets and offsets == sorted(offsets)
        dense = _dense_band(stack.band, 7)
        columns = [stack.segment_scores(t) for t in range(t_len)]
        last = stack.last()
        assert last.shape == (t_len, len(keys), 2)
        n_inf = 0
        for k, key in enumerate(keys):
            for c, ch in enumerate(lex.channels):
                unit = synced_unit(lex, ch, key, mobs.channels[ch])
                d = stack.index[k, c]
                lo = stack.final + 1 - np.count_nonzero(stack.columns[:, d] >= 0)
                log_pi = stack.log_pi[lo:, d]
                log_trans = dense[lo:, lo:, d]
                logb = stack.logb[:, lo:, d]
                assert bits(log_pi) == bits(unit.log_pi)
                assert bits(log_trans) == bits(unit.log_trans)
                assert bits(logb) == bits(unit.logb)
                n_inf += int(np.isneginf(unit.logb).sum())
                for t0 in range(t_len):
                    ref_exit, ref_last = segment_scores_oracle(unit, t0)
                    for t in range(t0, t_len):
                        assert columns[t].shape == (t + 1, len(keys), 2)
                        assert bits(columns[t][t0, k, c]) == bits(ref_exit[t])
                    assert bits(last[t0, k, c]) == bits(ref_last)
        assert (n_inf > 0) == (not gaussian)


def _shared_spelling_lexicon(rng):
    """A mixed_lexicon (epenthesis between signs) in which s1 spells
    channel c0 as s0 does and s2 spells c1 as s0 does."""
    lex = mixed_lexicon(rng, policy="between_signs")
    lex.signs["s1"].channels["c0"] = list(lex.signs["s0"].channels["c0"])
    lex.signs["s2"].channels["c1"] = list(lex.signs["s0"].channels["c1"])
    return lex


@pytest.mark.parametrize("case", range(len(BATCH_CASES) + 1))
def test_segment_scores_on_distinct_columns_equal_per_unit_stack(case):
    # The recursion runs once per distinct (channel, spelling) column and
    # indexes its exits out: bit for bit the stack of one column per
    # (key, channel).
    rng = np.random.default_rng(140 + case)
    if case < len(BATCH_CASES):
        lex = mixed_lexicon(rng, **BATCH_CASES[case])
    else:
        lex = _shared_spelling_lexicon(rng)
    keys = sorted(lex.signs) + ([EPS_UNIT] if lex.epenthesis_policy == "between_signs" else [])
    mobs = sample_mobs(lex, ["s0", "s1"], 7, seed=case)
    units = _Unit(lex, mobs, keys, _unit_layout(lex, keys))
    assert units.index.shape == (len(keys), 2)
    distinct = {
        (ch, key if key == EPS_UNIT else tuple(lex.signs[key].channels[ch]))
        for key in keys
        for ch in lex.channels
    }
    assert units.index.max() + 1 == units.columns.shape[1] == len(distinct)
    if case == len(BATCH_CASES):
        assert len(distinct) <= len(keys) * 2 - 2
    for k, key in enumerate(keys):
        for c, ch in enumerate(lex.channels):
            # Each unit's column is its own composed model's.
            unit, d = synced_unit(lex, ch, key, mobs.channels[ch]), units.index[k, c]
            assert bits(units.log_pi[units.final + 1 - unit.n :, d]) == bits(unit.log_pi)
            assert bits(units.logb[:, units.final + 1 - unit.n :, d]) == bits(unit.logb)
    exits, last = per_unit_segment_scores(units)
    for t in range(7):
        got = units.segment_scores(t)
        assert got.shape == (t + 1, len(keys), 2) and bits(got) == bits(exits[t])
    assert units.last().shape == last.shape and bits(units.last()) == bits(last)


def test_best_entries_returns_fsum_winner_on_near_tie():
    # Left to right, 1e16 + 1.0 rounds to 1e16, so numpy sums row 0 to 0.0
    # and ranks row 1 (0.5) first; math.fsum scores row 0 at 1.0.
    parts = np.array([[[1e16, 1.0, -1e16]], [[0.5, 0.0, 0.0]]])
    entries = np.zeros((2, 1))
    assert parts[0].sum(axis=-1)[0] < parts[1].sum(axis=-1)[0]
    assert _best_entries(entries, parts, 1e16 + 1.0) == [(1.0, [0])]
    # The entry score takes part in the rescoring: row 1 now wins.
    assert _best_entries(np.array([[-0.75], [0.0]]), parts, 1e16 + 1.0) == [(0.5, [1])]


def test_best_entries_near_tie_with_positive_values():
    # Gaussian log densities can exceed 0. Every value here does, so no
    # sum is below 0 and only the bound on positive values (no row's sum
    # past 6) keeps row 0, which sums below row 1 left to right (as
    # _best_entries sums) and above it in math.fsum, in the rescoring.
    entries = np.array([[0.2], [2.9]])
    parts = np.array([[[1.0, 2.6, 1.9]], [[0.4, 1.2, 1.2]]])
    approx = entries + parts[..., 0] + parts[..., 1] + parts[..., 2]
    assert approx[0, 0] < approx[1, 0]
    assert 0.2 + math.fsum([1.0, 2.6, 1.9]) > 2.9 + math.fsum([0.4, 1.2, 1.2])
    assert _best_entries(entries, parts, 6.0) == [(0.2 + math.fsum([1.0, 2.6, 1.9]), [0])]


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
    assert _best_entries(entries, parts, 0.0) == [(-3.0, [0, 1, 2]), (-4.0, [1]), (-1.0, [1])]
    assert _best_entries(np.full((3, 3), inf), parts, 0.0) == [(None, [])] * 3



def _near_tie_rows(rng, n_rows, n_parts, scale):
    """(n_rows, n_parts) parts whose exact sums are small numbers a few
    ulps of 1.0 apart while each row holds terms of magnitude scale: a
    numpy sum left to right loses the small part, math.fsum keeps it.
    Some rows permute an earlier row's terms, so that their exact sums
    tie while their numpy sums need not."""
    rows = []
    for i in range(n_rows):
        if rows and rng.random() < 0.3:
            rows.append(list(rng.permutation(rows[int(rng.integers(0, len(rows)))])))
            continue
        big = list(rng.normal(size=n_parts - 1) * scale)
        small = 0.5 + float(rng.integers(0, 4)) * 2.0**-52
        rows.append(big + [small - math.fsum(big)])
    return np.array(rows)


@pytest.mark.parametrize("n_parts", [1, 2, 3, 4])
def test_best_entries_equals_brute_force(n_parts):
    # Seeded random columns against best_entries_oracle: near-ties at
    # 1e16 magnitudes, exact ties of permuted terms, positive parts and
    # entries, -inf rows and parts, all -inf columns and one-row columns.
    rng = np.random.default_rng(180 + n_parts)
    inf = float("-inf")
    kinds = {"near": 0, "tied": 0, "dead": 0}
    for trial in range(300):
        n_rows, n_cols = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        scale = float(rng.choice([1.0, 1e3, 1e16]))
        if n_parts > 1 and rng.random() < 0.5:
            parts = np.stack(
                [_near_tie_rows(rng, n_rows, n_parts, scale) for _ in range(n_cols)], axis=1
            )
            entries = np.zeros((n_rows, n_cols))
        else:
            parts = rng.normal(size=(n_rows, n_cols, n_parts)) * scale
            entries = rng.normal(size=(n_rows, n_cols)) * scale
            if n_rows > 1 and rng.random() < 0.3:
                parts[1:2] = parts[:1]  # an exact tie on every column
                entries[1:2] = entries[:1]
        parts[rng.random(parts.shape) < 0.1] = inf
        entries[rng.random(entries.shape) < 0.15] = inf
        if rng.random() < 0.2:
            entries[:, int(rng.integers(0, n_cols))] = inf
        # The tightest bound the positive values allow, or a looser one.
        positive = np.maximum(np.concatenate([entries[..., None], parts], axis=-1), 0.0)
        positive = positive.sum(axis=-1).max() * float(rng.choice([1.0, 1.0, 3.0]))
        got = _best_entries(entries, parts, positive)
        want = best_entries_oracle(entries, parts)
        assert got == want
        for (score, rows), k in zip(want, range(n_cols)):
            kinds["dead"] += score is None
            kinds["tied"] += len(rows) > 1
            approx = entries[rows[:1], k] + parts[rows[:1], k].sum(axis=-1)
            kinds["near"] += bool(rows) and approx[0] != score
    assert kinds["dead"] > 20 and kinds["tied"] > 5
    assert n_parts < 3 or kinds["near"] > 20

def test_signs_above_equals_ranking_every_token():
    # The beam's rank test, which tokenizes only the signs tying the
    # epenthesis token's score, against ranking every sign token of the
    # frame by (key(), unit key) as the per-unit oracle does: on exact
    # ties, entry tokens of different lengths and sign ids on both sides
    # of EPS_UNIT ("0" < "1" < "<eps>" < "z").
    sign_ids = ["0", "1", "z"]
    entries = [
        _Token(0.0, (), (), ()),
        _Token(-1.0, ("1",), (), ()),
        _Token(-1.0, ("0",), (), ()),
    ]
    choices = [(None, [])] + [(s, t0s) for s in (-2.0, -1.5, -1.0) for t0s in ([0], [1, 2], [2])]
    eps_tokens = [_Token(-1.5, signs, (), ()) for signs in (("0",), ("1",), ("0", "z"))]
    exits = np.zeros((4, len(sign_ids), 0))  # tokens of no channels
    tied_above = tied_below = 0
    for winners in itertools.product(choices, repeat=3):
        tokens = [
            (_unit_token(key, w, entries, 3, exits[:, k]).key(), key)
            for k, (key, w) in enumerate(zip(sign_ids, winners))
            if w[0] is not None
        ]
        for eps in eps_tokens:
            above = sum(token < (eps.key(), EPS_UNIT) for token in tokens)
            assert _signs_above(eps, sign_ids, winners, entries, 3, exits) == above
            ties = [token < (eps.key(), EPS_UNIT) for token in tokens if token[0][0] == 1.5]
            tied_above += sum(ties)
            tied_below += len(ties) - sum(ties)
    assert tied_above > 0 and tied_below > 0


def test_decode_synced_beam_one_drops_the_best_sign_behind_epenthesis():
    # At beam 1 an epenthesis token that ranks first takes the one place,
    # so no epenthesis is entered at the next frame. On this 13-frame
    # utterance, keeping the best sign token there too changes the winner.
    rng = np.random.default_rng(10_091)
    lex = mixed_lexicon(rng, gaussian=True, ergodic=True, policy="between_signs")
    absorbing_finals(lex)
    mobs = sample_mobs(lex, ["s0", "s1", "s1"], 13, seed=91)
    for beam_width in range(1, 6):
        got = _synced_result(lex, mobs, beam_width, decode_synced)
        assert got == _synced_result(lex, mobs, beam_width, decode_synced_oracle)


def test_decode_synced_ties_go_to_the_earliest_entry_frame():
    # On 0 0 2 1, s0 [0], eps [1], s1 [2, 3] and s0 [0, 1], eps [2],
    # s1 [3] both score 2^-7 exactly, so s1's token at the last frame
    # ties between entry frames 2 and 3. The earliest wins, in the
    # decoder as in the per-unit oracle.
    def phoneme(probs):
        return Hmm([1.0], [[1.0]], DiscreteEmission(np.array([probs])), Topology.ERGODIC)

    phonemes = {"a": [0.5, 0.0, 0.5], "b": [0.0, 0.5, 0.5], "e": [0.25, 0.25, 0.5]}
    inventory = PhonemeInventory({pid: phoneme(p) for pid, p in phonemes.items()}, "e")
    signs = {"s0": Sign("s0", {"c0": ["a"]}), "s1": Sign("s1", {"c0": ["b"]})}
    lex = Lexicon(["c0"], {"c0": inventory}, signs, "between_signs", exit_prob=0.5)
    mobs = MultiObservation({"c0": np.array([0, 0, 2, 1])})
    hyp = decode_synced(lex, mobs, beam_width=1000)
    assert hyp.signs == ("s0", "s1") and hyp.state_paths == {"c0": [0, 1, 2, 2]}
    assert hyp.total == pytest.approx(7 * math.log(0.5))
    for beam_width in (1, 2, 3, 1000):
        got = _synced_result(lex, mobs, beam_width, decode_synced)
        assert got == _synced_result(lex, mobs, beam_width, decode_synced_oracle)


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


def _uniform_phoneme(n_states):
    return Hmm(
        np.full(n_states, 1.0 / n_states),
        np.full((n_states, n_states), 1.0 / n_states),
        DiscreteEmission(np.full((n_states, 2), 0.5)),
        Topology.ERGODIC,
    )


def _uniform_lexicon():
    """Two channels of uniform ergodic phonemes (1-3 states, epenthesis
    between signs): every state path of a unit scores the same."""
    uniform = _uniform_phoneme
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
        # The search hands the token its segments' totals, the oracle's here.
        signs = tuple(k for k, _, _ in segments if k != EPS_UNIT)
        token = _Token(0.0, signs, segments, tuple(total for total, _ in expected.values()))
        hyp = _rebuild_hypothesis(_Unit(lex, mobs, keys, _unit_layout(lex, keys)), token)
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
] + ["three channels", "tied"]


def _all_tied_lexicon():
    """_uniform_lexicon with 1-state phonemes and an exit probability of
    0.5: every emission and every transition but the last segment's
    absorbing final self-loop costs log 0.5, so that many sign sequences
    and segmentations tie exactly."""
    lex = _uniform_lexicon()
    for inv in lex.inventories.values():
        inv.phonemes = {pid: _uniform_phoneme(1) for pid in inv.phonemes}
    lex.exit_prob = 0.5
    return lex


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
    if spec == "tied":
        lex = _all_tied_lexicon()
    elif spec == "three channels":
        lex = build_lexicon(rng, vocab=4, policy="between_signs", phonemes_per_sign=2)
    else:
        lex = mixed_lexicon(rng, **spec)
        absorbing_finals(lex)
    # Every beam width from 1 to one past the unit count, and unbounded.
    n_units = len(lex.signs) + (lex.epenthesis_policy == "between_signs")
    found = 0
    for trial in range(12):
        t_len = (1, 2, 5, 9)[trial % 4]
        n_signs = int(rng.integers(1, 4))
        signs = [sorted(lex.signs)[int(i)] for i in rng.integers(0, len(lex.signs), n_signs)]
        mobs = sample_mobs(lex, signs, t_len, seed=100 * case + trial)
        for beam_width in [*range(1, n_units + 2), 1000]:
            got = _synced_result(lex, mobs, beam_width, decode_synced)
            assert got == _synced_result(lex, mobs, beam_width, decode_synced_oracle)
            found += got is not None
    assert found >= 18
