"""State paths aligned at their first read.

Every decoder hands its winner's stack columns to parallel._align, which
scores them at once and aligns them only when hyp.state_paths is first
read. These tests hold the deferred paths and the eager scores to the
alignment of one viterbi_lattice call on the same arrays and to the
oracles, and check what an unread Hypothesis holds and how it behaves.
"""

import copy
import gc
import math
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BATCH_CASES,
    absorbing_finals,
    bits,
    gaussian_twin,
    mixed_lexicon,
    sample_mobs,
)
from oracles import decode_exhaustive_oracle, decode_synced_oracle

import phmm
from phmm import parallel
from phmm.corpus import GenConfig, generate
from phmm.demo import demo_lexicon
from phmm.errors import AllPathsZeroError, NoFiniteHypothesisError
from phmm.hmm import viterbi, viterbi_lattice
from phmm.lexicon import MultiObservation
from phmm.parallel import (
    compose_utterance_model,
    decode_exhaustive,
    decode_synced,
    score_hypothesis,
)


def _eager_align(
    signs, channels, again, log_pi, band, columns, starts, lengths, scores, log_exit=None
):
    """(channel_scores, state_paths) of _align's arguments from one
    viterbi_lattice call on the table again() returns, scores and paths
    together, as _align made them before its paths were deferred and
    before the synced search kept its winner's scores: every segment but
    the last pays log_exit, its units' boundary exit log probability."""
    n_channels = len(channels)
    table = again()[0]
    logb = table[:, columns]
    if len(starts) > n_channels:
        frames = np.minimum(starts + np.arange(lengths.max())[:, None], len(table) - 1)
        logb = np.take_along_axis(logb, frames[:, None], axis=0)
        anchored = np.arange(len(starts) - n_channels)
        logb[lengths[anchored] - 1, :-1, anchored] = -np.inf
    segment_scores, paths = viterbi_lattice(log_pi, band, logb, lengths)
    sizes = np.count_nonzero(columns >= 0, axis=0).tolist()
    segment_scores, rows, n_frames = segment_scores.tolist(), paths.T.tolist(), lengths.tolist()
    channel_scores, state_paths = {}, {}
    for c, ch in enumerate(channels):
        total, path, shift = 0.0, [], -len(log_pi)
        for b in range(c, len(rows), n_channels):
            shift += sizes[b]
            last = b + n_channels >= len(rows)
            total += segment_scores[b] if last else segment_scores[b] + log_exit
            path += [i + shift for i in rows[b][: n_frames[b]]]
        channel_scores[ch] = total
        state_paths[ch] = path if total > float("-inf") else None
    return channel_scores, state_paths


@pytest.fixture
def aligned(monkeypatch):
    """Every _align call of the test, as (arguments, the boundary exit
    log probability of the synced units if _rebuild_hypothesis made the
    call, Hypothesis returned)."""
    calls, log_exit = [], [None]
    align, rebuild = parallel._align, parallel._rebuild_hypothesis

    def rebuilding(units, token):
        log_exit[0] = units.log_exit
        return rebuild(units, token)

    def recording(*args):
        hyp = align(*args)
        calls.append((args, log_exit[0], hyp))
        log_exit[0] = None
        return hyp

    monkeypatch.setattr(parallel, "_align", recording)
    monkeypatch.setattr(parallel, "_rebuild_hypothesis", rebuilding)
    return calls


def _check_aligned(calls):
    """Each recorded Hypothesis has the eager channel scores bit for bit,
    its total their fsum, and, once read, the eager state paths."""
    for args, log_exit, hyp in calls:
        want_scores, want_paths = _eager_align(*args, log_exit=log_exit)
        assert list(hyp.channel_scores) == list(want_scores)
        assert bits(list(hyp.channel_scores.values())) == bits(list(want_scores.values()))
        assert hyp.total == math.fsum(want_scores.values())
        assert hyp.state_paths == want_paths
    n = len(calls)
    calls.clear()
    return n


def _per_channel_viterbi(lex, signs, mobs):
    """Each channel's hmm.viterbi path on its own composed model, None
    where it has no feasible path."""
    paths = {}
    for ch in lex.channels:
        try:
            paths[ch] = viterbi(compose_utterance_model(lex, ch, signs), mobs.channels[ch])[0]
        except AllPathsZeroError:
            paths[ch] = None
    return paths


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_deferred_paths_equal_eager_alignment_and_oracles(case, aligned):
    # Both decoders and score_hypothesis over every kind of mixed
    # lexicon (discrete and Gaussian, Bakis and ergodic, with and
    # without epenthesis), channels of equal and unequal length.
    lex = absorbing_finals(mixed_lexicon(np.random.default_rng(400 + case), **BATCH_CASES[case]))
    cache = {}
    for seed, lengths in enumerate(({"c0": 9, "c1": 4}, {"c0": 3, "c1": 7}, 8, 5)):
        truth = [["s1", "s2"], ["s0"], ["s2", "s0", "s1"], ["s1"]][seed]
        mobs = sample_mobs(lex, truth, lengths, seed=410 + seed)
        got = decode_exhaustive(lex, mobs, 3, cache)
        assert got == decode_exhaustive_oracle(lex, mobs, 3)
        for signs in (got.signs, ("s0", "s1")):
            hyp = score_hypothesis(lex, signs, mobs)
            assert hyp.state_paths == _per_channel_viterbi(lex, signs, mobs)
        if isinstance(lengths, int):
            for beam_width in (1, 1000):
                try:
                    got = decode_synced(lex, mobs, beam_width, cache)
                except NoFiniteHypothesisError:
                    continue
                assert got == decode_synced_oracle(lex, mobs, beam_width)
    assert _check_aligned(aligned) > 4 * 4


def test_deferred_paths_of_a_channel_scoring_minus_inf(aligned):
    # The demo lexicon has exact zeros: another sign's models leave some
    # channels without a feasible path, and those get None.
    lex = demo_lexicon()
    utts = generate(lex, GenConfig(n_utterances=4, seed=31, signs_per_utterance=(1, 2)))
    n_dead = 0
    for utt in utts:
        for sign in sorted(lex.signs)[:6]:
            hyp = score_hypothesis(lex, [sign], utt.mobs)
            want = _per_channel_viterbi(lex, [sign], utt.mobs)
            assert hyp.state_paths == want
            n_dead += sum(path is None for path in want.values())
    assert n_dead > 0
    _check_aligned(aligned)


def _number(items, seq):
    """The number of seq among parallel._sequence's sequences of items."""
    code = 0
    for item in seq:
        code = code * len(items) + items.index(item)
    return sum(len(items) ** k for k in range(1, len(seq))) + code


def _mixed_demo():
    """The demo lexicon with every emission row mixed toward uniform, so
    that channels may cross sign boundaries at other frames than the
    ones they were sampled with."""
    lex = demo_lexicon()
    for inv in lex.inventories.values():
        for model in inv.phonemes.values():
            probs = model.emissions.probs
            model.emissions.probs = 0.98 * probs + 0.02 / probs.shape[1]
    return lex


def test_deferred_paths_of_wide_and_long_winners(aligned):
    # Exhaustive winners of up to 5 signs whose channels lie in different
    # stack blocks, and synced winners of many segments, on the demo
    # lexicon and its Gaussian twin.
    for lex, noise in ((_mixed_demo(), 0.02), (gaussian_twin(), 0.3)):
        cfg = GenConfig(n_utterances=3, seed=37, signs_per_utterance=(4, 5), channel_noise=noise)
        cache = {}
        spanning = 0
        for utt in generate(lex, cfg):
            hyp = decode_exhaustive(lex, utt.mobs, 5, cache)
            blocks, index = cache[5]
            width = blocks[0][0].shape[1]
            columns = index[_number(sorted(lex.signs), hyp.signs)].tolist()
            spanning += len({col // width for col in columns}) > 1
            assert hyp.state_paths == _per_channel_viterbi(lex, hyp.signs, utt.mobs)
            decode_synced(lex, utt.mobs, 1000, cache)
        assert spanning > 0
    n_channels = len(demo_lexicon().channels)
    assert max(len(args[7]) for args, _, _ in aligned) >= 7 * n_channels
    _check_aligned(aligned)


def _decoders(lex, cache):
    """The three producers of a Hypothesis, each a function of mobs."""
    return {
        "exhaustive": lambda mobs: decode_exhaustive(lex, mobs, 3, cache),
        "synced": lambda mobs: decode_synced(lex, mobs, 1000, cache),
        "score": lambda mobs: score_hypothesis(lex, ["s1", "s0"], mobs),
    }


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("mode", ["exhaustive", "synced", "score"])
def test_unread_hypothesis_behaves_as_a_read_one(mode, gaussian):
    lex = mixed_lexicon(np.random.default_rng(430), gaussian, policy="between_signs")
    lex = absorbing_finals(lex)
    mobs = sample_mobs(lex, ["s1", "s0"], 7, seed=431)
    decode = _decoders(lex, {})[mode]
    read = decode(mobs)
    paths = read.state_paths
    assert read.state_paths is paths and isinstance(paths, dict)
    assert decode(mobs) == read and read == decode(mobs)
    assert repr(decode(mobs)) == repr(read)
    for copied in (copy.deepcopy(decode(mobs)), pickle.loads(pickle.dumps(decode(mobs)))):
        assert vars(copied)["state_paths"] == paths and repr(copied) == repr(read)
    assert copy.copy(decode(mobs)) == read


def test_concurrent_first_reads_see_the_same_paths():
    # Threads that race to read unread hypotheses all get the paths one
    # read alone gives, and each hypothesis keeps a dict.
    lex = mixed_lexicon(np.random.default_rng(435), policy="between_signs")
    mobs = sample_mobs(lex, ["s2", "s0"], 9, seed=436)
    want = decode_exhaustive(lex, mobs, 3).state_paths
    hyps = [decode_exhaustive(lex, mobs, 3) for _ in range(40)]
    seen = []

    def read():
        seen.extend(hyp.state_paths for hyp in hyps)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 4 * len(hyps) and all(paths == want for paths in seen)
    assert all(isinstance(vars(hyp)["state_paths"], dict) for hyp in hyps)


@pytest.mark.parametrize("mode", ["exhaustive", "synced"])
def test_unread_hypothesis_holds_no_cache_stack_or_table(mode, monkeypatch):
    # An unread winner keeps only its own columns, copies of the
    # observations and the cached lookups: the cached stacks, the
    # utterance's unit stack and its density table all go with the
    # decode, and the paths can still be read.
    lex = absorbing_finals(mixed_lexicon(np.random.default_rng(440), policy="between_signs"))
    mobs = sample_mobs(lex, ["s2", "s1"], 8, seed=441)
    transient = []
    unit, table_builder = parallel._Unit, parallel._table_builder

    def watched_unit(*args):
        units = unit(*args)
        transient.extend([weakref.ref(units), weakref.ref(units.delta)])
        return units

    def watched_builder(*args):
        again = table_builder(*args)

        def watched():
            table, lengths = again()
            transient.append(weakref.ref(table))
            return table, lengths

        return watched

    monkeypatch.setattr(parallel, "_Unit", watched_unit)
    monkeypatch.setattr(parallel, "_table_builder", watched_builder)
    cache = {}
    hyp = _decoders(lex, cache)[mode](mobs)
    monkeypatch.undo()
    stacks = cache[3][0] if mode == "exhaustive" else [cache["synced"][1:]]
    cached = [weakref.ref(arr) for block in stacks for arr in block[:3:2]]
    del cache, stacks
    gc.collect()
    assert transient and cached
    assert all(ref() is None for ref in transient + cached)
    assert callable(vars(hyp)["state_paths"])
    assert hyp.state_paths == _decoders(lex, {})[mode](mobs).state_paths


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("mode", ["exhaustive", "synced", "score"])
def test_paths_ignore_observations_changed_after_the_decode(mode, gaussian):
    lex = mixed_lexicon(np.random.default_rng(450), gaussian, policy="between_signs")
    lex = absorbing_finals(lex)
    mobs = sample_mobs(lex, ["s0", "s2"], 8, seed=451)
    decode = _decoders(lex, {})[mode]
    kept = MultiObservation({ch: obs.copy() for ch, obs in mobs.channels.items()})
    hyp = decode(mobs)
    for obs in mobs.channels.values():
        obs[:] = obs[::-1]
    assert decode(mobs).state_paths != decode(kept).state_paths
    assert hyp.state_paths == decode(kept).state_paths


_DECODE_DEMO = """
import sys
from phmm.corpus import GenConfig, generate
from phmm.demo import demo_lexicon
from phmm.parallel import decode_exhaustive, decode_synced

lex = demo_lexicon()
for inv in lex.inventories.values():
    for model in inv.phonemes.values():
        model.emissions.probs = 0.98 * model.emissions.probs + 0.02 / model.emissions.probs.shape[1]
cache = {}
for utt in generate(lex, GenConfig(n_utterances=4, seed=53, signs_per_utterance=(1, 4))):
    for hyp in (decode_exhaustive(lex, utt.mobs, 3, cache), decode_synced(lex, utt.mobs, 2, cache)):
        print(repr(hyp.signs), repr(hyp.state_paths))
"""


def test_state_paths_are_the_same_under_every_hash_seed():
    # The command line writes no paths, so the hash-seed comparison of
    # its outputs cannot see them: two processes compare them here.
    env = {"PYTHONPATH": str(Path(phmm.__file__).parents[1])}
    outputs = []
    for seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _DECODE_DEMO],
            env={**env, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count(b"\n") == 8
