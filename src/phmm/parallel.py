"""Sign-model composition and joint multi-channel decoding.

Per-channel phoneme models are concatenated left to right into sign and
utterance models. Joint decoding maximizes the sum of per-channel log
probabilities; channels align independently in the exhaustive decoder,
while the synchronized decoder constrains every channel to cross sign
boundaries at the same frame.

Composition wiring: the final state of every non-final sub-model keeps
a self-loop of (1 - exit_prob) and routes exit_prob * pi_next[j] to
state j of its successor; the final sub-model's last state stays
absorbing. These rewired rows are structural constants, not trained
parameters.

Both decoders score in batches, all channels at once. A candidate's
channel model depends only on the channel spellings of its signs, so
the exhaustive decoder stacks, for every channel, one composed model
(-inf padded) per distinct spelling sequence of 1..max_signs signs into
one stack, with a map from every candidate and channel to its column,
and keeps only the stack's finite diagonals (hmm.band): a composed
left-to-right chain has few of them, the self-loops and the steps
forward on the demo lexicon. One max-product recursion per utterance
runs over that stack (over each of its cache-sized column blocks when
it is wide), each frame reading only those diagonals and
gathering emissions from the channels' tables of phoneme-state log
densities, side by side; each channel is scored at its own last frame.
The synchronized decoder stacks the units of an utterance (every sign,
and the epenthesis filler, in every channel; front-padded with -inf so
that each final state is the last row) on a band too, and advances one
recursion for all units and entry frames a frame at a time. Every stack
is written as a band, so no dense transition stack is built. Max and +
are exact, and neither -inf padding nor a dropped, all -inf diagonal
ever wins a max, so every score is bit-identical to scoring the
candidates, units or entry frames one at a time. A winner's state paths
come from one batched, banded viterbi_lattice call over its channels'
stack columns: score_hypothesis composes them, decode_exhaustive slices
them out of its cached stack and reads the density table it scored
with, and _rebuild_hypothesis takes every (segment, channel) pair of
the synced winner from the unit band.

Both decoders pick winners with one exact argmax, _best_entries: numpy
sums the channel scores of every row, and only rows within a rounding
bound of the best are rescored with math.fsum. It runs once over the
exhaustive candidates and at each frame over the synced search's
(unit, entry frame) pairs. score_hypothesis scores any one sign
sequence on its own composed models; on the exhaustive winner's signs
it gives the winner's scores and paths bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import emissions as em_mod
from .errors import (
    EmptySequenceError,
    NoFiniteHypothesisError,
    SearchSpaceTooLargeError,
    UnequalChannelLengthsError,
    UnknownSignError,
    ValidationError,
)
from .hmm import Hmm, Topology, viterbi_lattice, viterbi_score_lattice
from .lexicon import EPENTHESIS_BETWEEN_SIGNS, validate_multi_observation
from .logmath import LOG_ZERO, safe_log

MAX_CANDIDATES = 1_000_000
MAX_STACK_BYTES = 1 << 30
# Entries (rows x columns) of one exhaustive kernel call at most. A
# frame's rows of 2^15 entries take 256 KB each, so the four the kernel
# steps over stay in a 2 MB L2 cache. On a 2-vCPU Xeon the kernel took
# 30 ms per utterance over 4,092 columns of 27 rows (5 signs of the
# demo lexicon) in one call, and 19-21 ms in blocks of 341-1,364 columns.
_BLOCK_ENTRIES = 1 << 15

EPS_UNIT = "<eps>"


@dataclass
class Hypothesis:
    """A decoded sign sequence with its per-channel alignment scores."""

    signs: tuple
    channel_scores: dict
    total: float
    state_paths: dict

    @staticmethod
    def combine(signs, channel_scores, state_paths):
        total = math.fsum(channel_scores.values())
        return Hypothesis(tuple(signs), channel_scores, total, state_paths)


def block_ids(lexicon, channel, signs):
    """Phoneme id sequence for an utterance, epenthesis included."""
    if not signs:
        raise EmptySequenceError("sign sequence is empty")
    inv = lexicon.inventory(channel)
    insert_eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    ids = []
    for k, sid in enumerate(signs):
        sign = lexicon.signs.get(sid)
        if sign is None:
            raise UnknownSignError(sid)
        if k > 0 and insert_eps:
            ids.append(inv.epenthesis)
        ids.extend(sign.channels[channel])
    return ids


def compose_models(blocks, exit_prob=0.5):
    """Concatenate sub-models into one left-to-right chain.

    blocks is a list of (phoneme_id, Hmm). Returns (Hmm, offsets) where
    offsets[k] is the composed index of block k's first state. A single
    block composes to a copy of itself.
    """
    if not blocks:
        raise EmptySequenceError("no blocks to compose")
    if len(blocks) == 1:
        return blocks[0][1].copy(), [0]
    sizes = [b.n_states for _, b in blocks]
    offsets = list(itertools.accumulate([0] + sizes[:-1]))
    n = sum(sizes)
    pi = np.zeros(n)
    pi[: sizes[0]] = blocks[0][1].pi
    trans = np.zeros((n, n))
    for k, (_, model) in enumerate(blocks):
        off = offsets[k]
        size = sizes[k]
        trans[off : off + size, off : off + size] = model.trans
        if k < len(blocks) - 1:
            last = off + size - 1
            nxt_off = offsets[k + 1]
            nxt = blocks[k + 1][1]
            trans[last, :] = 0.0
            trans[last, last] = 1.0 - exit_prob
            trans[last, nxt_off : nxt_off + nxt.n_states] = exit_prob * nxt.pi
    emissions = type(blocks[0][1].emissions).stack([b.emissions for _, b in blocks])
    return Hmm(pi, trans, emissions, Topology.ERGODIC), offsets


def compose_utterance_model(lexicon, channel, signs):
    """Concatenated channel model for a sign sequence, epenthesis per policy."""
    inv = lexicon.inventory(channel)
    blocks = [(pid, inv.phonemes[pid]) for pid in block_ids(lexicon, channel, signs)]
    model, _ = compose_models(blocks, lexicon.exit_prob)
    return model


def _align(lexicon, signs, table, lengths, log_pi, diagonals, columns):
    """The Hypothesis of signs from one viterbi_lattice call on the
    _stack (log_pi, band, columns) of its channels' models, column c
    for lexicon channel c, reading the _density_table (table, lengths):
    each channel scored and backtracked at its own last frame. A
    column's -inf padding rows read column -1 and lie above its model,
    so they are taken off its state path; a channel that scores -inf is
    left without one."""
    scores, paths = viterbi_lattice(log_pi, diagonals, table[:, columns], lengths)
    pads = np.sum(columns == -1, axis=0)
    channel_scores = {}
    state_paths = {}
    for c, ch in enumerate(lexicon.channels):
        channel_scores[ch] = float(scores[c])
        finite = scores[c] > LOG_ZERO
        state_paths[ch] = (paths[: lengths[c], c] - pads[c]).tolist() if finite else None
    return Hypothesis.combine(signs, channel_scores, state_paths)


def score_hypothesis(lexicon, signs, mobs):
    """Score one sign sequence: independent per-channel Viterbi alignments.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise); the lengths may differ. Each channel is
    aligned on its own composed model, all of them _stacked and
    backtracked in one viterbi_lattice call, each at its own last frame;
    the total is the sum of per-channel log scores. A channel with no
    feasible path contributes -inf and is left without a state path.
    decode_exhaustive aligns its winner through the same _align, on
    stack columns sliced from its cache instead of composed models.
    """
    validate_multi_observation(lexicon, mobs)
    signs = tuple(signs)
    table, lengths = _density_table(lexicon, mobs)
    models = [compose_utterance_model(lexicon, ch, signs) for ch in lexicon.channels]
    columns = [
        _state_columns(lexicon.inventory(ch).phonemes, block_ids(lexicon, ch, signs), base)
        for ch, base in zip(lexicon.channels, _table_bases(lexicon))
    ]
    return _align(lexicon, signs, table, lengths, *_stack(models, columns))


def _band_offsets(lexicon, channel, max_signs):
    """The offsets of band() of the channel's models in the
    _candidate_stack of 1..max_signs signs, read from the lexicon
    without composing: every
    phoneme's finite in-block transitions (a non-final block's last row
    is rewired, so it keeps only its self-loop) and, from the last state
    of each non-final block, one step to every state j + 1 that the next
    block's pi enters."""
    inv = lexicon.inventory(channel)
    chains = [sign.channels[channel] for sign in lexicon.signs.values()]
    finals = {pids[-1] for pids in chains}
    pairs = {(a, b) for pids in chains for a, b in zip(pids, pids[1:])}
    if max_signs > 1:
        firsts = {pids[0] for pids in chains}
        if lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS:
            pairs |= {(a, inv.epenthesis) for a in finals}
            pairs |= {(inv.epenthesis, b) for b in firsts}
        else:
            pairs |= set(itertools.product(finals, firsts))
    offsets = set()
    for pid in finals | {a for a, _ in pairs}:
        trans = inv.phonemes[pid].trans
        rows, cols = np.nonzero(trans if pid in finals else trans[:-1])
        offsets.update((cols - rows).tolist())
    if pairs:
        offsets.add(0)  # the rewired self-loop, 1 - exit_prob
    for _, nxt in pairs:
        entries = np.nonzero(lexicon.exit_prob * inv.phonemes[nxt].pi)[0]
        offsets.update((entries + 1).tolist())
    return offsets


def _stack_bytes(lexicon, max_signs):
    """Bytes (8 per entry) that decode_exhaustive's cache holds for
    max_signs: the joint _candidate_stack, whose log_pi, columns and band
    weights (one per offset of any channel's _band_offsets) have a
    column per distinct spelling sequence of each channel (sum over k =
    1..max_signs of d^k, d the channel's distinct sign spellings) and
    the rows of the largest model of any channel (max_signs of the
    channel's largest sign, plus max_signs - 1 epenthesis fillers if the
    policy has them), and whose map has a column index per candidate
    and channel. SearchSpaceTooLargeError if the candidates pass
    MAX_CANDIDATES, or the bytes MAX_STACK_BYTES together with the four
    rows of viterbi_score_lattice's frames on the widest block (delta,
    the next row, the sum buffer and the gathered emissions)."""
    signs = range(1, max_signs + 1)
    n_cand = 0
    for k in signs:
        n_cand += len(lexicon.signs) ** k
        if n_cand > MAX_CANDIDATES:
            raise SearchSpaceTooLargeError(n_cand, MAX_CANDIDATES)
    n = n_columns = 0
    offsets = set()
    for ch in lexicon.channels:
        inv = lexicon.inventory(ch)
        spellings = {tuple(sign.channels[ch]) for sign in lexicon.signs.values()}
        sign_states = max(sum(inv.phonemes[pid].n_states for pid in pids) for pids in spellings)
        eps_states = 0
        if lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS:
            eps_states = inv.phonemes[inv.epenthesis].n_states
        n = max(n, max_signs * sign_states + (max_signs - 1) * eps_states)
        n_columns += sum(len(spellings) ** k for k in signs)
        offsets |= _band_offsets(lexicon, ch, max_signs)
    total = (len(offsets) + 2) * n * n_columns * 8 + len(lexicon.channels) * n_cand * 8
    rows = 4 * n * min(n_columns, max(1, _BLOCK_ENTRIES // n)) * 8
    if total + rows > MAX_STACK_BYTES:
        what = "hold {} bytes of candidate stacks and their transients"
        raise SearchSpaceTooLargeError(total + rows, MAX_STACK_BYTES, what)
    return total


def _log_density_table(phonemes, obs):
    """(T, S + 1) log densities of all S states of the phoneme models
    (a dict) in order, then a -inf column: one log_density_seq call on
    their stacked emissions."""
    emissions = [m.emissions for m in phonemes.values()]
    stacked = type(emissions[0]).stack(emissions)
    return np.hstack([em_mod.log_density_seq(stacked, obs), np.full((len(obs), 1), LOG_ZERO)])


def _table_bases(lexicon):
    """The first column of each lexicon channel's _log_density_table in
    _density_table, then the table's width."""
    widths = [
        sum(m.n_states for m in lexicon.inventory(ch).phonemes.values()) + 1
        for ch in lexicon.channels
    ]
    return list(itertools.accumulate([0] + widths))


def _density_table(lexicon, mobs):
    """(table (T, W), lengths (C,)): the lexicon channels'
    _log_density_tables side by side from the _table_bases columns, each
    padded with -inf rows to the longest channel's T frames; lengths[c]
    is channel c's frame count."""
    parts = [
        _log_density_table(lexicon.inventory(ch).phonemes, mobs.channels[ch])
        for ch in lexicon.channels
    ]
    lengths = np.array([len(part) for part in parts])
    bases = _table_bases(lexicon)
    table = np.full((lengths.max(), bases[-1]), LOG_ZERO)
    for base, part in zip(bases, parts):
        table[: len(part), base : base + part.shape[1]] = part
    return table, lengths


def _state_columns(phonemes, pids, base=0):
    """base plus the column in the phoneme models' _log_density_table of
    each state of the model composed from phonemes pids."""
    sizes = [m.n_states for m in phonemes.values()]
    offsets = dict(zip(phonemes, itertools.accumulate([0] + sizes)))
    return [base + offsets[p] + i for p in pids for i in range(phonemes[p].n_states)]


def _stack(models, columns, offsets=None, n=None):
    """(log_pi (N, B), band, columns (N, B)) of B models, an iterable,
    and the list of their state-to-column lists, batch innermost; N is
    n, by default the most states of any model. A model of fewer states
    fills the last rows, so every final state is row N - 1; the rows
    above it are -inf and read column -1, the -inf column of a
    _log_density_table. band is hmm.band of the log transitions at
    offsets, ascending, which must hold every offset of a finite
    transition (by default 0 and the offsets of the models, a list),
    written straight from each model's diagonals. Each stacked array
    takes one log, in place."""
    n = n or max(len(cols) for cols in columns)
    if offsets is None:  # 0 and every o of a nonzero trans[j - o, j]
        found = [np.subtract(*m.trans.nonzero()[::-1]).tolist() for m in models]
        offsets = sorted({0}.union(*found))
    pi = np.zeros((n, len(columns)))
    trans = np.zeros((len(offsets), n, len(columns)))
    stacked = np.full((n, len(columns)), -1, dtype=np.intp)
    for b, (model, cols) in enumerate(zip(models, columns)):
        lo = n - len(cols)
        pi[lo:, b] = model.pi
        stacked[lo:, b] = cols
        for w, o in zip(trans, offsets):
            w[lo + max(o, 0) : n + min(o, 0), b] = model.trans.diagonal(o)
    with np.errstate(divide="ignore"):
        np.log(pi, out=pi)
        np.log(trans, out=trans)
    return pi, tuple(zip(offsets, trans)), stacked


def _sequence(items, number):
    """The number-th (from 0) sequence of items, counting shorter ones
    first, then lexicographically in the order of the list items."""
    k = 1
    while number >= len(items) ** k:
        number -= len(items) ** k
        k += 1
    seq = ()
    for _ in range(k):
        number, digit = divmod(number, len(items))
        seq = (items[digit],) + seq
    return seq


def _spellings(lexicon, channel, max_signs):
    """(distinct, index) for the channel's candidates of 1..max_signs
    signs. A candidate's channel model depends only on the channel
    spellings of its signs: distinct lists one sign sequence per
    distinct spelling sequence, in the order the candidates first show
    it (shorter first, then lexicographic), and index[m] is the number
    in distinct of the m-th candidate's."""
    sign_ids = sorted(lexicon.signs)
    numbers = {}  # each distinct channel spelling -> its number, as first seen
    spellings = [tuple(lexicon.signs[s].channels[channel]) for s in sign_ids]
    digits = [numbers.setdefault(pids, len(numbers)) for pids in spellings]
    # The sequences of each spelling's first sign are the distinct spelling
    # sequences in first-seen order, so a k-sign candidate's digits, read in
    # base d, number its column among the d^k after the shorter ones.
    d = len(numbers)
    firsts = [sign_ids[digits.index(j)] for j in range(d)]
    index = []
    codes = np.zeros(1, dtype=np.intp)
    n_columns = 0
    for k in range(1, max_signs + 1):
        codes = (codes[:, None] * d + digits).ravel()
        index.append(n_columns + codes)
        n_columns += d**k
    return [_sequence(firsts, j) for j in range(n_columns)], np.concatenate(index)


def _candidate_stack(lexicon, max_signs):
    """(blocks, index) of the candidates of 1..max_signs signs: one
    stack over all lexicon channels of each channel's models of its
    _spellings, channel by channel, its columns reading the
    _density_table and its band written at the union of the channels'
    _band_offsets. The stack is cut into blocks of consecutive columns,
    each a contiguous (log_pi, band(log_trans), columns) _stack of the
    same N rows and at most _BLOCK_ENTRIES entries per row array.
    index[m, c] is the stack column of the m-th candidate's channel c
    model."""
    jobs = []
    columns = []
    index = []
    for ch, base in zip(lexicon.channels, _table_bases(lexicon)):
        distinct, numbers = _spellings(lexicon, ch, max_signs)
        index.append(len(jobs) + numbers)
        phonemes = lexicon.inventory(ch).phonemes
        jobs.extend((ch, signs) for signs in distinct)
        columns.extend(
            _state_columns(phonemes, block_ids(lexicon, ch, signs), base) for signs in distinct
        )
    offsets = set().union(*(_band_offsets(lexicon, ch, max_signs) for ch in lexicon.channels))
    # Composed one at a time: holding all of them at once raised peak RSS.
    models = (compose_utterance_model(lexicon, ch, signs) for ch, signs in jobs)
    n = max(len(cols) for cols in columns)
    step = max(1, _BLOCK_ENTRIES // n)
    blocks = [
        _stack(itertools.islice(models, step), columns[b : b + step], sorted(offsets), n)
        for b in range(0, len(columns), step)
    ]
    return blocks, np.stack(index, axis=1)


def _candidate_scores(lexicon, table, lengths, max_signs, cache):
    """(M, C) best-path scores of the M sign sequences of 1..max_signs
    signs, row m for _sequence(sorted(lexicon.signs), m), one column per
    lexicon channel, each channel scored at its own last frame of the
    _density_table (table, lengths), in one viterbi_score_lattice call
    per block of the _candidate_stack. Fills cache as decode_exhaustive
    describes."""
    if max_signs not in cache:
        cache[max_signs] = _candidate_stack(lexicon, max_signs)
    blocks, index = cache[max_signs]
    bases = _table_bases(lexicon)
    scores = []
    for log_pi, diagonals, columns in blocks:
        # The final row of every stack column reads one of its channel's states.
        channel = np.searchsorted(bases, columns[-1], side="right") - 1
        scores.append(viterbi_score_lattice(log_pi, diagonals, table, columns, lengths[channel]))
    return np.concatenate(scores)[index]


def _stack_columns(blocks, picks):
    """The (log_pi, band(log_trans), columns) _stack of the stack
    columns picks, numbered across the blocks of a _candidate_stack,
    one column each in the order of picks."""
    width = blocks[0][0].shape[1]
    at = [(blocks[b], j) for b, j in zip(*np.divmod(picks, width))]
    log_pi = np.stack([block[0][:, j] for block, j in at], axis=1)
    diagonals = tuple(
        (o, np.stack([block[1][k][1][:, j] for block, j in at], axis=1))
        for k, (o, _) in enumerate(blocks[0][1])
    )
    columns = np.stack([block[2][:, j] for block, j in at], axis=1)
    return log_pi, diagonals, columns


def decode_exhaustive(lexicon, mobs, max_signs, cache=None):
    """Best hypothesis over every sign sequence of length 1..max_signs.

    Implements the joint objective exactly: channels align
    independently and the argmax runs over the full enumeration. Every
    candidate and channel is scored, without back-pointers, in one
    viterbi_score_lattice call per column block of the stack; each total
    is the math.fsum of its channel scores, and ties go to the shorter,
    then lexicographically smaller sequence. The winner, read from its
    row number, is aligned by _align on its channels' stack columns,
    sliced out of the cached blocks they lie in, against the same
    density table. So an utterance builds one density table and
    composes no model, the back-pointers cover the winner's channels
    alone, and the winner equals score_hypothesis on its signs bit for
    bit.

    cache is a dict reused across utterances of one lexicon;
    cache[max_signs] holds the _candidate_stack: the -inf-padded models
    of every channel's distinct spelling sequences of 1..max_signs signs,
    stacked together in column blocks, and the map from each candidate
    and channel to its column. Channels may differ in length.
    Before a max_signs is cached, and before anything is built,
    _stack_bytes raises SearchSpaceTooLargeError when the candidates
    exceed MAX_CANDIDATES or their stacks MAX_STACK_BYTES.
    """
    if max_signs < 1:
        raise ValidationError("max_signs must be >= 1")
    if not lexicon.signs:
        raise ValidationError("lexicon has no signs")
    cache = {} if cache is None else cache
    if max_signs not in cache:
        _stack_bytes(lexicon, max_signs)
    validate_multi_observation(lexicon, mobs)
    table, lengths = _density_table(lexicon, mobs)
    scores = _candidate_scores(lexicon, table, lengths, max_signs, cache)
    [(best, rows)] = _best_entries(np.zeros((len(scores), 1)), scores[:, None])
    if best is None:
        raise NoFiniteHypothesisError("all candidate hypotheses score -inf")
    blocks, index = cache[max_signs]
    signs = _sequence(sorted(lexicon.signs), rows[0])
    return _align(lexicon, signs, table, lengths, *_stack_columns(blocks, index[rows[0]]))


def model_count(lexicon):
    """(factored, product) model counts for the lexicon's inventories.

    factored is the sum of per-channel content inventory sizes plus one
    epenthesis model per channel when the policy uses them; product is
    the cross-product count a single monolithic inventory would need.
    """
    sizes = [len(lexicon.inventory(ch).content_ids) for ch in lexicon.channels]
    factored = sum(sizes)
    if lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS:
        factored += len(lexicon.channels)
    product = 1
    for s in sizes:
        product *= s
    return factored, product


# ---------------------------------------------------------------------------
# Boundary-synchronized joint decoding
# ---------------------------------------------------------------------------


class _Unit:
    """The unit models of one utterance, stacked for segment-level
    dynamic programming: one per (unit key, channel), the composed model
    of a sign's phonemes in that channel or of the epenthesis filler.
    Units of one channel and phoneme sequence are identical, so the
    stack holds one column per distinct (channel, sequence), D in all,
    and index (K keys, C channels) holds each unit's column. Each is
    front-padded with -inf to N states so that its final state is
    always row N - 1; the batch axis is innermost, and band (offset 0
    always among them) holds the transitions. State i of column d emits
    logb[t, i, d], gathered through a state-to-column index from the
    per-channel tables of _log_density_table; padded states read a -inf
    column.
    """

    def __init__(self, lexicon, mobs, keys):
        self.keys = list(keys)
        self.channels = list(lexicon.channels)
        bases = _table_bases(lexicon)
        models, columns, index, seen = [], [], [], {}
        for key in self.keys:
            for ch, base in zip(self.channels, bases):
                inv = lexicon.inventory(ch)
                pids = [inv.epenthesis] if key == EPS_UNIT else lexicon.signs[key].channels[ch]
                index.append(seen.setdefault((ch, tuple(pids)), len(seen)))
                if index[-1] == len(models):  # a new phoneme sequence
                    blocks = [(pid, inv.phonemes[pid]) for pid in pids]
                    models.append(compose_models(blocks, lexicon.exit_prob)[0])
                    columns.append(_state_columns(inv.phonemes, pids, base))
        self.index = np.reshape(index, (len(self.keys), len(self.channels)))
        self.log_pi, self.band, columns = _stack(models, columns)
        self.sizes = np.count_nonzero(columns >= 0, axis=0)
        n = len(self.log_pi)
        self.final = n - 1
        # Mid-utterance pricing: a unit's final state dwells with 1 - exit
        # probability; the complement leaves through the boundary.
        dict(self.band)[0][self.final] = safe_log(1.0 - lexicon.exit_prob)
        self.log_exit = float(safe_log(lexicon.exit_prob))
        self.logb = _density_table(lexicon, mobs)[0][:, columns]
        t_len, width = len(self.logb), len(models)
        # delta[:, t0] is the recursion of every column entered at frame
        # t0, spare a scratch; final_iso[t0] prices the final state as
        # absorbing.
        self.delta, self.spare = np.empty((2, n, t_len, width))
        self.final_iso = np.empty((t_len, width))
        self.steps = [
            (slice(max(-o, 0), n - max(o, 0)), slice(max(o, 0), n + min(o, 0)), w[:, None])
            for o, w in sorted(self.band, key=lambda ow: ow[0] != 0)
        ]

    def segment_scores(self, t):
        """Advance every unit and entry frame by frame t; called for
        t = 0, 1, ... in turn.

        Returns the (t + 1, K, C) exit scores of frame t: [t0, k, c] is
        the best score of a path entering unit (k, c) at frame t0 and
        leaving it between t and t+1, boundary log included. Each row j
        maxes delta[j - o] + w[j] over the band's offsets o.
        """
        logb, final = self.logb[t], self.final
        prev, delta, final_iso = self.delta[:, :t], self.spare[:, :t], self.final_iso[:t]
        (_, _, w), *rest = self.steps
        np.add(prev, w, out=delta)  # offset 0 writes every row
        for src, dst, w in rest:
            cand, rows = prev[src] + w[dst], delta[dst]
            np.maximum(rows, cand, out=rows)
            if dst.stop > final:  # o > 0: final_iso's arrivals
                np.maximum(final_iso, cand[-1], out=final_iso)
        np.add(delta, logb[:, None], out=prev)
        np.add(final_iso, logb[final], out=final_iso)
        self.delta[:, t] = self.log_pi + logb
        self.final_iso[t] = self.delta[final, t]
        return (self.delta[final, : t + 1] + self.log_exit)[:, self.index]

    def last(self):
        """(T, K, C) best unanchored scores up to the last frame by entry
        frame, with the final state absorbing; read after the last
        segment_scores call."""
        best_nf = self.delta[: self.final].max(axis=0) if self.final else LOG_ZERO
        return np.maximum(best_nf, self.final_iso)[:, self.index]


_EPS = float(np.finfo(float).eps)


def _best_entries(entry_scores, parts):
    """Exact maxima of entry_scores[i, k] + math.fsum(parts[i, k]) over
    rows i, one per column k.

    entry_scores (M, K) holds -inf where column k has no entry at row i;
    parts (M, K, C). Returns one (best, rows) pair per column: the best
    score and the rows reaching it in ascending order, or (None, []) if
    every row scores -inf.

    numpy's left-to-right sums rank the rows; only rows that can reach
    the exact maximum are rescored with math.fsum. With X = |entry| +
    sum |parts|, a row's numpy sum is within C * eps * X of its real
    sum and its fsum score within 2 * eps * X, so a row reaching the
    exact maximum is within 2 * (C + 2) * eps * X_max of the column's
    largest numpy sum, X_max being the column's largest finite X. Rows
    within 2 * tol, tol = (C + 4) * eps * X_max, are kept; the margin
    covers rounding the cut itself.
    """
    approx = entry_scores + parts.sum(axis=-1)
    finite = approx > LOG_ZERO
    size = np.abs(entry_scores) + np.abs(parts).sum(axis=-1)
    tol = (parts.shape[-1] + 4) * _EPS * size.max(axis=0, where=finite, initial=0.0)
    keep = finite & (approx >= approx.max(axis=0) - 2 * tol)
    cols, rows = np.nonzero(keep.T)
    entries = entry_scores[rows, cols].tolist()
    sums = map(math.fsum, parts[rows, cols].tolist())
    results = [(None, []) for _ in range(entry_scores.shape[1])]
    for k, i, entry, total in zip(cols.tolist(), rows.tolist(), entries, sums):
        score = entry + total
        best, winners = results[k]
        if best is None or score > best:
            results[k] = (score, [i])
        elif score == best:
            winners.append(i)
    return results


@dataclass
class _Token:
    score: float
    signs: tuple
    segments: tuple  # (unit_key, entry_frame, exit_frame) triples

    def key(self):
        return (-self.score, len(self.signs), self.signs)


def _best_token(a, b):
    """b if a is None, else whichever of a and b has the smaller key, a on a tie."""
    return b if a is None or b.key() < a.key() else a


def decode_synced(lexicon, mobs, beam_width):
    """Sign-boundary-synchronized joint Viterbi decode.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise), all of the same length; every channel
    crosses each sign (and epenthesis) boundary at the same frame. With
    an unbounded beam this is exact for the synchronized search space;
    pruning keeps the best beam_width boundary tokens per frame.

    A lexicon without signs is a ValidationError. So is a sign's last
    phoneme, or the epenthesis filler under its policy, that can move
    from its final state to another of its states: a unit's final state
    may only dwell or leave through the boundary.
    """
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1")
    if not lexicon.signs:
        raise ValidationError("lexicon has no signs")
    use_eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    for ch in lexicon.channels:
        inv = lexicon.inventory(ch)
        finals = {sign.channels[ch][-1] for sign in lexicon.signs.values()}
        for pid in sorted(finals | ({inv.epenthesis} if use_eps else set())):
            if inv.phonemes[pid].trans[-1, :-1].any():
                raise ValidationError(
                    f"phoneme {pid!r} of channel {ch!r} ends a synced unit, but its final"
                    " state is not absorbing"
                )
    validate_multi_observation(lexicon, mobs)
    lengths = {ch: len(mobs.channels[ch]) for ch in lexicon.channels}
    t_len = lengths[lexicon.channels[0]]
    if any(ln != t_len for ln in lengths.values()):
        raise UnequalChannelLengthsError(f"channel lengths differ: {lengths}")

    sign_ids = sorted(lexicon.signs)
    unit_keys = list(sign_ids) + ([EPS_UNIT] if use_eps else [])

    units = _Unit(lexicon, mobs, unit_keys)
    n_signs = len(sign_ids)

    # sign_entries[t0] / eps_entries[t0]: the best token that may enter a
    # sign / the epenthesis at frame t0, fixed once frame t0 - 1 is pruned;
    # entry_scores[t0, k] is the score of unit k's entry token, -inf if none.
    sign_entries = [_Token(0.0, (), ())]
    eps_entries = [None]
    entry_scores = np.full((t_len, len(unit_keys)), LOG_ZERO)
    entry_scores[0, :n_signs] = 0.0
    for t in range(t_len):
        cell = {}
        winners = _best_entries(entry_scores[: t + 1], units.segment_scores(t))
        for key, (best_score, t0s) in zip(unit_keys, winners):
            is_sign = key != EPS_UNIT
            entries = sign_entries if is_sign else eps_entries
            # The token key orders by score first, so only entry frames
            # reaching the best score can win; ties go to the smaller key.
            best = None
            for t0 in t0s:
                entry = entries[t0]
                tok = _Token(
                    best_score,
                    entry.signs + ((key,) if is_sign else ()),
                    entry.segments + ((key, t0, t),),
                )
                best = _best_token(best, tok)
            if best is not None:
                cell[key] = best
        if len(cell) > beam_width:
            kept = sorted(cell.items(), key=lambda kv: kv[1].key() + (kv[0],))
            cell = dict(kept[:beam_width])
        best_sign = None
        for key, tok in cell.items():
            if key != EPS_UNIT:
                best_sign = _best_token(best_sign, tok)
        # With epenthesis a sign follows the epenthesis token and the
        # epenthesis the best sign token; else a sign the best sign token.
        sign_entry, eps_entry = (cell.get(EPS_UNIT), best_sign) if use_eps else (best_sign, None)
        sign_entries.append(sign_entry)
        eps_entries.append(eps_entry)
        if t + 1 < t_len:
            if sign_entry is not None:
                entry_scores[t + 1, :n_signs] = sign_entry.score
            if eps_entry is not None:
                entry_scores[t + 1, n_signs:] = eps_entry.score

    best = None
    tails = _best_entries(entry_scores[:, :n_signs], units.last()[:, :n_signs])
    for key, (score, t0s) in zip(sign_ids, tails):
        for t0 in t0s:
            entry = sign_entries[t0]
            tok = _Token(score, entry.signs + (key,), entry.segments + ((key, t0, t_len - 1),))
            best = _best_token(best, tok)
    if best is None:
        raise NoFiniteHypothesisError("no synchronized hypothesis has finite score")
    return _rebuild_hypothesis(units, best)


# Failures that end the decode of one utterance: callers record them
# per utterance and go on. Any other error ends the run.
DECODE_FAILURES = (NoFiniteHypothesisError, UnequalChannelLengthsError)


def decode(lexicon, mobs, mode, max_signs, beam_width, cache):
    """Decode one utterance with decode_exhaustive (mode "exhaustive",
    max_signs and cache) or decode_synced (mode "synced", beam_width).

    Raises one of DECODE_FAILURES when the utterance has no hypothesis.
    """
    if mode == "exhaustive":
        return decode_exhaustive(lexicon, mobs, max_signs, cache=cache)
    if mode == "synced":
        return decode_synced(lexicon, mobs, beam_width)
    raise ValueError(f"unknown decode mode {mode!r}")


def _rebuild_hypothesis(units, token):
    """Recover per-channel scores and state paths for the winning token.

    units is the utterance's _Unit stack. Each segment (key, t0, t1) of
    each channel is one Viterbi backtrack over frames t0..t1 of its
    unit, every (segment, channel) pair in one batched viterbi_lattice
    call. The last segment is unanchored and prices the final state as
    absorbing; every other segment must end in the final state and pays
    the boundary exit log probability.
    """
    index = {key: k for k, key in enumerate(units.keys)}
    # cols[s, c]: the stack column of segment s's unit in channel c.
    cols = units.index[[index[key] for key, _, _ in token.segments]]
    starts = np.array([t0 for _, t0, _ in token.segments])
    lengths = np.array([t1 + 1 - t0 for _, t0, t1 in token.segments])
    final = units.final
    diagonals = tuple((o, w[:, cols]) for o, w in units.band)
    dict(diagonals)[0][final, -1] = 0.0
    # frames[u, s] is frame u of segment s, clipped to the utterance.
    frames = np.minimum(np.arange(lengths.max())[:, None] + starts, len(units.logb) - 1)
    # Contiguous: the kernel's per-frame add on a strided lattice cost
    # as much as the rest of its frame on these small batches.
    logb = np.ascontiguousarray(units.logb[frames[:, :, None], :, cols].transpose(0, 3, 1, 2))
    anchored = np.arange(len(cols) - 1)
    logb[lengths[anchored] - 1, :final, anchored] = LOG_ZERO
    scores, paths = viterbi_lattice(units.log_pi[:, cols], diagonals, logb, lengths[:, None])
    sizes = units.sizes[cols]
    channel_scores = {}
    state_paths = {}
    for c, ch in enumerate(units.channels):
        total_c = 0.0
        path = []
        offset = 0
        for s, length in enumerate(lengths.tolist()):
            seg_score = float(scores[s, c])
            total_c += seg_score if s == len(cols) - 1 else seg_score + units.log_exit
            path.extend((paths[:length, s, c] + (offset + sizes[s, c] - final - 1)).tolist())
            offset += int(sizes[s, c])
        channel_scores[ch] = total_c
        state_paths[ch] = path
    return Hypothesis.combine(token.signs, channel_scores, state_paths)
