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

Both decoders score all channels at once, by the banded max-product
recursion (hmm.band) over -inf-padded stacks of chains, all composed
by _chain_stack, whose states read the utterance's density table, each
channel's emissions.density_table looked up side by side. Both step a
frame by the same hmm._band_steps, offset 0 first. The
exhaustive decoder's stack holds one chain per channel and distinct
spelling sequence of 1..max_signs signs (_candidate_stack), scored in
cache-sized column blocks; the synchronized decoder's holds every unit
(sign or epenthesis filler) and channel, advanced for all entry frames
a frame at a time (_Unit). Max and + are exact, and neither -inf
padding nor a dropped, all -inf diagonal ever wins a max, so every
score is bit-identical to scoring the candidates, units or entry
frames one at a time. Winners come from one exact argmax, _best_entries.

Every Hypothesis comes from _align, which only aligns stack columns
its caller has scored: score_hypothesis composes one per channel and
scores them, decode_exhaustive slices its winner's out of the cached
stack and keeps their scores from the scoring pass, and
_rebuild_hypothesis picks one per (segment, channel) of the synced
winner from the unit stack and keeps the channel scores its tokens
carried through the search. State paths are aligned at their first
read alone, by one banded viterbi_lattice call on those columns, so
either decoder runs one frame loop for a winner whose paths nobody
reads. On the exhaustive winner's signs score_hypothesis gives its
scores and paths bit for bit.
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
from .hmm import Hmm, Topology, _band_steps, viterbi_lattice, viterbi_score_lattice
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
    """A decoded sign sequence with its per-channel alignment scores and
    state paths. state_paths may be given as a function of no arguments:
    its first read replaces it with its result, which is what ==, repr,
    copy and pickle see. Concurrent first reads each compute the same
    dict, and one of them is kept."""

    signs: tuple
    channel_scores: dict
    total: float
    state_paths: dict

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if name == "state_paths" and callable(value):
            value = self.state_paths = value()
        return value

    def __reduce__(self):
        return type(self), (self.signs, self.channel_scores, self.total, self.state_paths)

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


def _align(signs, channels, again, log_pi, band, columns, starts, lengths, scores):
    """The Hypothesis of signs, scoring scores (C,) (each channel's
    segment scores summed in order, exits included), on the _stack
    (log_pi, band, columns) of B = S x C models: column s * C + c holds
    segment s of channels[c], reading lengths[b] frames of the
    _table_builder table again() returns from frame starts[b] (frame 0
    if S is 1). Every segment but the last must end in its final state.
    A state path waits for the first read, one viterbi_lattice call on
    these arrays and that table, and numbers each segment's states after
    the earlier ones', less the -inf padding rows (column -1) above each
    model; a channel scoring -inf has none. The arrays must be the
    caller's own: they and again are all an unread Hypothesis holds."""
    n_channels = len(channels)

    def state_paths():
        table = again()[0]
        logb = table[:, columns]
        if len(starts) > n_channels:  # one segment needs no frame gather (5x dearer) nor anchoring
            frames = np.minimum(starts + np.arange(lengths.max())[:, None], len(table) - 1)
            logb = np.take_along_axis(logb, frames[:, None], axis=0)
            anchored = np.arange(len(starts) - n_channels)
            logb[lengths[anchored] - 1, :-1, anchored] = LOG_ZERO
        rows = viterbi_lattice(log_pi, band, logb, lengths)[1].T.tolist()
        sizes, n_frames = np.count_nonzero(columns >= 0, axis=0).tolist(), lengths.tolist()
        paths = {}
        for c, ch in enumerate(channels):
            path, shift = [], -len(log_pi)
            for b in range(c, len(rows), n_channels):
                shift += sizes[b]  # after the earlier segments' states, less the padding
                path += [i + shift for i in rows[b][: n_frames[b]]]
            paths[ch] = path if scores[c] > LOG_ZERO else None
        return paths

    return Hypothesis.combine(signs, dict(zip(channels, scores)), state_paths)


def score_hypothesis(lexicon, signs, mobs):
    """Score one sign sequence: independent per-channel Viterbi alignments.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise); the lengths may differ. Each channel's
    composed model, all in one _chain_stack, is scored by one
    viterbi_score_lattice call on the density table's columns, as an
    exhaustive block is, then aligned by _align as one segment; the total
    is the sum of per-channel log scores. A channel with no feasible
    path contributes -inf and is left without a state path.
    """
    validate_multi_observation(lexicon, mobs)
    signs = tuple(signs)
    again = _table_builder(lexicon, mobs, {})
    table, lengths = again()
    stack = _chain_stack(lexicon, [(ch, block_ids(lexicon, ch, signs)) for ch in lexicon.channels])
    scores = viterbi_score_lattice(*stack[:2], table, stack[2], lengths).tolist()
    return _align(signs, lexicon.channels, again, *stack, 0 * lengths, lengths, scores)


def _stack_layout(lexicon, max_signs):
    """(n, width, offsets) of the _candidate_stack of 1..max_signs signs:
    n rows, those of the largest model of any channel (max_signs of the
    channel's largest sign, plus max_signs - 1 epenthesis fillers if the
    policy has them); width columns, one per distinct spelling sequence
    of each channel (sum over k = 1..max_signs of d^k, d the channel's
    distinct sign spellings); and the band's offsets, the _offsets of
    every channel's composed chains of one sign and, past one sign, of
    one junction chain per distinct last phoneme of a spelling and
    spelling (the last phoneme, the epenthesis filler if the policy has
    it, then the spelling). Every block, rewired final row and step
    across signs of a longer model is in one of these chains."""
    n = width = 0
    chains = []
    eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    for ch in lexicon.channels:
        inv = lexicon.inventory(ch)
        spellings = {tuple(sign.channels[ch]) for sign in lexicon.signs.values()}
        joint = (inv.epenthesis,) if eps else ()
        sign_states = max(sum(inv.phonemes[pid].n_states for pid in pids) for pids in spellings)
        eps_states = sum(inv.phonemes[pid].n_states for pid in joint)
        n = max(n, max_signs * sign_states + (max_signs - 1) * eps_states)
        width += sum(len(spellings) ** k for k in range(1, max_signs + 1))
        lasts = {pids[-1] for pids in spellings} if max_signs > 1 else ()
        seqs = spellings | {(last,) + joint + pids for last in lasts for pids in spellings}
        chains.extend([(pid, inv.phonemes[pid]) for pid in seq] for seq in seqs)
    models = (compose_models(blocks, lexicon.exit_prob)[0] for blocks in chains)
    return n, width, _offsets(models)


def _table_bases(lexicon):
    """The first column of each lexicon channel's table in a
    _table_builder table, then the table's width."""
    widths = [
        sum(m.n_states for m in lexicon.inventory(ch).phonemes.values()) + 1
        for ch in lexicon.channels
    ]
    return list(itertools.accumulate([0] + widths))


def _table_builder(lexicon, mobs, cache):
    """A function of no arguments that builds mobs' density table, the
    same (table (T, W), lengths (C,)) bit for bit on every call: the
    emissions.density_table of each lexicon channel's phoneme models, in
    order, looking up mobs, side by side from the _table_bases columns,
    padded with -inf rows to the longest channel's T frames; lengths[c]
    is channel c's frame count. cache["tables"] keeps the density tables
    and bases, built once; the function holds them and copies of mobs'
    arrays alone."""
    if "tables" not in cache:
        inventories = [lexicon.inventory(ch).phonemes.values() for ch in lexicon.channels]
        tables = [em_mod.density_table([m.emissions for m in inv]) for inv in inventories]
        cache["tables"] = tables, _table_bases(lexicon)
    (lookups, bases), obs = cache["tables"], [np.array(mobs.channels[c]) for c in lexicon.channels]

    def again():
        parts = [lookup(o) for lookup, o in zip(lookups, obs)]
        lengths = np.array([len(part) for part in parts])
        table = np.full((lengths.max(), bases[-1]), LOG_ZERO)
        for base, part in zip(bases, parts):
            table[: len(part), base : base + part.shape[1]] = part
        return table, lengths

    return again


def _state_columns(lexicon):
    """Each lexicon channel's {phoneme: its states' columns} in a
    _table_builder table: the channel's phonemes in order, from its base."""
    columns = {}
    for ch, base in zip(lexicon.channels, _table_bases(lexicon)):
        phonemes = lexicon.inventory(ch).phonemes
        firsts = itertools.accumulate([base] + [m.n_states for m in phonemes.values()])
        columns[ch] = {p: range(i, i + m.n_states) for (p, m), i in zip(phonemes.items(), firsts)}
    return columns


def _offsets(models):
    """0 and every o of a nonzero trans[j - o, j] of the models, ascending."""
    found = [np.subtract(*m.trans.nonzero()[::-1]).tolist() for m in models]
    return sorted({0}.union(*found))


def _stack(models, columns, offsets=None, n=None):
    """(log_pi (N, B), band, columns (N, B)) of B models, an iterable,
    and the list of their state-to-column lists, batch innermost; N is
    n, by default the most states of any model. A model of fewer states
    fills the last rows, so every final state is row N - 1; the rows
    above it are -inf and read column -1, the -inf column of a
    density table. band is hmm.band of the log transitions at
    offsets, ascending, which must hold every offset of a finite
    transition (by default the _offsets of the models, then a list),
    written straight from each model's diagonals. Each stacked array
    takes one log, in place."""
    n = n or max(len(cols) for cols in columns)
    if offsets is None:
        offsets = _offsets(models)
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


def _chain_stack(lexicon, chains, offsets=None, n=None):
    """The _stack, on offsets and n rows, of chains, (channel, phoneme
    ids) pairs: each chain composed by compose_models at the lexicon's
    exit_prob (a one-phoneme chain is its phoneme's own model), its
    states reading their _state_columns. Given offsets, the models are
    composed one at a time: holding all of them at once raised peak RSS."""
    states = _state_columns(lexicon)
    columns = [[col for pid in pids for col in states[ch][pid]] for ch, pids in chains]
    phonemes = {ch: lexicon.inventory(ch).phonemes for ch in lexicon.channels}
    blocks = ([(p, phonemes[ch][p]) for p in pids] for ch, pids in chains)
    models = (b[0][1] if len(b) == 1 else compose_models(b, lexicon.exit_prob)[0] for b in blocks)
    return _stack(list(models) if offsets is None else models, columns, offsets, n)


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
    distinct, index = [], []
    codes = np.zeros(1, dtype=np.intp)
    for k in range(1, max_signs + 1):
        codes = (codes[:, None] * d + digits).ravel()
        index.append(len(distinct) + codes)
        distinct.extend(itertools.product(firsts, repeat=k))
    return distinct, np.concatenate(index)


def _candidate_stack(lexicon, max_signs):
    """(blocks, index) of the candidates of 1..max_signs signs, or
    SearchSpaceTooLargeError before anything of the stack is built: if
    they pass MAX_CANDIDATES, or if the stack's bytes (8 per entry: its
    log_pi, columns and one band weight per offset, n by width arrays of
    the _stack_layout; its map's column per candidate and channel) and
    the rows of the widest block that viterbi_score_lattice's frames
    hold (delta, a sum buffer of n - |o| rows per nonzero offset o and
    the gathered emissions) pass MAX_STACK_BYTES. The _chain_stack
    over all lexicon channels of each channel's chains of its _spellings,
    channel by channel, its N rows and band offsets those of the
    _stack_layout, is cut into blocks of consecutive columns: each a
    contiguous (log_pi, band(log_trans), columns) _stack of the N rows
    and at most _BLOCK_ENTRIES entries per row array, followed by the
    number of its columns in each lexicon channel. index[m, c] is the
    stack column of the m-th candidate's channel c model."""
    for n_cand in itertools.accumulate(len(lexicon.signs) ** k for k in range(1, max_signs + 1)):
        if n_cand > MAX_CANDIDATES:
            raise SearchSpaceTooLargeError(n_cand, MAX_CANDIDATES)
    n, width, offsets = _stack_layout(lexicon, max_signs)
    step = min(width, max(1, _BLOCK_ENTRIES // n))
    rows = (len(offsets) + 1) * n - sum(map(abs, offsets))  # delta, emissions, sums
    need = ((len(offsets) + 2) * width * n + rows * step + len(lexicon.channels) * n_cand) * 8
    if need > MAX_STACK_BYTES:
        what = "hold {} bytes of candidate stacks and their transients"
        raise SearchSpaceTooLargeError(need, MAX_STACK_BYTES, what)
    chains, index = [], []
    for ch in lexicon.channels:
        distinct, numbers = _spellings(lexicon, ch, max_signs)
        index.append(len(chains) + numbers)
        chains.extend((ch, block_ids(lexicon, ch, signs)) for signs in distinct)
    owners = [lexicon.channels.index(ch) for ch, _ in chains]  # each stack column's channel
    blocks = [
        (
            *_chain_stack(lexicon, chains[b : b + step], offsets, n),
            np.bincount(owners[b : b + step], minlength=len(lexicon.channels)),
        )
        for b in range(0, width, step)
    ]
    return blocks, np.stack(index, axis=1)


def _candidate_scores(lexicon, table, lengths, max_signs, cache):
    """(M, C) best-path scores of the M sign sequences of 1..max_signs
    signs, row m for _sequence(sorted(lexicon.signs), m), one column per
    lexicon channel, each scored at its own last frame of the
    _table_builder table (table, lengths), in one viterbi_score_lattice
    call per block of the _candidate_stack. Fills cache as
    decode_exhaustive describes."""
    if max_signs not in cache:
        cache[max_signs] = _candidate_stack(lexicon, max_signs)
    blocks, index = cache[max_signs]
    scores = [
        viterbi_score_lattice(log_pi, diagonals, table, columns, np.repeat(lengths, counts))
        for log_pi, diagonals, columns, counts in blocks
    ]
    return np.concatenate(scores)[index]


def _stack_columns(blocks, picks):
    """The (log_pi, band(log_trans), columns) _stack of the stack
    columns picks, numbered across the blocks of a _candidate_stack,
    one column each in the order of picks."""
    (n, width), offsets = blocks[0][0].shape, [o for o, _ in blocks[0][1]]
    rows = np.empty((1 + len(offsets), n, len(picks)))  # log_pi, then the weights
    columns = np.empty((n, len(picks)), dtype=np.intp)
    for c, (b, j) in enumerate(divmod(p, width) for p in picks.tolist()):
        log_pi, band, block_columns, _ = blocks[b]
        columns[:, c] = block_columns[:, j]
        for row, block_row in zip(rows, [log_pi] + [w for _, w in band]):
            row[:, c] = block_row[:, j]
    return rows[0], tuple(zip(offsets, rows[1:])), columns


def decode_exhaustive(lexicon, mobs, max_signs, cache=None):
    """Best hypothesis over every sign sequence of length 1..max_signs.

    Implements the joint objective exactly: channels align
    independently and the argmax runs over the full enumeration. Every
    candidate and channel is scored, keeping no past rows, in one
    viterbi_score_lattice call per column block of the stack; each total
    is the math.fsum of its channel scores, and ties go to the shorter,
    then lexicographically smaller sequence. The winner keeps its row's
    channel scores and is handed to _align, one segment per channel, on
    its stack columns sliced out of the cached blocks, for the paths
    alone. So an utterance composes no model and runs no frame loop but
    the scoring pass, and the winner equals score_hypothesis on its
    signs bit for bit. Channels may differ in length.

    cache is a dict reused across utterances of one lexicon:
    cache[max_signs] holds the _candidate_stack, the -inf-padded models
    of every channel's distinct spelling sequences of 1..max_signs signs
    in column blocks and the map from each candidate and channel to its
    column; cache["tables"] what _table_builder keeps. mobs is validated
    first, so its fault is reported before a max_signs is cached, by
    _candidate_stack, which refuses too many candidates or stack bytes
    before it builds anything.
    """
    if max_signs < 1:
        raise ValidationError("max_signs must be >= 1")
    if not lexicon.signs:
        raise ValidationError("lexicon has no signs")
    validate_multi_observation(lexicon, mobs)
    cache = {} if cache is None else cache
    again = _table_builder(lexicon, mobs, cache)
    table, lengths = again()
    scores = _candidate_scores(lexicon, table, lengths, max_signs, cache)
    positive = _positive_bound(table, len(lexicon.channels))[-1]
    [(best, rows)] = _best_entries(np.zeros((len(scores), 1)), scores[:, None], positive)
    if best is None:
        raise NoFiniteHypothesisError("all candidate hypotheses score -inf")
    blocks, index = cache[max_signs]
    signs = _sequence(sorted(lexicon.signs), rows[0])
    stack = _stack_columns(blocks, index[rows[0]])
    winner = scores[rows[0]].tolist()
    return _align(signs, lexicon.channels, again, *stack, 0 * lengths, lengths, winner)


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
    return factored, math.prod(sizes)


# ---------------------------------------------------------------------------
# Boundary-synchronized joint decoding
# ---------------------------------------------------------------------------


def _unit_layout(lexicon, keys):
    """(index (K, C), log_pi, band, columns) of the _Unit stack of keys,
    the lexicon's part, built once per decode_synced cache: the
    _chain_stack of the units' distinct chains, first seen first; band
    has the final self-loop repriced to 1 - exit_prob."""
    chains, index = {}, []  # each distinct chain -> its stack column
    for key in keys:
        for ch in lexicon.channels:
            inv = lexicon.inventory(ch)
            pids = (inv.epenthesis,) if key == EPS_UNIT else tuple(lexicon.signs[key].channels[ch])
            index.append(chains.setdefault((ch, pids), len(chains)))
    log_pi, band, columns = _chain_stack(lexicon, list(chains))
    # Mid-utterance pricing: a unit's final state dwells with 1 - exit
    # probability; the complement leaves through the boundary.
    dict(band)[0][-1] = safe_log(1.0 - lexicon.exit_prob)
    return np.reshape(index, (len(keys), len(lexicon.channels))), log_pi, band, columns


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
    logb[t, i, d] = table[t, columns[i, d]], table the utterance's
    density table, which again, its _table_builder on cache, builds;
    padded states read a -inf column. layout is the _unit_layout of keys.
    """

    def __init__(self, lexicon, mobs, keys, layout, cache=None):
        self.keys = list(keys)
        self.channels = list(lexicon.channels)
        self.index, self.log_pi, self.band, self.columns = layout
        n = len(self.log_pi)
        self.final = n - 1
        self.log_exit = float(safe_log(lexicon.exit_prob))
        self.again = _table_builder(lexicon, mobs, {} if cache is None else cache)
        self.logb = self.again()[0][:, self.columns]
        t_len, _, width = self.logb.shape
        # delta[:, t0] is the recursion of every column entered at frame
        # t0, spare a scratch; final_iso[t0] prices the final state as
        # absorbing.
        self.delta, self.spare = np.empty((2, n, t_len, width))
        self.final_iso = np.empty((t_len, width))
        steps = _band_steps(self.band, self.log_pi.shape)
        self.steps = [(src, dst, w[:, None]) for src, dst, w in steps]

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
            cand, rows = prev[src] + w, delta[dst]
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


def _positive_bound(table, n_channels):
    """(T,) bounds on the positive values of n_channels channel scores
    up to each frame: only log densities (table (T, ...)) exceed 0, so
    n_channels times the running sum of each frame's largest, if > 0."""
    return n_channels * np.cumsum(np.maximum(table.reshape(len(table), -1).max(axis=1), 0.0))


def _best_entries(entry_scores, parts, positive):
    """Exact maxima of entry_scores[i, k] + math.fsum(parts[i, k]) over
    rows i, one per column k.

    entry_scores (M, K) holds -inf where column k has no entry at row i;
    parts (M, K, C); positive bounds, on every row, the sum of the
    positive values among its entry and parts (a _positive_bound).
    Returns one (best, rows) pair per column: the best score and the
    rows reaching it in ascending order, or (None, []) if every row
    scores -inf. Both decoders rank with it.

    numpy's sums a, left to right from the entry, rank the rows; only
    rows that can reach the exact maximum are rescored with math.fsum.
    With X = |entry| + sum |parts|, a row's a is within C * eps * X of
    its real sum s and its fsum score within 2 * eps * X, so a row
    reaching the exact maximum is within 2 * (C + 2) * eps * X_max of
    the column's largest a, X_max being the column's largest finite X.
    Rows within 2 * tol, tol = (C + 4) * eps * B, are kept; the margin
    covers rounding the cut itself. B bounds every X_max from the sums
    alone: X = 2 * (the row's positive values) - s <= 2 * positive - a
    + C * eps * X, so X <= (2 * positive - a) / (1 - C * eps) <= B =
    2 * (2 * positive - min a), min a taken over every finite row and
    no higher than 0. The factor 2 also covers rounding positive, the
    sums and B, each by a relative error far below 1 / 4.
    """
    n_parts = parts.shape[-1]
    approx = entry_scores + parts[..., 0]
    for c in range(1, n_parts):
        approx += parts[..., c]
    finite = approx > LOG_ZERO
    low = np.minimum.reduce(approx, axis=None, where=finite, initial=0.0)
    tol = (n_parts + 4) * _EPS * (2 * (2 * float(positive) - float(low)))
    keep = approx >= np.maximum.reduce(approx, axis=0) - 2 * tol
    keep &= finite
    rows, cols = keep.nonzero()  # each column's rows come in ascending order
    entries = entry_scores[rows, cols].tolist()
    sums = map(math.fsum, parts[rows, cols].tolist())
    results = [(None, [])] * entry_scores.shape[1]  # never appended to
    for i, k, entry, total in zip(rows.tolist(), cols.tolist(), entries, sums):
        score = entry + total
        best, winners = results[k]
        if best is None or score > best:
            results[k] = (score, [i])
        elif score == best:
            winners.append(i)
    return results


@dataclass
class _Token:
    """A search token; key() ranks tokens, the best first."""

    score: float
    signs: tuple
    segments: tuple  # (unit_key, entry_frame, exit_frame) triples
    totals: tuple  # per channel, from 0.0, each segment's exit score added in order

    def key(self):
        return (-self.score, len(self.signs), self.signs)


def _unit_token(key, winner, entries, t, exits):
    """The smallest key() token leaving unit key at frame t, winner its
    (score, entry frames t0), entries[t0] its entry tokens and exits[t0]
    its (C,) channel exit scores: tied tokens differ in their entry
    token's signs alone, so only the earliest of the best is built."""
    score, t0s = winner
    t0 = min(t0s, key=lambda i: (len(entries[i].signs), entries[i].signs)) if t0s[1:] else t0s[0]
    entry, sign = entries[t0], () if key == EPS_UNIT else (key,)
    totals = tuple([a + b for a, b in zip(entry.totals, exits[t0].tolist())])
    return _Token(score, entry.signs + sign, entry.segments + ((key, t0, t),), totals)


def _best_sign(sign_ids, winners, entries, t, exits):
    """The best sign token leaving at frame t, or None, exits (t + 1, K,
    C) the frame's exit scores; key() ranks by score first, so only
    units reaching the top score are tokenized."""
    scores = [score for score, _ in winners[: len(sign_ids)] if score is not None]
    top = max(scores, default=LOG_ZERO)  # no winner scores -inf
    units = enumerate(zip(sign_ids, winners))
    tokens = [_unit_token(key, w, entries, t, exits[:, k]) for k, (key, w) in units if w[0] == top]
    return min(tokens, key=_Token.key, default=None)


def _signs_above(eps, sign_ids, winners, entries, t, exits):
    """How many sign tokens leaving at frame t rank above the epenthesis
    token eps by (key(), unit key), exits as _best_sign's; only signs
    tying its score exactly are tokenized."""
    rank = (eps.key(), EPS_UNIT)
    return sum(
        w[0] > eps.score or (_unit_token(key, w, entries, t, exits[:, k]).key(), key) < rank
        for k, (key, w) in enumerate(zip(sign_ids, winners))
        if w[0] is not None and w[0] >= eps.score
    )


def decode_synced(lexicon, mobs, beam_width, cache=None):
    """Sign-boundary-synchronized joint Viterbi decode.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise), all of the same length; every channel
    crosses each sign (and epenthesis) boundary at the same frame. With
    an unbounded beam this is exact for the synchronized search space;
    pruning keeps the best beam_width of a frame's tokens, one per unit,
    by (key(), unit key). Only two are read again: the best sign token
    and the epenthesis token. So a frame builds those alone, and a sign
    unit's token only where it ties their score, and prunes by rank:
    the epenthesis token survives if fewer than beam_width sign tokens
    rank above it, the best sign token unless beam_width is 1 and the
    epenthesis token ranks first. Each token carries its channel scores,
    summed from its segments' _Unit exit rows, so the winner needs no
    second frame loop.

    cache is a dict reused across utterances of one lexicon, which
    decode_exhaustive may share: cache["synced"] holds the _unit_layout,
    cache["tables"] what _table_builder keeps.

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
    cache = {} if cache is None else cache
    if "synced" not in cache:
        cache["synced"] = _unit_layout(lexicon, unit_keys)
    units = _Unit(lexicon, mobs, unit_keys, cache["synced"], cache)
    n_signs = len(sign_ids)
    positive = _positive_bound(units.logb, len(lexicon.channels))

    # sign_entries[t0] / eps_entries[t0]: the best token that may enter a
    # sign / the epenthesis at frame t0, fixed once frame t0 - 1 is pruned;
    # entry_scores[t0, k] is the score of unit k's entry token, -inf if none.
    sign_entries = [_Token(0.0, (), (), (0.0,) * len(lexicon.channels))]
    eps_entries = [None]
    entry_scores = np.full((t_len, len(unit_keys)), LOG_ZERO)
    entry_scores[0, :n_signs] = 0.0
    for t in range(t_len):
        exits = units.segment_scores(t)
        winners = _best_entries(entry_scores[: t + 1], exits, positive[t])
        best_sign = _best_sign(sign_ids, winners, sign_entries, t, exits)
        eps = None
        if use_eps and winners[-1][0] is not None:
            eps = _unit_token(EPS_UNIT, winners[-1], eps_entries, t, exits[:, -1])
            above = 0
            if beam_width <= n_signs:  # else the beam cannot bind
                above = _signs_above(eps, sign_ids, winners, sign_entries, t, exits)
            if above >= beam_width:
                eps = None
            elif beam_width == 1:
                best_sign = None
        # With epenthesis a sign follows the epenthesis token and the
        # epenthesis the best sign token; else a sign the best sign token.
        sign_entry, eps_entry = (eps, best_sign) if use_eps else (best_sign, None)
        sign_entries.append(sign_entry)
        eps_entries.append(eps_entry)
        if t + 1 < t_len:
            if sign_entry is not None:
                entry_scores[t + 1, :n_signs] = sign_entry.score
            if eps_entry is not None:
                entry_scores[t + 1, n_signs:] = eps_entry.score

    lasts = units.last()[:, :n_signs]
    tails = _best_entries(entry_scores[:, :n_signs], lasts, positive[-1])
    best = _best_sign(sign_ids, tails, sign_entries, t_len - 1, lasts)
    if best is None:
        raise NoFiniteHypothesisError("no synchronized hypothesis has finite score")
    return _rebuild_hypothesis(units, best)


# Failures that end the decode of one utterance: callers record them
# per utterance and go on. Any other error ends the run.
DECODE_FAILURES = (NoFiniteHypothesisError, UnequalChannelLengthsError)


def decode(lexicon, mobs, mode, max_signs, beam_width, cache):
    """Decode one utterance with decode_exhaustive (mode "exhaustive",
    max_signs) or decode_synced (mode "synced", beam_width), either
    with cache.

    Raises one of DECODE_FAILURES when the utterance has no hypothesis.
    """
    if mode == "exhaustive":
        return decode_exhaustive(lexicon, mobs, max_signs, cache=cache)
    if mode == "synced":
        return decode_synced(lexicon, mobs, beam_width, cache=cache)
    raise ValueError(f"unknown decode mode {mode!r}")


def _rebuild_hypothesis(units, token):
    """The Hypothesis of the winning token, its channel scores the
    token's totals, its state paths deferred.

    units is the utterance's _Unit stack. Each segment (key, t0, t1) of
    the token picks its unit's column in every channel, all handed to
    _align in one call over their frames t0..t1: every segment but the
    last must end in the final state, while the last prices its final
    state as absorbing.
    """
    n_channels = len(units.channels)
    # picks[s * C + c]: the stack column of segment s's unit in channel c.
    picks = units.index[[units.keys.index(key) for key, _, _ in token.segments]].ravel()
    band = tuple((o, w[:, picks]) for o, w in units.band)
    dict(band)[0][units.final, -n_channels:] = 0.0
    arrays = units.again, units.log_pi[:, picks], band, units.columns[:, picks]
    t0, t1 = np.repeat([segment[1:] for segment in token.segments], n_channels, axis=0).T
    return _align(token.signs, units.channels, *arrays, t0, t1 + 1 - t0, token.totals)
