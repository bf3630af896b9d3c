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

Both decoders score in batches. The exhaustive decoder stacks every
k-sign candidate's composed model per channel (-inf padded) and runs
one max-product recursion over the whole stack, reading emissions from
one table of phoneme-state log densities per channel. The synchronized
decoder stacks the units of an utterance (every sign, and the
epenthesis filler, in every channel; front-padded with -inf so that
each final state is the last row) and advances one recursion for all
units and entry frames a frame at a time. Max and + are exact and -inf
padding never wins a max, so every score is bit-identical to scoring
the candidates, units or entry frames one at a time.

The synchronized token search is fused with that recursion: at each
frame, numpy sums every (unit, entry frame) pair's channel scores at
once, and only the pairs whose sum is within a rounding-error bound of
their unit's best are rescored with math.fsum, which gives the exact
scores and ties of scoring every pair with math.fsum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import emissions as em_mod
from .errors import (
    AllPathsZeroError,
    EmptySequenceError,
    NoFiniteHypothesisError,
    SearchSpaceTooLargeError,
    UnequalChannelLengthsError,
    UnknownSignError,
    ValidationError,
)
from .hmm import Hmm, Topology, viterbi, viterbi_lattice, viterbi_score_lattice
from .lexicon import EPENTHESIS_BETWEEN_SIGNS, validate_multi_observation
from .logmath import LOG_ZERO, safe_log

MAX_CANDIDATES = 1_000_000

EPS_UNIT = "<eps>"

# Compose-cache key tag of the candidate stacks: (_STACK, channel, k).
_STACK = "candidate stack"


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
    first = blocks[0][1].emissions
    if isinstance(first, em_mod.DiscreteEmission):
        probs = np.vstack([b.emissions.probs for _, b in blocks])
        emissions = em_mod.DiscreteEmission(probs)
    else:
        means = np.vstack([b.emissions.means for _, b in blocks])
        variances = np.vstack([b.emissions.variances for _, b in blocks])
        emissions = em_mod.GaussianEmission(means, variances)
    return Hmm(pi, trans, emissions, Topology.ERGODIC), offsets


def compose_utterance_model(lexicon, channel, signs):
    """Concatenated channel model for a sign sequence, epenthesis per policy."""
    inv = lexicon.inventory(channel)
    blocks = [(pid, inv.phonemes[pid]) for pid in block_ids(lexicon, channel, signs)]
    model, _ = compose_models(blocks, lexicon.exit_prob)
    return model


def _cached_model(lexicon, channel, signs, cache):
    """Composed channel model, memoized per (channel, sign sequence)."""
    key = (channel, signs)
    model = None if cache is None else cache.get(key)
    if model is None:
        model = compose_utterance_model(lexicon, channel, signs)
        if cache is not None:
            cache[key] = model
    return model


def score_hypothesis(lexicon, signs, mobs, cache=None):
    """Score one sign sequence: independent per-channel Viterbi alignments.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise). Each channel is aligned on its own
    composed model; the total is the sum of per-channel log scores. A
    channel with no feasible path contributes -inf and is left without a
    state path.
    """
    validate_multi_observation(lexicon, mobs)
    signs = tuple(signs)
    channel_scores = {}
    state_paths = {}
    for ch in lexicon.channels:
        model = _cached_model(lexicon, ch, signs, cache)
        try:
            state_paths[ch], channel_scores[ch] = viterbi(model, mobs.channels[ch])
        except AllPathsZeroError:
            channel_scores[ch], state_paths[ch] = LOG_ZERO, None
    return Hypothesis.combine(signs, channel_scores, state_paths)


def _candidate_count(vocab, max_signs):
    total = 0
    for k in range(1, max_signs + 1):
        total += vocab**k
        if total > MAX_CANDIDATES:
            return total
    return total


def _log_density_table(inventory, obs):
    """(T, S + 1) log densities of all S phoneme states in inventory
    order, then a -inf column."""
    parts = [em_mod.log_density_seq(m.emissions, obs) for m in inventory.phonemes.values()]
    parts.append(np.full((len(obs), 1), LOG_ZERO))
    return np.hstack(parts)


def _state_columns(inventory, pids, base=0):
    """base plus the column in the inventory's _log_density_table of each
    state of the model composed from phonemes pids."""
    sizes = [m.n_states for m in inventory.phonemes.values()]
    offsets = dict(zip(inventory.phonemes, itertools.accumulate([0] + sizes)))
    return [base + offsets[p] + i for p in pids for i in range(inventory.phonemes[p].n_states)]


def _stack(models, columns):
    """(log_pi (N, B), log_trans (N, N, B), columns (N, B)) of B models,
    an iterable, and the list of their state-to-column lists, batch
    innermost. A model of n < N states fills the last n rows, so every
    final state is row N - 1; the rows above it are -inf and read column
    -1, the -inf column of a _log_density_table."""
    n = max(len(cols) for cols in columns)
    log_pi = np.full((n, len(columns)), LOG_ZERO)
    log_trans = np.full((n, n, len(columns)), LOG_ZERO)
    stacked = np.full((n, len(columns)), -1, dtype=np.intp)
    for b, (model, cols) in enumerate(zip(models, columns)):
        lo = n - len(cols)
        log_pi[lo:, b], log_trans[lo:, lo:, b] = model.log_params()
        stacked[lo:, b] = cols
    return log_pi, log_trans, stacked


def _candidate_stack(lexicon, channel, candidates):
    """_stack of the B candidates' composed channel models."""
    inv = lexicon.inventory(channel)
    # Composed one at a time: holding all of them at once raised peak RSS.
    models = (compose_utterance_model(lexicon, channel, signs) for signs in candidates)
    columns = [_state_columns(inv, block_ids(lexicon, channel, signs)) for signs in candidates]
    return _stack(models, columns)


def _channel_score_groups(lexicon, mobs, max_signs, cache):
    """One (candidates, {channel: (B,) best-path scores}) pair per sign
    count k = 1..max_signs, candidates in enumeration order."""
    sign_ids = sorted(lexicon.signs)
    tables = {
        ch: _log_density_table(lexicon.inventory(ch), mobs.channels[ch])
        for ch in lexicon.channels
    }
    groups = []
    for k in range(1, max_signs + 1):
        candidates = list(itertools.product(sign_ids, repeat=k))
        scores = {}
        for ch in lexicon.channels:
            key = (_STACK, ch, k)
            stack = cache.get(key)
            if stack is None:
                stack = cache[key] = _candidate_stack(lexicon, ch, candidates)
            log_pi, log_trans, columns = stack
            scores[ch] = viterbi_score_lattice(log_pi, log_trans, tables[ch], columns)
        groups.append((candidates, scores))
    return groups


def decode_exhaustive(lexicon, mobs, max_signs, cache=None):
    """Best hypothesis over every sign sequence of length 1..max_signs.

    Implements the joint objective exactly: channels align
    independently and the argmax runs over the full enumeration.
    Candidates are scored in one batch per channel and sign count; each
    total is the math.fsum of its channel scores, ties go to the shorter,
    then lexicographically smaller sequence, and the winner is rescored
    with score_hypothesis for its state paths.

    cache is a dict reused across utterances of one lexicon. It holds,
    per channel and sign count, the -inf-padded (log_pi, log_trans)
    stacks of every candidate's composed model with their state-to-column
    index, plus the composed models of the winners (see score_hypothesis).
    """
    if max_signs < 1:
        raise ValidationError("max_signs must be >= 1")
    sign_ids = sorted(lexicon.signs)
    if not sign_ids:
        raise ValidationError("lexicon has no signs")
    n_cand = _candidate_count(len(sign_ids), max_signs)
    if n_cand > MAX_CANDIDATES:
        raise SearchSpaceTooLargeError(n_cand, MAX_CANDIDATES)
    validate_multi_observation(lexicon, mobs)
    if cache is None:
        cache = {}
    best_key = None
    best_signs = None
    groups = _channel_score_groups(lexicon, mobs, max_signs, cache)
    for k, (candidates, scores) in enumerate(groups, start=1):
        per_channel = [scores[ch].tolist() for ch in lexicon.channels]
        for signs, channel_scores in zip(candidates, zip(*per_channel)):
            total = math.fsum(channel_scores)
            if total == LOG_ZERO:
                continue
            key = (-total, k, signs)
            if best_key is None or key < best_key:
                best_key = key
                best_signs = signs
    if best_signs is None:
        raise NoFiniteHypothesisError("all candidate hypotheses score -inf")
    return score_hypothesis(lexicon, best_signs, mobs, cache=cache)


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
    of a sign's phonemes in that channel (or of the epenthesis filler).

    Each model is front-padded with -inf to N states so that its final
    state is always row N - 1; the (K keys, C channels) batch axes are
    innermost. State i of unit (k, c) emits logb[t, i, k, c], gathered
    through a state-to-column index from the per-channel tables of
    _log_density_table; padded states read a -inf column.
    """

    def __init__(self, lexicon, mobs, keys):
        self.keys = list(keys)
        self.channels = list(lexicon.channels)
        tables = [
            _log_density_table(lexicon.inventory(ch), mobs.channels[ch]) for ch in self.channels
        ]
        bases = list(itertools.accumulate([0] + [table.shape[1] for table in tables]))
        models = []
        columns = []
        for key in self.keys:
            for ch, base in zip(self.channels, bases):
                inv = lexicon.inventory(ch)
                pids = [inv.epenthesis] if key == EPS_UNIT else lexicon.signs[key].channels[ch]
                blocks = [(pid, inv.phonemes[pid]) for pid in pids]
                models.append(compose_models(blocks, lexicon.exit_prob)[0])
                columns.append(_state_columns(inv, pids, base))
        shape = (len(self.keys), len(self.channels))
        self.sizes = np.reshape([len(cols) for cols in columns], shape)
        log_pi, log_trans, columns = _stack(models, columns)
        n = len(log_pi)
        self.log_pi = log_pi.reshape((n,) + shape)
        self.log_trans = log_trans.reshape((n, n) + shape)
        self.final = n - 1
        # Mid-utterance pricing: a unit's final state dwells with 1 - exit
        # probability; the complement leaves through the boundary.
        self.log_trans[self.final, self.final] = safe_log(1.0 - lexicon.exit_prob)
        self.log_exit = float(safe_log(lexicon.exit_prob))
        self.logb = np.hstack(tables)[:, columns.reshape((n,) + shape)]
        t_len = self.logb.shape[0]
        # delta[:, t0] is the recursion of every unit entered at frame t0;
        # final_iso[t0] prices the final state as absorbing, for last().
        self.delta = np.empty((n, t_len) + shape)
        self.final_iso = np.empty((t_len,) + shape)

    def segment_scores(self, t):
        """Advance every unit and entry frame by frame t; called for
        t = 0, 1, ... in turn.

        Returns the (t + 1, K, C) exit scores of frame t: [t0, k, c] is
        the best score of a path entering unit (k, c) at frame t0 and
        leaving it between t and t+1, boundary log included.
        """
        delta, final_iso, logb = self.delta, self.final_iso, self.logb[t]
        final = self.final
        if t:
            cand = delta[:, None, :t] + self.log_trans[:, :, None]
            arrivals = cand[:final, final].max(axis=0) if final else LOG_ZERO
            np.add(cand.max(axis=0), logb[:, None], out=delta[:, :t])
            np.add(np.maximum(arrivals, final_iso[:t]), logb[final], out=final_iso[:t])
        delta[:, t] = self.log_pi + logb
        final_iso[t] = delta[final, t]
        return delta[final, : t + 1] + self.log_exit

    def last(self):
        """(T, K, C) best unanchored scores up to the last frame by entry
        frame, with the final state absorbing; read after the last
        segment_scores call."""
        best_nf = self.delta[: self.final].max(axis=0) if self.final else LOG_ZERO
        return np.maximum(best_nf, self.final_iso)

    def unit(self, k, c):
        """(log_pi, log_trans, logb (T, n)) of unit (k, c), padding cut off."""
        lo = self.final + 1 - self.sizes[k, c]
        return self.log_pi[lo:, k, c], self.log_trans[lo:, lo:, k, c], self.logb[:, lo:, k, c]


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
    if a is None:
        return b
    if b is None:
        return a
    return a if a.key() <= b.key() else b


def decode_synced(lexicon, mobs, beam_width):
    """Sign-boundary-synchronized joint Viterbi decode.

    Every lexicon channel needs a nonempty observation sequence
    (ValidationError otherwise), all of the same length; every channel
    crosses each sign (and epenthesis) boundary at the same frame. With
    an unbounded beam this is exact for the synchronized search space;
    pruning keeps the best beam_width boundary tokens per frame.
    """
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1")
    validate_multi_observation(lexicon, mobs)
    lengths = {ch: len(mobs.channels[ch]) for ch in lexicon.channels}
    t_len = lengths[lexicon.channels[0]]
    if any(ln != t_len for ln in lengths.values()):
        raise UnequalChannelLengthsError(f"channel lengths differ: {lengths}")

    use_eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    sign_ids = sorted(lexicon.signs)
    unit_keys = list(sign_ids) + ([EPS_UNIT] if use_eps else [])

    units = _Unit(lexicon, mobs, unit_keys)
    n_signs = len(sign_ids)

    def entry_tokens(cell):
        """(best token that may enter a sign, best that may enter the
        epenthesis) at the frame after `cell`, None if none scores finite."""
        sign_entry = eps_entry = None
        for vkey, tok in cell.items():
            if tok.score == LOG_ZERO:
                continue
            if use_eps and vkey != EPS_UNIT:
                eps_entry = _best_token(eps_entry, tok)
            else:
                sign_entry = _best_token(sign_entry, tok)
        return sign_entry, eps_entry

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
        sign_entry, eps_entry = entry_tokens(cell)
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

    units is the utterance's _Unit stack. Each segment (key, t0, t1) is
    one Viterbi backtrack over frames t0..t1 of its unit. The last
    segment is unanchored and prices the final state as absorbing; every
    other segment must end in the final state and pays the boundary exit
    log probability.
    """
    index = {key: k for k, key in enumerate(units.keys)}
    channel_scores = {}
    state_paths = {}
    for c, ch in enumerate(units.channels):
        total_c = 0.0
        path = []
        offset = 0
        for k, (key, t0, t1) in enumerate(token.segments):
            log_pi, log_trans, logb = units.unit(index[key], c)
            final = len(log_pi) - 1
            log_trans = log_trans.copy()
            logb = logb[t0 : t1 + 1].copy()
            is_last = k == len(token.segments) - 1
            if is_last:
                log_trans[final, final] = 0.0
            else:
                logb[-1, :final] = LOG_ZERO
            seg_score, seg_path = viterbi_lattice(log_pi, log_trans, logb)
            total_c += seg_score if is_last else seg_score + units.log_exit
            path.extend(offset + int(s) for s in seg_path)
            offset += final + 1
        channel_scores[ch] = total_c
        state_paths[ch] = path
    return Hypothesis.combine(token.signs, channel_scores, state_paths)
