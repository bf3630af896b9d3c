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
decoder runs each unit's recursion for every entry frame at once. Max
and + are exact and -inf padding never wins a max, so every score is
bit-identical to scoring the candidates or entry frames one at a time.
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


def _channel_viterbi(model, obs):
    """(score, path) of the best alignment; (-inf, None) when impossible."""
    logb = em_mod.log_density_seq(model.emissions, obs)
    log_pi, log_trans = model.log_params()
    score, path = viterbi_lattice(log_pi, log_trans, logb)
    if score == LOG_ZERO:
        return LOG_ZERO, None
    return score, [int(s) for s in path]


def _cached_model(lexicon, channel, signs, cache):
    """(model, log_pi, log_trans), memoized per (channel, sign sequence)."""
    key = (channel, signs)
    if cache is not None:
        entry = cache.get(key)
        if entry is not None:
            return entry
    model = compose_utterance_model(lexicon, channel, signs)
    entry = (model, *model.log_params())
    if cache is not None:
        cache[key] = entry
    return entry


def score_hypothesis(lexicon, signs, mobs, cache=None):
    """Score one sign sequence: independent per-channel Viterbi alignments.

    Each channel is aligned on its own composed model; the total is the
    sum of per-channel log scores. A channel with no feasible path
    contributes -inf and is left without a state path.
    """
    signs = tuple(signs)
    channel_scores = {}
    state_paths = {}
    for ch in lexicon.channels:
        model, _, _ = _cached_model(lexicon, ch, signs, cache)
        score, path = _channel_viterbi(model, mobs.channels[ch])
        channel_scores[ch] = score
        state_paths[ch] = path
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


def _candidate_stack(lexicon, channel, candidates):
    """(log_pi (N, B), log_trans (N, N, B), columns (N, B)) of the B
    candidates' composed channel models, batch innermost; models shorter
    than N states are padded with -inf and with the -inf column of the
    channel's log-density table."""
    inv = lexicon.inventory(channel)
    # Column of each phoneme's first state in _log_density_table; the
    # table's last column, after every phoneme state, is the -inf pad.
    sizes = [m.n_states for m in inv.phonemes.values()]
    offsets = dict(zip(inv.phonemes, itertools.accumulate([0] + sizes)))
    pad = sum(sizes)
    cols = [
        [
            offsets[pid] + i
            for pid in block_ids(lexicon, channel, signs)
            for i in range(inv.phonemes[pid].n_states)
        ]
        for signs in candidates
    ]
    n = max(len(c) for c in cols)
    log_pi = np.full((n, len(candidates)), LOG_ZERO)
    log_trans = np.full((n, n, len(candidates)), LOG_ZERO)
    columns = np.full((n, len(candidates)), pad, dtype=np.intp)
    for b, signs in enumerate(candidates):
        m = len(cols[b])
        lp, lt = compose_utterance_model(lexicon, channel, signs).log_params()
        log_pi[:m, b] = lp
        log_trans[:m, :m, b] = lt
        columns[:m, b] = cols[b]
    return log_pi, log_trans, columns


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
    """One channel's composed model for a sign (or the epenthesis filler),
    prepared for segment-level dynamic programming."""

    def __init__(self, model, obs, exit_prob):
        self.n = model.n_states
        self.final = self.n - 1
        self.log_pi, log_trans = model.log_params()
        self.log_trans = log_trans.copy()
        # Mid-utterance pricing: the unit's final state dwells with 1 - exit
        # probability; the complement leaves through the boundary.
        self.log_trans[self.final, self.final] = safe_log(1.0 - exit_prob)
        self.log_exit = float(safe_log(exit_prob))
        self.logb = em_mod.log_density_seq(model.emissions, obs)

    def segment_scores(self):
        """DP from every entry frame t0 to the end of the utterance.

        Returns (exit_scores, last): exit_scores[t0, t] is the best score
        of a path entering at t0 and leaving the unit between t and t+1
        (boundary log included), -inf for t < t0; last[t0] is the best
        unanchored score through the absorbing (final-unit) pricing up
        to the last frame. Column t0 of delta starts at frame t0, so all
        entry frames advance together in T batched steps.
        """
        t_len = self.logb.shape[0]
        final = self.final
        log_trans = self.log_trans[:, :, None]
        delta = np.empty((self.n, t_len))
        # The final state priced as absorbing (self-loop log 1), for `last`.
        final_iso = np.empty(t_len)
        exit_scores = np.full((t_len, t_len), LOG_ZERO)
        for t in range(t_len):
            logb = self.logb[t]
            if t:
                cand = delta[:, None, :t] + log_trans
                arrivals = cand[:final, final].max(axis=0) if final else LOG_ZERO
                np.add(cand.max(axis=0), logb[:, None], out=delta[:, :t])
                np.add(np.maximum(arrivals, final_iso[:t]), logb[final], out=final_iso[:t])
            delta[:, t] = self.log_pi + logb
            final_iso[t] = delta[final, t]
            np.add(delta[final, : t + 1], self.log_exit, out=exit_scores[: t + 1, t])
        best_nf = delta[:final].max(axis=0) if final else LOG_ZERO
        return exit_scores, np.maximum(best_nf, final_iso)


def _unit(lexicon, channel, key, obs):
    """The _Unit of a sign (or EPS_UNIT) in one channel."""
    inv = lexicon.inventory(channel)
    pids = [inv.epenthesis] if key == EPS_UNIT else lexicon.signs[key].channels[channel]
    model, _ = compose_models([(pid, inv.phonemes[pid]) for pid in pids], lexicon.exit_prob)
    return _Unit(model, obs, lexicon.exit_prob)


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

    All channels must have the same observation length; every channel
    crosses each sign (and epenthesis) boundary at the same frame. With
    an unbounded beam this is exact for the synchronized search space;
    pruning keeps the best beam_width boundary tokens per frame.
    """
    if beam_width < 1:
        raise ValidationError("beam_width must be >= 1")
    lengths = {ch: len(mobs.channels[ch]) for ch in lexicon.channels}
    t_len = None
    for ch, ln in lengths.items():
        if t_len is None:
            t_len = ln
        elif ln != t_len:
            raise UnequalChannelLengthsError(
                f"channel lengths differ: {lengths}"
            )
    if t_len == 0:
        raise ValidationError("empty observation sequences")

    use_eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    sign_ids = sorted(lexicon.signs)
    unit_keys = list(sign_ids) + ([EPS_UNIT] if use_eps else [])

    # exits[key][c][t0, t] and lasts[key][c][t0]: unit key's exit and
    # last-unit scores in channel c by entry frame t0 and exit frame t.
    exits = {}
    lasts = {}
    for key in unit_keys:
        scores = [
            _unit(lexicon, ch, key, mobs.channels[ch]).segment_scores()
            for ch in lexicon.channels
        ]
        exits[key] = [ex for ex, _ in scores]
        lasts[key] = [last for _, last in scores]

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
    # sign / the epenthesis at frame t0, fixed once frame t0 - 1 is pruned.
    sign_entries = [_Token(0.0, (), ())]
    eps_entries = [None]
    for t in range(t_len):
        cell = {}
        for key in unit_keys:
            is_sign = key != EPS_UNIT
            entries = sign_entries if is_sign else eps_entries
            columns = [ex[: t + 1, t].tolist() for ex in exits[key]]
            # The token key orders by score first, so only entry frames
            # reaching the best score can win; ties go to the smaller key.
            best_score = None
            winners = []
            for t0, (entry, parts) in enumerate(zip(entries, zip(*columns))):
                if entry is None:
                    continue
                seg = math.fsum(parts)
                if seg == LOG_ZERO:
                    continue
                score = entry.score + seg
                if best_score is None or score > best_score:
                    best_score = score
                    winners = [t0]
                elif score == best_score:
                    winners.append(t0)
            best = None
            for t0 in winners:
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

    best = None
    for key in sign_ids:
        tails = [last.tolist() for last in lasts[key]]
        for t0, (entry, parts) in enumerate(zip(sign_entries, zip(*tails))):
            if entry is None:
                continue
            tail = math.fsum(parts)
            if tail == LOG_ZERO:
                continue
            tok = _Token(
                entry.score + tail,
                entry.signs + (key,),
                entry.segments + ((key, t0, t_len - 1),),
            )
            best = _best_token(best, tok)
    if best is None or best.score == LOG_ZERO:
        raise NoFiniteHypothesisError("no synchronized hypothesis has finite score")
    return _rebuild_hypothesis(lexicon, mobs, best)


def _rebuild_hypothesis(lexicon, mobs, token):
    """Recover per-channel scores and state paths for the winning token."""
    channel_scores = {}
    state_paths = {}
    for c, ch in enumerate(lexicon.channels):
        total_c = 0.0
        path = []
        offset = 0
        for k, (key, t0, t1) in enumerate(token.segments):
            unit = _unit(lexicon, ch, key, mobs.channels[ch])
            is_last = k == len(token.segments) - 1
            seg_score, seg_path = _segment_viterbi(unit, t0, t1, is_last)
            total_c += seg_score
            path.extend(offset + s for s in seg_path)
            offset += unit.n
        channel_scores[ch] = total_c
        state_paths[ch] = path
    return Hypothesis.combine(token.signs, channel_scores, state_paths)


def _segment_viterbi(unit, t0, t1, is_last):
    """Best within-unit path over frames [t0, t1].

    Non-final segments are anchored on the unit's final state and
    include the boundary exit log probability; the last segment is
    unanchored and priced with the absorbing final state.
    """
    n = unit.n
    log_trans = unit.log_trans.copy()
    if is_last:
        log_trans[unit.final, unit.final] = 0.0
    delta = unit.log_pi + unit.logb[t0]
    psi = np.zeros((t1 - t0 + 1, n), dtype=np.intp)
    for t in range(t0 + 1, t1 + 1):
        cand = delta[:, None] + log_trans
        psi[t - t0] = np.argmax(cand, axis=0)
        delta = cand[psi[t - t0], np.arange(n)] + unit.logb[t]
    if is_last:
        end = int(np.argmax(delta))
        score = float(delta[end])
    else:
        end = unit.final
        score = float(delta[end] + unit.log_exit)
    path = [end]
    for t in range(t1 - t0, 0, -1):
        path.append(int(psi[t, path[-1]]))
    path.reverse()
    return score, path
