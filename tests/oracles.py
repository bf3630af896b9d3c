"""Brute-force reference implementations used to check the real algorithms.

Everything here enumerates explicitly (paths, split points, alignments)
and is only usable at desk scale. Accumulation order matches the
production recursions term-for-term so that structured ties compare
bit-identically.
"""

from __future__ import annotations

import itertools

import numpy as np

from phmm.errors import ValidationError
from phmm.logmath import LOG_ZERO, logsumexp
from phmm.parallel import block_ids


def path_score(log_pi, log_trans, logb, path):
    """Joint log score of one explicit state path.

    Association mirrors the DP: ((s + a) + b) per time step.
    """
    s = log_pi[path[0]] + logb[0, path[0]]
    for t in range(1, len(path)):
        s = (s + log_trans[path[t - 1], path[t]]) + logb[t, path[t]]
    return s


def all_paths(n_states, t_len):
    return itertools.product(range(n_states), repeat=t_len)


def brute_forward(log_pi, log_trans, logb):
    """log sum over every state path of P(path, obs)."""
    t_len, n = logb.shape
    scores = [path_score(log_pi, log_trans, logb, p) for p in all_paths(n, t_len)]
    return logsumexp(np.array(scores))

def brute_viterbi(log_pi, log_trans, logb):
    """(path, score) by full enumeration.

    Among score-equal maximizers the winner is the path whose reversed
    state tuple is smallest, which is what backtracking with
    lowest-predecessor tie-breaking produces.
    """
    t_len, n = logb.shape
    best_score = LOG_ZERO
    best_key = None
    best_path = None
    for p in all_paths(n, t_len):
        s = path_score(log_pi, log_trans, logb, p)
        key = tuple(reversed(p))
        if s > best_score or (s == best_score and (best_key is None or key < best_key)):
            best_score = s
            best_key = key
            best_path = list(p)
    return best_path, best_score


def posteriors_oracle(log_pi, log_trans, logb):
    """One sequence's E-step quantities, frame by frame.

    Returns (loglik, gamma, xi_sum): the full alpha and beta lattices
    give gamma = exp(alpha + beta - loglik), and xi_sum adds one (N, N)
    expected-transition matrix per frame pair. loglik of -inf yields no
    posteriors. This is the recursion hmm.posteriors_lattice batches
    over sequences.
    """
    t_len, n = logb.shape
    alpha = np.empty((t_len, n))
    alpha[0] = log_pi + logb[0]
    for t in range(1, t_len):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_trans, axis=0) + logb[t]
    loglik = logsumexp(alpha[-1])
    if loglik == LOG_ZERO:
        return loglik, None, None
    beta = np.empty((t_len, n))
    beta[-1] = 0.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(log_trans + (logb[t + 1] + beta[t + 1])[None, :], axis=1)
    gamma = np.exp(alpha + beta - loglik)
    xi_sum = np.zeros((n, n))
    for t in range(t_len - 1):
        xi_sum += np.exp(
            alpha[t][:, None] + log_trans + (logb[t + 1] + beta[t + 1])[None, :] - loglik
        )
    return loglik, gamma, xi_sum


def split_forward_oracle(model_a, model_b, exit_prob, obs, logb_a, logb_b):
    """Forward log likelihood of a two-block composition by enumerating
    every factorization: paths that never leave block A (with its final
    self-loop repriced to 1 - exit_prob), plus, for every switch frame,
    A-paths ending at A's final state times exit mass times B-paths."""
    t_len = logb_a.shape[0]
    trans_mid = model_a.trans.copy()
    trans_mid[-1, -1] = 1.0 - exit_prob
    with np.errstate(divide="ignore"):
        log_pi_a = np.log(model_a.pi)
        log_trans_mid = np.log(trans_mid)
        log_pi_b = np.log(model_b.pi)
        log_trans_b = np.log(model_b.trans)
    log_exit = np.log(exit_prob)
    n_a = model_a.n_states
    n_b = model_b.n_states
    terms = []
    for p in all_paths(n_a, t_len):
        terms.append(path_score(log_pi_a, log_trans_mid, logb_a, p))
    for tau in range(1, t_len):
        a_scores = [
            path_score(log_pi_a, log_trans_mid, logb_a[:tau], p)
            for p in all_paths(n_a, tau)
            if p[-1] == n_a - 1
        ]
        b_scores = [
            path_score(log_pi_b, log_trans_b, logb_b[tau:], p)
            for p in all_paths(n_b, t_len - tau)
        ]
        left = logsumexp(np.array(a_scores)) if a_scores else LOG_ZERO
        right = logsumexp(np.array(b_scores)) if b_scores else LOG_ZERO
        terms.append(left + log_exit + right)
    return logsumexp(np.array(terms))


def segment_scores_oracle(unit, t0):
    """One entry frame's synced-decoder segment scores, frame by frame.

    Returns (exit_scores, last) for a unit entered at frame t0:
    exit_scores[t] is the best score of leaving the unit between t and
    t+1 (boundary log included), -inf before t0; last is the best
    unanchored score up to the last frame with the unit's final state
    absorbing. This is the recursion _Unit.segment_scores batches over
    every t0.
    """
    t_len = unit.logb.shape[0]
    delta = unit.log_pi + unit.logb[t0]
    final_iso = delta[unit.final]
    exit_scores = np.full(t_len, LOG_ZERO)
    exit_scores[t0] = delta[unit.final] + unit.log_exit
    for t in range(t0 + 1, t_len):
        cand = delta[:, None] + unit.log_trans
        others = np.delete(cand[:, unit.final], unit.final)
        arrivals = np.max(others) if others.size else LOG_ZERO
        delta = np.max(cand, axis=0) + unit.logb[t]
        final_iso = max(arrivals, final_iso) + unit.logb[t, unit.final]
        exit_scores[t] = delta[unit.final] + unit.log_exit
    if t_len - 1 == t0:
        last = float(np.max(delta))
    else:
        non_final = np.delete(delta, unit.final)
        best_nf = np.max(non_final) if non_final.size else LOG_ZERO
        last = float(max(best_nf, final_iso))
    return exit_scores, last


def segment_viterbi_oracle(unit, t0, t1, is_last):
    """Best within-unit (score, path) over frames [t0, t1] of a synced
    segment, by a backtracking recursion of its own.

    Non-final segments are anchored on the unit's final state and
    include the boundary exit log probability; the last segment is
    unanchored and priced with the absorbing final state. This is what
    parallel._rebuild_hypothesis computes with hmm.viterbi_lattice.
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


def cut_segments_oracle(lexicon, channel, corpus):
    """Per-phoneme segments of ground-truth paths, by a per-frame scan of
    each block's (lo, hi, phoneme) state bounds.

    A run of frames ends where the phoneme changes, so two adjacent
    blocks of the same phoneme merge into one segment; elsewhere this
    equals cli._cut_segments, which ends a run where the block changes.
    """
    inv = lexicon.inventory(channel)
    segments = {pid: [] for pid in inv.phonemes}
    for utt in corpus:
        if not utt.paths or channel not in utt.paths:
            raise ValidationError(
                "segmented training requires ground-truth paths in the corpus"
            )
        ids = block_ids(lexicon, channel, utt.signs)
        sizes = [inv.phonemes[pid].n_states for pid in ids]
        bounds = []
        off = 0
        for pid, size in zip(ids, sizes):
            bounds.append((off, off + size, pid))
            off += size
        path = utt.paths[channel]
        obs = utt.mobs.channels[channel]
        start = 0
        current = None
        for t, state in enumerate(list(path) + [None]):
            blk = None
            if state is not None:
                for lo, hi, pid in bounds:
                    if lo <= state < hi:
                        blk = pid
                        break
            if blk != current:
                if current is not None and t > start:
                    segments[current].append(obs[start:t])
                current = blk
                start = t
    return {pid: segs for pid, segs in segments.items() if segs}


def brute_edit_distance(ref, hyp):
    """Minimal unit-cost edit distance by plain recursion."""

    def rec(i, j):
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        sub = rec(i + 1, j + 1) + (0 if ref[i] == hyp[j] else 1)
        ins = rec(i, j + 1) + 1
        dele = rec(i + 1, j) + 1
        return min(sub, ins, dele)

    return rec(0, 0)
