"""Brute-force reference implementations used to check the real algorithms.

Everything here enumerates explicitly (paths, split points, alignments)
and is only usable at desk scale. Accumulation order matches the
production recursions term-for-term so that structured ties compare
bit-identically.
"""

from __future__ import annotations

import itertools
import math
from types import SimpleNamespace

import numpy as np

from phmm.emissions import (
    VAR_FLOOR,
    DiscreteEmission,
    DiscreteStats,
    GaussianEmission,
    accumulate_seq,
    log_density_seq,
)
from phmm.errors import (
    DegenerateModelError,
    EmptyStateError,
    NoFiniteHypothesisError,
    ValidationError,
)
from phmm.hmm import TINY, Hmm, loglik_lattice, posteriors_lattice
from phmm.lexicon import EPENTHESIS_BETWEEN_SIGNS
from phmm.logmath import LOG_ZERO, logsumexp, safe_log
from phmm.parallel import EPS_UNIT, Hypothesis, block_ids, compose_models, score_hypothesis


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
    return logsumexp(np.array(scores), axis=0)

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


def viterbi_score_lattice_oracle(log_pi, log_trans, logb, columns=None):
    """The dense max-product recursion over the whole (N, N, ...) stack,
    with the arguments of hmm.viterbi_score_lattice."""

    def frame(t):
        return logb[t] if columns is None else logb[t][columns]

    delta = log_pi + frame(0)
    for t in range(1, logb.shape[0]):
        delta = np.max(delta[:, None] + log_trans, axis=0) + frame(t)
    best = np.max(delta, axis=0)
    return float(best) if best.ndim == 0 else best


def viterbi_lattice_oracle(log_pi, log_trans, logb):
    """One model's (score, path) by the dense max-product recursion and
    backtrack, one frame at a time: log_pi (N,), log_trans (N, N), logb
    (T, N). Ties go to the lowest predecessor (np.argmax's first
    maximizer). This is the recursion hmm.viterbi_lattice batches."""
    t_len, n = logb.shape
    delta = log_pi + logb[0]
    psi = np.empty((t_len, n), dtype=np.intp)
    for t in range(1, t_len):
        cand = delta[:, None] + log_trans
        psi[t] = np.argmax(cand, axis=0)
        delta = cand[psi[t], np.arange(n)] + logb[t]
    score = float(np.max(delta))
    path = np.empty(t_len, dtype=np.intp)
    path[-1] = int(np.argmax(delta))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = psi[t, path[t]]
    return score, path


def dense_stack(models, columns):
    """(log_pi (N, B), log_trans (N, N, B), columns (N, B)) of B models
    and their state-to-column lists: parallel._stack with the dense
    transitions that its band is judged against. Each model fills the
    last rows; the rows above it are -inf and read column -1. The
    probabilities are stacked first and each stack takes one log."""
    n = max(len(cols) for cols in columns)
    pi = np.zeros((n, len(columns)))
    trans = np.zeros((n, n, len(columns)))
    stacked = np.full((n, len(columns)), -1, dtype=np.intp)
    for b, (model, cols) in enumerate(zip(models, columns)):
        lo = n - len(cols)
        pi[lo:, b] = model.pi
        trans[lo:, lo:, b] = model.trans
        stacked[lo:, b] = cols
    with np.errstate(divide="ignore"):
        return np.log(pi), np.log(trans), stacked


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
    loglik = logsumexp(alpha[-1], axis=0)
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


def two_loop_scaled_forward(log_pi, log_trans, logb, lengths):
    """The forward sweep of the two-loop kernel: hmm._scaled_forward
    building the lost-frame mask and dividing where scale > 0 on every
    frame. The reference the kernel must match bit for bit; arguments
    and returns as there.
    """
    trans = np.moveaxis(log_trans, -1, 0)
    trans = np.exp(trans, out=np.empty(trans.shape))
    shift = np.max(logb, axis=1)
    shift[shift == LOG_ZERO] = 0.0
    emit = np.empty(logb.shape[:1] + shift.shape[1:] + logb.shape[1:2])
    np.subtract(logb.transpose(0, 2, 1), shift[:, :, None], out=emit)
    np.exp(emit, out=emit)
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[:2])
    pi = np.exp(log_pi.T)
    for t in range(len(emit)):
        pred = pi if t == 0 else np.matmul(alpha[t - 1][:, None], trans)[:, 0]
        np.multiply(pred, emit[t], out=alpha[t])
        np.sum(alpha[t], axis=1, out=scale[t])
        lost = scale[t] < TINY
        if lost.any():
            # The states the forward mass reaches may all lie so far below
            # the frame's best state that exp rounds them to 0 or to
            # subnormals. Such a frame shifts by its best reachable state
            # instead; the others hold no forward mass, and emit 0.
            reach = np.broadcast_to(pred, alpha[t].shape)[lost]
            frame = np.where(reach > 0, logb[t].T[lost], LOG_ZERO)
            top = np.max(frame, axis=1)
            top[top == LOG_ZERO] = 0.0
            shift[t, lost] = top
            emit[t, lost] = np.exp(frame - top[:, None])
            alpha[t, lost] = reach * emit[t, lost]
            scale[t, lost] = np.sum(alpha[t, lost], axis=1)
        np.divide(alpha[t], scale[t][:, None], out=alpha[t], where=scale[t][:, None] > 0)
    live = np.arange(len(emit))[:, None] < lengths
    with np.errstate(divide="ignore"):
        loglik = np.where(live, np.log(scale) + shift, 0.0).sum(axis=0)
    return loglik, alpha, emit, scale, trans


def two_loop_posteriors_lattice(log_pi, log_trans, logb, lengths):
    """The two-loop kernel: hmm.posteriors_lattice with a backward sweep
    that keeps no rows, so beta_row recomputes every row in a second
    loop. The reference the kernel must match bit for bit; arguments
    and returns as there.
    """
    loglik, alpha, emit, scale, trans = two_loop_scaled_forward(log_pi, log_trans, logb, lengths)
    emit *= np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)[:, :, None]
    is_last = np.arange(len(emit))[:, None] == np.asarray(lengths) - 1
    beta = np.zeros_like(emit[0])
    beta[is_last[-1]] = 1.0

    def beta_row(t, out):
        # The backward row of frame t from the weights of frame t + 1.
        np.matmul(trans, emit[t + 1][:, :, None], out=out[:, :, None])
        np.copyto(out, 1.0, where=is_last[t][:, None])

    for t in range(len(emit) - 2, -1, -1):
        emit[t + 1] *= beta
        beta_row(t, beta)
    xi_sum = np.matmul(alpha[:-1].transpose(1, 2, 0), emit[1:].transpose(1, 0, 2))
    xi_sum *= trans
    for t in range(len(emit) - 1):
        beta_row(t, emit[t])
    emit[-1] = is_last[-1][:, None]
    alpha *= emit
    return loglik, alpha.transpose(0, 2, 1), xi_sum.transpose(1, 2, 0)


def log_density(em, state, x):
    """Log output density of one observation x at one state, the
    reference for emissions.log_density_seq: the log table entry
    (exactly -inf for a zero entry), or the diagonal-Gaussian density."""
    if isinstance(em, DiscreteEmission):
        return float(safe_log(em.probs[state, int(x)]))
    var = em.variances[state]
    diff = np.asarray(x, dtype=float) - em.means[state]
    return float(
        -0.5 * (em.dim * math.log(2 * math.pi) + np.sum(np.log(var)) + np.sum(diff * diff / var))
    )


def accumulate(stats, state, x, weight):
    """Add one weighted observation to the statistics in place, the
    reference for emissions.accumulate_seq."""
    if isinstance(stats, DiscreteStats):
        stats.counts[state, int(x)] += weight
    else:
        v = np.asarray(x, dtype=float)
        stats.weight[state] += weight
        stats.wsum[state] += weight * v
        stats.wsq[state] += weight * v * v
    return stats


def maximize_oracle(stats, smoothing=0.0, fallback=None):
    """The M-step one state at a time, the reference for
    emissions.maximize: a state with zero total weight takes its
    fallback parameters, else raises EmptyStateError when smoothing is
    not positive, else gets a smoothed discrete row or a Gaussian with
    mean 0 and variance 1."""
    if isinstance(stats, DiscreteStats):
        counts = stats.counts
        n, m = counts.shape
        rows = np.empty_like(counts)
        for i in range(n):
            total = counts[i].sum()
            if total <= 0:
                if fallback is not None:
                    rows[i] = fallback.probs[i]
                    continue
                if smoothing <= 0:
                    raise EmptyStateError(i)
            rows[i] = (counts[i] + smoothing) / (total + m * smoothing)
        return DiscreteEmission(rows)
    n = stats.weight.shape[0]
    dim = stats.wsum.shape[1]
    means = np.empty((n, dim))
    variances = np.empty((n, dim))
    for i in range(n):
        w = stats.weight[i]
        if w <= 0:
            if fallback is not None:
                means[i] = fallback.means[i]
                variances[i] = fallback.variances[i]
                continue
            if smoothing <= 0:
                raise EmptyStateError(i)
            means[i] = 0.0
            variances[i] = 1.0
            continue
        means[i] = stats.wsum[i] / w
        variances[i] = np.maximum(stats.wsq[i] / w - means[i] ** 2, VAR_FLOOR)
    return GaussianEmission(means, variances)


def _single_model_e_step(model, data, stats_needed=True):
    """Every sequence on the one model, as one batch of a shared (N, 1)
    log_pi and (N, N, 1) log_trans."""
    lengths = np.array([len(obs) for obs in data])
    lp, lt = model.log_params()
    logb = np.full((lengths.max(), model.n_states, len(data)), LOG_ZERO)
    for b, obs in enumerate(data):
        logb[: lengths[b], :, b] = log_density_seq(model.emissions, obs)
    if stats_needed:
        logliks, gamma, xi_sum = posteriors_lattice(lp[:, None], lt[:, :, None], logb, lengths)
    else:
        logliks = loglik_lattice(lp[:, None], lt[:, :, None], logb, lengths)
    if np.any(logliks == LOG_ZERO):
        raise DegenerateModelError("sequences have zero likelihood under the model")
    total = math.fsum(logliks.tolist())
    if not stats_needed:
        return total, None
    pi_acc = np.zeros(model.n_states)
    trans_acc = np.zeros((model.n_states, model.n_states))
    em_stats = model.emissions.new_stats()
    for b, seq in enumerate(data):
        pi_acc += gamma[0, :, b]
        trans_acc += xi_sum[:, :, b]
        accumulate_seq(em_stats, gamma[: lengths[b], :, b], seq)
    return total, (pi_acc, trans_acc, em_stats)


def _single_model_m_step(model, stats, cfg):
    """Normalized expected counts; a row or pi without evidence keeps its
    previous values, and maximize_oracle falls back to the previous emissions."""
    pi_acc, trans_acc, em_stats = stats
    new_pi = pi_acc / pi_acc.sum() if pi_acc.sum() > 0 else model.pi.copy()
    new_trans = model.trans.copy()
    for i in range(model.n_states):
        if trans_acc[i].sum() > 0:
            new_trans[i] = trans_acc[i] / trans_acc[i].sum()
    new_em = maximize_oracle(em_stats, cfg.smoothing, fallback=model.emissions)
    return Hmm(new_pi, new_trans, new_em, model.topology)


def baum_welch_oracle(init, data, cfg):
    """Single-model Baum-Welch with its own E-step, M-step and EM loop:
    the reference for training.baum_welch. Returns (model,
    loglik_trajectory, iterations_run, converged)."""
    model = init.copy()
    trajectory = []
    for it in range(cfg.max_iters):
        loglik, stats = _single_model_e_step(model, data)
        trajectory.append(loglik)
        if it > 0 and abs(loglik - trajectory[-2]) / (abs(loglik) + 1.0) < cfg.rel_tol:
            return model, trajectory, it, True
        model = _single_model_m_step(model, stats, cfg)
    trajectory.append(_single_model_e_step(model, data, stats_needed=False)[0])
    return model, trajectory, cfg.max_iters, False


def composed_e_step_oracle(models, chains, data, exit_prob, stats_needed=True):
    """The E-step of training._compile scoring every sequence on its composed model's
    stacked emissions: one log_density_seq call per sequence, written
    into a -inf padded (T, N, B) lattice per batch of equal state
    counts. Returns (total log likelihood, {key: (pi, trans, emission
    stats)} or None without stats)."""
    composed = {}
    for chain in dict.fromkeys(chains):
        model, offsets = compose_models([(key, models[key]) for key in chain], exit_prob)
        composed[chain] = (offsets, model.emissions, *model.log_params())
    batches = {}
    for i, chain in enumerate(chains):
        batches.setdefault(len(composed[chain][2]), []).append(i)
    logliks = np.empty(len(data))
    post = [None] * len(data)
    for batch in batches.values():
        entries = [composed[chains[i]] for i in batch]
        lengths = np.array([len(data[i]) for i in batch])
        logb = np.full((lengths.max(), len(entries[0][2]), len(batch)), LOG_ZERO)
        for b, (e, i) in enumerate(zip(entries, batch)):
            logb[: lengths[b], :, b] = log_density_seq(e[1], data[i])
        log_pi = np.stack([e[2] for e in entries], axis=-1)
        log_trans = np.stack([e[3] for e in entries], axis=-1)
        if not stats_needed:
            logliks[batch] = loglik_lattice(log_pi, log_trans, logb, lengths)
            continue
        logliks[batch], gamma, xi_sum = posteriors_lattice(log_pi, log_trans, logb, lengths)
        for b, i in enumerate(batch):
            post[i] = (gamma[: lengths[b], :, b], xi_sum[:, :, b])
    if np.any(logliks == LOG_ZERO):
        raise DegenerateModelError("sequences have zero likelihood under the models")
    total = math.fsum(logliks.tolist())
    if not stats_needed:
        return total, None
    accs = {}
    for chain, obs, (gamma, xi_sum) in zip(chains, data, post):
        offsets = composed[chain][0]
        for k, key in enumerate(chain):
            m = models[key]
            n = m.n_states
            if key not in accs:
                accs[key] = (np.zeros(n), np.zeros((n, n)), m.emissions.new_stats())
            pi_acc, trans_acc, em_stats = accs[key]
            off = offsets[k]
            rows = n if k == len(chain) - 1 else n - 1
            accumulate_seq(em_stats, gamma[:, off : off + n], obs)
            trans_acc[:rows] += xi_sum[off : off + rows, off : off + n]
            pi_acc += gamma[0, off : off + n] if k == 0 else xi_sum[off - 1, off : off + n]
    return total, accs


def tied_counts_oracle(models, chains, data, exit_prob):
    """Expected counts of every tied parameter, pooled over the sequences
    data[i] on the chains[i] of models[key], by enumerating the state
    paths of each chain with the composition wiring written out: the
    final state of a block before the chain's last loops with
    1 - exit_prob (a constant) and enters state j of the next block with
    exit_prob times that block's pi[j] (initial-state evidence for it).
    Returns {key: (pi counts, trans counts, emission stats)}.
    """
    counts = {}
    for chain in chains:
        for key in chain:
            m = models[key]
            counts.setdefault(
                key,
                (np.zeros(m.n_states), np.zeros((m.n_states, m.n_states)), m.emissions.new_stats()),
            )
    for chain, obs in zip(chains, data):
        states = [(k, i) for k, key in enumerate(chain) for i in range(models[key].n_states)]
        emit = [[log_density(models[chain[k]].emissions, i, x) for k, i in states] for x in obs]

        def step(a, b):
            """(probability, tied parameter or None) of the move a -> b."""
            (k, i), (l, j) = states[a], states[b]
            model = models[chain[k]]
            if i < model.n_states - 1 or k == len(chain) - 1:
                return (model.trans[i, j], (k, "trans", i, j)) if l == k else (0.0, None)
            if (l, j) == (k, i):
                return 1.0 - exit_prob, None
            if l == k + 1:
                return exit_prob * models[chain[l]].pi[j], (l, "pi", j)
            return 0.0, None

        weights = {}
        for path in all_paths(len(states), len(obs)):
            k0, i0 = states[path[0]]
            if k0 != 0 or models[chain[0]].pi[i0] == 0:
                continue
            logw = math.log(models[chain[0]].pi[i0]) + emit[0][path[0]]
            uses = [(0, "pi", i0)]
            for t in range(1, len(obs)):
                prob, param = step(path[t - 1], path[t])
                if prob == 0:
                    break
                logw += math.log(prob) + emit[t][path[t]]
                uses.append(param)
            else:
                weights[path] = (logw, uses)
        top = max(logw for logw, _ in weights.values())
        total = math.fsum(math.exp(logw - top) for logw, _ in weights.values())
        for path, (logw, uses) in weights.items():
            w = math.exp(logw - top) / total
            for param in filter(None, uses):
                pi, trans, _ = counts[chain[param[0]]]
                if param[1] == "pi":
                    pi[param[2]] += w
                else:
                    trans[param[2], param[3]] += w
            for t, s in enumerate(path):
                k, i = states[s]
                accumulate(counts[chain[k]][2], i, obs[t], w)
    return counts


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
        left = logsumexp(np.array(a_scores), axis=0) if a_scores else LOG_ZERO
        right = logsumexp(np.array(b_scores), axis=0) if b_scores else LOG_ZERO
        terms.append(left + log_exit + right)
    return logsumexp(np.array(terms), axis=0)


def segment_scores_oracle(unit, t0):
    """One entry frame's synced-decoder segment scores, frame by frame.

    Returns (exit_scores, last) for a unit entered at frame t0:
    exit_scores[t] is the best score of leaving the unit between t and
    t+1 (boundary log included), -inf before t0; last is the best
    unanchored score up to the last frame with the unit's final state
    absorbing. This is the recursion _Unit.segment_scores batches over
    every t0, unit and channel.
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


def per_unit_segment_scores(units):
    """Every frame's exits and the last() of parallel._Unit's recursion
    run as it was before the stack shared a column between the units of
    one channel and phoneme sequence: one column per (key, channel), the
    stack's distinct columns spread through units.index, stepped by the
    same code. Returns (exits, last), exits[t] the (t + 1, K, C) exit
    scores of frame t, for every frame of units.logb."""
    index = units.index
    log_pi = units.log_pi[:, index]
    band = tuple((o, w[:, index]) for o, w in units.band)
    logb_all = units.logb[:, :, index]
    n, final = len(log_pi), units.final
    delta_all, spare = np.empty((2, n) + logb_all.shape[:1] + index.shape)
    final_iso_all = np.empty(logb_all.shape[:1] + index.shape)
    steps = [
        (slice(max(-o, 0), n - max(o, 0)), slice(max(o, 0), n + min(o, 0)), w[:, None])
        for o, w in sorted(band, key=lambda ow: ow[0] != 0)
    ]
    exits = []
    for t in range(len(logb_all)):
        logb = logb_all[t]
        prev, delta, final_iso = delta_all[:, :t], spare[:, :t], final_iso_all[:t]
        (_, _, w), *rest = steps
        np.add(prev, w, out=delta)
        for src, dst, w in rest:
            cand, rows = prev[src] + w[dst], delta[dst]
            np.maximum(rows, cand, out=rows)
            if dst.stop > final:
                np.maximum(final_iso, cand[-1], out=final_iso)
        np.add(delta, logb[:, None], out=prev)
        np.add(final_iso, logb[final], out=final_iso)
        delta_all[:, t] = log_pi + logb
        final_iso_all[t] = delta_all[final, t]
        exits.append(delta_all[final, : t + 1] + units.log_exit)
    best_nf = delta_all[:final].max(axis=0) if final else LOG_ZERO
    return exits, np.maximum(best_nf, final_iso_all)


def best_entries_oracle(entry_scores, parts):
    """parallel._best_entries by brute force, without its rounding-error
    cut: per column k, every row i scored as entry_scores[i, k] +
    math.fsum(parts[i, k]). Returns one (best, rows) pair per column,
    the rows reaching the best in ascending order, or (None, []) if
    every row scores -inf."""
    results = []
    for k in range(entry_scores.shape[1]):
        scores = [
            float(entry) + math.fsum(row)
            for entry, row in zip(entry_scores[:, k].tolist(), parts[:, k].tolist())
        ]
        best = max(scores)
        if best == LOG_ZERO:
            results.append((None, []))
        else:
            results.append((best, [i for i, score in enumerate(scores) if score == best]))
    return results


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


def synced_unit(lexicon, channel, key, obs):
    """One channel's unit of the synced decoder, built on its own: the
    composed model of sign `key`'s phonemes (or of the epenthesis filler
    for EPS_UNIT) with its final self-loop repriced to 1 - exit_prob, and
    its (T, n) log densities of obs."""
    inv = lexicon.inventory(channel)
    pids = [inv.epenthesis] if key == EPS_UNIT else lexicon.signs[key].channels[channel]
    model, _ = compose_models([(pid, inv.phonemes[pid]) for pid in pids], lexicon.exit_prob)
    log_pi, log_trans = model.log_params()
    log_trans[-1, -1] = safe_log(1.0 - lexicon.exit_prob)
    return SimpleNamespace(
        n=model.n_states,
        final=model.n_states - 1,
        log_pi=log_pi,
        log_trans=log_trans,
        log_exit=float(safe_log(lexicon.exit_prob)),
        logb=log_density_seq(model.emissions, obs),
    )


def _token_key(token):
    score, signs, _ = token
    return (-score, len(signs), signs)


def _better(a, b):
    if a is None:
        return b
    return a if _token_key(a) <= _token_key(b) else b


def decode_synced_oracle(lexicon, mobs, beam_width):
    """The boundary-synced token search, one unit, channel and entry
    frame at a time.

    A token is (score, signs, segments). Every (unit, entry frame t0)
    pair is scored at every exit frame t as the entry token's score plus
    the math.fsum of the channels' segment_scores_oracle exits; the best
    token per unit and frame wins (higher score, then fewer signs, then
    smaller sign ids, then the earlier entry frame), and the beam keeps
    the best beam_width of them per frame. Each channel's score and path
    are rebuilt with segment_viterbi_oracle. This is the search
    parallel.decode_synced runs on one stacked recursion.
    """
    channels = lexicon.channels
    t_len = len(mobs.channels[channels[0]])
    use_eps = lexicon.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS
    sign_ids = sorted(lexicon.signs)
    keys = sign_ids + ([EPS_UNIT] if use_eps else [])
    units = {
        (key, ch): synced_unit(lexicon, ch, key, mobs.channels[ch])
        for key in keys
        for ch in channels
    }
    exits = {}
    lasts = {}
    for (key, ch), unit in units.items():
        for t0 in range(t_len):
            exits[key, ch, t0], lasts[key, ch, t0] = segment_scores_oracle(unit, t0)

    sign_entries = [(0.0, (), ())]
    eps_entries = [None]
    for t in range(t_len):
        cell = {}
        for key in keys:
            is_sign = key != EPS_UNIT
            entries = sign_entries if is_sign else eps_entries
            best = None
            for t0 in range(t + 1):
                if entries[t0] is None:
                    continue
                seg = math.fsum(exits[key, ch, t0][t] for ch in channels)
                if seg == LOG_ZERO:
                    continue
                score, signs, segments = entries[t0]
                best = _better(best, (
                    score + seg,
                    signs + ((key,) if is_sign else ()),
                    segments + ((key, t0, t),),
                ))
            if best is not None:
                cell[key] = best
        kept = sorted(cell.items(), key=lambda kv: _token_key(kv[1]) + (kv[0],))[:beam_width]
        sign_entry = eps_entry = None
        for key, token in kept:
            if use_eps and key != EPS_UNIT:
                eps_entry = _better(eps_entry, token)
            else:
                sign_entry = _better(sign_entry, token)
        sign_entries.append(sign_entry)
        eps_entries.append(eps_entry)

    best = None
    for key in sign_ids:
        for t0 in range(t_len):
            if sign_entries[t0] is None:
                continue
            tail = math.fsum(lasts[key, ch, t0] for ch in channels)
            if tail == LOG_ZERO:
                continue
            score, signs, segments = sign_entries[t0]
            best = _better(best, (score + tail, signs + (key,), segments + ((key, t0, t_len - 1),)))
    if best is None:
        raise NoFiniteHypothesisError("no synchronized hypothesis has finite score")

    _, signs, segments = best
    channel_scores = {}
    state_paths = {}
    for ch in channels:
        total, path, offset = 0.0, [], 0
        for k, (key, t0, t1) in enumerate(segments):
            unit = units[key, ch]
            score, seg_path = segment_viterbi_oracle(unit, t0, t1, k == len(segments) - 1)
            total += score
            path.extend(offset + s for s in seg_path)
            offset += unit.n
        channel_scores[ch] = total
        state_paths[ch] = path
    return Hypothesis.combine(signs, channel_scores, state_paths)


def decode_exhaustive_oracle(lexicon, mobs, max_signs):
    """The exhaustive decoder one candidate at a time: every sign
    sequence of 1..max_signs signs is scored on its own composed models
    with score_hypothesis, and the highest math.fsum total wins, ties
    going to the shorter, then lexicographically smaller sequence."""
    best_key = best = None
    for k in range(1, max_signs + 1):
        for signs in itertools.product(sorted(lexicon.signs), repeat=k):
            hyp = score_hypothesis(lexicon, signs, mobs)
            key = (-hyp.total, k, signs)
            if hyp.total != LOG_ZERO and (best_key is None or key < best_key):
                best_key, best = key, hyp
    if best is None:
        raise NoFiniteHypothesisError("all candidate hypotheses score -inf")
    return best


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


def sample_oracle(hmm, t_len, seed):
    """hmm.sample with one Generator.choice call per frame: the path's
    states first, then one symbol per frame (a Gaussian model draws its
    standard normals instead)."""
    rng = np.random.default_rng(seed)
    n = hmm.n_states
    path = np.empty(t_len, dtype=np.intp)
    path[0] = rng.choice(n, p=hmm.pi)
    for t in range(1, t_len):
        path[t] = rng.choice(n, p=hmm.trans[path[t - 1]])
    em = hmm.emissions
    if isinstance(em, DiscreteEmission):
        obs = np.empty(t_len, dtype=np.intp)
        for t, s in enumerate(path):
            obs[t] = rng.choice(em.alphabet_size, p=em.probs[s])
    else:
        obs = em.means[path] + np.sqrt(em.variances[path]) * rng.standard_normal((t_len, em.dim))
    return obs, [int(s) for s in path]

