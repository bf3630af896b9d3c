"""Single-channel HMM: representation, validation and exact inference.

Forward, backward and Viterbi all run in log space via the conventions
in logmath; there are no probability-domain scaling coefficients. A
model is immutable during inference and safe to share across threads;
construction and training updates are single-writer.

The lattice kernels take explicit log parameters and may score a batch
of models and sequences at once, the batch on the innermost axis:
viterbi_score_lattice for the decoders, forward_lattice and
posteriors_lattice for the training E-step.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import emissions as em
from .errors import (
    AllPathsZeroError,
    DimensionMismatchError,
    EmptyObservationError,
    NegativeEntryError,
    NonStochasticRowError,
    TopologyViolationError,
)
from .logmath import LOG_ZERO, logsumexp, safe_log

STOCH_TOL = 1e-12


class Topology(str, Enum):
    ERGODIC = "ergodic"
    LEFT_TO_RIGHT = "left_to_right"


@dataclass
class Hmm:
    """A phoneme-level hidden Markov model.

    pi is the initial state distribution, trans the row-stochastic
    transition matrix, emissions the per-state output model. A
    left_to_right topology allows only self-loops and single forward
    steps (Bakis), which forces the final state to be absorbing.
    """

    pi: np.ndarray
    trans: np.ndarray
    emissions: object
    topology: Topology = Topology.ERGODIC

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        self.topology = Topology(self.topology)

    @property
    def n_states(self):
        return self.pi.shape[0]

    def copy(self):
        return Hmm(self.pi.copy(), self.trans.copy(), self.emissions.copy(), self.topology)

    def log_params(self):
        """(log pi, log trans) with zeros mapped to -inf."""
        return safe_log(self.pi), safe_log(self.trans)


def validate(hmm):
    """Check all Hmm invariants; raises a ValidationError subclass on failure."""
    if hmm.pi.ndim != 1:
        raise DimensionMismatchError(f"pi has shape {hmm.pi.shape}, expected a vector")
    em.check_finite("pi", hmm.pi)
    if np.any(hmm.pi < 0):
        raise NegativeEntryError("pi", float(hmm.pi.min()))
    total = hmm.pi.sum()
    if abs(total - 1.0) > STOCH_TOL:
        raise NonStochasticRowError("pi", None, float(total))
    if hmm.trans.shape != (hmm.n_states, hmm.n_states):
        raise DimensionMismatchError(
            f"trans has shape {hmm.trans.shape}, expected {(hmm.n_states, hmm.n_states)}"
        )
    em.check_finite("trans", hmm.trans)
    if np.any(hmm.trans < 0):
        raise NegativeEntryError("trans", float(hmm.trans.min()))
    sums = hmm.trans.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > STOCH_TOL)[0]
    if bad.size:
        i = int(bad[0])
        raise NonStochasticRowError("trans row", i, float(sums[i]))
    if hmm.topology is Topology.LEFT_TO_RIGHT:
        n = hmm.n_states
        for i in range(n):
            for j in range(n):
                if (j < i or j > i + 1) and hmm.trans[i, j] != 0.0:
                    raise TopologyViolationError(i, j, float(hmm.trans[i, j]))
    em.validate_emission(hmm.emissions)
    if hmm.emissions.n_states != hmm.n_states:
        raise DimensionMismatchError(
            f"emissions have {hmm.emissions.n_states} states, expected {hmm.n_states}"
            f" (pi has shape {hmm.pi.shape})"
        )


def _obs_length(hmm, obs):
    logb = em.log_density_seq(hmm.emissions, obs)
    if logb.shape[0] == 0:
        raise EmptyObservationError("empty observation sequence")
    return logb


def forward_lattice(log_pi, log_trans, logb, lengths=None):
    """Forward recursion on explicit log parameters.

    Returns (loglik, alpha) where alpha[t][i] = log P(o_1..o_t, q_t = i).
    log_pi (N, B), log_trans (N, N, B) and logb (T, N, B) may carry a
    trailing batch axis, one model and sequence per entry, as in
    viterbi_score_lattice; loglik is then a (B,) array. lengths (B,)
    holds each entry's frame count: its loglik is read at frame
    lengths[b] - 1, and later frames of alpha are meaningless.
    """
    t_len = logb.shape[0]
    alpha = np.empty((t_len,) + np.broadcast_shapes(np.shape(log_pi), logb.shape[1:]))
    alpha[0] = log_pi + logb[0]
    for t in range(1, t_len):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_trans, axis=0) + logb[t]
    if lengths is None:
        last = alpha[-1]
    else:
        last = np.take_along_axis(alpha, np.reshape(lengths, (1, 1, -1)) - 1, axis=0)[0]
    loglik = logsumexp(last, axis=0)
    return (float(loglik) if loglik.ndim == 0 else loglik), alpha


def backward_lattice(log_trans, logb):
    """Backward recursion: beta[t][i] = log P(o_{t+1}..o_T | q_t = i)."""
    t_len, n = logb.shape
    beta = np.empty((t_len, n))
    beta[-1] = 0.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(log_trans + (logb[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def viterbi_score_lattice(log_pi, log_trans, logb, columns=None):
    """Best-path score without backtracking bookkeeping.

    log_pi (N, ...) and log_trans (N, N, ...) may carry trailing batch
    axes, one model per batch entry; the result is then an array over
    those axes instead of a float. The batch is the innermost axis so
    that every step runs over contiguous memory. Without columns, logb
    is the (T, N) log-density lattice. With columns, an integer array
    shaped like log_pi, state i of batch entry b emits logb[t, columns[i, b]],
    so one (T, S) table serves every model built from the same S states.
    -inf padding in log_pi, log_trans and the gathered logb never wins a
    max, so a padded model scores exactly as its unpadded self.
    """

    def frame(t):
        return logb[t] if columns is None else logb[t][columns]

    delta = log_pi + frame(0)
    for t in range(1, logb.shape[0]):
        delta = np.max(delta[:, None] + log_trans, axis=0) + frame(t)
    best = np.max(delta, axis=0)
    return float(best) if best.ndim == 0 else best


def viterbi_lattice(log_pi, log_trans, logb):
    """Max-product recursion with deterministic backtracking.

    Ties are broken toward the lowest predecessor state index at every
    backtrack step (np.argmax returns the first maximizer).
    """
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


def forward(hmm, obs):
    """Log likelihood of obs plus the full alpha lattice.

    Returns (loglik, alpha) with loglik = log sum over all state paths
    of P(path, obs | hmm).
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    return forward_lattice(log_pi, log_trans, logb)


def backward(hmm, obs):
    """Beta lattice; logsumexp_i(alpha[t][i] + beta[t][i]) is constant in t."""
    logb = _obs_length(hmm, obs)
    _, log_trans = hmm.log_params()
    return backward_lattice(log_trans, logb)


def viterbi(hmm, obs):
    """Best state path and its joint log score.

    Raises AllPathsZeroError when no path has nonzero probability; a
    path is never fabricated in that case.
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    score, path = viterbi_lattice(log_pi, log_trans, logb)
    if score == LOG_ZERO:
        raise AllPathsZeroError()
    return [int(s) for s in path], score


def sample(hmm, t_len, seed):
    """Draw (observations, state path) of length t_len.

    seed may be an int or a numpy Generator; a fixed int seed gives
    identical output on every call.
    """
    if t_len < 1:
        raise EmptyObservationError("t_len must be >= 1")
    rng = np.random.default_rng(seed)
    n = hmm.n_states
    path = np.empty(t_len, dtype=np.intp)
    path[0] = rng.choice(n, p=hmm.pi)
    for t in range(1, t_len):
        path[t] = rng.choice(n, p=hmm.trans[path[t - 1]])
    return hmm.emissions.sample(path, rng), [int(s) for s in path]


def posteriors_lattice(log_pi, log_trans, logb, lengths):
    """Batched E-step: forward-backward over B sequences at once.

    log_pi (N, B), log_trans (N, N, B) and logb (T, N, B) hold one model
    and one padded sequence per batch entry (the batch axes of the
    parameters may be 1 to share one model); lengths (B,) holds each
    entry's frame count. Returns (loglik (B,), gamma (T, N, B),
    xi_sum (N, N, B)): gamma[t, :, b] is entry b's state posterior at
    frame t (0 at and after lengths[b]) and xi_sum[:, :, b] its
    expected transition counts summed over time.

    No beta lattice is kept: the backward sweep carries one beta row,
    adds each frame's expected transitions to xi_sum and overwrites
    alpha[t] with gamma[t] once alpha[t] is no longer needed. Frames at
    or after an entry's length are masked with np.where: whatever logb
    holds there never enters a sum. An entry with loglik -inf has
    meaningless posteriors.
    """
    loglik, alpha = forward_lattice(log_pi, log_trans, logb, lengths)
    # Zero-likelihood entries divide by 1 instead of 0; callers skip them.
    norm = np.where(loglik == LOG_ZERO, 0.0, loglik)
    beta = np.zeros(alpha.shape[1:])
    xi_sum = np.zeros(alpha.shape[1:2] + alpha.shape[1:])
    for t in range(logb.shape[0] - 2, -1, -1):
        live = t + 1 < lengths
        inner = log_trans + (logb[t + 1] + beta)[None]
        xi_sum += np.where(live, np.exp(alpha[t][:, None] + inner - norm), 0.0)
        alpha[t + 1] = np.where(live, np.exp(alpha[t + 1] + beta - norm), 0.0)
        beta = np.where(live, logsumexp(inner, axis=1), 0.0)
    alpha[0] = np.exp(alpha[0] + beta - norm)
    return loglik, alpha, xi_sum


def posteriors(hmm, obs):
    """E-step quantities for one sequence: posteriors_lattice with B = 1.

    Returns (loglik, gamma, xi_sum, logb) where gamma is the (T, N)
    state posterior matrix and xi_sum the (N, N) expected transition
    counts summed over time. loglik of -inf yields no posteriors.
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    loglik, gamma, xi_sum = posteriors_lattice(
        log_pi[:, None], log_trans[:, :, None], logb[:, :, None], np.array([len(logb)])
    )
    if loglik[0] == LOG_ZERO:
        return LOG_ZERO, None, None, logb
    return float(loglik[0]), gamma[:, :, 0], xi_sum[:, :, 0], logb
