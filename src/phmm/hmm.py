"""Single-channel HMM: representation, validation and exact inference.

Forward, backward and Viterbi all run in log space via the conventions
in logmath; there are no probability-domain scaling coefficients. A
model is immutable during inference and safe to share across threads;
construction and training updates are single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import emissions as em
from .errors import (
    AllPathsZeroError,
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
    em.check_finite("pi", hmm.pi)
    if np.any(hmm.pi < 0):
        raise NegativeEntryError("pi", float(hmm.pi.min()))
    total = hmm.pi.sum()
    if abs(total - 1.0) > STOCH_TOL:
        raise NonStochasticRowError("pi", None, float(total))
    if hmm.trans.shape != (hmm.n_states, hmm.n_states):
        raise NonStochasticRowError("trans shape", None, float("nan"))
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
        raise NonStochasticRowError("emission state count", None, float("nan"))


def _obs_length(hmm, obs):
    logb = em.log_density_seq(hmm.emissions, obs)
    if logb.shape[0] == 0:
        raise EmptyObservationError("empty observation sequence")
    return logb


def forward_lattice(log_pi, log_trans, logb):
    """Forward recursion on explicit log parameters.

    Returns (loglik, alpha) where alpha[t][i] = log P(o_1..o_t, q_t = i).
    """
    t_len, n = logb.shape
    alpha = np.empty((t_len, n))
    alpha[0] = log_pi + logb[0]
    for t in range(1, t_len):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_trans, axis=0) + logb[t]
    return float(logsumexp(alpha[-1])), alpha


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
    e = hmm.emissions
    if isinstance(e, em.DiscreteEmission):
        obs = np.empty(t_len, dtype=np.intp)
        for t in range(t_len):
            obs[t] = rng.choice(e.alphabet_size, p=e.probs[path[t]])
    else:
        obs = np.empty((t_len, e.dim))
        for t in range(t_len):
            s = path[t]
            obs[t] = e.means[s] + np.sqrt(e.variances[s]) * rng.standard_normal(e.dim)
    return obs, [int(s) for s in path]


def posteriors(hmm, obs):
    """E-step quantities for one sequence.

    Returns (loglik, gamma, xi_sum, logb) where gamma is the (T, N)
    state posterior matrix and xi_sum the (N, N) expected transition
    counts summed over time. loglik of -inf yields no posteriors.
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    loglik, alpha = forward_lattice(log_pi, log_trans, logb)
    if loglik == LOG_ZERO:
        return loglik, None, None, logb
    beta = backward_lattice(log_trans, logb)
    gamma = np.exp(alpha + beta - loglik)
    t_len, n = logb.shape
    xi_sum = np.zeros((n, n))
    for t in range(t_len - 1):
        xi_sum += np.exp(
            alpha[t][:, None] + log_trans + (logb[t + 1] + beta[t + 1])[None, :] - loglik
        )
    return loglik, gamma, xi_sum, logb
