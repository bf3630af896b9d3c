"""Per-state emission densities: discrete categorical and diagonal Gaussian.

Both variants expose log-density evaluation, sufficient-statistics
accumulation for EM, and a closed-form M-step. Gaussian covariance is
diagonal only; variances are floored at VAR_FLOOR by the M-step.

log_density is read-only and safe to call concurrently; statistics
accumulators are single-writer. Parallel E-steps must keep one stats
object per worker and combine them with merge_stats in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyStateError,
    NegativeEntryError,
    NegativeWeightError,
    NonFiniteEntryError,
    NonStochasticRowError,
    StateOutOfRangeError,
    VariantMismatchError,
)
from .logmath import safe_log

VAR_FLOOR = 1e-6
STOCH_TOL = 1e-12

LOG_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass
class DiscreteEmission:
    """Categorical output distribution per state.

    probs is an (n_states, alphabet_size) row-stochastic matrix.
    """

    probs: np.ndarray
    kind = "discrete"

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)

    @property
    def n_states(self):
        return self.probs.shape[0]

    @property
    def alphabet_size(self):
        return self.probs.shape[1]

    def copy(self):
        return DiscreteEmission(self.probs.copy())


@dataclass
class GaussianEmission:
    """Diagonal-covariance Gaussian output density per state.

    means and variances are (n_states, dim) arrays.
    """

    means: np.ndarray
    variances: np.ndarray
    kind = "gaussian"

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)

    @property
    def n_states(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]

    def copy(self):
        return GaussianEmission(self.means.copy(), self.variances.copy())


def check_finite(which, arr):
    """Raise NonFiniteEntryError if arr holds a NaN or an infinity."""
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise NonFiniteEntryError(which, float(arr[bad][0]))


def validate_emission(em):
    """Check emission-model invariants; raises ValidationError subclasses."""
    if isinstance(em, DiscreteEmission):
        check_finite("emission probs", em.probs)
        if np.any(em.probs < 0):
            raise NegativeEntryError("emission probs", float(em.probs.min()))
        sums = em.probs.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > STOCH_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise NonStochasticRowError("emission row", i, float(sums[i]))
    elif isinstance(em, GaussianEmission):
        if em.means.shape != em.variances.shape:
            raise DimensionMismatchError("means and variances shapes differ")
        check_finite("emission means", em.means)
        check_finite("emission variances", em.variances)
        if np.any(em.variances < VAR_FLOOR):
            raise NegativeEntryError(
                "emission variance below floor", float(em.variances.min())
            )
    else:
        raise VariantMismatchError(f"unknown emission model {type(em)!r}")


def _check_state(em, state):
    if not 0 <= state < em.n_states:
        raise StateOutOfRangeError(state, em.n_states)


def log_density(em, state, x):
    """Log output density of observation x at one state.

    Discrete: log of the table entry (exactly -inf for zero entries).
    Gaussian: exact diagonal-Gaussian log density.
    """
    _check_state(em, state)
    if isinstance(em, DiscreteEmission):
        sym = _check_symbol(em, x)
        return float(safe_log(em.probs[state, sym]))
    if isinstance(em, GaussianEmission):
        v = _check_vector(em, x)
        var = em.variances[state]
        diff = v - em.means[state]
        return float(
            -0.5 * (em.dim * LOG_TWO_PI + np.sum(np.log(var)) + np.sum(diff * diff / var))
        )
    raise VariantMismatchError(f"unknown emission model {type(em)!r}")


def log_density_seq(em, obs):
    """(T, n_states) matrix of log densities for a whole observation sequence.

    Discrete sequences are int arrays of shape (T,), Gaussian sequences
    float arrays of shape (T, dim).
    """
    if isinstance(em, DiscreteEmission):
        seq = np.asarray(obs)
        if seq.ndim != 1:
            raise VariantMismatchError("discrete model expects a 1-d symbol sequence")
        if seq.size and (seq.min() < 0 or seq.max() >= em.alphabet_size):
            raise DimensionMismatchError(
                f"symbol out of range for alphabet size {em.alphabet_size}"
            )
        return safe_log(em.probs[:, seq]).T
    if isinstance(em, GaussianEmission):
        seq = np.asarray(obs, dtype=float)
        if seq.ndim != 2 or seq.shape[1] != em.dim:
            raise DimensionMismatchError(
                f"expected (T, {em.dim}) observation array, got {seq.shape}"
            )
        diff = seq[:, None, :] - em.means[None, :, :]
        quad = np.sum(diff * diff / em.variances[None, :, :], axis=2)
        const = em.dim * LOG_TWO_PI + np.sum(np.log(em.variances), axis=1)
        return -0.5 * (quad + const[None, :])
    raise VariantMismatchError(f"unknown emission model {type(em)!r}")


def _check_symbol(em, x):
    if np.ndim(x) != 0:
        raise VariantMismatchError("discrete model expects a scalar symbol id")
    sym = int(x)
    if not 0 <= sym < em.alphabet_size:
        raise DimensionMismatchError(
            f"symbol {sym} out of range for alphabet size {em.alphabet_size}"
        )
    return sym


def _check_vector(em, x):
    if np.ndim(x) == 0:
        raise VariantMismatchError("gaussian model expects a feature vector")
    v = np.asarray(x, dtype=float)
    if v.shape != (em.dim,):
        raise DimensionMismatchError(
            f"expected observation of dimension {em.dim}, got shape {v.shape}"
        )
    return v


@dataclass
class DiscreteStats:
    """Expected symbol counts per state."""

    counts: np.ndarray

    @classmethod
    def zeros(cls, n_states, alphabet_size):
        return cls(np.zeros((n_states, alphabet_size)))


@dataclass
class GaussianStats:
    """Weighted first and second moments per state."""

    weight: np.ndarray
    wsum: np.ndarray
    wsq: np.ndarray

    @classmethod
    def zeros(cls, n_states, dim):
        return cls(
            np.zeros(n_states), np.zeros((n_states, dim)), np.zeros((n_states, dim))
        )


def new_stats(em):
    """Fresh zeroed sufficient statistics matching an emission model."""
    if isinstance(em, DiscreteEmission):
        return DiscreteStats.zeros(em.n_states, em.alphabet_size)
    if isinstance(em, GaussianEmission):
        return GaussianStats.zeros(em.n_states, em.dim)
    raise VariantMismatchError(f"unknown emission model {type(em)!r}")


def accumulate(stats, state, x, weight):
    """Add one weighted observation to the statistics, in place.

    weight is a posterior probability in [0, 1] (a small positive
    tolerance above 1 is accepted for float slack).
    """
    if weight < 0:
        raise NegativeWeightError(weight)
    if isinstance(stats, DiscreteStats):
        stats.counts[state, int(x)] += weight
    elif isinstance(stats, GaussianStats):
        v = np.asarray(x, dtype=float)
        stats.weight[state] += weight
        stats.wsum[state] += weight * v
        stats.wsq[state] += weight * v * v
    else:
        raise VariantMismatchError(f"unknown stats {type(stats)!r}")
    return stats


def accumulate_seq(stats, gamma, obs):
    """Vectorized accumulation of a whole sequence with per-frame weights.

    gamma is a (T, n_states) matrix of posterior weights.
    """
    if isinstance(stats, DiscreteStats):
        seq = np.asarray(obs)
        np.add.at(stats.counts.T, seq, gamma)
    elif isinstance(stats, GaussianStats):
        seq = np.asarray(obs, dtype=float)
        stats.weight += gamma.sum(axis=0)
        stats.wsum += gamma.T @ seq
        stats.wsq += gamma.T @ (seq * seq)
    else:
        raise VariantMismatchError(f"unknown stats {type(stats)!r}")
    return stats


def merge_stats(into, other):
    """Merge two accumulators of the same variant (deterministic reduction)."""
    if isinstance(into, DiscreteStats):
        into.counts += other.counts
    else:
        into.weight += other.weight
        into.wsum += other.wsum
        into.wsq += other.wsq
    return into


def maximize(stats, smoothing=0.0, fallback=None):
    """Closed-form M-step from accumulated statistics.

    Discrete rows become (count + smoothing) normalized; Gaussian states
    get weighted mean and variance with the variance floor applied.
    States with zero total weight raise EmptyStateError unless smoothing
    is positive (discrete) or a fallback model supplies their previous
    parameters.
    """
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
    if isinstance(stats, GaussianStats):
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
    raise VariantMismatchError(f"unknown stats {type(stats)!r}")
