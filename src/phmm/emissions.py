"""Per-state emission densities: discrete categorical and diagonal Gaussian.

Only this module knows the emission kind. Each emission class owns its
invariants (validate), checking and scoring observations (check,
log_density), fresh statistics (new_stats), sampling a state path's
observations and channel noise (sample, add_noise), stacking composed
blocks (stack), the lexicon's per-channel signature, its JSON form
(to_json; from_json reads any kind) and data-driven initial parameters
(initial). Each statistics class owns its accumulate and M-step
(maximize). Gaussian covariance is diagonal only; variances are floored
at VAR_FLOOR by the M-step. log_density_seq is read-only and safe to
call concurrently; statistics accumulators are single-writer.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyStateError,
    FileFormatError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonStochasticRowError,
    ValidationError,
    VariantMismatchError,
)
from .logmath import safe_log

VAR_FLOOR = 1e-6
STOCH_TOL = 1e-12

LOG_TWO_PI = float(np.log(2.0 * np.pi))


def jitter(rng, shape):
    """Seeded multiplicative noise in [0.9, 1.1] from rng, or ones when
    rng is None (the deterministic flat start)."""
    return np.ones(shape) if rng is None else rng.uniform(0.9, 1.1, size=shape)


def _empty_rows(total, smoothing, fallback):
    """Mask of the states with zero total weight. EmptyStateError names
    the first of them when neither smoothing nor a fallback fills it."""
    empty = total <= 0
    if fallback is None and smoothing <= 0 and empty.any():
        raise EmptyStateError(int(np.argmax(empty)))
    return empty


class _Emission:
    """What the emission classes share: every dataclass field is a float
    array with one row per state, and kind names the class in JSON."""

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=float))

    @property
    def n_states(self):
        return len(getattr(self, fields(self)[0].name))

    def copy(self):
        return type(self)(*(arr.copy() for arr in vars(self).values()))

    def check_rank(self):
        """Raise DimensionMismatchError unless every field is 2-d."""
        for name, arr in vars(self).items():
            if arr.ndim != 2:
                raise DimensionMismatchError(
                    f"emission {name} has shape {arr.shape}, expected a 2-d array"
                )

    @classmethod
    def stack(cls, parts):
        """The emissions of blocks composed in order: their rows stacked."""
        return cls(*(np.vstack([getattr(p, f.name) for p in parts]) for f in fields(cls)))

    def to_json(self):
        return {"kind": self.kind, **{name: arr.tolist() for name, arr in vars(self).items()}}

    @classmethod
    def from_json(cls, data):
        return cls(*(data[f.name] for f in fields(cls)))


@dataclass
class DiscreteEmission(_Emission):
    """Categorical output distribution per state.

    probs is an (n_states, alphabet_size) row-stochastic matrix.
    """

    probs: np.ndarray
    kind = "discrete"

    @property
    def alphabet_size(self):
        return self.probs.shape[1]

    def validate(self):
        self.check_rank()
        check_finite("emission probs", self.probs)
        if np.any(self.probs < 0):
            raise NegativeEntryError("emission probs", float(self.probs.min()))
        sums = self.probs.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > STOCH_TOL)[0]
        if bad.size:
            i = int(bad[0])
            raise NonStochasticRowError("emission row", i, float(sums[i]))

    def check(self, obs):
        """obs as an integer array of shape (T,) with symbols in the
        alphabet; a ValidationError subclass otherwise."""
        seq = np.asarray(obs)
        if seq.ndim != 1:
            raise VariantMismatchError("discrete model expects a 1-d symbol sequence")
        if seq.size and not np.issubdtype(seq.dtype, np.integer):
            raise VariantMismatchError(
                f"discrete model expects integer symbols, got dtype {seq.dtype}"
            )
        if seq.size and (seq.min() < 0 or seq.max() >= self.alphabet_size):
            raise DimensionMismatchError(
                f"symbol out of range for alphabet size {self.alphabet_size}"
            )
        return seq

    def log_density(self, seq):
        return safe_log(self.probs[:, seq]).T

    def new_stats(self):
        return DiscreteStats(np.zeros_like(self.probs))

    def sample(self, path, rng):
        obs = np.empty(len(path), dtype=np.intp)
        for t, s in enumerate(path):
            obs[t] = rng.choice(self.alphabet_size, p=self.probs[s])
        return obs

    def add_noise(self, obs, noise, rng):
        """Each symbol replaced, with probability noise, by a uniformly
        random other symbol."""
        if noise > 1:
            raise ValidationError(f"noise rate {noise!r} of a discrete channel exceeds 1")
        alphabet = self.alphabet_size
        out = np.array(obs, dtype=np.intp)
        hits = rng.uniform(size=out.shape[0]) < noise
        for t in np.where(hits)[0]:
            shift = int(rng.integers(1, alphabet))
            out[t] = (out[t] + shift) % alphabet
        return out

    def signature(self):
        return (self.kind, self.alphabet_size)

    def initial(self, data, rng):
        """Every state's row at the symbol frequencies of data (checked
        sequences with at least one frame), times jitter(rng)."""
        counts = np.zeros(self.alphabet_size)
        for seq in data:
            np.add.at(counts, seq, 1.0)
        probs = counts / counts.sum() * jitter(rng, self.probs.shape)
        return DiscreteEmission(probs / probs.sum(axis=1, keepdims=True))


@dataclass
class GaussianEmission(_Emission):
    """Diagonal-covariance Gaussian output density per state.

    means and variances are (n_states, dim) arrays.
    """

    means: np.ndarray
    variances: np.ndarray
    kind = "gaussian"

    @property
    def dim(self):
        return self.means.shape[1]

    def validate(self):
        self.check_rank()
        if self.means.shape != self.variances.shape:
            raise DimensionMismatchError("means and variances shapes differ")
        check_finite("emission means", self.means)
        check_finite("emission variances", self.variances)
        if np.any(self.variances < VAR_FLOOR):
            raise NegativeEntryError(
                "emission variance below floor", float(self.variances.min())
            )

    def check(self, obs):
        """obs as a finite float array of shape (T, dim); a
        ValidationError subclass otherwise."""
        seq = np.asarray(obs, dtype=float)
        if seq.ndim != 2 or seq.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected (T, {self.dim}) observation array, got {seq.shape}"
            )
        check_finite("observations", seq)
        return seq

    def log_density(self, seq):
        diff = seq[:, None, :] - self.means[None, :, :]
        quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        const = self.dim * LOG_TWO_PI + np.sum(np.log(self.variances), axis=1)
        return -0.5 * (quad + const[None, :])

    def new_stats(self):
        return GaussianStats(
            np.zeros(self.n_states), np.zeros_like(self.means), np.zeros_like(self.means)
        )

    def sample(self, path, rng):
        return self.means[path] + np.sqrt(self.variances[path]) * rng.standard_normal(
            (len(path), self.dim)
        )

    def add_noise(self, obs, noise, rng):
        """Additive Gaussian noise of standard deviation noise."""
        return np.asarray(obs, dtype=float) + noise * rng.standard_normal(np.shape(obs))

    def signature(self):
        return (self.kind, self.dim)

    def initial(self, data, rng):
        """Every state at the global variance of data (checked sequences
        with at least one frame) and the global mean plus half a standard
        deviation times uniform draws in [-1, 1], or without rng a ladder."""
        stacked = np.vstack(data)
        mean = stacked.mean(axis=0)
        var = np.maximum(stacked.var(axis=0), VAR_FLOOR)
        n, dim = self.means.shape
        if rng is not None:
            offsets = rng.uniform(-1.0, 1.0, size=(n, dim))
        else:
            ladder = np.linspace(-1.0, 1.0, n) if n > 1 else np.zeros(1)
            offsets = np.tile(ladder[:, None], (1, dim))
        means = mean[None, :] + 0.5 * np.sqrt(var)[None, :] * offsets
        return GaussianEmission(means, np.tile(var[None, :], (n, 1)))


KINDS = {cls.kind: cls for cls in (DiscreteEmission, GaussianEmission)}


def from_json(data):
    """The emission model of a JSON object written by to_json."""
    kind = data.get("kind")
    if kind not in KINDS:
        raise FileFormatError(f"unknown emission kind {kind!r}")
    return KINDS[kind].from_json(data)


def check_finite(which, arr):
    """Raise NonFiniteEntryError if arr holds a NaN or an infinity."""
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise NonFiniteEntryError(which, float(arr[bad][0]))


def validate_emission(em):
    """Check emission-model invariants; raises ValidationError subclasses."""
    if not isinstance(em, _Emission):
        raise VariantMismatchError(f"unknown emission model {type(em)!r}")
    em.validate()


def log_density_seq(em, obs):
    """(T, n_states) matrix of log densities for a whole observation
    sequence, checked with em.check first."""
    return em.log_density(em.check(obs))


@dataclass
class DiscreteStats:
    """Expected symbol counts per state."""

    counts: np.ndarray

    def accumulate(self, gamma, obs):
        np.add.at(self.counts.T, np.asarray(obs), gamma)

    def maximize(self, smoothing, fallback):
        counts = self.counts
        total = counts.sum(axis=1)
        empty = _empty_rows(total, smoothing, fallback)
        denom = total + counts.shape[1] * smoothing
        if fallback is None:
            return DiscreteEmission((counts + smoothing) / denom[:, None])
        rows = (counts + smoothing) / np.where(empty, 1.0, denom)[:, None]
        return DiscreteEmission(np.where(empty[:, None], fallback.probs, rows))


@dataclass
class GaussianStats:
    """Weighted first and second moments per state."""

    weight: np.ndarray
    wsum: np.ndarray
    wsq: np.ndarray

    def accumulate(self, gamma, obs):
        seq = np.asarray(obs, dtype=float)
        self.weight += gamma.sum(axis=0)
        self.wsum += gamma.T @ seq
        self.wsq += gamma.T @ (seq * seq)

    def maximize(self, smoothing, fallback):
        empty = _empty_rows(self.weight, smoothing, fallback)[:, None]
        w = np.where(empty, 1.0, self.weight[:, None])
        means = self.wsum / w
        var = np.maximum(self.wsq / w - means**2, VAR_FLOOR)
        fill = (0.0, 1.0) if fallback is None else (fallback.means, fallback.variances)
        return GaussianEmission(np.where(empty, fill[0], means), np.where(empty, fill[1], var))


def accumulate_seq(stats, gamma, obs):
    """Vectorized accumulation of a whole sequence with per-frame weights.

    gamma is a (T, n_states) matrix of posterior weights.
    """
    stats.accumulate(gamma, obs)
    return stats


def maximize(stats, smoothing=0.0, fallback=None):
    """Closed-form M-step from accumulated statistics.

    Discrete rows become (count + smoothing) normalized; Gaussian states
    get weighted mean and variance with the variance floor applied.
    States with zero total weight raise EmptyStateError unless a
    fallback model supplies their previous parameters or smoothing is
    positive (Gaussian states then get mean 0 and variance 1).
    """
    return stats.maximize(smoothing, fallback)
