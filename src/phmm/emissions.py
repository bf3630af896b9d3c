"""Per-state emission densities: discrete categorical and diagonal Gaussian.

Only this module knows the emission kind. Each emission class owns its
invariants (validate), checking and scoring observations (check,
table), fresh statistics (new_stats), summing weighted observations
into them (scatter), sampling a state path's observations and channel
noise (sample, add_noise), stacking composed blocks (stack), the
lexicon's per-channel signature, its JSON form (to_json; from_json
reads any kind) and data-driven initial parameters (initial). Each
statistics class owns its accumulate, its M-step (maximize) and views
of its rows (rows). Sums add one term at a time in the order given, as
a scalar loop does. Gaussian covariance is diagonal only; variances
are floored at VAR_FLOOR by the M-step. Tables are read-only and safe
to call concurrently; statistics accumulators are single-writer.
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
from .logmath import LOG_ZERO, safe_log

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
        return len(next(iter(vars(self).values())))

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
        return cls(*(json_numbers(f.name, data[f.name]) for f in fields(cls)))


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
        check_stochastic("emission probs", self.probs, "emission row")

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
        return seq if seq.size else seq.astype(int)

    def table(self):
        """lookup(obs): the (T, S + 1) log densities of obs, checked, under
        the S states, then a -inf column: one row gather from the log of
        every symbol under every state, taken here once."""
        logs = np.full((self.alphabet_size, self.n_states + 1), LOG_ZERO)
        logs[:, :-1] = safe_log(self.probs).T
        return lambda obs: logs[self.check(obs)]

    def new_stats(self):
        return DiscreteStats(np.zeros_like(self.probs))

    def sample(self, path, rng):
        """The symbols of a state path: one rng.random() draw per frame,
        each the first symbol whose entry of its state's row_cdf exceeds
        it, which is what Generator.choice(alphabet, p=row) draws and
        returns. probs is validated first."""
        self.validate()
        u = rng.random(len(path))
        return np.sum(row_cdf(self.probs)[path] <= u[:, None], axis=1, dtype=np.intp)

    def add_noise(self, obs, noise, rng):
        """Each symbol replaced, with probability noise, by a uniformly
        random other symbol. A one-symbol alphabet has no other symbol:
        its symbols stay, after the same hit draws."""
        if noise > 1:
            raise ValidationError(f"noise rate {noise!r} of a discrete channel exceeds 1")
        alphabet = self.alphabet_size
        out = np.array(obs, dtype=np.intp)
        hits = rng.uniform(size=out.shape[0]) < noise
        if alphabet == 1:
            return out
        # One scalar integers() call per hit: an array call would take
        # its values from halves of shared 64-bit draws, another stream.
        for t in np.where(hits)[0]:
            shift = int(rng.integers(1, alphabet))
            out[t] = (out[t] + shift) % alphabet
        return out

    def signature(self):
        return (self.kind, self.alphabet_size)

    def scatter(self, states, obs):
        """collect(weights): the statistics of these states from
        weights[i] of state states[i] observing symbol obs[i], one
        np.bincount into the (state, symbol) cells, each receiving its
        terms in index order. The cells are computed here, once, as the
        intp indices np.bincount would otherwise convert them to."""
        cells = np.asarray(states, dtype=np.intp) * self.alphabet_size
        cells += np.asarray(obs, dtype=np.intp)
        return lambda weights: DiscreteStats(
            np.bincount(cells, weights, minlength=self.probs.size).reshape(self.probs.shape)
        )

    def initial(self, data, rng):
        """Every state's row at the symbol frequencies of data (checked
        sequences with at least one frame), times jitter(rng)."""
        symbols = np.concatenate(data, dtype=np.intp, casting="same_kind")
        counts = np.bincount(symbols, minlength=self.alphabet_size)
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
        """obs as a finite float array of shape (T, dim), an empty
        sequence as (0, dim); a ValidationError subclass otherwise."""
        seq = np.asarray(obs, dtype=float)
        if seq.shape == (0,):
            seq = seq.reshape(0, self.dim)
        if seq.ndim != 2 or seq.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected (T, {self.dim}) observation array, got {seq.shape}"
            )
        check_finite("observations", seq)
        return seq

    def table(self):
        """lookup(obs) as DiscreteEmission.table; the constants taken once."""
        const = self.dim * LOG_TWO_PI + np.sum(np.log(self.variances), axis=1)

        def lookup(obs):
            with np.errstate(over="ignore"):  # a far observation's density is -inf
                diff = self.check(obs)[:, None, :] - self.means[None, :, :]
                quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
            return np.hstack([-0.5 * (quad + const[None, :]), np.full((len(quad), 1), LOG_ZERO)])

        return lookup

    def new_stats(self):
        return GaussianStats(
            np.zeros(self.n_states), np.zeros_like(self.means), np.zeros_like(self.means)
        )

    def sample(self, path, rng):
        """The observations of a state path. Means must be finite and
        variances finite and positive, or a ValidationError subclass is
        raised before anything is drawn; unlike validate, this allows
        variances below VAR_FLOOR."""
        check_finite("emission means", self.means)
        check_finite("emission variances", self.variances)
        if np.any(self.variances <= 0):
            raise ValidationError(
                f"emission variance {float(self.variances.min())!r} is not positive"
            )
        return self.means[path] + np.sqrt(self.variances[path]) * rng.standard_normal(
            (len(path), self.dim)
        )

    def add_noise(self, obs, noise, rng):
        """Additive Gaussian noise of standard deviation noise, refusing overflows."""
        with np.errstate(over="ignore"):
            out = np.asarray(obs, dtype=float) + noise * rng.standard_normal(np.shape(obs))
        check_finite("noisy observations", out)
        return out

    def signature(self):
        return (self.kind, self.dim)

    def scatter(self, states, obs):
        """DiscreteEmission.scatter for observation rows obs[i]: one
        np.bincount each for the weight, the weighted sum and the
        weighted square (w * x) * x."""
        n, dim = self.means.shape
        states = np.asarray(states, dtype=np.intp)
        cells = (states[:, None] * dim + np.arange(dim)).ravel()

        def collect(weights):
            wx = weights[:, None] * obs
            return GaussianStats(
                np.bincount(states, weights, minlength=n),
                np.bincount(cells, wx.ravel(), minlength=n * dim).reshape(n, dim),
                np.bincount(cells, (wx * obs).ravel(), minlength=n * dim).reshape(n, dim),
            )

        return collect

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


def json_numbers(field, value):
    """value, read from a JSON file, as a float if it is a number and as
    a float array if it is a rectangular array of numbers. A string, a
    bool (numpy would read either as a number) or null in it is a
    FileFormatError naming field; a ragged array is numpy's ValueError."""
    arr = np.asarray(value)
    leaves = np.asarray(value, dtype=object).flat
    if arr.dtype.kind not in "iuf" or any(isinstance(x, bool) for x in leaves):
        raise FileFormatError(f"field {field} must hold JSON numbers only")
    return arr.astype(float) if arr.ndim else float(arr)


def check_finite(which, arr):
    """Raise NonFiniteEntryError if arr holds a NaN or an infinity."""
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise NonFiniteEntryError(which, float(arr[bad][0]))


def check_stochastic(which, arr, row=None):
    """Raise a ValidationError subclass unless arr's values are finite
    and non-negative and sum to 1 within STOCH_TOL: the whole of arr if
    row is None, else each of its rows, named row[i] in the error.
    Valid input passes one cheap test first; NaN and inf fail it, and
    whatever fails it gets the detailed checks that name the fault."""
    sums = arr.sum(axis=-1)
    if arr.min(initial=np.inf) >= 0 and abs(sums - 1.0).max(initial=0.0) <= STOCH_TOL:
        return
    check_finite(which, arr)
    if np.any(arr < 0):
        raise NegativeEntryError(which, float(arr.min()))
    sums = np.atleast_1d(sums)
    bad = np.flatnonzero(np.abs(sums - 1.0) > STOCH_TOL)
    if bad.size:
        i = int(bad[0])
        where = (which, None) if row is None else (row, i)
        raise NonStochasticRowError(*where, float(sums[i]))


def row_cdf(arr):
    """The cumulative sums along arr's last axis, each row divided by
    its last sum: the table Generator.choice(n, p=row) searches with
    side="right" for its one random() draw."""
    cdf = np.cumsum(arr, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def validate_emission(em):
    """Check emission-model invariants; raises ValidationError subclasses."""
    if not isinstance(em, _Emission):
        raise VariantMismatchError(f"unknown emission model {type(em)!r}")
    em.validate()


def log_density_seq(em, obs):
    """(T, n_states) matrix of log densities for a whole observation
    sequence, checked with em.check first."""
    return em.table()(obs)[:, :-1]


def density_table(parts):
    """The table of the stack of parts, emission models of one kind, in
    order: its lookup(obs) raises a ValidationError subclass for obs the
    stack cannot score."""
    return type(parts[0]).stack(parts).table()


class _Stats:
    """What the statistics classes share: every field is an array with
    one row per state."""

    def rows(self, start, n):
        """The statistics of the n states from start on, views of these."""
        return type(self)(*(arr[start : start + n] for arr in vars(self).values()))


@dataclass
class DiscreteStats(_Stats):
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
class GaussianStats(_Stats):
    """Weighted first and second moments per state."""

    weight: np.ndarray
    wsum: np.ndarray
    wsq: np.ndarray

    def accumulate(self, gamma, obs):
        """Frame by frame, state by state, as GaussianEmission.scatter adds."""
        t, s = np.divmod(np.arange(gamma.size), gamma.shape[1])
        x = np.asarray(obs, dtype=float)[t]
        w = np.ravel(gamma)
        wx = w[:, None] * x
        np.add.at(self.weight, s, w)
        np.add.at(self.wsum, s, wx)
        np.add.at(self.wsq, s, wx * x)

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
