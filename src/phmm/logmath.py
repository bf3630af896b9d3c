"""Log-domain arithmetic with exact zero-probability handling.

All inference in this package runs in log space. Probability zero is
represented by -inf (never by a tiny epsilon), with the conventions
(-inf) + x = -inf and logsumexp(-inf, x) = x. Values are plain floats or
numpy arrays; NaN is never a legal log probability.
"""

from __future__ import annotations

import numpy as np

LOG_ZERO = float("-inf")


def safe_log(p):
    """Elementwise log that maps 0 to -inf without warnings.

    Negative inputs are a caller bug and raise ValueError rather than
    silently producing NaN.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0):
        raise ValueError("safe_log: negative probability")
    with np.errstate(divide="ignore"):
        return np.log(arr)


def logsumexp(values, axis=None):
    """Numerically stable log(sum(exp(values))) along an axis.

    An all--inf reduction yields -inf, not NaN. Works on scalars,
    vectors and matrices.
    """
    arr = np.asarray(values, dtype=float)
    if axis is None:
        m = np.max(arr) if arr.size else LOG_ZERO
        if m == LOG_ZERO or np.isneginf(m):
            return LOG_ZERO
        return float(m + np.log(np.sum(np.exp(arr - m))))
    m = np.max(arr, axis=axis)
    # Shift only where a finite maximum exists; -inf columns stay -inf.
    shift = np.where(np.isneginf(m), 0.0, m)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = shift + np.log(np.sum(np.exp(arr - np.expand_dims(shift, axis)), axis=axis))
    return np.where(np.isneginf(m), LOG_ZERO, out)


def logaddexp(x, y):
    """log(exp(x) + exp(y)) honoring the -inf conventions."""
    return np.logaddexp(x, y)

