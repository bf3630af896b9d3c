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


def logsumexp(values, axis):
    """Numerically stable log(sum(exp(values))) along an axis.

    An all--inf reduction yields -inf, not NaN.
    """
    arr = np.asarray(values, dtype=float)
    m = np.max(arr, axis=axis, keepdims=True)
    # An all--inf slice shifts by 0 instead of -inf: its exp terms are 0
    # and log(0) gives the -inf it sums to, with no NaN from -inf - -inf.
    m[m == LOG_ZERO] = 0.0
    with np.errstate(divide="ignore"):
        return m.squeeze(axis) + np.log(np.sum(np.exp(arr - m), axis=axis))

