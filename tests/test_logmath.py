import math

import numpy as np
import pytest

from phmm.logmath import LOG_ZERO, logsumexp, safe_log


def test_safe_log_zero_is_neg_inf():
    out = safe_log([0.0, 1.0, 0.5])
    assert out[0] == LOG_ZERO
    assert out[1] == 0.0
    assert out[2] == pytest.approx(math.log(0.5))


def test_safe_log_rejects_negative():
    with pytest.raises(ValueError):
        safe_log([-0.1, 0.5])


def test_logsumexp_matches_direct_sum():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(-5, 3, size=7)
        assert logsumexp(x, axis=0) == pytest.approx(math.log(sum(math.exp(v) for v in x)), abs=1e-12)


def test_logsumexp_neg_inf_identity():
    assert logsumexp(np.array([LOG_ZERO, -1.5]), axis=0) == pytest.approx(-1.5)
    assert logsumexp(np.array([LOG_ZERO, LOG_ZERO]), axis=0) == LOG_ZERO


def test_logsumexp_axis_all_neg_inf_column():
    m = np.array([[LOG_ZERO, -1.0], [LOG_ZERO, -2.0]])
    out = logsumexp(m, axis=0)
    assert out[0] == LOG_ZERO
    assert out[1] == pytest.approx(np.logaddexp(-1.0, -2.0))
    assert not np.any(np.isnan(out))


def test_logsumexp_extreme_magnitudes():
    x = np.array([-1000.0, -1000.5])
    assert logsumexp(x, axis=0) == pytest.approx(-1000.0 + math.log(1 + math.exp(-0.5)))
