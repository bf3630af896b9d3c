import math

import numpy as np
import pytest

from phmm.emissions import (
    DiscreteEmission,
    GaussianEmission,
    accumulate,
    accumulate_seq,
    log_density,
    log_density_seq,
    maximize,
    merge_stats,
    new_stats,
    validate_emission,
    VAR_FLOOR,
)
from phmm.errors import (
    DimensionMismatchError,
    EmptyStateError,
    NegativeWeightError,
    NonFiniteEntryError,
    NonStochasticRowError,
    StateOutOfRangeError,
    VariantMismatchError,
)
from phmm.logmath import LOG_ZERO


def test_discrete_zero_prob_is_neg_inf():
    em = DiscreteEmission(np.array([[1.0, 0.0]]))
    assert log_density(em, 0, 1) == LOG_ZERO
    assert log_density(em, 0, 0) == 0.0


def test_gaussian_standard_normal_mode():
    em = GaussianEmission(np.array([[0.0]]), np.array([[1.0]]))
    assert log_density(em, 0, np.array([0.0])) == pytest.approx(
        -0.5 * math.log(2 * math.pi)
    )


def test_gaussian_matches_independent_formula():
    # Frozen from a separately coded per-dimension normal density.
    em = GaussianEmission(np.array([[1.0, 2.0]]), np.array([[4.0, 9.0]]))
    got = log_density(em, 0, np.array([3.0, 5.0]))
    assert got == pytest.approx(-4.629636535637401, abs=1e-12)


def test_log_density_seq_agrees_with_scalar_calls():
    rng = np.random.default_rng(3)
    probs = rng.uniform(0.1, 1.0, size=(3, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    em = DiscreteEmission(probs)
    obs = rng.integers(0, 4, size=6)
    mat = log_density_seq(em, obs)
    for t, x in enumerate(obs):
        for s in range(3):
            assert mat[t, s] == pytest.approx(log_density(em, s, x))

    gem = GaussianEmission(rng.normal(size=(2, 3)), rng.uniform(0.5, 2.0, size=(2, 3)))
    gobs = rng.normal(size=(5, 3))
    gmat = log_density_seq(gem, gobs)
    for t in range(5):
        for s in range(2):
            assert gmat[t, s] == pytest.approx(log_density(gem, s, gobs[t]), abs=1e-12)


def test_errors():
    em = DiscreteEmission(np.array([[0.5, 0.5]]))
    with pytest.raises(StateOutOfRangeError):
        log_density(em, 2, 0)
    with pytest.raises(DimensionMismatchError):
        log_density(em, 0, 5)
    with pytest.raises(VariantMismatchError):
        log_density(em, 0, np.array([0.5, 0.5]))
    gem = GaussianEmission(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(VariantMismatchError):
        log_density(gem, 0, 3)
    st = new_stats(em)
    with pytest.raises(NegativeWeightError):
        accumulate(st, 0, 1, -0.5)
    with pytest.raises(NonStochasticRowError):
        validate_emission(DiscreteEmission(np.array([[0.6, 0.6]])))


@pytest.mark.parametrize("field", ["probs", "means", "variances"])
def test_validate_emission_rejects_nan(field):
    if field == "probs":
        em = DiscreteEmission(np.full((2, 2), 0.5))
    else:
        em = GaussianEmission(np.zeros((2, 2)), np.ones((2, 2)))
    getattr(em, field)[1, 0] = np.nan
    with pytest.raises(NonFiniteEntryError, match=field):
        validate_emission(em)


def test_accumulate_weight_zero_noop():
    em = DiscreteEmission(np.array([[0.5, 0.5]]))
    st = new_stats(em)
    accumulate(st, 0, 1, 0.0)
    assert st.counts.sum() == 0.0


def test_single_unit_accumulation():
    em = DiscreteEmission(np.array([[0.5, 0.25, 0.25]]))
    st = new_stats(em)
    accumulate(st, 0, 2, 1.0)
    assert st.counts[0, 2] == 1.0
    assert st.counts.sum() == 1.0


def test_accumulation_order_independent():
    rng = np.random.default_rng(11)
    em = GaussianEmission(np.zeros((2, 2)), np.ones((2, 2)))
    events = [
        (int(rng.integers(0, 2)), rng.normal(size=2), float(rng.uniform(0, 1)))
        for _ in range(100)
    ]
    a = new_stats(em)
    b = new_stats(em)
    for s, x, w in events:
        accumulate(a, s, x, w)
    for s, x, w in reversed(events):
        accumulate(b, s, x, w)
    assert np.allclose(a.wsum, b.wsum, rtol=1e-9)
    assert np.allclose(a.wsq, b.wsq, rtol=1e-9)
    assert np.allclose(a.weight, b.weight, rtol=1e-9)


def test_accumulate_seq_matches_scalar_loop():
    rng = np.random.default_rng(5)
    em = DiscreteEmission(np.full((3, 4), 0.25))
    obs = rng.integers(0, 4, size=9)
    gamma = rng.uniform(0, 1, size=(9, 3))
    fast = new_stats(em)
    accumulate_seq(fast, gamma, obs)
    slow = new_stats(em)
    for t in range(9):
        for s in range(3):
            accumulate(slow, s, obs[t], gamma[t, s])
    assert np.allclose(fast.counts, slow.counts, atol=1e-12)


def test_maximize_discrete():
    em = DiscreteEmission(np.array([[0.5, 0.5]]))
    st = new_stats(em)
    accumulate(st, 0, 0, 1.0)
    out = maximize(st, smoothing=0.0)
    assert np.allclose(out.probs, [[1.0, 0.0]])

    st2 = new_stats(em)
    accumulate(st2, 0, 0, 2.0)
    accumulate(st2, 0, 1, 2.0)
    out2 = maximize(st2, smoothing=0.0)
    assert np.allclose(out2.probs, [[0.5, 0.5]])


def test_maximize_empty_state_error_and_smoothing():
    em = DiscreteEmission(np.array([[0.5, 0.5], [0.5, 0.5]]))
    st = new_stats(em)
    accumulate(st, 0, 0, 1.0)
    with pytest.raises(EmptyStateError):
        maximize(st, smoothing=0.0)
    out = maximize(st, smoothing=1e-3)
    validate_emission(out)
    assert np.allclose(out.probs[1], [0.5, 0.5])


def test_maximize_gaussian_matches_weighted_moments():
    rng = np.random.default_rng(17)
    em = GaussianEmission(np.zeros((1, 2)), np.ones((1, 2)))
    xs = rng.normal(1.5, 2.0, size=(1000, 2))
    ws = rng.uniform(0.01, 1.0, size=1000)
    st = new_stats(em)
    accumulate_seq(st, ws[:, None], xs)
    out = maximize(st)
    w = ws.sum()
    mean = (ws[:, None] * xs).sum(axis=0) / w
    var = (ws[:, None] * (xs - mean) ** 2).sum(axis=0) / w
    assert np.allclose(out.means[0], mean, atol=1e-9)
    assert np.allclose(out.variances[0], var, atol=1e-9)


def test_variance_floor_applied():
    em = GaussianEmission(np.zeros((1, 1)), np.ones((1, 1)))
    st = new_stats(em)
    for _ in range(5):
        accumulate(st, 0, np.array([2.0]), 1.0)
    out = maximize(st)
    assert out.variances[0, 0] == VAR_FLOOR


def test_discrete_rows_normalize_after_log_density():
    rng = np.random.default_rng(23)
    probs = rng.uniform(0.0, 1.0, size=(2, 5))
    probs[0, 3] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    em = DiscreteEmission(probs)
    for s in range(2):
        total = sum(math.exp(log_density(em, s, k)) for k in range(5))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_merge_stats_matches_single_pass():
    em = DiscreteEmission(np.full((2, 3), 1 / 3))
    a = new_stats(em)
    b = new_stats(em)
    whole = new_stats(em)
    events = [(0, 1, 0.3), (1, 2, 0.7), (0, 0, 1.0), (1, 1, 0.25)]
    for i, (s, x, w) in enumerate(events):
        accumulate(a if i < 2 else b, s, x, w)
        accumulate(whole, s, x, w)
    merge_stats(a, b)
    assert np.allclose(a.counts, whole.counts)
