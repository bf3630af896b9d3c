import math
import re

import numpy as np
import pytest

from helpers import random_stochastic
from oracles import accumulate, log_density, maximize_oracle
from phmm.emissions import (
    DiscreteEmission,
    GaussianEmission,
    STOCH_TOL,
    accumulate_seq,
    check_stochastic,
    density_table,
    log_density_seq,
    maximize,
    validate_emission,
    VAR_FLOOR,
)
from phmm.errors import (
    DimensionMismatchError,
    EmptyStateError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonStochasticRowError,
    VariantMismatchError,
)
from phmm.logmath import LOG_ZERO


def test_discrete_zero_prob_is_neg_inf():
    em = DiscreteEmission(np.array([[1.0, 0.0]]))
    assert log_density_seq(em, np.array([1, 0])).tolist() == [[LOG_ZERO], [0.0]]


def test_gaussian_standard_normal_mode():
    em = GaussianEmission(np.array([[0.0]]), np.array([[1.0]]))
    assert log_density_seq(em, np.array([[0.0]]))[0, 0] == pytest.approx(
        -0.5 * math.log(2 * math.pi)
    )


def test_gaussian_matches_independent_formula():
    # Frozen from a separately coded per-dimension normal density.
    em = GaussianEmission(np.array([[1.0, 2.0]]), np.array([[4.0, 9.0]]))
    got = log_density_seq(em, np.array([[3.0, 5.0]]))[0, 0]
    assert got == pytest.approx(-4.629636535637401, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gaussian_table_far_observation_is_minus_inf_without_warning():
    # An offset of about 1e154 or more from a mean overflows its square:
    # that state's density is -inf, with no RuntimeWarning.
    em = GaussianEmission(np.array([[0.0, 0.0], [1e200, 0.0]]), np.array([[1.0, 1.0], [0.5, 0.5]]))
    obs = np.array([[1e200, 0.0], [0.0, 1e-3], [-1e300, 0.0]])
    got = em.table()(obs)
    assert got[0, 1] == pytest.approx(log_density(em, 1, obs[0]))
    assert got[1, 0] == pytest.approx(log_density(em, 0, obs[1]))
    assert got[[0, 1, 2, 2], [0, 1, 0, 1]].tolist() == [LOG_ZERO] * 4
    assert got[:, 2].tolist() == [LOG_ZERO] * 3


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


def test_density_table_equals_each_part_scored_alone():
    # Bit for bit the per-frame formulas: the log of each gathered
    # probability, and the Gaussian quadratic form plus its constant;
    # then one -inf column. Symbols outside the alphabet are refused,
    # not read as another row.
    rng = np.random.default_rng(4)
    parts = [DiscreteEmission(random_stochastic(rng, (n, 5))) for n in (2, 1, 3)]
    parts[1].probs[0, 2] = 0.0
    parts[1].probs /= parts[1].probs.sum()
    obs = rng.integers(0, 5, size=9)
    with np.errstate(divide="ignore"):
        want = [np.log(p.probs[:, obs]).T for p in parts]
    got = density_table(parts)(obs)
    assert got.tobytes() == np.hstack(want + [np.full((9, 1), LOG_ZERO)]).tobytes()
    for bad in (-1, 5):
        with pytest.raises(DimensionMismatchError):
            density_table(parts)(np.array([0, bad]))
    gparts = [
        GaussianEmission(rng.normal(size=(n, 2)), rng.uniform(0.01, 2, (n, 2))) for n in (3, 2)
    ]
    gobs = rng.normal(size=(6, 2))
    want = []
    for p in gparts:
        diff = gobs[:, None, :] - p.means[None, :, :]
        quad = np.sum(diff * diff / p.variances[None, :, :], axis=2)
        const = 2 * np.log(2.0 * np.pi) + np.sum(np.log(p.variances), axis=1)
        want.append(-0.5 * (quad + const[None, :]))
    got = density_table(gparts)(gobs)
    assert got.tobytes() == np.hstack(want + [np.full((6, 1), LOG_ZERO)]).tobytes()


def test_errors():
    em = DiscreteEmission(np.array([[0.5, 0.5]]))
    with pytest.raises(DimensionMismatchError):
        log_density_seq(em, np.array([0, 5]))
    with pytest.raises(VariantMismatchError):
        log_density_seq(em, np.array([[0.5, 0.5]]))
    gem = GaussianEmission(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(DimensionMismatchError):
        log_density_seq(gem, np.array([3.0]))
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
    st = em.new_stats()
    accumulate_seq(st, np.zeros((1, 1)), np.array([1]))
    assert st.counts.sum() == 0.0


def test_single_unit_accumulation():
    em = DiscreteEmission(np.array([[0.5, 0.25, 0.25]]))
    st = em.new_stats()
    accumulate_seq(st, np.ones((1, 1)), np.array([2]))
    assert st.counts[0, 2] == 1.0
    assert st.counts.sum() == 1.0


def test_accumulation_order_independent():
    rng = np.random.default_rng(11)
    em = GaussianEmission(np.zeros((2, 2)), np.ones((2, 2)))
    obs = rng.normal(size=(100, 2))
    gamma = np.zeros((100, 2))
    gamma[np.arange(100), rng.integers(0, 2, size=100)] = rng.uniform(0, 1, size=100)
    a = em.new_stats()
    b = em.new_stats()
    accumulate_seq(a, gamma, obs)
    accumulate_seq(b, gamma[::-1], obs[::-1])
    assert np.allclose(a.wsum, b.wsum, rtol=1e-9)
    assert np.allclose(a.wsq, b.wsq, rtol=1e-9)
    assert np.allclose(a.weight, b.weight, rtol=1e-9)


def test_accumulate_seq_matches_scalar_loop():
    # The same additions in the same order, frame by frame and state by
    # state, onto statistics that already hold a sequence's: the same
    # bits, for both kinds.
    rng = np.random.default_rng(5)
    for gaussian in [False, True] * 50:
        n, width = (int(v) for v in rng.integers(1, [6, 5]))
        if gaussian:
            em = GaussianEmission(np.zeros((n, width)), np.ones((n, width)))
        else:
            em = DiscreteEmission(np.full((n, width), 1 / width))
        fast, slow = em.new_stats(), em.new_stats()
        for t_len in rng.integers(1, 30, size=2):
            if gaussian:
                obs = rng.normal(size=(t_len, width))
            else:
                obs = rng.integers(0, width, size=t_len)
            gamma = rng.uniform(0, 1, size=(t_len, n))
            accumulate_seq(fast, gamma, obs)
            for t in range(t_len):
                for s in range(n):
                    accumulate(slow, s, obs[t], gamma[t, s])
        for name, arr in vars(fast).items():
            assert arr.tobytes() == getattr(slow, name).tobytes(), (type(em).__name__, name)


def test_maximize_discrete():
    em = DiscreteEmission(np.array([[0.5, 0.5]]))
    st = em.new_stats()
    accumulate(st, 0, 0, 1.0)
    out = maximize(st, smoothing=0.0)
    assert np.allclose(out.probs, [[1.0, 0.0]])

    st2 = em.new_stats()
    accumulate(st2, 0, 0, 2.0)
    accumulate(st2, 0, 1, 2.0)
    out2 = maximize(st2, smoothing=0.0)
    assert np.allclose(out2.probs, [[0.5, 0.5]])


def test_maximize_empty_state_error_and_smoothing():
    em = DiscreteEmission(np.array([[0.5, 0.5], [0.5, 0.5]]))
    st = em.new_stats()
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
    st = em.new_stats()
    accumulate_seq(st, ws[:, None], xs)
    out = maximize(st)
    w = ws.sum()
    mean = (ws[:, None] * xs).sum(axis=0) / w
    var = (ws[:, None] * (xs - mean) ** 2).sum(axis=0) / w
    assert np.allclose(out.means[0], mean, atol=1e-9)
    assert np.allclose(out.variances[0], var, atol=1e-9)


def test_variance_floor_applied():
    em = GaussianEmission(np.zeros((1, 1)), np.ones((1, 1)))
    st = em.new_stats()
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



def _random_stats(rng, gaussian):
    """An emission model and statistics in which some states saw no frame."""
    n, width, t_len = (int(v) for v in rng.integers(1, [6, 12, 30]))
    if gaussian:
        em = GaussianEmission(rng.normal(size=(n, width)), rng.uniform(0.5, 2.0, size=(n, width)))
        obs = rng.normal(size=(t_len, width))
        if rng.uniform() < 0.2:
            obs[:] = obs[0]  # one repeated frame: variances fall to the floor
    else:
        em = DiscreteEmission(random_stochastic(rng, (n, width)))
        obs = rng.integers(0, width, size=t_len)
    gamma = rng.uniform(size=(t_len, n)) * (rng.uniform(size=n) < 0.7)
    return em, accumulate_seq(em.new_stats(), gamma, obs)


@pytest.mark.parametrize("gaussian", [False, True], ids=["discrete", "gaussian"])
def test_maximize_equals_per_state_oracle(gaussian):
    rng = np.random.default_rng(61 + gaussian)
    raised = 0
    for _ in range(300):
        em, stats = _random_stats(rng, gaussian)
        for smoothing in (0.0, 1e-8, 0.5):
            for fallback in (None, em):
                try:
                    want = maximize_oracle(stats, smoothing, fallback)
                except EmptyStateError as exc:
                    raised += 1
                    with pytest.raises(EmptyStateError, match=f"^{re.escape(str(exc))}$"):
                        maximize(stats, smoothing, fallback)
                    continue
                got = maximize(stats, smoothing, fallback)
                assert type(got) is type(want)
                for name, arr in vars(want).items():
                    assert np.array_equal(getattr(got, name), arr), name
    assert 0 < raised < 300


def test_add_noise_one_symbol_alphabet_keeps_symbols():
    # A one-symbol alphabet has no other symbol to switch to: the symbols
    # stay, and the generator moves past the hit draws only, as in a run
    # that drew no hits.
    em = DiscreteEmission(np.ones((2, 1)))
    obs = np.zeros(40, dtype=np.intp)
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    out = em.add_noise(obs, 0.5, rng)
    assert out.dtype == np.intp
    assert out.tolist() == obs.tolist()
    assert (ref.uniform(size=40) < 0.5).any()
    assert rng.random() == ref.random()


def _scatter_layout(rng, chains, sizes, gaussian):
    """The stacked emissions of keys with the given state counts, their
    first rows, and every key, weight, state row and observation of
    the given chains of keys in the order training lays them out:
    utterance, block, frame, state. The blocks of a chain share its
    frames."""
    alphabet, dim, n = 3, 2, sum(sizes.values())
    if gaussian:
        stack = GaussianEmission(np.zeros((n, dim)), np.ones((n, dim)))
    else:
        stack = DiscreteEmission(np.full((n, alphabet), 1 / alphabet))
    firsts = dict(zip(sizes, np.cumsum([0, *sizes.values()]).tolist()))
    keys, states, obs = [], [], []
    for chain in chains:
        t_len = int(rng.integers(1, 9))
        seq = rng.normal(size=(t_len, dim)) if gaussian else rng.integers(0, alphabet, t_len)
        for key in chain:
            for t in range(t_len):
                keys += [key] * sizes[key]
                states += range(firsts[key], firsts[key] + sizes[key])
                obs += [seq[t]] * sizes[key]
    weights = rng.random(len(states))
    return stack, firsts, keys, weights, np.array(states, np.int32), np.array(obs)


@pytest.mark.parametrize("gaussian", [False, True], ids=["discrete", "gaussian"])
@pytest.mark.parametrize(
    "chains",
    [
        # Repeated keys within a chain, epenthesis-like fillers between
        # blocks, and chains that share keys.
        [("a",), ("a", "e", "a"), ("b", "e", "b"), ("a", "a"), ("b",), ("a", "e", "b"),
         ("b", "e", "a"), ("a",), ("b", "b", "b")],
        # One-block chains, as baum_welch runs them.
        [("a",)] * 7,
    ],
    ids=["composed", "one-block"],
)
def test_scatter_equals_scalar_accumulate(chains, gaussian):
    # Each key's rows of one scatter of the stack hold the same bits as
    # its statistics added one weighted observation at a time, in order.
    rng = np.random.default_rng(17 + gaussian)
    sizes = {"a": 2, "b": 1, "e": 3}
    stack, firsts, keys, weights, states, obs = _scatter_layout(rng, chains, sizes, gaussian)
    got = stack.scatter(states, obs)(weights)
    want = {key: stack.new_stats().rows(firsts[key], n) for key, n in sizes.items()}
    for key, w, state, x in zip(keys, weights, states, obs):
        accumulate(want[key], state - firsts[key], x, w)
    for key, n in sizes.items():
        rows = got.rows(firsts[key], n)
        for name, arr in vars(rows).items():
            assert arr.shape == getattr(want[key], name).shape
            assert arr.tobytes() == getattr(want[key], name).tobytes(), (key, name)


@pytest.mark.parametrize(
    "which, arr, row, error, message",
    [
        ("pi", [0.5, np.nan], None, NonFiniteEntryError, "non-finite entry nan in pi"),
        ("pi", [np.inf, 0.0], None, NonFiniteEntryError, "non-finite entry inf in pi"),
        ("pi", [-np.inf, 1.0], None, NonFiniteEntryError, "non-finite entry -inf in pi"),
        (
            "trans",
            [[1.0, 0.0], [np.nan, 1.0]],
            "trans row",
            NonFiniteEntryError,
            "non-finite entry nan in trans",
        ),
        (
            "trans",
            [[0.5, 0.5], [1.5, -0.5]],
            "trans row",
            NegativeEntryError,
            "negative entry -0.5 in trans",
        ),
        (
            "trans",
            [[0.5, 0.5], [0.5, 0.6]],
            "trans row",
            NonStochasticRowError,
            "trans row[1] sums to 1.1, expected 1",
        ),
        (
            "probs",
            [[0.5, 0.5], [0.5, 0.5 + 1e-9]],
            "emission row",
            NonStochasticRowError,
            "emission row[1] sums to 1.000000001, expected 1",
        ),
        ("pi", [0.3, 0.3], None, NonStochasticRowError, "pi sums to 0.6, expected 1"),
        ("pi", [], None, NonStochasticRowError, "pi sums to 0.0, expected 1"),
    ],
)
def test_check_stochastic_first_test_keeps_the_detailed_errors(which, arr, row, error, message):
    # Whatever fails the one cheap first test (NaN, inf, a negative
    # entry, an off-sum row) still raises the detailed check's error.
    with pytest.raises(error) as info:
        check_stochastic(which, np.array(arr, dtype=float), row)
    assert type(info.value) is error and str(info.value) == message


def test_check_stochastic_accepts_rows_within_the_tolerance():
    rows = np.array([[0.5, 0.5 + STOCH_TOL / 2], [1.0, 0.0], [0.25, 0.75 - STOCH_TOL / 2]])
    check_stochastic("trans", rows, "trans row")
    check_stochastic("pi", np.array([1.0]))
    check_stochastic("trans", np.zeros((0, 0)), "trans row")
