import math

import numpy as np
import pytest

from helpers import random_discrete_hmm, random_gaussian_hmm, random_phoneme
from oracles import brute_forward, brute_viterbi, posteriors_oracle

from phmm.emissions import DiscreteEmission, GaussianEmission, log_density_seq
from phmm.errors import (
    AllPathsZeroError,
    DimensionMismatchError,
    EmptyObservationError,
    NonFiniteEntryError,
    NonStochasticRowError,
    TopologyViolationError,
)
from phmm.hmm import (
    Hmm,
    Topology,
    backward,
    forward,
    forward_lattice,
    posteriors,
    posteriors_lattice,
    sample,
    validate,
    viterbi,
    viterbi_lattice,
)
from phmm.logmath import logsumexp


def test_validate_accepts_uniform():
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    validate(h)


def test_validate_rejects_nonstochastic_pi():
    h = Hmm(
        pi=[0.6, 0.6],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    with pytest.raises(NonStochasticRowError):
        validate(h)


def test_validate_rejects_misshapen_trans():
    h = Hmm(
        pi=[1.0, 0.0, 0.0],
        trans=[1.0, 0.0, 0.0],
        emissions=DiscreteEmission(np.full((3, 2), 0.5)),
    )
    with pytest.raises(DimensionMismatchError, match=r"shape \(3,\), expected \(3, 3\)"):
        validate(h)


def test_validate_rejects_emission_state_count():
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((3, 2), 0.5)),
    )
    with pytest.raises(DimensionMismatchError, match=r"3 states, expected 2 \(pi has shape"):
        validate(h)


@pytest.mark.parametrize(
    "emissions, message",
    [
        (DiscreteEmission([0.5, 0.5]), r"emission probs has shape \(2,\), expected a 2-d"),
        (
            DiscreteEmission(np.full((2, 2, 1), 0.5)),
            r"emission probs has shape \(2, 2, 1\), expected a 2-d",
        ),
        (GaussianEmission([0.0, 1.0], [1.0, 1.0]), r"emission means has shape \(2,\)"),
    ],
    ids=["discrete-1d", "discrete-3d", "gaussian-1d"],
)
def test_validate_rejects_emission_rank(emissions, message):
    # Used to pass validation (3-d probs, 1-d Gaussian) or end in numpy's
    # AxisError (1-d probs).
    h = Hmm(pi=[0.5, 0.5], trans=[[0.5, 0.5], [0.5, 0.5]], emissions=emissions)
    with pytest.raises(DimensionMismatchError, match=message):
        validate(h)


@pytest.mark.parametrize("field", ["pi", "trans"])
def test_validate_rejects_nan(field):
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    getattr(h, field).flat[0] = np.nan
    with pytest.raises(NonFiniteEntryError, match=field):
        validate(h)


def test_validate_rejects_backward_edge():
    h = Hmm(
        pi=[1.0, 0.0],
        trans=[[0.7, 0.3], [0.3, 0.7]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
        topology=Topology.LEFT_TO_RIGHT,
    )
    with pytest.raises(TopologyViolationError) as exc:
        validate(h)
    assert exc.value.i == 1 and exc.value.j == 0


def test_forward_single_state_certain_emission():
    h = Hmm(pi=[1.0], trans=[[1.0]], emissions=DiscreteEmission(np.array([[1.0, 0.0]])))
    loglik, _ = forward(h, np.zeros(3, dtype=int))
    assert loglik == 0.0


def test_forward_uniform_model_transitions_marginalize():
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    for t_len in (1, 4, 7):
        loglik, _ = forward(h, np.zeros(t_len, dtype=int))
        assert loglik == pytest.approx(t_len * np.log(0.5), abs=1e-12)


def test_forward_matches_brute_force_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(25):
        h = random_discrete_hmm(rng, n_states=3, alphabet=3)
        obs = rng.integers(0, 3, size=5)
        loglik, _ = forward(h, obs)
        logb = log_density_seq(h.emissions, obs)
        log_pi, log_trans = h.log_params()
        assert loglik == pytest.approx(
            brute_forward(log_pi, log_trans, logb), abs=1e-9
        )


def test_forward_empty_sequence_rejected():
    h = random_discrete_hmm(np.random.default_rng(0))
    with pytest.raises(EmptyObservationError):
        forward(h, np.array([], dtype=int))


def test_backward_last_row_zero_and_consistency():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = random_discrete_hmm(rng, n_states=3, alphabet=4)
        obs = rng.integers(0, 4, size=5)
        loglik, alpha = forward(h, obs)
        beta = backward(h, obs)
        assert np.all(beta[-1] == 0.0)
        for t in range(5):
            assert logsumexp(alpha[t] + beta[t], axis=0) == pytest.approx(loglik, abs=1e-9)


def test_backward_degenerate_single_state():
    h = Hmm(pi=[1.0], trans=[[1.0]], emissions=DiscreteEmission(np.array([[1.0, 0.0]])))
    beta = backward(h, np.zeros(2, dtype=int))
    assert beta[0, 0] == 0.0


def test_viterbi_only_feasible_path():
    n = 4
    trans = np.zeros((n, n))
    for i in range(n - 1):
        trans[i, i + 1] = 1.0
    trans[-1, -1] = 1.0
    pi = np.zeros(n)
    pi[0] = 1.0
    h = Hmm(pi, trans, DiscreteEmission(np.full((n, 2), 0.5)), Topology.ERGODIC)
    path, _ = viterbi(h, np.zeros(n, dtype=int))
    assert path == list(range(n))


def test_viterbi_tie_prefers_lowest_state():
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 3), 1 / 3)),
    )
    path, _ = viterbi(h, np.array([0, 1, 2, 0]))
    assert path == [0, 0, 0, 0]


def test_viterbi_matches_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(25):
        h = random_discrete_hmm(rng, n_states=3, alphabet=3)
        obs = rng.integers(0, 3, size=5)
        path, score = viterbi(h, obs)
        logb = log_density_seq(h.emissions, obs)
        log_pi, log_trans = h.log_params()
        opath, oscore = brute_viterbi(log_pi, log_trans, logb)
        assert score == pytest.approx(oscore, abs=1e-9)
        assert path == opath


def test_viterbi_all_paths_zero_raises():
    h = Hmm(pi=[1.0], trans=[[1.0]], emissions=DiscreteEmission(np.array([[1.0, 0.0]])))
    with pytest.raises(AllPathsZeroError):
        viterbi(h, np.array([1, 0]))


def test_viterbi_leq_forward():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        h = random_discrete_hmm(rng, n_states=4, alphabet=3)
        obs = rng.integers(0, 3, size=6)
        loglik, _ = forward(h, obs)
        _, score = viterbi(h, obs)
        assert score <= loglik + 1e-12


def test_gaussian_inference_consistency():
    rng = np.random.default_rng(5)
    h = random_gaussian_hmm(rng, n_states=2, dim=2)
    obs, _ = sample(h, 6, 11)
    loglik, alpha = forward(h, obs)
    beta = backward(h, obs)
    for t in range(6):
        assert logsumexp(alpha[t] + beta[t], axis=0) == pytest.approx(loglik, abs=1e-9)
    _, score = viterbi(h, obs)
    assert score <= loglik + 1e-12


def test_emission_shift_moves_scores_by_constant():
    rng = np.random.default_rng(21)
    h = random_discrete_hmm(rng, n_states=3, alphabet=3)
    obs = rng.integers(0, 3, size=6)
    logb = log_density_seq(h.emissions, obs)
    log_pi, log_trans = h.log_params()
    loglik, _ = forward_lattice(log_pi, log_trans, logb)
    vscore, vpath = viterbi_lattice(log_pi, log_trans, logb)
    c = 0.73
    shifted = logb.copy()
    shifted[3] += c
    loglik2, _ = forward_lattice(log_pi, log_trans, shifted)
    vscore2, vpath2 = viterbi_lattice(log_pi, log_trans, shifted)
    assert loglik2 - loglik == pytest.approx(c, abs=1e-9)
    assert vscore2 - vscore == pytest.approx(c, abs=1e-9)
    assert list(vpath2) == list(vpath)


def test_sample_deterministic_model():
    h = Hmm(
        pi=[1.0, 0.0],
        trans=[[0.0, 1.0], [0.0, 1.0]],
        emissions=DiscreteEmission(np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    for seed in (0, 1, 999):
        obs, path = sample(h, 3, seed)
        assert path == [0, 1, 1]
        assert list(obs) == [0, 1, 1]


def test_sample_seed_determinism():
    h = random_discrete_hmm(np.random.default_rng(3))
    obs1, path1 = sample(h, 10, 77)
    obs2, path2 = sample(h, 10, 77)
    assert list(obs1) == list(obs2)
    assert path1 == path2


def test_sample_initial_state_frequencies():
    h = Hmm(
        pi=[0.3, 0.7],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    rng = np.random.default_rng(2024)
    n = 10_000
    hits = 0
    for _ in range(n):
        _, path = sample(h, 1, rng)
        hits += path[0] == 0
    sigma = np.sqrt(0.3 * 0.7 / n)
    assert abs(hits / n - 0.3) <= 3 * sigma


def test_posteriors_rows_sum_to_one():
    rng = np.random.default_rng(8)
    h = random_discrete_hmm(rng, n_states=3, alphabet=3)
    obs = rng.integers(0, 3, size=7)
    loglik, gamma, xi_sum, _ = posteriors(h, obs)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    # expected transitions out of each state match occupancy of frames 0..T-2
    assert np.allclose(xi_sum.sum(axis=1), gamma[:-1].sum(axis=0), atol=1e-9)


def _posterior_cases(rng):
    """(model, obs) pairs of unequal lengths (T = 1 included): ergodic and
    Bakis, discrete and Gaussian, a model that cannot emit symbol 0 (so
    some frames have -inf log densities) and a zero-likelihood sequence."""
    for n_states, t_len, gaussian, ergodic in (
        (3, 5, False, True),
        (3, 1, False, False),
        (2, 6, True, True),
        (4, 4, True, False),
        (1, 3, False, True),
    ):
        model = random_phoneme(rng, n_states, gaussian, ergodic)
        yield model, sample(model, t_len, rng)[0]
    gapped = random_phoneme(rng, 3, ergodic=True)
    gapped.emissions.probs[1:, 0] = 0.0
    gapped.emissions.probs /= gapped.emissions.probs.sum(axis=1, keepdims=True)
    yield gapped, np.array([0, 2, 0, 1, 0])
    mute = random_phoneme(rng, 2)
    mute.emissions.probs[:, 3] = 0.0
    mute.emissions.probs /= mute.emissions.probs.sum(axis=1, keepdims=True)
    yield mute, np.array([1, 3, 0])


def test_posteriors_lattice_matches_per_frame_oracle():
    rng = np.random.default_rng(60)
    cases = list(_posterior_cases(rng))
    n = max(m.n_states for m, _ in cases)
    lengths = np.array([len(obs) for _, obs in cases])
    log_pi = np.full((n, len(cases)), -np.inf)
    log_trans = np.full((n, n, len(cases)), -np.inf)
    # Padded frames hold finite values: the masks alone must keep them out.
    logb = rng.normal(0.0, 3.0, size=(lengths.max(), n, len(cases)))
    for b, (model, obs) in enumerate(cases):
        k = model.n_states
        log_pi[:k, b], log_trans[:k, :k, b] = model.log_params()
        logb[: lengths[b], :k, b] = log_density_seq(model.emissions, obs)
    loglik, gamma, xi_sum = posteriors_lattice(log_pi, log_trans, logb, lengths)
    assert loglik.shape == (len(cases),)
    for b, (model, obs) in enumerate(cases):
        k, t_len = model.n_states, lengths[b]
        lp, lt = model.log_params()
        lb = log_density_seq(model.emissions, obs)
        ref_ll, ref_gamma, ref_xi = posteriors_oracle(lp, lt, lb)
        assert loglik[b] == pytest.approx(brute_forward(lp, lt, lb), abs=1e-9)
        if ref_gamma is None:
            assert loglik[b] == -np.inf
            continue
        np.testing.assert_allclose(loglik[b], ref_ll, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gamma[:t_len, :k, b], ref_gamma, rtol=1e-12, atol=0)
        np.testing.assert_allclose(xi_sum[:k, :k, b], ref_xi, rtol=1e-12, atol=0)
        # padded frames and states carry no posterior mass
        assert not gamma[t_len:, :, b].any() and not gamma[:, k:, b].any()
        assert not xi_sum[k:, :, b].any() and not xi_sum[:, k:, b].any()
    assert np.sum(loglik == -np.inf) == 1


def _oracle_at_unit_scale(model, logb):
    """posteriors_oracle of one sequence with every frame's log densities
    shifted by that frame's forward normalizer (from the log-space
    forward_lattice), the shifts added back to loglik. Posteriors do not
    change when a frame's densities move by a constant; unshifted, the
    oracle's alpha and beta grow with the frame count and their rounding
    alone exceeds rtol=1e-12 on long or extreme sequences."""
    lp, lt = model.log_params()
    _, alpha = forward_lattice(lp, lt, logb)
    shift = np.diff(logsumexp(alpha, axis=1), prepend=0.0)
    loglik, gamma, xi_sum = posteriors_oracle(lp, lt, logb - shift[:, None])
    return loglik + math.fsum(shift), gamma, xi_sum


def _assert_matches_unit_scale_oracle(cases, logb, lengths, skip=()):
    """posteriors_lattice over the (model, logb) cases, one batch entry
    each and all of one state count, against _oracle_at_unit_scale;
    entries in skip are only required to be finite."""
    n = cases[0].n_states
    log_pi = np.stack([m.log_params()[0] for m in cases], axis=-1)
    log_trans = np.stack([m.log_params()[1] for m in cases], axis=-1)
    loglik, gamma, xi_sum = posteriors_lattice(log_pi, log_trans, logb, lengths)
    assert np.isfinite(gamma).all() and np.isfinite(xi_sum).all()
    for b, model in enumerate(cases):
        if b in skip:
            continue
        t_len = lengths[b]
        ref_ll, ref_gamma, ref_xi = _oracle_at_unit_scale(model, logb[:t_len, :, b])
        np.testing.assert_allclose(loglik[b], ref_ll, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gamma[:t_len, :, b], ref_gamma, rtol=1e-12, atol=0)
        np.testing.assert_allclose(xi_sum[:n, :n, b], ref_xi, rtol=1e-12, atol=0)
        assert not gamma[t_len:, :, b].any()
    return loglik


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_scales_a_long_sequence_of_tiny_densities():
    # 2,000 frames at about 1e-20 each: an unscaled forward product
    # underflows to 0 within 16 frames.
    rng = np.random.default_rng(61)
    model = random_phoneme(rng, 3, ergodic=True)
    obs = sample(model, 2000, rng)[0]
    logb = log_density_seq(model.emissions, obs) + np.log(1e-20)
    assert np.prod(np.exp(logb.max(axis=1))[:16]) == 0.0
    loglik = _assert_matches_unit_scale_oracle([model], logb[:, :, None], np.array([2000]))
    assert loglik[0] < -2000 * 46


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_shifts_each_entry_by_its_own_frame_max():
    # A sharp 120-dimensional Gaussian scores about +700 per frame, so
    # exp overflows on a two-frame product without the per-frame shift;
    # its batch-mate is one frame of an ordinary Gaussian near -170,
    # which one shift for the whole batch would round to zero.
    rng = np.random.default_rng(62)
    sharp = random_phoneme(rng, 3, gaussian=True, dim=120)
    sharp.emissions.means[:] = rng.normal(0.0, 2e-4, size=(3, 120))
    sharp.emissions.variances[:] = 5e-7
    plain = random_phoneme(rng, 3, gaussian=True, dim=120)
    plain.emissions.variances[:] = 1.0
    long_b = log_density_seq(sharp.emissions, sample(sharp, 40, rng)[0])
    short_b = log_density_seq(plain.emissions, sample(plain, 1, rng)[0])
    assert long_b.min() > 600 and long_b.max() < 750 and short_b.max() < -100
    logb = np.stack([long_b, long_b], axis=-1)
    logb[0, :, 1] = short_b[0]
    _assert_matches_unit_scale_oracle([sharp, plain], logb, np.array([40, 1]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_zero_frame_spares_its_batch_mates():
    # Entry 1 cannot emit frame 4 in any state: its loglik is -inf, with
    # no NaN anywhere, and entries 0 and 2 are unaffected.
    rng = np.random.default_rng(63)
    cases = [random_phoneme(rng, 3, ergodic=True) for _ in range(3)]
    lengths = np.array([9, 7, 5])
    logb = np.full((9, 3, 3), -np.inf)
    for b, model in enumerate(cases):
        obs = sample(model, lengths[b], rng)[0]
        logb[: lengths[b], :, b] = log_density_seq(model.emissions, obs)
    logb[4, :, 1] = -np.inf
    loglik = _assert_matches_unit_scale_oracle(cases, logb, lengths, skip=(1,))
    assert loglik[1] == -np.inf
    assert np.isfinite(loglik[[0, 2]]).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_reshifts_a_frame_only_unreachable_states_fit():
    # A Bakis chain starts in state 0, whose log density at frame 0 lies
    # 5,000 below that of state 1. Shifted by the frame's max alone, every
    # reachable state would round to 0 and the sequence score -inf.
    model = Hmm(
        [1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]],
        GaussianEmission([[0.0], [100.0]], [[1.0], [1.0]]), Topology.LEFT_TO_RIGHT,
    )
    other = random_phoneme(np.random.default_rng(64), 2, gaussian=True, dim=1)
    obs = np.array([[100.0], [99.0], [100.5], [100.0]])
    logb = np.stack([log_density_seq(m.emissions, obs) for m in (model, other)], axis=-1)
    assert logb[0, 1, 0] - logb[0, 0, 0] > 4000
    loglik = _assert_matches_unit_scale_oracle([model, other], logb, np.array([4, 4]))
    assert np.isfinite(loglik).all()
