import math

import numpy as np
import pytest

from helpers import bits, random_chains, random_discrete_hmm, random_gaussian_hmm, random_phoneme
from oracles import (
    brute_forward,
    brute_viterbi,
    dense_stack,
    posteriors_oracle,
    sample_oracle,
    two_loop_posteriors_lattice,
    two_loop_scaled_forward,
    viterbi_lattice_oracle,
    viterbi_score_lattice_oracle,
)

from phmm.emissions import DiscreteEmission, GaussianEmission, log_density_seq
from phmm.errors import (
    AllPathsZeroError,
    DimensionMismatchError,
    EmptyObservationError,
    NonFiniteEntryError,
    NonStochasticRowError,
    TopologyViolationError,
    ValidationError,
)
from phmm.hmm import (
    Hmm,
    Topology,
    _max_product,
    backward,
    band,
    forward,
    forward_lattice,
    loglik_lattice,
    posteriors,
    posteriors_lattice,
    sample,
    validate,
    viterbi,
    viterbi_lattice,
    viterbi_score_lattice,
)
from phmm.logmath import logsumexp, safe_log


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


def _random_stack(rng, n_models, table_width):
    """dense_stack of random_chains. The last model cannot start
    anywhere: its log_pi column is all -inf."""
    models, columns = random_chains(rng, n_models, table_width)
    models[-1].pi = np.zeros(models[-1].n_states)
    return dense_stack(models, columns)


@pytest.mark.parametrize("t_len", [1, 2, 7])
def test_viterbi_score_lattice_band_equals_the_dense_oracle(t_len):
    rng = np.random.default_rng(70 + t_len)
    for _ in range(5):
        log_pi, log_trans, columns = _random_stack(rng, 9, 6)
        table = rng.normal(-2.0, 1.5, size=(t_len, 6))
        table[rng.random(table.shape) < 0.1] = -np.inf
        table[:, -1] = -np.inf
        assert np.any(np.isinf(log_trans)) and np.any(columns == -1)
        want = viterbi_score_lattice_oracle(log_pi, log_trans, table, columns)
        assert want[-1] == -np.inf and np.isfinite(want).any()
        for trans in (log_trans, band(log_trans)):
            assert bits(viterbi_score_lattice(log_pi, trans, table, columns)) == bits(want)


def _random_lattice(rng, t_len, tied):
    """A _random_stack of 9 models, its (T, N, 9) gathered emissions with
    -inf cells, and mixed lengths in 1..t_len. tied gives every finite
    transition and initial log probability one value and the emissions
    a few integer values, so that many paths tie exactly."""
    log_pi, log_trans, columns = _random_stack(rng, 9, 6)
    table = rng.normal(-2.0, 1.5, size=(t_len, 6))
    if tied:
        log_pi = np.where(np.isfinite(log_pi), -1.0, -np.inf)
        log_trans = np.where(np.isfinite(log_trans), -1.0, -np.inf)
        table = rng.integers(-2, 1, size=table.shape).astype(float)
    table[rng.random(table.shape) < 0.1] = -np.inf
    table[:, -1] = -np.inf
    lengths = rng.integers(1, t_len + 1, size=9)
    return log_pi, log_trans, columns, table, lengths


@pytest.mark.parametrize("t_len", [1, 2, 7])
def test_viterbi_score_lattice_lengths_score_each_entry_at_its_last_frame(t_len):
    rng = np.random.default_rng(80 + t_len)
    for trial in range(6):
        log_pi, log_trans, columns, table, lengths = _random_lattice(rng, t_len, trial % 2)
        want = [
            viterbi_score_lattice_oracle(log_pi[:, b], log_trans[:, :, b], table[:k], columns[:, b])
            for b, k in enumerate(lengths.tolist())
        ]
        for trans in (log_trans, band(log_trans)):
            got = viterbi_score_lattice(log_pi, trans, table, columns, lengths)
            assert bits(got) == bits(want)


@pytest.mark.parametrize("t_len", [1, 2, 7])
def test_viterbi_lattice_batch_equals_the_per_entry_oracle(t_len):
    # Padded stacks with -inf cells, exact ties and mixed lengths: every
    # entry's score and path are the oracle's on the entry alone, bit
    # for bit, and a finite entry's path is the unpadded model's too.
    rng = np.random.default_rng(90 + t_len)
    n_finite = n_tied = 0
    for trial in range(8):
        log_pi, log_trans, columns, table, lengths = _random_lattice(rng, t_len, trial % 2)
        n = len(log_pi)
        logb = table[:, columns]
        score, path = viterbi_lattice(log_pi, log_trans, logb, lengths)
        assert path.shape == (lengths.max(), 9)
        # The same entries on two batch axes, lengths broadcast by row.
        rows = np.repeat(lengths[::3], 3)
        score2, path2 = viterbi_lattice(
            log_pi.reshape(n, 3, 3),
            log_trans.reshape(n, n, 3, 3),
            logb.reshape(t_len, n, 3, 3),
            lengths[::3, None],
        )
        for b, length in enumerate(lengths.tolist()):
            args = (log_pi[:, b], log_trans[:, :, b], logb[:length, :, b])
            want_score, want_path = viterbi_lattice_oracle(*args)
            assert bits(score[b]) == bits(want_score)
            assert path[:length, b].tolist() == want_path.tolist()
            one_score, one_path = viterbi_lattice(*args)
            assert bits(one_score) == bits(want_score) and np.array_equal(one_path, want_path)
            want2 = viterbi_lattice_oracle(*args[:2], logb[: rows[b], :, b])
            assert bits(score2.ravel()[b]) == bits(want2[0])
            assert path2[: rows[b]].reshape(rows[b], 9)[:, b].tolist() == want2[1].tolist()
            lo = int(np.sum(columns[:, b] == -1))
            if want_score > -np.inf:
                cut = viterbi_lattice_oracle(
                    log_pi[lo:, b], log_trans[lo:, lo:, b], logb[:length, lo:, b]
                )
                assert bits(cut[0]) == bits(want_score)
                assert (want_path - lo).tolist() == cut[1].tolist()
                n_finite += 1
                n_tied += bool(trial % 2)
    assert n_finite >= 10 and n_tied >= 5


def _ergodic_lattice(rng, n, batch, t_len, tied):
    """Random ergodic log parameters of batch models of n states, their
    (T, n, batch) emissions and unequal lengths in 1..t_len. Every
    transition is finite, so the band has all 2n - 1 offsets, the
    negative ones included; a few -inf cells of pi and logb leave some
    rows without a finite predecessor. tied draws every value from a few
    integers, so that predecessors and end rows tie exactly."""
    if tied:
        log_pi = rng.integers(-2, 0, size=(n, batch)).astype(float)
        log_trans = rng.integers(-2, 0, size=(n, n, batch)).astype(float)
        logb = rng.integers(-2, 1, size=(t_len, n, batch)).astype(float)
    else:
        log_pi = np.log(rng.dirichlet(np.ones(n), size=batch).T)
        log_trans = np.log(rng.dirichlet(np.ones(n), size=(n, batch)).transpose(0, 2, 1))
        logb = rng.normal(-2.0, 1.0, size=(t_len, n, batch))
    log_pi[rng.random(log_pi.shape) < 0.2] = -np.inf
    logb[rng.random(logb.shape) < 0.1] = -np.inf
    lengths = rng.integers(1, t_len + 1, size=batch)
    lengths[0] = t_len
    return log_pi, log_trans, logb, lengths


def _assert_equal_to_the_oracle(log_pi, log_trans, logb, lengths, score, path):
    for b, length in enumerate(lengths.tolist()):
        want_score, want_path = viterbi_lattice_oracle(
            log_pi[:, b], log_trans[:, :, b], logb[:length, :, b]
        )
        assert bits(score[b]) == bits(want_score)
        assert path[:length, b].tolist() == want_path.tolist()


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("tied", [False, True])
def test_viterbi_lattice_ergodic_band_equals_the_oracle(n, tied):
    # Ergodic bands: 2n - 1 offsets, from -(n - 1) up. Scores and paths
    # are the dense oracle's bit for bit, whether the kernel is given
    # the dense transitions or their band, and the scores are those of
    # viterbi_score_lattice, which keeps no back-pointers.
    rng = np.random.default_rng(200 + 10 * n + tied)
    for _ in range(6):
        log_pi, log_trans, logb, lengths = _ergodic_lattice(rng, n, 7, 9, tied)
        diagonals = band(log_trans)
        assert [o for o, _ in diagonals] == list(range(1 - n, n))
        for trans in (log_trans, diagonals):
            score, path = viterbi_lattice(log_pi, trans, logb, lengths)
            _assert_equal_to_the_oracle(log_pi, log_trans, logb, lengths, score, path)
        assert bits(viterbi_score_lattice(log_pi, diagonals, logb, None, lengths)) == bits(score)


def test_viterbi_lattice_ties_go_to_the_lowest_row():
    # No state enters state 0, and states 1 and 2 tie at every frame: the
    # first offset scanned (row 0) is never finite, the end rows 1 and 2
    # tie, and so does every predecessor pair, so the path stays in 1.
    log_pi = np.array([-np.inf, 0.0, 0.0])
    log_trans = safe_log(np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))
    logb = np.zeros((4, 3))
    score, path = viterbi_lattice(log_pi, log_trans, logb)
    assert path.tolist() == [1, 1, 1, 1]
    want = viterbi_lattice_oracle(log_pi, log_trans, logb)
    assert bits(score) == bits(want[0]) and path.tolist() == want[1].tolist()
    # An entry that scores -inf: its last frame emits nothing, so its end
    # row is 0, np.argmax over -inf, and the backtrack then follows the
    # dense argmax's pointers, a tie at frame 2 and the only finite
    # predecessor, row 1, at frame 1.
    log_pi = np.array([-np.inf, 0.0])
    log_trans = np.log(np.full((2, 2), 0.5))
    logb = np.array([[0.0, 0.0], [0.0, 0.0], [-np.inf, -np.inf]])
    score, path = viterbi_lattice(log_pi, log_trans, logb)
    want = viterbi_lattice_oracle(log_pi, log_trans, logb)
    assert score == want[0] == -np.inf
    assert path.tolist() == want[1].tolist() == [1, 0, 0]


@pytest.mark.parametrize("n, dtype", [(128, np.uint8), (130, np.uint16)])
def test_viterbi_lattice_pointer_codes_widen_past_a_byte(n, dtype):
    # 2n - 1 offsets and a code for "no finite predecessor": 255 offsets
    # fit one byte, 259 do not.
    rng = np.random.default_rng(n)
    log_pi, log_trans, logb, lengths = _ergodic_lattice(rng, n, 2, 5, tied=False)
    _, psi, offsets, _ = _max_product(log_pi, log_trans, logb, None, lengths, True)
    assert psi.dtype == dtype and len(offsets) == 2 * n - 1
    assert dtype is np.uint8 or psi.max() > 255
    score, path = viterbi_lattice(log_pi, log_trans, logb, lengths)
    _assert_equal_to_the_oracle(log_pi, log_trans, logb, lengths, score, path)


@pytest.mark.parametrize(
    "means, variances",
    [
        ([[np.nan, 0.0]], [[1.0, 1.0]]),
        ([[np.inf, 0.0]], [[1.0, 1.0]]),
        ([[0.0, 0.0]], [[-1.0, 1.0]]),
        ([[0.0, 0.0]], [[0.0, 1.0]]),
        ([[0.0, 0.0]], [[np.nan, 1.0]]),
        ([[0.0, 0.0]], [[np.inf, 1.0]]),
    ],
)
def test_sample_refuses_non_finite_means_and_non_positive_variances(means, variances):
    h = Hmm([1.0], [[1.0]], GaussianEmission(np.array(means), np.array(variances)))
    with pytest.raises(ValidationError):
        sample(h, 4, 3)


def test_sample_allows_variances_below_the_training_floor():
    h = Hmm([1.0], [[1.0]], GaussianEmission(np.array([[0.0, 5.0]]), np.array([[1e-9, 1.0]])))
    obs, path = sample(h, 4, 3)
    assert path == [0, 0, 0, 0] and np.all(np.isfinite(obs))
    assert np.all(np.abs(obs[:, 0]) < 1e-3)


@pytest.mark.parametrize("log_trans", [np.zeros((2, 2)), np.full((2, 2), -np.inf)])
def test_viterbi_score_lattice_unbatched_dense_call_returns_a_float(log_trans):
    args = (np.zeros(2), log_trans, np.zeros((3, 2)))
    got = viterbi_score_lattice(*args)
    assert isinstance(got, float)
    assert bits(got) == bits(viterbi_score_lattice_oracle(*args))


def test_band_rebuilds_the_dense_transitions():
    _, log_trans, _ = _random_stack(np.random.default_rng(75), 9, 6)
    n = len(log_trans)
    diagonals = band(log_trans)
    offsets = [o for o, _ in diagonals]
    assert offsets == sorted(offsets) and len(offsets) < 2 * n - 1
    rebuilt = np.full(log_trans.shape, -np.inf)
    for o, w in diagonals:
        for j in range(max(o, 0), n + min(o, 0)):
            rebuilt[j - o, j] = w[j]
        off_matrix = np.r_[0 : max(o, 0), n + min(o, 0) : n]
        assert np.all(w[off_matrix] == -np.inf)
    assert bits(rebuilt) == bits(log_trans)


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


def _with_zeros(rng, rows):
    """rows with random entries set to 0 (never a whole row), renormalized."""
    rows = np.where(rng.random(rows.shape) < 0.3, 0.0, rows)
    empty = rows.sum(axis=-1) == 0
    rows[empty] = 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("ergodic", [False, True])
def test_sample_matches_choice_oracle(gaussian, ergodic):
    # The inverse-CDF sampler against one Generator.choice per frame:
    # the same path, the same observations and dtype, and the same
    # generator state afterwards.
    rng = np.random.default_rng(61 + 2 * gaussian + ergodic)
    for trial in range(150):
        alphabet = int(rng.integers(1, 6))
        model = random_phoneme(rng, int(rng.integers(1, 6)), gaussian, ergodic, alphabet)
        if ergodic:
            model.pi, model.trans = _with_zeros(rng, model.pi), _with_zeros(rng, model.trans)
        if not gaussian:
            model.emissions = DiscreteEmission(_with_zeros(rng, model.emissions.probs))
        t_len = 1 if trial % 10 == 0 else int(rng.integers(2, 40))
        if trial % 2:
            got_rng, want_rng = np.random.default_rng(trial), np.random.default_rng(trial)
            obs, path = sample(model, t_len, got_rng)
            want_obs, want_path = sample_oracle(model, t_len, want_rng)
            assert got_rng.random() == want_rng.random()
        else:
            obs, path = sample(model, t_len, trial)
            want_obs, want_path = sample_oracle(model, t_len, trial)
        assert path == want_path
        assert all(type(s) is int for s in path)
        assert obs.dtype == want_obs.dtype
        assert obs.shape == want_obs.shape
        assert bits(obs) == bits(want_obs)


@pytest.mark.parametrize("field", ["pi", "trans", "probs"])
@pytest.mark.parametrize("row", [[np.nan, 0.5], [-0.25, 1.25], [0.3, 0.5]])
def test_sample_refuses_non_stochastic_rows(field, row):
    h = Hmm(
        pi=[0.5, 0.5],
        trans=[[0.5, 0.5], [0.5, 0.5]],
        emissions=DiscreteEmission(np.full((2, 2), 0.5)),
    )
    if field == "pi":
        h.pi = np.array(row)
    elif field == "trans":
        h.trans[1] = row
    else:
        h.emissions.probs[1] = row
    with pytest.raises(ValidationError):
        sample(h, 5, 3)


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


def _padded_posterior_batch(rng):
    """The _posterior_cases in one batch padded to the largest state count
    and length, and the cases: (log_pi, log_trans, logb, lengths, cases)."""
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
    return log_pi, log_trans, logb, lengths, cases


def test_posteriors_lattice_matches_per_frame_oracle():
    log_pi, log_trans, logb, lengths, cases = _padded_posterior_batch(np.random.default_rng(60))
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


def _stacked_params(models):
    """(log_pi (N, B), log_trans (N, N, B)) of models of one state count."""
    log_pi = np.stack([m.log_params()[0] for m in models], axis=-1)
    log_trans = np.stack([m.log_params()[1] for m in models], axis=-1)
    return log_pi, log_trans


def _assert_matches_unit_scale_oracle(cases, logb, lengths, skip=()):
    """posteriors_lattice over the (model, logb) cases, one batch entry
    each and all of one state count, against _oracle_at_unit_scale;
    entries in skip are only required to be finite."""
    n = cases[0].n_states
    loglik, gamma, xi_sum = posteriors_lattice(*_stacked_params(cases), logb, lengths)
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


def _tiny_density_case():
    """([model], logb, lengths): 2,000 frames at about 1e-20 each."""
    rng = np.random.default_rng(61)
    model = random_phoneme(rng, 3, ergodic=True)
    obs = sample(model, 2000, rng)[0]
    logb = log_density_seq(model.emissions, obs) + np.log(1e-20)
    return [model], logb[:, :, None], np.array([2000])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_scales_a_long_sequence_of_tiny_densities():
    # 2,000 frames at about 1e-20 each: an unscaled forward product
    # underflows to 0 within 16 frames.
    models, logb, lengths = _tiny_density_case()
    assert np.prod(np.exp(logb.max(axis=1))[:16]) == 0.0
    loglik = _assert_matches_unit_scale_oracle(models, logb, lengths)
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


def _zero_frame_case():
    """(models, logb, lengths): three ergodic entries of 9, 7 and 5
    frames, entry 1 unable to emit its frame 4 in any state."""
    rng = np.random.default_rng(63)
    cases = [random_phoneme(rng, 3, ergodic=True) for _ in range(3)]
    lengths = np.array([9, 7, 5])
    logb = np.full((9, 3, 3), -np.inf)
    for b, model in enumerate(cases):
        obs = sample(model, lengths[b], rng)[0]
        logb[: lengths[b], :, b] = log_density_seq(model.emissions, obs)
    logb[4, :, 1] = -np.inf
    return cases, logb, lengths


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_zero_frame_spares_its_batch_mates():
    # Entry 1 cannot emit frame 4 in any state: its loglik is -inf, with
    # no NaN anywhere, and entries 0 and 2 are unaffected.
    loglik = _assert_matches_unit_scale_oracle(*_zero_frame_case(), skip=(1,))
    assert loglik[1] == -np.inf
    assert np.isfinite(loglik[[0, 2]]).all()


def _reshift_case():
    """(models, logb, lengths): a Bakis chain whose only reachable state
    at frame 0 lies 5,000 below its best state, and a batch-mate."""
    model = Hmm(
        [1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]],
        GaussianEmission([[0.0], [100.0]], [[1.0], [1.0]]), Topology.LEFT_TO_RIGHT,
    )
    other = random_phoneme(np.random.default_rng(64), 2, gaussian=True, dim=1)
    obs = np.array([[100.0], [99.0], [100.5], [100.0]])
    logb = np.stack([log_density_seq(m.emissions, obs) for m in (model, other)], axis=-1)
    return [model, other], logb, np.array([4, 4])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_posteriors_lattice_reshifts_a_frame_only_unreachable_states_fit():
    # A Bakis chain starts in state 0, whose log density at frame 0 lies
    # 5,000 below that of state 1. Shifted by the frame's max alone, every
    # reachable state would round to 0 and the sequence score -inf.
    models, logb, lengths = _reshift_case()
    assert logb[0, 1, 0] - logb[0, 0, 0] > 4000
    loglik = _assert_matches_unit_scale_oracle(models, logb, lengths)
    assert np.isfinite(loglik).all()


def _shared_parameters_case(rng):
    # One model for every entry: the parameters' batch axes are 1.
    model = random_phoneme(rng, 3, ergodic=True)
    lengths = np.array([6, 3, 5, 1])
    logb = np.stack([log_density_seq(model.emissions, sample(model, 6, rng)[0]) for _ in lengths], -1)
    log_pi, log_trans = model.log_params()
    return log_pi[:, None], log_trans[:, :, None], logb, lengths


def _one_entry_case(rng):
    model = random_phoneme(rng, 4, gaussian=True)
    logb = log_density_seq(model.emissions, sample(model, 7, rng)[0])
    return (*_stacked_params([model]), logb[:, :, None], np.array([7]))


def _entry_ending_at_every_frame_case(rng):
    # Entries of 8 down to 1 frames; padded frames hold finite densities.
    models = [random_phoneme(rng, 3, ergodic=bool(b % 2)) for b in range(8)]
    logb = np.stack([log_density_seq(m.emissions, sample(m, 8, rng)[0]) for m in models], -1)
    return (*_stacked_params(models), logb, np.arange(8, 0, -1))


def _stacked_case(case):
    models, logb, lengths = case
    return (*_stacked_params(models), logb, lengths)


KERNEL_CASES = {
    "posterior_cases": lambda rng: _padded_posterior_batch(rng)[:4],
    "reshift": lambda rng: _stacked_case(_reshift_case()),
    "zero_frame": lambda rng: _stacked_case(_zero_frame_case()),
    "tiny_densities": lambda rng: _stacked_case(_tiny_density_case()),
    "shared_parameters": _shared_parameters_case,
    "one_entry": _one_entry_case,
    "entry_ending_at_every_frame": _entry_ending_at_every_frame_case,
}


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_scaled_kernel_is_bit_identical_to_the_two_loop_kernel(case):
    # The one-sweep kernel reorders no arithmetic: every output of the
    # two-loop kernel it replaced, bit for bit.
    args = KERNEL_CASES[case](np.random.default_rng(66))
    got = posteriors_lattice(*args)
    want = two_loop_posteriors_lattice(*args)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w) and bits(g) == bits(w)
    assert bits(loglik_lattice(*args)) == bits(two_loop_scaled_forward(*args)[0])
    assert bits(got[0]) == bits(loglik_lattice(*args))
