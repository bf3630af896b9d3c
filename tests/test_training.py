import collections

import numpy as np
import pytest

from helpers import (
    BATCH_CASES,
    bits,
    left_to_right_hmm,
    mixed_lexicon,
    random_discrete_hmm,
    random_phoneme,
    sample_mobs,
)
from oracles import baum_welch_oracle, composed_e_step_oracle, tied_counts_oracle
from phmm import parallel, training
from phmm.emissions import DiscreteEmission, GaussianEmission
from phmm.errors import (
    DegenerateModelError,
    DimensionMismatchError,
    IncompatibleDataError,
    NonFiniteEntryError,
    VariantMismatchError,
)
from phmm.hmm import Hmm, forward, sample, validate
from phmm.lexicon import Lexicon, PhonemeInventory, Sign
from phmm.parallel import block_ids, compose_models
from phmm.training import (
    TrainConfig,
    _compile,
    baum_welch,
    derive_seed,
    initial_model,
    train_embedded,
    train_segmented,
)

MONO_SLACK = 1e-10


def assert_monotone(trajectory):
    for a, b in zip(trajectory, trajectory[1:]):
        assert b >= a - MONO_SLACK, f"loglik decreased: {a} -> {b}"


def test_fixed_point_of_deterministic_model():
    h = Hmm(
        pi=[1.0, 0.0],
        trans=[[0.0, 1.0], [0.0, 1.0]],
        emissions=DiscreteEmission(np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    data = [sample(h, 5, s)[0] for s in range(4)]
    cfg = TrainConfig(max_iters=10, smoothing=0.0)
    model, report = baum_welch(h, data, cfg)
    assert report.converged
    assert report.iterations_run == 1
    assert len(set(report.loglik_trajectory)) == 1
    assert np.allclose(model.trans, h.trans)
    assert np.allclose(model.emissions.probs, h.emissions.probs)


def test_single_state_converges_to_indicator():
    init = Hmm(
        pi=[1.0],
        trans=[[1.0]],
        emissions=DiscreteEmission(np.array([[0.5, 0.5]])),
    )
    data = [np.zeros(6, dtype=int) for _ in range(3)]
    cfg = TrainConfig(max_iters=50, smoothing=1e-8)
    model, _ = baum_welch(init, data, cfg)
    assert model.emissions.probs[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_monotone_loglik_and_valid_params_every_iteration():
    rng = np.random.default_rng(31)
    gen = random_discrete_hmm(rng, n_states=2, alphabet=3)
    data = [sample(gen, 12, np.random.default_rng((31, i)))[0] for i in range(50)]
    init = initial_model(gen, data, TrainConfig(seed=5))
    cfg = TrainConfig(max_iters=25, seed=5)

    seen = []

    def check(it, model, loglik):
        validate(model)
        # independent re-evaluation of the reported loglik
        recomputed = sum(forward(model, seq)[0] for seq in data)
        assert recomputed == pytest.approx(loglik, abs=1e-8)
        seen.append(loglik)

    model, report = baum_welch(init, data, cfg, on_iteration=check)
    assert_monotone(report.loglik_trajectory)
    assert seen == report.loglik_trajectory
    assert report.loglik_trajectory[-1] >= report.loglik_trajectory[0]
    validate(model)


def test_gaussian_training_monotone():
    rng = np.random.default_rng(77)
    gen = Hmm(
        pi=[0.6, 0.4],
        trans=[[0.7, 0.3], [0.2, 0.8]],
        emissions=GaussianEmission(np.array([[-2.0], [2.0]]), np.array([[1.0], [1.0]])),
    )
    data = [sample(gen, 20, np.random.default_rng((7, i)))[0] for i in range(15)]
    init = initial_model(gen, data, TrainConfig(seed=3))
    model, report = baum_welch(init, data, TrainConfig(max_iters=30, seed=3))
    assert_monotone(report.loglik_trajectory)
    validate(model)


def test_rows_without_evidence_keep_their_parameters():
    # Two-frame sequences from state 0 of a Bakis chain never leave
    # states 1 and 2, so their transition rows and emissions get no
    # evidence and keep their previous values.
    init = left_to_right_hmm(rng=np.random.default_rng(81))
    data = [np.array([i % 4, (i + 1) % 4]) for i in range(6)]
    cfg = TrainConfig(max_iters=3, smoothing=0.0)
    model, _ = baum_welch(init, data, cfg)
    want, _, _, _ = baum_welch_oracle(init, data, cfg)
    _assert_same_model(model, want)
    assert np.array_equal(model.trans[1:], init.trans[1:])
    assert not np.array_equal(model.trans[0], init.trans[0])
    assert np.array_equal(model.emissions.probs[2:], init.emissions.probs[2:])


def test_degenerate_init_raises():
    init = Hmm(
        pi=[1.0],
        trans=[[1.0]],
        emissions=DiscreteEmission(np.array([[1.0, 0.0]])),
    )
    with pytest.raises(DegenerateModelError):
        baum_welch(init, [np.array([1, 1])], TrainConfig())


def test_variant_mismatch_raises():
    init = left_to_right_hmm()
    with pytest.raises(VariantMismatchError):
        baum_welch(init, [np.zeros((4, 2))], TrainConfig())
    # A bad sequence next to a good one of the same batch: each is checked
    # before the batch's frames are concatenated, which would otherwise
    # fail with numpy's ValueError.
    gaussian = random_phoneme(np.random.default_rng(5), 3, gaussian=True)
    cases = [
        (init, [np.array([0, 1, 2]), np.zeros((4, 2), dtype=int)], VariantMismatchError),
        (gaussian, [np.zeros((4, 2)), np.zeros((4, 3))], DimensionMismatchError),
    ]
    cfg = TrainConfig(max_iters=2)
    for model, data, error in cases:
        with pytest.raises(error):
            baum_welch(model, data, cfg)
        utts = [(["s"], obs) for obs in data]
        with pytest.raises(error):
            train_embedded(_single_phoneme_lexicon(model), "ch", utts, cfg, init_models={"p": model})


@pytest.mark.parametrize(
    "field, value",
    [("rel_tol", 0.0), ("rel_tol", np.nan), ("rel_tol", np.inf), ("smoothing", -1.0),
     ("smoothing", np.nan),
     ("smoothing", np.inf), ("max_iters", 0), ("seed", -1),
     ("init_strategy", "uniform-perturbed")],
)
def test_train_config_rejects_invalid_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_determinism_same_seed_same_model():
    rng = np.random.default_rng(4)
    gen = random_discrete_hmm(rng, n_states=2, alphabet=3)
    data = [sample(gen, 10, np.random.default_rng((4, i)))[0] for i in range(10)]
    outs = []
    for _ in range(2):
        cfg = TrainConfig(max_iters=15, seed=12)
        init = initial_model(gen, data, cfg)
        model, _ = baum_welch(init, data, cfg)
        outs.append(model)
    a, b = outs
    assert np.max(np.abs(a.pi - b.pi)) <= 1e-12
    assert np.max(np.abs(a.trans - b.trans)) <= 1e-12
    assert np.max(np.abs(a.emissions.probs - b.emissions.probs)) <= 1e-12


def test_initial_model_respects_topology_and_stats():
    data = [np.array([0, 0, 1, 2]), np.array([2, 2, 1])]
    cfg = TrainConfig(seed=9)
    template = left_to_right_hmm(n_states=3, alphabet=3)
    m = initial_model(template, data, cfg)
    validate(m)
    assert m.trans[2, 2] == 1.0
    assert m.trans[1, 0] == 0.0
    # global frequency of symbol 1 is 2/7; rows stay close to it after jitter
    assert np.all(np.abs(m.emissions.probs[:, 1] - 2 / 7) < 0.05)

    flat = initial_model(template, data, TrainConfig(seed=9, init_strategy="from_global_stats"))
    assert np.allclose(flat.pi, 1 / 3)
    assert np.allclose(flat.emissions.probs[0], [2 / 7, 2 / 7, 3 / 7])


def _single_phoneme_lexicon(model):
    inv = PhonemeInventory(phonemes={"p": model})
    sign = Sign("s", {"ch": ["p"]})
    return Lexicon(channels=["ch"], inventories={"ch": inv}, signs={"s": sign})


def _phoneme_lexicon(phonemes):
    """Channel "ch" over the given phoneme models, one sign per phoneme."""
    inv = PhonemeInventory(phonemes=dict(phonemes))
    signs = {pid: Sign(pid, {"ch": [pid]}) for pid in phonemes}
    return Lexicon(channels=["ch"], inventories={"ch": inv}, signs=signs)


def test_train_segmented_reduces_to_baum_welch():
    rng = np.random.default_rng(10)
    gen = left_to_right_hmm(rng=rng)
    segments = [sample(gen, 8, np.random.default_rng((10, i)))[0] for i in range(6)]
    cfg = TrainConfig(max_iters=10, seed=21)
    models, report = train_segmented(_single_phoneme_lexicon(gen), "ch", {"p": segments}, cfg)
    init = initial_model(gen, segments, cfg, seed=derive_seed(21, "segmented", "ch", "p"))
    direct, direct_report = baum_welch(init, segments, cfg)
    assert np.array_equal(models["p"].trans, direct.trans)
    assert np.array_equal(models["p"].emissions.probs, direct.emissions.probs)
    assert report.loglik_trajectory == direct_report.loglik_trajectory
    assert report.untouched_phonemes == ()


def test_train_segmented_independent_of_other_phonemes():
    rng = np.random.default_rng(14)
    gen_a = left_to_right_hmm(rng=rng)
    gen_b = left_to_right_hmm(rng=rng)
    segs_a = [sample(gen_a, 8, np.random.default_rng((1, i)))[0] for i in range(5)]
    segs_b = [sample(gen_b, 8, np.random.default_rng((2, i)))[0] for i in range(5)]
    segs_c = [sample(gen_b, 8, np.random.default_rng((3, i)))[0] for i in range(5)]
    cfg = TrainConfig(max_iters=8, seed=2)
    lex = _phoneme_lexicon({"a": gen_a, "b": gen_b})
    m1, _ = train_segmented(lex, "ch", {"a": segs_a, "b": segs_b}, cfg)
    m2, _ = train_segmented(lex, "ch", {"a": segs_a, "b": segs_c}, cfg)
    assert np.array_equal(m1["a"].trans, m2["a"].trans)
    assert np.array_equal(m1["a"].emissions.probs, m2["a"].emissions.probs)


def test_train_segmented_missing_phoneme():
    # A phoneme without segments keeps its lexicon-bound model.
    rng = np.random.default_rng(15)
    gen_a = left_to_right_hmm(rng=rng)
    gen_b = left_to_right_hmm(rng=rng)
    lex = _phoneme_lexicon({"a": gen_a, "b": gen_b})
    segs = [sample(gen_a, 8, np.random.default_rng((4, i)))[0] for i in range(5)]
    models, report = train_segmented(lex, "ch", {"a": segs, "b": []}, TrainConfig(max_iters=4))
    assert list(models) == ["a", "b"]
    assert report.untouched_phonemes == ("b",)
    assert np.array_equal(models["b"].trans, gen_b.trans)
    assert np.array_equal(models["b"].emissions.probs, gen_b.emissions.probs)
    assert models["b"] is not gen_b
    with pytest.raises(IncompatibleDataError, match="no training segments"):
        train_segmented(lex, "ch", {}, TrainConfig())


def test_train_segmented_recovers_generators():
    # generate-and-recover: held-out loglik close to the generating model's
    phonemes = {}
    for k in range(4):
        gen = left_to_right_hmm(alphabet=8)
        # all mass on the phoneme's own symbol pair, tilted per state
        probs = np.zeros((3, 8))
        probs[:, 2 * k] = [0.8, 0.5, 0.2]
        probs[:, 2 * k + 1] = [0.2, 0.5, 0.8]
        gen.emissions.probs = probs
        phonemes[f"p{k}"] = gen
    train = {
        pid: [sample(m, 10, np.random.default_rng((5, k, i)))[0] for i in range(40)]
        for k, (pid, m) in enumerate(phonemes.items())
    }
    held = {
        pid: [sample(m, 10, np.random.default_rng((6, k, i)))[0] for i in range(20)]
        for k, (pid, m) in enumerate(phonemes.items())
    }
    cfg = TrainConfig(max_iters=40, seed=77)
    models, _ = train_segmented(_phoneme_lexicon(phonemes), "ch", train, cfg)
    for pid in phonemes:
        ll_true = sum(forward(phonemes[pid], seq)[0] for seq in held[pid])
        ll_learned = sum(forward(models[pid], seq)[0] for seq in held[pid])
        assert abs(ll_learned - ll_true) / abs(ll_true) <= 0.05


def _assert_same_model(a, b):
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.trans, b.trans)
    assert type(a.emissions) is type(b.emissions)
    for name, arr in vars(a.emissions).items():
        assert np.array_equal(arr, getattr(b.emissions, name))


TOPOLOGIES = [(False, False), (False, True), (True, False), (True, True)]
TOPOLOGY_IDS = ["bakis", "ergodic", "bakis-gaussian", "ergodic-gaussian"]


@pytest.mark.parametrize("gaussian, ergodic", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_baum_welch_and_segmented_equal_single_model_oracle(gaussian, ergodic):
    rng = np.random.default_rng(12)
    gen = random_phoneme(rng, 3, gaussian, ergodic)
    data = [sample(gen, 5 + i % 7, np.random.default_rng((12, i)))[0] for i in range(12)]
    for max_iters in (1, 4, 200):
        cfg = TrainConfig(max_iters=max_iters, seed=9)
        init = initial_model(gen, data, cfg)
        want, trajectory, iterations, converged = baum_welch_oracle(init, data, cfg)
        got, report = baum_welch(init, data, cfg)
        _assert_same_model(got, want)
        assert report.loglik_trajectory == trajectory
        assert (report.iterations_run, report.converged) == (iterations, converged)
        models, seg_report = train_segmented(
            _single_phoneme_lexicon(gen), "ch", {"p": data}, cfg, init_models={"p": init}
        )
        _assert_same_model(models["p"], want)
        assert seg_report.loglik_trajectory == trajectory
    assert converged


@pytest.mark.parametrize("gaussian, ergodic", TOPOLOGIES, ids=TOPOLOGY_IDS)
def test_embedded_single_phoneme_reduces_to_baum_welch(gaussian, ergodic):
    # An ergodic phoneme's final row is trained like every other row, as
    # in single-model Baum-Welch; a Bakis final row stays [0, ..., 0, 1].
    rng = np.random.default_rng(8)
    gen = random_phoneme(rng, 3, gaussian, ergodic)
    lex = _single_phoneme_lexicon(gen)
    utts = [
        (["s"], sample(gen, 9, np.random.default_rng((8, i)))[0]) for i in range(10)
    ]
    cfg = TrainConfig(max_iters=12, seed=3)
    init = initial_model(gen, [obs for _, obs in utts], cfg, seed=1234)
    emb_models, emb_report = train_embedded(
        lex, "ch", utts, cfg, init_models={"p": init}
    )
    direct, direct_report = baum_welch(init, [obs for _, obs in utts], cfg)
    _assert_same_model(emb_models["p"], direct)
    assert emb_report.loglik_trajectory == direct_report.loglik_trajectory
    if not ergodic:
        assert emb_models["p"].trans[-1].tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("gaussian", [False, True])
def test_tied_statistics_equal_path_enumeration(gaussian):
    # Multi-block chains of ergodic and Bakis phonemes, repeated phonemes
    # included: the E-step's pooled statistics against explicit paths.
    rng = np.random.default_rng(19)
    models = {
        "a": random_phoneme(rng, 2, gaussian, ergodic=True),
        "b": random_phoneme(rng, 1, gaussian, ergodic=True),
        "c": random_phoneme(rng, 2, gaussian, ergodic=False),
    }
    chains = [("a",), ("a", "b"), ("b", "a"), ("c", "a"), ("a", "b", "c"), ("a", "a")]
    data = []
    for i, chain in enumerate(chains):
        blocks = [(key, models[key]) for key in chain]
        composed, _ = compose_models(blocks, 0.3)
        data.append(sample(composed, 3 + i % 3, np.random.default_rng((19, i)))[0])
    _, accs = _compile(models, chains, data, 0.3, "sequences")(models)
    want = tied_counts_oracle(models, chains, data, 0.3)
    assert list(accs) == list(want) == ["a", "b", "c"]
    for key, (pi, trans, stats) in accs.items():
        assert np.allclose(pi, want[key][0], rtol=1e-9, atol=1e-12)
        assert np.allclose(trans, want[key][1], rtol=1e-9, atol=1e-12)
        for name, arr in vars(stats).items():
            assert np.allclose(arr, getattr(want[key][2], name), rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("case", range(len(BATCH_CASES)))
def test_e_step_equals_composed_emission_oracle(case):
    # Chains with a phoneme repeated within them, equal state counts at
    # unequal lengths and a one-frame sequence: the E-step reading one
    # density table per batch against scoring every sequence on its
    # composed model's stacked emissions, bit for bit.
    lex = mixed_lexicon(np.random.default_rng(30 + case), **BATCH_CASES[case])
    models = lex.inventory("c0").phonemes
    utts = [(["s0"], 5), (["s1", "s1"], 7), (["s2", "s0", "s1"], 9), (["s1"], 1),
            (["s0", "s2"], 4), (["s2", "s2", "s2"], 11), (["s1"], 6), (["s0"], 3)]
    chains = [tuple(block_ids(lex, "c0", signs)) for signs, _ in utts]
    data = [
        sample_mobs(lex, signs, t_len, seed=100 * case + i).channels["c0"]
        for i, (signs, t_len) in enumerate(utts)
    ]
    assert any(len(set(chain)) < len(chain) for chain in chains)
    for stats_needed in (True, False):
        e_step = _compile(models, chains, data, lex.exit_prob, "sequences")
        got_ll, got = e_step(models, stats_needed)
        want_ll, want = composed_e_step_oracle(models, chains, data, lex.exit_prob, stats_needed)
        assert bits(got_ll) == bits(want_ll)
        if not stats_needed:
            assert got is None and want is None
            continue
        assert list(got) == list(want)
        for key, (pi, trans, stats) in got.items():
            assert bits(pi) == bits(want[key][0])
            assert bits(trans) == bits(want[key][1])
            for name, arr in vars(stats).items():
                assert bits(arr) == bits(getattr(want[key][2], name))


def test_e_step_padding_cannot_overflow():
    # A one-frame sequence batched with an 80-frame one under a sharp
    # Gaussian (log density about +12 per frame): the short one's padded
    # frames must neither overflow exp in posteriors_lattice, which
    # pytest turns into an error, nor add to its statistics.
    model = Hmm([1.0], [[1.0]], GaussianEmission(np.zeros((1, 2)), np.full((1, 2), 1e-6)))
    data = [np.zeros((1, 2)), np.zeros((80, 2))]
    total, accs = _compile({0: model}, [(0,), (0,)], data, None, "sequences")({0: model})
    assert total == composed_e_step_oracle({0: model}, [(0,), (0,)], data, None)[0]
    assert accs[0][2].weight[0] == pytest.approx(81.0)


def test_embedded_unused_phoneme_unchanged_and_flagged():
    rng = np.random.default_rng(18)
    gen = left_to_right_hmm(rng=rng)
    other = left_to_right_hmm(rng=rng)
    inv = PhonemeInventory(phonemes={"p": gen, "q": other})
    signs = {"s": Sign("s", {"ch": ["p"]}), "t": Sign("t", {"ch": ["q"]})}
    lex = Lexicon(channels=["ch"], inventories={"ch": inv}, signs=signs)
    utts = [
        (["s"], sample(gen, 9, np.random.default_rng((18, i)))[0]) for i in range(8)
    ]
    cfg = TrainConfig(max_iters=6, seed=1)
    init_q = left_to_right_hmm(rng=np.random.default_rng(55))
    init_p = initial_model(gen, [obs for _, obs in utts], cfg, seed=derive_seed(1, "x"))
    models, report = train_embedded(
        lex, "ch", utts, cfg, init_models={"p": init_p, "q": init_q}
    )
    assert report.untouched_phonemes == ("q",)
    assert np.array_equal(models["q"].trans, init_q.trans)
    assert np.array_equal(models["q"].emissions.probs, init_q.emissions.probs)


def test_embedded_multi_sign_monotone_rescoring():
    # 3-sign lexicon over one channel; loglik recomputed per iteration
    rng = np.random.default_rng(40)
    phonemes = {}
    for k in range(3):
        m = left_to_right_hmm(alphabet=6, rng=rng)
        probs = np.full((3, 6), 0.05 / 4)
        probs[:, 2 * k] = 0.475
        probs[:, 2 * k + 1] = 0.475
        m.emissions.probs = probs
        phonemes[f"p{k}"] = m
    inv = PhonemeInventory(phonemes=dict(phonemes))
    signs = {f"s{k}": Sign(f"s{k}", {"ch": [f"p{k}"]}) for k in range(3)}
    lex = Lexicon(channels=["ch"], inventories={"ch": inv}, signs=signs)

    from phmm.parallel import compose_utterance_model

    utt_rng = np.random.default_rng(91)
    utts = []
    for i in range(60):
        n_signs = int(utt_rng.integers(1, 4))
        seq = [f"s{int(utt_rng.integers(0, 3))}" for _ in range(n_signs)]
        model = compose_utterance_model(lex, "ch", seq)
        obs, _ = sample(model, 6 * n_signs, np.random.default_rng((91, i)))
        utts.append((seq, obs))

    cfg = TrainConfig(max_iters=15, seed=6)
    rescored = []

    def check(it, models, loglik):
        for m in models.values():
            validate(m)
        rescored.append(loglik)

    models, report = train_embedded(lex, "ch", utts, cfg, on_iteration=check)
    assert_monotone(report.loglik_trajectory)
    assert rescored == report.loglik_trajectory
    for m in models.values():
        validate(m)


def _mute_model():
    """A 2-state Bakis chain that never emits symbol 3."""
    model = left_to_right_hmm(n_states=2, rng=np.random.default_rng(70))
    model.emissions.probs[:, 3] = 0.0
    model.emissions.probs /= model.emissions.probs.sum(axis=1, keepdims=True)
    return model


def test_zero_likelihood_count_reported():
    model = _mute_model()
    data = [np.array([0, 1, 2]), np.array([1, 3]), np.array([2]), np.array([3, 3, 0, 1])]
    with pytest.raises(DegenerateModelError, match="^2 of 4 sequences have zero"):
        baum_welch(model, data, TrainConfig(max_iters=3))
    lex = _single_phoneme_lexicon(model)
    utts = [(["s"], obs) for obs in data[:3]]
    with pytest.raises(DegenerateModelError, match="^1 of 3 utterances have zero"):
        train_embedded(lex, "ch", utts, TrainConfig(max_iters=3), init_models={"p": model})


def _mixed_utterances(lex, n, seed):
    """n utterances of 1-3 signs, so their composed state counts differ."""
    rng = np.random.default_rng(seed)
    utts = []
    for i in range(n):
        signs = [f"s{int(rng.integers(0, 3))}" for _ in range(1 + i % 3)]
        length = int(rng.integers(2, 9)) * len(signs)
        mobs = sample_mobs(lex, signs, length, seed=1000 * seed + i)
        utts.append((signs, mobs.channels["c0"]))
    return utts


@pytest.mark.parametrize(
    "gaussian, ergodic", TOPOLOGIES, ids=["False", "ergodic", "True", "ergodic-gaussian"]
)
def test_embedded_training_repeats_exactly(gaussian, ergodic):
    lex = mixed_lexicon(
        np.random.default_rng(71), gaussian=gaussian, ergodic=ergodic, policy="between_signs"
    )
    utts = _mixed_utterances(lex, 24, 72)
    cfg = TrainConfig(max_iters=6, seed=4)
    (m1, r1), (m2, r2) = (train_embedded(lex, "c0", utts, cfg) for _ in range(2))
    assert r1.loglik_trajectory == r2.loglik_trajectory
    assert_monotone(r1.loglik_trajectory)
    for pid, model in m1.items():
        other = m2[pid]
        assert np.array_equal(model.pi, other.pi)
        assert np.array_equal(model.trans, other.trans)
        for name, arr in vars(model.emissions).items():
            assert np.array_equal(arr, getattr(other.emissions, name))


def test_training_never_composes(monkeypatch):
    # The E-step gathers its composed parameters from the tied models
    # through maps built once per run, so compose_models serves decoding
    # and generation only; composed_e_step_oracle, which still composes,
    # checks those maps bit for bit.
    lex = mixed_lexicon(np.random.default_rng(78), policy="between_signs")
    utts = _mixed_utterances(lex, 9, 79)
    assert max(len(signs) for signs, _ in utts) == 3
    data = [obs for _, obs in utts]
    cfg = TrainConfig(max_iters=3, seed=2)
    init = initial_model(lex.inventory("c0").phonemes["c0_p0"], data, cfg)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compose_models(*args, **kwargs)

    monkeypatch.setattr(parallel, "compose_models", counted)
    monkeypatch.setattr(training, "compose_models", counted, raising=False)
    train_embedded(lex, "c0", utts, cfg)
    baum_welch(init, data, cfg)
    assert calls == []
    parallel.compose_utterance_model(lex, "c0", utts[2][0])
    assert len(calls) == 1


def test_embedded_rejects_float_symbols():
    lex = mixed_lexicon(np.random.default_rng(73))
    utts = _mixed_utterances(lex, 4, 74)
    utts[2] = (utts[2][0], utts[2][1].astype(float))
    with pytest.raises(VariantMismatchError, match="integer symbols"):
        train_embedded(lex, "c0", utts, TrainConfig(max_iters=2))


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("extra", [0, 6])
def test_embedded_checks_each_utterance_at_most_twice(gaussian, extra, monkeypatch):
    # Starting every phoneme checks the pooled corpus once per channel,
    # not once per phoneme, and the engine checks it once more, however
    # many phonemes the inventory holds (extra ones are untouched).
    rng = np.random.default_rng(77)
    lex = mixed_lexicon(rng, gaussian=gaussian, policy="between_signs")
    phonemes = lex.inventory("c0").phonemes
    phonemes.update({f"c0_x{k}": random_phoneme(rng, 2, gaussian) for k in range(extra)})
    utts = _mixed_utterances(lex, 5, 78)
    cls = GaussianEmission if gaussian else DiscreteEmission
    calls, check = collections.Counter(), cls.check

    def counted(self, obs):
        calls[id(obs)] += 1
        return check(self, obs)

    monkeypatch.setattr(cls, "check", counted)
    train_embedded(lex, "c0", utts, TrainConfig(max_iters=2, seed=5))
    assert len(phonemes) == 4 + extra
    assert all(0 < calls[id(obs)] <= 2 for _, obs in utts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_embedded_rejects_non_finite_gaussian_observations(bad):
    lex = mixed_lexicon(np.random.default_rng(75), gaussian=True)
    utts = _mixed_utterances(lex, 4, 76)
    utts[1][1][0, 1] = bad
    with pytest.raises(NonFiniteEntryError, match="observations"):
        train_embedded(lex, "c0", utts, TrainConfig(max_iters=2))


def test_embedded_gaussian_without_frames_is_incompatible_data():
    # Like discrete data, Gaussian data with no frames cannot seed an
    # initial model; it used to average an empty array into NaN means.
    lex = mixed_lexicon(np.random.default_rng(77), gaussian=True)
    utts = [(["s0"], np.empty((0, 2)))]
    with pytest.raises(IncompatibleDataError, match="no observations"):
        train_embedded(lex, "c0", utts, TrainConfig(max_iters=2))
