import numpy as np
import pytest

from helpers import build_lexicon

from phmm.corpus import (
    GenConfig,
    generate,
    read_corpus,
    split,
    utterance_from_record,
    utterance_to_record,
    write_corpus,
)
from phmm.demo import demo_lexicon
from phmm.emissions import DiscreteEmission
from phmm.errors import DegenerateSplitError, FileFormatError, ValidationError
from phmm.hmm import Hmm, Topology
from phmm.lexicon import Lexicon, PhonemeInventory, Sign
from phmm.parallel import compose_utterance_model


def _deterministic_lexicon():
    """All probabilities 0 or 1: one fixed observation per state path."""

    def phoneme(symbols, alphabet=6):
        n = len(symbols)
        probs = np.zeros((n, alphabet))
        for s, sym in enumerate(symbols):
            probs[s, sym] = 1.0
        trans = np.zeros((n, n))
        for i in range(n - 1):
            trans[i, i + 1] = 1.0
        trans[-1, -1] = 1.0
        pi = np.zeros(n)
        pi[0] = 1.0
        return Hmm(pi, trans, DiscreteEmission(probs), Topology.LEFT_TO_RIGHT)

    inv = PhonemeInventory(phonemes={"a": phoneme([0, 1, 2]), "b": phoneme([3, 4, 5])})
    signs = {"sa": Sign("sa", {"ch": ["a"]}), "sb": Sign("sb", {"ch": ["b"]})}
    return Lexicon(channels=["ch"], inventories={"ch": inv}, signs=signs)


def test_deterministic_lexicon_reproduces_emissions():
    lex = _deterministic_lexicon()
    cfg = GenConfig(n_utterances=5, seed=3, signs_per_utterance=(1, 2))
    for utt in generate(lex, cfg):
        model = compose_utterance_model(lex, "ch", utt.signs)
        obs = utt.mobs.channels["ch"]
        path = utt.paths["ch"]
        for t, (sym, state) in enumerate(zip(obs, path)):
            assert model.emissions.probs[state, sym] == 1.0


def test_generation_deterministic_for_seed(tmp_path):
    lex = demo_lexicon()
    cfg = GenConfig(n_utterances=12, seed=9, channel_noise=0.05, desync_jitter=2)
    a = generate(lex, cfg)
    b = generate(lex, cfg)
    fa, fb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(fa, a)
    write_corpus(fb, b)
    assert fa.read_bytes() == fb.read_bytes()


def test_sign_frequencies_uniform():
    lex = build_lexicon(np.random.default_rng(0), vocab=4, n_phonemes=4)
    cfg = GenConfig(n_utterances=1000, seed=17, signs_per_utterance=(1, 1))
    corpus = generate(lex, cfg)
    counts = {}
    for utt in corpus:
        counts[utt.signs[0]] = counts.get(utt.signs[0], 0) + 1
    sigma = np.sqrt(0.25 * 0.75 / 1000)
    for sid in lex.signs:
        assert abs(counts.get(sid, 0) / 1000 - 0.25) <= 3 * sigma


def test_ground_truth_paths_are_valid():
    lex = demo_lexicon()
    cfg = GenConfig(n_utterances=6, seed=21)
    for utt in generate(lex, cfg):
        for ch in lex.channels:
            model = compose_utterance_model(lex, ch, utt.signs)
            path = utt.paths[ch]
            assert len(path) == len(utt.mobs.channels[ch])
            assert model.pi[path[0]] > 0
            for a, b in zip(path, path[1:]):
                assert model.trans[a, b] > 0


def test_jitter_bounds_length_differences():
    lex = demo_lexicon()
    cfg = GenConfig(n_utterances=10, seed=5, desync_jitter=3)
    saw_difference = False
    for utt in generate(lex, cfg):
        lengths = [len(utt.mobs.channels[ch]) for ch in lex.channels]
        assert max(lengths) - min(lengths) <= 3
        saw_difference |= len(set(lengths)) > 1
    assert saw_difference


def test_zero_jitter_gives_equal_lengths():
    lex = demo_lexicon()
    for utt in generate(lex, GenConfig(n_utterances=8, seed=2)):
        lengths = {len(utt.mobs.channels[ch]) for ch in lex.channels}
        assert len(lengths) == 1


def test_noise_rate_roughly_matches():
    lex = _deterministic_lexicon()
    noisy = GenConfig(n_utterances=200, seed=11, channel_noise=0.1)
    clean = GenConfig(n_utterances=200, seed=11, channel_noise=0.0)
    flips = total = 0
    for u_noisy, u_clean in zip(generate(lex, noisy), generate(lex, clean)):
        a = np.asarray(u_noisy.mobs.channels["ch"])
        b = np.asarray(u_clean.mobs.channels["ch"])
        flips += int(np.sum(a != b))
        total += a.shape[0]
    assert 0.07 <= flips / total <= 0.13


def test_ground_truth_hypothesis_dominates_on_clean_single_signs():
    # with zero noise/jitter, the true sign's forward loglik is finite and
    # no other single-sign hypothesis scores higher
    from phmm.hmm import forward

    lex = demo_lexicon()
    cfg = GenConfig(n_utterances=15, seed=33, signs_per_utterance=(1, 1))
    for utt in generate(lex, cfg):
        truth = utt.signs
        true_ll = sum(
            forward(compose_utterance_model(lex, ch, truth), utt.mobs.channels[ch])[0]
            for ch in lex.channels
        )
        assert np.isfinite(true_ll)
        for sid in lex.signs:
            if [sid] == truth:
                continue
            other = 0.0
            for ch in lex.channels:
                model = compose_utterance_model(lex, ch, [sid])
                ll, _ = forward(model, utt.mobs.channels[ch])
                other += ll
            assert other <= true_ll


def test_split_basic_and_union():
    lex = _deterministic_lexicon()
    corpus = generate(lex, GenConfig(n_utterances=10, seed=1))
    train, test = split(corpus, 0.5, seed=4)
    assert len(train) == 5 and len(test) == 5
    ids = {u.utt_id for u in train} | {u.utt_id for u in test}
    assert ids == {u.utt_id for u in corpus}
    assert not ({u.utt_id for u in train} & {u.utt_id for u in test})


def test_split_seed_sensitivity_and_degenerate():
    lex = _deterministic_lexicon()
    corpus = generate(lex, GenConfig(n_utterances=20, seed=1))
    t1, _ = split(corpus, 0.5, seed=100)
    t2, _ = split(corpus, 0.5, seed=101)
    assert {u.utt_id for u in t1} != {u.utt_id for u in t2}
    with pytest.raises(DegenerateSplitError):
        split(corpus[:2], 0.05, seed=0)


def test_corpus_roundtrip(tmp_path):
    lex = demo_lexicon()
    corpus = generate(lex, GenConfig(n_utterances=7, seed=13, channel_noise=0.02))
    path = tmp_path / "c.jsonl"
    write_corpus(path, corpus)
    loaded = read_corpus(path)
    assert len(loaded) == len(corpus)
    for a, b in zip(corpus, loaded):
        assert a.utt_id == b.utt_id
        assert a.signs == b.signs
        for ch in lex.channels:
            assert np.array_equal(a.mobs.channels[ch], b.mobs.channels[ch])
        assert a.paths == {ch: list(p) for ch, p in b.paths.items()}


def test_gaussian_roundtrip_precision():
    obs = np.array([[0.1234567890123456, -7.77], [1e-300, 3.5]])
    rec = utterance_to_record(
        type("U", (), {"utt_id": "u", "signs": ["s"], "paths": None,
                       "mobs": type("M", (), {"channels": {"ch": obs}})()})()
    )
    import json

    back = utterance_from_record(json.loads(json.dumps(rec)))
    assert np.array_equal(back.mobs.channels["ch"], obs)


def test_unsupported_corpus_version():
    with pytest.raises(FileFormatError):
        utterance_from_record({"corpus_version": 99, "id": "x", "signs": [], "channels": {}})


@pytest.mark.parametrize("version", [True, 1.0])
def test_corpus_version_must_be_the_supported_integer(version):
    rec = {"corpus_version": version, "id": "x", "signs": [], "channels": {}}
    with pytest.raises(FileFormatError, match="unsupported corpus_version"):
        utterance_from_record(rec)


def _gaussian_lexicon():
    from phmm.emissions import GaussianEmission

    def phoneme(center):
        means = np.array([[center, center], [center + 1.0, center - 1.0]])
        variances = np.full((2, 2), 0.25)
        trans = np.array([[0.5, 0.5], [0.0, 1.0]])
        return Hmm(
            np.array([1.0, 0.0]), trans, GaussianEmission(means, variances),
            Topology.LEFT_TO_RIGHT,
        )

    inv = PhonemeInventory(phonemes={"g0": phoneme(-3.0), "g1": phoneme(3.0)})
    signs = {"sa": Sign("sa", {"ch": ["g0"]}), "sb": Sign("sb", {"ch": ["g1"]})}
    return Lexicon(channels=["ch"], inventories={"ch": inv}, signs=signs)


def test_gaussian_generation_noise_and_roundtrip(tmp_path):
    lex = _gaussian_lexicon()
    clean_cfg = GenConfig(n_utterances=30, seed=6, signs_per_utterance=(1, 2))
    noisy_cfg = GenConfig(
        n_utterances=30, seed=6, signs_per_utterance=(1, 2), channel_noise=0.5
    )
    clean = generate(lex, clean_cfg)
    noisy = generate(lex, noisy_cfg)
    deltas = np.concatenate(
        [
            (np.asarray(n.mobs.channels["ch"]) - np.asarray(c.mobs.channels["ch"])).ravel()
            for n, c in zip(noisy, clean)
        ]
    )
    assert 0.4 <= deltas.std() <= 0.6
    path = tmp_path / "gauss.jsonl"
    write_corpus(path, noisy)
    loaded = read_corpus(path)
    for a, b in zip(noisy, loaded):
        assert np.array_equal(np.asarray(a.mobs.channels["ch"]), b.mobs.channels["ch"])


def test_genconfig_validation():
    with pytest.raises(ValidationError):
        GenConfig(n_utterances=0, seed=1)
    with pytest.raises(ValidationError):
        GenConfig(n_utterances=1, seed=1, signs_per_utterance=(2, 1))
    with pytest.raises(ValidationError, match="seed"):
        GenConfig(n_utterances=1, seed=-1)
    # A dict is not a noise rate: a misspelled channel in it would leave
    # every channel noise-free.
    for noise in (float("nan"), -0.1, {"ch": float("nan")}, {"right_hnd": 0.5}):
        with pytest.raises(ValidationError, match="channel_noise"):
            GenConfig(n_utterances=1, seed=1, channel_noise=noise)
