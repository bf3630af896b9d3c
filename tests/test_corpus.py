import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from helpers import build_lexicon, gaussian_twin, mixed_lexicon
from oracles import generate_oracle

from phmm import corpus as corpus_mod
from phmm import hmm as hmm_mod
from phmm import parallel
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
from phmm.errors import DegenerateSplitError, EmptySequenceError, FileFormatError, ValidationError
from phmm.hmm import Hmm, Topology
from phmm.lexicon import EPENTHESIS_NONE, Lexicon, PhonemeInventory, Sign
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


# generate's corpora against generate_oracle's, which composes and draws
# each utterance on its own: the criterion-7 corpora, unequal dwell
# ranges of which one holds one value, length jitter, heavy noise, long
# utterances, 40-60 signs with jitter and noise, no epenthesis, Gaussian
# emissions, and channels whose chains differ in state counts under
# ergodic phonemes.
ORACLE_CONFIGS = {
    "criterion-7-train": (demo_lexicon, dict(n_utterances=200, seed=7007, channel_noise=0.02)),
    "criterion-7-test": (demo_lexicon, dict(n_utterances=50, seed=7008, channel_noise=0.02)),
    "dwell-1-1-3-9": (
        demo_lexicon, dict(n_utterances=40, seed=3, state_dwell=(1, 1), epenthesis_dwell=(3, 9))
    ),
    "jitter": (demo_lexicon, dict(n_utterances=40, seed=4, desync_jitter=3, channel_noise=0.05)),
    "noise-0.5": (demo_lexicon, dict(n_utterances=40, seed=5, channel_noise=0.5)),
    "four-five-signs": (
        demo_lexicon, dict(n_utterances=30, seed=6, signs_per_utterance=(4, 5), channel_noise=0.02)
    ),
    "policy-none": (
        lambda: dataclasses.replace(demo_lexicon(), epenthesis_policy=EPENTHESIS_NONE),
        dict(n_utterances=40, seed=7, channel_noise=0.02, emit_paths=False),
    ),
    "gaussian-twin": (
        gaussian_twin, dict(n_utterances=30, seed=8, desync_jitter=2, channel_noise=0.3)
    ),
    "long-jitter-noise": (
        demo_lexicon,
        dict(n_utterances=4, seed=10, signs_per_utterance=(40, 60), desync_jitter=2,
             channel_noise=0.05),
    ),
    "mixed-ergodic": (
        lambda: mixed_lexicon(
            np.random.default_rng(31), ergodic=True, policy="between_signs",
            channels=("c0", "c1", "c2"),
        ),
        dict(
            n_utterances=40, seed=9, signs_per_utterance=(1, 4), state_dwell=(1, 1),
            epenthesis_dwell=(3, 9), desync_jitter=1, channel_noise=0.1,
        ),
    ),
}


@pytest.mark.parametrize("name", ORACLE_CONFIGS)
def test_generate_writes_the_oracles_bytes(name, tmp_path):
    make_lexicon, fields = ORACLE_CONFIGS[name]
    lexicon, cfg = make_lexicon(), GenConfig(**fields)
    write_corpus(tmp_path / "got.jsonl", generate(lexicon, cfg))
    write_corpus(tmp_path / "want.jsonl", generate_oracle(lexicon, cfg))
    assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_criterion_7_training_corpus_sha256(tmp_path):
    cfg = GenConfig(n_utterances=200, seed=7007, channel_noise=0.02)
    write_corpus(tmp_path / "train.jsonl", generate(demo_lexicon(), cfg))
    digest = hashlib.sha256((tmp_path / "train.jsonl").read_bytes()).hexdigest()
    assert digest == "2387dc892877ab9eb94db1c89810ba536d9407f76c6dee43260ca74f0d4e6066"


@pytest.mark.parametrize(
    "ranges",
    [
        [(2, 5, 3), (1, 2, 4), (3, 10, 2)],
        [(1, 2, 3), (1, 2, 2)],
        [(0, 2**32, 3), (1, 2, 1), (0, 2**32 + 1, 2), (5, 9, 3)],
        [(2**33, 2**34, 2), (2, 5, 1), (0, 2**62, 3)],
    ],
    ids=["small", "width-0", "2^32", "past-2^32"],
)
def test_one_dwell_draw_is_the_per_phoneme_draws(ranges):
    # generate draws every state's dwell of an utterance in one
    # rng.integers(lows, highs) call; it must give the values and leave
    # the generator state of one rng.integers(low, high, size=n) call per
    # phoneme, after an odd number of 32-bit draws too.
    lows = np.repeat([lo for lo, _, _ in ranges], [n for *_, n in ranges])
    highs = np.repeat([hi for _, hi, _ in ranges], [n for *_, n in ranges])
    for seed in range(20):
        for warm in (0, 1):
            one, per = np.random.default_rng(seed), np.random.default_rng(seed)
            one.integers(0, 5, size=warm)
            per.integers(0, 5, size=warm)
            want = [per.integers(lo, hi, size=n) for lo, hi, n in ranges]
            assert one.integers(lows, highs).tolist() == np.concatenate(want).tolist()
            assert one.integers(0, 7) == per.integers(0, 7)
            assert one.random() == per.random()


def test_read_corpus_refuses_a_line_that_is_not_json(tmp_path):
    lines = [json.dumps(utterance_to_record(u)) for u in generate(demo_lexicon(), GenConfig(1, 1))]
    path = tmp_path / "bad.jsonl"
    path.write_text(lines[0] + "\n{not json\n")
    with pytest.raises(FileFormatError, match=r"^line 2: invalid JSON: ") as exc:
        read_corpus(path)
    assert exc.type is FileFormatError


def test_read_corpus_refuses_an_observation_that_is_not_an_array(tmp_path):
    rec = {"corpus_version": 1, "id": "u", "signs": ["s"], "channels": {"ch": 5}}
    with pytest.raises(FileFormatError, match="^an observation sequence must be a JSON array$"):
        utterance_from_record(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(
        FileFormatError, match="^line 1: an observation sequence must be a JSON array$"
    ) as exc:
        read_corpus(path)
    assert exc.type is FileFormatError


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(signs_per_utterance=(0, 2)), "signs_per_utterance range is empty"),
        (dict(signs_per_utterance=(3, 2)), "signs_per_utterance range is empty"),
        (dict(desync_jitter=-1), "desync_jitter must be >= 0"),
    ],
    ids=["signs-from-0", "signs-3-to-2", "jitter--1"],
)
def test_genconfig_refuses_an_empty_signs_range_and_negative_jitter(fields, message):
    with pytest.raises(ValidationError, match=f"^{message}$") as exc:
        GenConfig(n_utterances=1, seed=1, **fields)
    assert exc.type is ValidationError


def test_split_refuses_an_empty_corpus_and_a_fraction_outside_0_1():
    with pytest.raises(ValidationError, match=r"^corpus is empty$") as exc:
        split([], 0.5, seed=0)
    assert exc.type is ValidationError
    corpus = generate(_deterministic_lexicon(), GenConfig(n_utterances=4, seed=1))
    for fraction in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValidationError, match=r"^train_fraction must be in \(0, 1\)$") as exc:
            split(corpus, fraction, seed=0)
        assert exc.type is ValidationError


def _peak_bytes(lexicon, cfg):
    tracemalloc.start()
    try:
        generate(lexicon, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_generate_composes_no_model_and_grows_linearly(monkeypatch):
    # Chains are concatenated from per-phoneme pieces: no N x N model,
    # which for these utterances would peak at 7.8 MB and 114 MB.
    def refuse(*args, **kwargs):
        raise AssertionError("generate composed a model")

    for module in (parallel, corpus_mod):
        for name in ("compose_models", "compose_utterance_model"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    lex = demo_lexicon()
    generate(lex, GenConfig(n_utterances=1, seed=5))
    peaks = [
        _peak_bytes(lex, GenConfig(4, 5, signs_per_utterance=(k, k), channel_noise=0.02))
        for k in (40, 160)
    ]
    assert peaks[0] < 2_000_000
    assert peaks[1] < 6 * peaks[0]


BAD_ROWS = {
    "trans-row-sum": lambda m: m.trans.__setitem__(0, [0.5, 0.4, 0.0]),
    "trans-negative": lambda m: m.trans.__setitem__(0, [-0.5, 1.5, 0.0]),
    "trans-nan": lambda m: m.trans.__setitem__(0, [np.nan, 1.0, 0.0]),
    "pi-sum": lambda m: setattr(m, "pi", np.array([0.5, 0.4, 0.0])),
    "emission-row-sum": lambda m: m.emissions.probs.__setitem__(1, [0.0, 0.0, 0.0, 0.0, 0.9, 0.0]),
}


@pytest.mark.parametrize("fault", BAD_ROWS)
def test_generate_refuses_a_bad_row_of_a_used_phoneme_only(fault, tmp_path):
    # Phoneme b spells sign sb alone. A corpus that never draws sb is
    # written as from the sound lexicon; one that draws it is refused
    # with the class that sampling the composed model raises.
    lex, sound = _deterministic_lexicon(), _deterministic_lexicon()
    BAD_ROWS[fault](lex.inventory("ch").phonemes["b"])
    with pytest.raises(ValidationError) as want:
        hmm_mod.sampler(compose_utterance_model(lex, "ch", ["sa", "sb"]))
    configs = [GenConfig(n_utterances=1, seed=seed) for seed in range(6)]
    uses_b = {cfg.seed: any("sb" in u.signs for u in generate(sound, cfg)) for cfg in configs}
    assert set(uses_b.values()) == {False, True}
    for cfg in configs:
        if uses_b[cfg.seed]:
            with pytest.raises(ValidationError) as got:
                generate(lex, cfg)
            assert got.type is want.type
        else:
            write_corpus(tmp_path / "got.jsonl", generate(lex, cfg))
            write_corpus(tmp_path / "want.jsonl", generate(sound, cfg))
            assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_generate_refuses_a_sign_that_spells_no_phoneme():
    # validate_lexicon refuses such a sign; generate refuses it too, with
    # compose_models' error, before any frame is drawn.
    lex = _deterministic_lexicon()
    lex.signs["sa"].channels["ch"] = []
    with pytest.raises(EmptySequenceError, match="^no blocks to compose$"):
        generate(lex, GenConfig(n_utterances=3, seed=1))
