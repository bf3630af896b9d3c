"""Synthetic multi-channel corpus generation, splitting and file I/O.

Utterances are sampled from a ground-truth lexicon: a sign sequence is
drawn uniformly, per-channel utterance models are composed (epenthesis
per policy, each distinct one once per call) and sampled, then channel
noise and length jitter are applied. Every utterance derives its own
sub-seed from (seed, index), so generation is deterministic and
order-independent.

Corpus files are UTF-8 JSON Lines: one utterance per line with fields
corpus_version, id, signs, channels and optionally paths. Numbers are
written with full round-trip precision.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import hmm as hmm_mod
from .emissions import json_numbers
from .errors import DegenerateSplitError, FileFormatError, ValidationError
from .lexicon import MultiObservation
from .parallel import block_ids, compose_utterance_model

CORPUS_VERSION = 1


@dataclass
class GenConfig:
    n_utterances: int
    seed: int
    signs_per_utterance: tuple = (1, 3)
    state_dwell: tuple = (2, 4)
    epenthesis_dwell: tuple = (2, 4)
    channel_noise: float = 0.0
    desync_jitter: int = 0
    emit_paths: bool = True

    def __post_init__(self):
        if self.n_utterances < 1:
            raise ValidationError("n_utterances must be >= 1")
        lo, hi = self.signs_per_utterance
        if lo < 1 or hi < lo:
            raise ValidationError("signs_per_utterance range is empty")
        for name in ("state_dwell", "epenthesis_dwell"):
            lo, hi = getattr(self, name)
            if lo < 1 or hi < lo:
                raise ValidationError(f"{name} range is empty")
        if self.desync_jitter < 0:
            raise ValidationError("desync_jitter must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        noise = self.channel_noise
        if not isinstance(noise, numbers.Real) or not 0 <= noise < np.inf:
            raise ValidationError(f"channel_noise must be a finite float >= 0, got {noise!r}")


@dataclass
class Utterance:
    utt_id: str
    signs: list
    mobs: MultiObservation
    paths: dict | None = None


def generate(lexicon, cfg):
    """Sample a corpus of utterances from the lexicon.

    Deterministic for a fixed seed. With zero noise and jitter, channel
    lengths are equal within each utterance and the observations
    reproduce the composed models' emissions exactly. An utterance draws
    all its channels' state dwells in one rng.integers call.
    """
    utterances = []
    sign_ids = sorted(lexicon.signs)
    if not sign_ids:
        raise ValidationError("lexicon has no signs")
    chains = {}
    for idx in range(cfg.n_utterances):
        rng = np.random.default_rng((cfg.seed, idx))
        lo, hi = cfg.signs_per_utterance
        n_signs = int(rng.integers(lo, hi + 1))
        signs = [sign_ids[int(rng.integers(0, len(sign_ids)))] for _ in range(n_signs)]

        entries = [_chain(chains, lexicon, ch, signs, cfg) for ch in lexicon.channels]
        dwells = rng.integers(*np.hstack([ranges for *_, ranges in entries]))
        starts = np.cumsum([0] + [ranges.shape[1] for *_, ranges in entries[:-1]])
        base_len = int(np.add.reduceat(dwells, starts).max())
        channels = {}
        paths = {}
        for ch, (emissions, draw, _) in zip(lexicon.channels, entries):
            t_len = base_len + (
                int(rng.integers(0, cfg.desync_jitter + 1)) if cfg.desync_jitter else 0
            )
            obs, path = draw(t_len, rng)
            if cfg.channel_noise > 0:
                obs = emissions.add_noise(obs, float(cfg.channel_noise), rng)
            channels[ch] = obs
            paths[ch] = path
        utterances.append(
            Utterance(
                utt_id=f"utt-{idx:05d}",
                signs=signs,
                mobs=MultiObservation(channels=channels),
                paths=paths if cfg.emit_paths else None,
            )
        )
    return utterances


def _chain(chains, lexicon, channel, signs, cfg):
    """chains[channel, block ids], built on first use: the emissions, the
    hmm.sampler and the (2, states) dwell ranges [low, high) of the
    channel's utterance model for signs."""
    ids = tuple(block_ids(lexicon, channel, signs))
    if (channel, ids) not in chains:
        model = compose_utterance_model(lexicon, channel, signs)
        inv = lexicon.inventory(channel)
        dwell = [cfg.epenthesis_dwell if pid == inv.epenthesis else cfg.state_dwell for pid in ids]
        sizes = [inv.phonemes[pid].n_states for pid in ids]
        ranges = np.repeat(np.array(dwell) + [0, 1], sizes, axis=0).T
        chains[channel, ids] = model.emissions, hmm_mod.sampler(model), ranges
    return chains[channel, ids]


def split(corpus, train_fraction, seed):
    """Deterministic disjoint train/test split by shuffled utterance ids."""
    corpus = list(corpus)
    if not corpus:
        raise ValidationError("corpus is empty")
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must be in (0, 1)")
    n_train = int(round(len(corpus) * train_fraction))
    if n_train < 1 or n_train >= len(corpus):
        raise DegenerateSplitError(
            f"split {train_fraction} of {len(corpus)} leaves an empty side"
        )
    order = np.random.default_rng(seed).permutation(len(corpus))
    train = [corpus[i] for i in sorted(order[:n_train])]
    test = [corpus[i] for i in sorted(order[n_train:])]
    return train, test


def _obs_to_json(obs):
    arr = np.asarray(obs)
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        return arr.tolist()
    return np.asarray(arr, dtype=float).tolist()


def _obs_from_json(values):
    if not isinstance(values, list):
        raise FileFormatError("an observation sequence must be a JSON array")
    if not values:
        return np.empty(0, dtype=np.intp)
    try:
        if isinstance(values[0], list):
            return json_numbers("channels", values)
        # numpy reads true as 1 and [2, true] as the integers [2, 1].
        if bool in map(type, values):
            raise FileFormatError("field channels must hold JSON numbers only")
        # Symbols keep the type they were written with, so a non-integer
        # one is rejected when scored instead of being truncated here.
        return np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed observation sequence: {exc}") from exc


def utterance_to_record(utt):
    rec = {
        "corpus_version": CORPUS_VERSION,
        "id": utt.utt_id,
        "signs": list(utt.signs),
        "channels": {ch: _obs_to_json(o) for ch, o in utt.mobs.channels.items()},
    }
    if utt.paths is not None:
        rec["paths"] = {ch: list(map(int, p)) for ch, p in utt.paths.items()}
    return rec


def utterance_from_record(rec):
    if not isinstance(rec, dict):
        raise FileFormatError("a corpus record must be a JSON object")
    version = rec.get("corpus_version")
    if type(version) is not int or version != CORPUS_VERSION:
        raise FileFormatError(
            f"unsupported corpus_version {version!r} (supported: {CORPUS_VERSION})"
        )
    missing = [field for field in ("id", "signs", "channels") if field not in rec]
    if missing:
        raise FileFormatError(f"record lacks {', '.join(missing)}")
    if not (
        isinstance(rec["id"], str)
        and isinstance(rec["signs"], list)
        and all(isinstance(sid, str) for sid in rec["signs"])
        and isinstance(rec["channels"], dict)
        and isinstance(rec.get("paths") or {}, dict)
    ):
        raise FileFormatError(
            "id must be a string, signs an array of strings, channels and paths"
            " JSON objects"
        )
    for ch, path in (rec.get("paths") or {}).items():
        if not isinstance(path, list) or not {int}.issuperset(map(type, path)):
            raise FileFormatError(f"the {ch!r} path must be an array of integers")
    channels = {ch: _obs_from_json(v) for ch, v in rec["channels"].items()}
    return Utterance(
        utt_id=rec["id"],
        signs=list(rec["signs"]),
        mobs=MultiObservation(channels=channels),
        paths=rec.get("paths"),
    )


def write_corpus(path, corpus):
    with open(path, "w", encoding="utf-8") as fh:
        for utt in corpus:
            fh.write(json.dumps(utterance_to_record(utt)) + "\n")


def read_corpus(path):
    corpus = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"corpus file {path} is not UTF-8: {exc}") from exc
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            corpus.append(utterance_from_record(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
        except FileFormatError as exc:
            raise FileFormatError(f"line {line_no}: {exc}") from exc
    return corpus
