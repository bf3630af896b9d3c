"""Synthetic multi-channel corpus generation, splitting and file I/O.

Utterances are sampled from a ground-truth lexicon: a sign sequence is
drawn uniformly, each channel's utterance model (epenthesis per policy)
is sampled, then channel noise and length jitter are applied. No model
is composed: each distinct chain's rows are concatenated, once per call,
from per-phoneme pieces checked once per call, so a chain costs time
and memory linear in its states. Every utterance derives its own
sub-seed from (seed, index), so generation is deterministic and
order-independent.

Corpus files are UTF-8 JSON Lines: one utterance per line with fields
corpus_version, id, signs, channels and optionally paths. Numbers are
written with full round-trip precision.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import hmm as hmm_mod
from .emissions import check_stochastic, json_numbers
from .errors import DegenerateSplitError, EmptySequenceError, FileFormatError, ValidationError
from .lexicon import MultiObservation
from .parallel import block_ids

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
    reproduce the composed models' emissions exactly. Every utterance's
    signs are drawn first, so that each channel's chains are built, and
    checked, before the first frame is sampled; each utterance's
    generator then draws all its channels' state dwells in one
    rng.integers call.
    """
    sign_ids = sorted(lexicon.signs)
    if not sign_ids:
        raise ValidationError("lexicon has no signs")
    drawn = []
    for idx in range(cfg.n_utterances):
        rng = np.random.default_rng((cfg.seed, idx))
        lo, hi = cfg.signs_per_utterance
        n_signs = int(rng.integers(lo, hi + 1))
        drawn.append((rng, [sign_ids[int(rng.integers(0, len(sign_ids)))] for _ in range(n_signs)]))
    spelled = {
        ch: [tuple(block_ids(lexicon, ch, signs)) for _, signs in drawn] for ch in lexicon.channels
    }
    chains = {ch: _chains(lexicon, ch, spelled[ch], cfg) for ch in lexicon.channels}

    utterances = []
    for idx, (rng, signs) in enumerate(drawn):
        entries = [chains[ch][spelled[ch][idx]] for ch in lexicon.channels]
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


def _chains(lexicon, channel, spellings, cfg):
    """{ids: (emissions, draw, ranges)} for each distinct phoneme id
    sequence ids in spellings: the stacked emissions of the phonemes the
    spellings use, the hmm.walker of the channel's utterance model for
    ids and the (2, states) dwell ranges [low, high) of its states.

    No model is composed. Each used phoneme's pi and trans are checked
    as hmm.sampler checks them and cut once into row_pieces: its rows
    but the last, its last row (the last block's own) and pi (the first
    block's, the chain's initial row). A phoneme that follows another
    also gets its junction row [1 - exit_prob, exit_prob * pi], checked
    as a trans row: the row that leaves the block before it, whose last
    state is column -1. A chain's rows are these pieces in block order,
    each one's states moved by its block's offset, with the cdf values
    of the composed model's rows bit for bit. One emission sampler,
    checked once, draws every chain's frames from the stacked rows."""
    if () in spellings:  # a sign of an unvalidated lexicon that spells nothing here
        raise EmptySequenceError("no blocks to compose")
    inv, exit_prob = lexicon.inventory(channel), lexicon.exit_prob
    used = list(dict.fromkeys(pid for ids in spellings for pid in ids))
    entered = {pid for ids in spellings for pid in ids[1:]}
    pieces, junction, n_states = {}, {}, {}
    for pid in used:
        model = inv.phonemes[pid]
        hmm_mod._check_chain(model)
        n = n_states[pid] = model.n_states
        states, cdf, counts = hmm_mod.row_pieces(np.vstack([model.trans, model.pi]))
        at = [0, *itertools.accumulate(counts.tolist())]
        pieces[pid] = [
            (states[at[i] : at[j]], cdf[at[i] : at[j]], counts[i:j])
            for i, j in ((0, n - 1), (n - 1, n), (n, n + 1))
        ]
        if pid in entered:
            row = np.concatenate([[1.0 - exit_prob], exit_prob * model.pi])[None]
            check_stochastic("trans", row, "trans row")
            states, cdf, counts = hmm_mod.row_pieces(row)
            junction[pid] = states - 1, cdf, counts
    emissions = type(inv.phonemes[used[0]].emissions).stack(
        [inv.phonemes[pid].emissions for pid in used]
    )
    emit = emissions.sampler()
    first_row = dict(zip(used, itertools.accumulate([0] + [n_states[pid] for pid in used[:-1]])))

    chains = {}
    for ids in dict.fromkeys(spellings):
        sizes = [n_states[pid] for pid in ids]
        offsets = [0, *itertools.accumulate(sizes)]
        parts = []
        for pid, nxt, off, nxt_off in zip(ids, ids[1:] + (None,), offsets, offsets[1:]):
            body, last, _ = pieces[pid]
            parts += [(body, off), (last, off) if nxt is None else (junction[nxt], nxt_off)]
        parts.append((pieces[ids[0]][2], 0))
        states, cdf, counts = (np.concatenate([piece[i] for piece, _ in parts]) for i in range(3))
        states += np.repeat([off for _, off in parts], [len(piece[0]) for piece, _ in parts])
        emit_rows = np.repeat([first_row[pid] - off for pid, off in zip(ids, offsets)], sizes)
        emit_rows += np.arange(offsets[-1])
        dwell = [cfg.epenthesis_dwell if pid == inv.epenthesis else cfg.state_dwell for pid in ids]
        ranges = np.repeat(np.array(dwell) + [0, 1], sizes, axis=0).T
        chains[ids] = emissions, hmm_mod.walker(states, cdf, counts, emit, emit_rows), ranges
    return chains


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
