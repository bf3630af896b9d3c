"""Baum-Welch estimation through one engine: single models, per-phoneme
segmented training and whole-utterance embedded training.

Every kind of training is EM over a dict of models and a list of
chains, a chain being the tuple of model keys that one sequence is
scored on, composed left to right (parallel.compose_models). Every
occurrence of a key, within and across sequences, is tied to one
parameter set: its statistics are pooled before one M-step per
iteration. baum_welch trains one model on one-block chains (Rabiner,
Proc. IEEE 1989, section III.C), train_segmented runs baum_welch per
phoneme on its segments, and train_embedded trains every phoneme of a
channel on the utterances' block sequences.

Composition rewires the final row of every block except a chain's last
(exit wiring). Exactly those rows are structural constants and receive
no statistics; every other row, the final row of a chain's last block
included, is a tied parameter. So every iteration is an exact EM step,
the total log likelihood never decreases, and a one-block chain is
plain Baum-Welch.

The E-step runs hmm.posteriors_lattice over batches of sequences whose
composed models have the same state count, so its Python loop steps
over the frames of the longest sequence, not over every frame of every
sequence. As in the decoders, emissions come from one table of every
model's state log densities per batch (parallel._log_density_table),
read through each chain's state columns. Statistics are added in
corpus order whatever the batches.

All training is single-threaded with a fixed accumulation order, so
identical inputs and seed reproduce identical models.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import emissions as em_mod
from .errors import (
    DegenerateModelError,
    EmptyObservationError,
    IncompatibleDataError,
)
from .hmm import Hmm, Topology, forward_lattice, posteriors_lattice, validate
from .logmath import LOG_ZERO
from .parallel import _log_density_table, _state_columns, block_ids, compose_models

INIT_UNIFORM_PERTURBED = "uniform_perturbed"
INIT_FROM_GLOBAL_STATS = "from_global_stats"


@dataclass
class TrainConfig:
    max_iters: int = 100
    rel_tol: float = 1e-6
    seed: int = 0
    smoothing: float = 1e-8
    init_strategy: str = INIT_UNIFORM_PERTURBED

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol!r}")
        if not self.smoothing >= 0:
            raise ValueError(f"smoothing must be >= 0, got {self.smoothing!r}")
        if self.smoothing == math.inf:
            raise ValueError("smoothing must be finite, got inf")
        if self.init_strategy not in (INIT_UNIFORM_PERTURBED, INIT_FROM_GLOBAL_STATS):
            raise ValueError(f"unknown init_strategy {self.init_strategy!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


@dataclass
class TrainReport:
    loglik_trajectory: list
    iterations_run: int
    converged: bool
    untouched_phonemes: tuple = ()


def derive_seed(seed, *labels):
    """Stable sub-seed from a base seed and string labels."""
    h = hashlib.sha256(
        ("|".join([str(seed)] + [str(x) for x in labels])).encode()
    ).digest()
    return int.from_bytes(h[:8], "big")


def _uniform_topology_rows(n_states, topology):
    if topology is Topology.ERGODIC:
        return np.full((n_states, n_states), 1.0 / n_states)
    trans = 0.5 * (np.eye(n_states) + np.eye(n_states, k=1))
    trans[-1, -1] = 1.0
    return trans


def initial_model(template, data, cfg, seed=None):
    """A starting model with the state count, topology and emission kind
    (alphabet or dimension) of the template model, its parameters from
    the statistics of data, every sequence of which must fit the template.

    uniform_perturbed applies seeded multiplicative noise in [0.9, 1.1]
    to the uniform pi/trans and the per-state emission parameters, so
    exact-uniform EM saddle points are avoided. from_global_stats is
    the deterministic flat start (gaussian means spread on a +/- 0.5
    sigma ladder).
    """
    if not data:
        raise IncompatibleDataError("training data is empty")
    data = [template.emissions.check(obs) for obs in data]
    if not any(len(obs) for obs in data):
        raise IncompatibleDataError("no observations in training data")
    rng = None
    if cfg.init_strategy == INIT_UNIFORM_PERTURBED:
        rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n_states, topology = template.n_states, template.topology
    pi = np.full(n_states, 1.0 / n_states) * em_mod.jitter(rng, n_states)
    pi /= pi.sum()
    trans = _uniform_topology_rows(n_states, topology)
    trans = trans * np.where(trans > 0, em_mod.jitter(rng, (n_states, n_states)), 1.0)
    trans /= trans.sum(axis=1, keepdims=True)
    model = Hmm(pi, trans, template.emissions.initial(data, rng), topology)
    validate(model)
    return model


def _initial_models(lexicon, channel, data, cfg, mode):
    """initial_model of every phoneme key of data (phoneme id -> list of
    sequences) on its lexicon-bound template, with the seed
    derive_seed(cfg.seed, mode, channel, pid)."""
    phonemes = lexicon.inventory(channel).phonemes
    return {
        pid: initial_model(phonemes[pid], seqs, cfg, derive_seed(cfg.seed, mode, channel, pid))
        for pid, seqs in data.items()
    }


def _m_step(model, stats, cfg):
    """Normalized expected counts. pi or a transition row without
    evidence keeps its previous values (its likelihood contribution is
    flat), and so does an emission state (maximize's fallback)."""
    pi_acc, trans_acc, em_stats = stats
    pi_total = pi_acc.sum()
    new_pi = pi_acc / pi_total if pi_total > 0 else model.pi.copy()
    totals = trans_acc.sum(axis=1, keepdims=True)
    live = totals > 0
    new_trans = np.where(live, trans_acc / np.where(live, totals, 1.0), model.trans)
    new_em = em_mod.maximize(em_stats, cfg.smoothing, fallback=model.emissions)
    return Hmm(new_pi, new_trans, new_em, model.topology)


def _e_step(models, chains, data, exit_prob, what, stats_needed=True):
    """Total log likelihood of data[i] (checked and nonempty) on the
    composed chains[i] for every i, and the tied statistics (pi, trans,
    emission) per model key in a chain, or None without stats.

    Initial-state evidence of a block is the chain's start posterior for
    its first block and the boundary transitions into it for later ones.
    Transition evidence covers every row of a block but the final row of
    a block that is not the chain's last, which composition rewires.
    """
    composed = {}
    for chain in dict.fromkeys(chains):
        model, offsets = compose_models([(key, models[key]) for key in chain], exit_prob)
        composed[chain] = (offsets, _state_columns(models, chain), *model.log_params())
    batches = {}
    for i, chain in enumerate(chains):
        batches.setdefault(len(composed[chain][1]), []).append(i)
    logliks = np.empty(len(data))
    post = [None] * len(data)
    for batch in batches.values():
        entries = [composed[chains[i]] for i in batch]
        lengths = np.array([len(data[i]) for i in batch])
        # Frame t of entry b reads row t of its span of the table. Frames
        # past its length are -inf: finite padding can overflow exp in
        # posteriors_lattice, although the result masks those frames.
        frames = np.arange(lengths.max())[:, None]
        rows = np.cumsum(lengths) - lengths + np.minimum(frames, lengths - 1)
        obs = np.concatenate([data[i] for i in batch])
        columns = np.stack([e[1] for e in entries], axis=-1)
        logb = _log_density_table(models, obs)[rows[:, None], columns]
        np.copyto(logb, LOG_ZERO, where=(frames >= lengths)[:, None])
        log_pi = np.stack([e[2] for e in entries], axis=-1)
        log_trans = np.stack([e[3] for e in entries], axis=-1)
        if not stats_needed:
            logliks[batch], _ = forward_lattice(log_pi, log_trans, logb, lengths)
            continue
        logliks[batch], gamma, xi_sum = posteriors_lattice(log_pi, log_trans, logb, lengths)
        for b, i in enumerate(batch):
            post[i] = (gamma[: lengths[b], :, b], xi_sum[:, :, b])
    n_impossible = int(np.count_nonzero(logliks == LOG_ZERO))
    if n_impossible:
        raise DegenerateModelError(
            f"{n_impossible} of {len(data)} {what} have zero likelihood"
            " under the current models"
        )
    total = math.fsum(logliks.tolist())
    if not stats_needed:
        return total, None
    accs = {}
    for chain, obs, (gamma, xi_sum) in zip(chains, data, post):
        offsets = composed[chain][0]
        for k, key in enumerate(chain):
            n = models[key].n_states
            if key not in accs:
                accs[key] = (np.zeros(n), np.zeros((n, n)), models[key].emissions.new_stats())
            pi_acc, trans_acc, em_stats = accs[key]
            off = offsets[k]
            rows = n if k == len(chain) - 1 else n - 1
            em_mod.accumulate_seq(em_stats, gamma[:, off : off + n], obs)
            trans_acc[:rows] += xi_sum[off : off + rows, off : off + n]
            pi_acc += gamma[0, off : off + n] if k == 0 else xi_sum[off - 1, off : off + n]
    return total, accs


def _em(models, chains, data, exit_prob, cfg, on_iteration, what="sequences"):
    """EM on the tied models (a dict keyed like the chains) until the
    relative log-likelihood gain drops below cfg.rel_tol or
    cfg.max_iters M-steps ran; data[i] is checked by the first model of
    chains[i] and scored on chains[i].

    on_iteration(it, models, loglik) sees the models each log likelihood
    was computed with. Returns (models, report): the report's
    loglik_trajectory holds the total data log likelihood at the start
    of every iteration plus the final models', and is non-decreasing;
    keys in no chain keep their parameters and are listed as untouched.
    """
    if not data:
        raise IncompatibleDataError(f"no training {what}")
    if not all(len(obs) for obs in data):
        raise EmptyObservationError("empty observation sequence")
    data = [models[chain[0]].emissions.check(obs) for chain, obs in zip(chains, data)]
    models = {key: m.copy() for key, m in models.items()}
    trajectory = []
    converged = False
    iterations = 0
    for it in range(cfg.max_iters):
        loglik, accs = _e_step(models, chains, data, exit_prob, what)
        trajectory.append(loglik)
        if on_iteration is not None:
            on_iteration(it, models, loglik)
        if it > 0 and abs(loglik - trajectory[-2]) / (abs(loglik) + 1.0) < cfg.rel_tol:
            converged = True
            break
        for key, stats in accs.items():
            models[key] = _m_step(models[key], stats, cfg)
        iterations += 1
    if not converged:
        final_ll, _ = _e_step(models, chains, data, exit_prob, what, stats_needed=False)
        trajectory.append(final_ll)
        if on_iteration is not None:
            on_iteration(iterations, models, final_ll)
    used = {key for chain in chains for key in chain}
    untouched = tuple(key for key in models if key not in used)
    return models, TrainReport(trajectory, iterations, converged, untouched)


def baum_welch(init, data, cfg, on_iteration=None):
    """EM re-estimation of one model from a set of observation sequences:
    the engine with every sequence on the one-block chain of the model.

    Returns (model, report); on_iteration(it, model, loglik) as in
    train_embedded, with the one model.
    """
    data = list(data)

    def hook(it, models, loglik):
        if on_iteration is not None:
            on_iteration(it, models[0], loglik)

    # One-block chains have no exit rows, so exit_prob is unused.
    models, report = _em({0: init}, [(0,)] * len(data), data, None, cfg, hook)
    return models[0], report


def train_segmented(lexicon, channel, segments, cfg, init_models=None):
    """Train every phoneme of a channel on its own segments with
    baum_welch: the result for a phoneme depends only on its segments,
    the config and the seed.

    segments maps phoneme ids to lists of observation sequences. Initial
    models come from init_models when given, else from the statistics of
    each phoneme's segments. Phonemes without segments keep their
    lexicon-bound models and are reported as untouched. Returns (models,
    report), models in inventory order; the report's loglik_trajectory
    sums the phonemes' trajectories, one that stopped early holding its
    final value.
    """
    inv = lexicon.inventory(channel)
    data = {pid: list(segments[pid]) for pid in inv.phonemes if segments.get(pid)}
    if not data:
        raise IncompatibleDataError(f"no training segments for channel {channel!r}")
    if init_models is None:
        init_models = _initial_models(lexicon, channel, data, cfg, "segmented")
    models = {}
    reports = []
    for pid, template in inv.phonemes.items():
        if pid in data:
            models[pid], report = baum_welch(init_models[pid], data[pid], cfg)
            reports.append(report)
        else:
            models[pid] = template.copy()
    length = max(len(r.loglik_trajectory) for r in reports)
    trajectory = [
        sum(r.loglik_trajectory[min(i, len(r.loglik_trajectory) - 1)] for r in reports)
        for i in range(length)
    ]
    untouched = tuple(pid for pid in inv.phonemes if pid not in data)
    return models, TrainReport(
        trajectory,
        max(r.iterations_run for r in reports),
        all(r.converged for r in reports),
        untouched,
    )


def train_embedded(
    lexicon, channel, utterances, cfg, init_models=None, on_iteration=None
):
    """Embedded Baum-Welch over composed utterance models for one channel.

    utterances is a sequence of (sign id sequence, observation
    sequence) pairs; each is scored on the chain of its phoneme blocks
    (parallel.block_ids). Epenthesis fillers train like any other
    phoneme. The bound models in the lexicon only provide each phoneme's
    state count, topology and alphabet; parameters start from
    init_models when given, else from the statistics of all utterances.

    Returns (models, report), models in inventory order; phonemes that
    occur in no utterance are listed in report.untouched_phonemes.
    """
    utterances = list(utterances)
    data = [obs for _, obs in utterances]
    phonemes = lexicon.inventory(channel).phonemes
    if init_models is None:
        init_models = _initial_models(
            lexicon, channel, dict.fromkeys(phonemes, data), cfg, "embedded"
        )
    chains = [tuple(block_ids(lexicon, channel, signs)) for signs, _ in utterances]
    return _em(
        {pid: init_models[pid] for pid in phonemes},
        chains,
        data,
        lexicon.exit_prob,
        cfg,
        on_iteration,
        what="utterances",
    )
