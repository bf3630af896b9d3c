"""Baum-Welch estimation: single models, per-phoneme segmented training,
and whole-utterance embedded training over concatenated models.

Embedded training ties every occurrence of a phoneme (within and across
utterances) to one parameter set: sufficient statistics are pooled
before a single M-step per iteration. The structural rows written by
composition (final-state exit wiring) are constants and receive no
updates, which keeps every iteration an exact EM step and the total
log likelihood non-decreasing.

The E-step runs hmm.posteriors_lattice over a batch of sequences at
once, so its Python loop steps over the frames of the longest sequence,
not over every frame of every sequence. Baum-Welch batches all its
sequences; embedded training batches utterances by composed state count
and adds their posteriors to the tied statistics in corpus order.

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
    MissingPhonemeDataError,
)
from .hmm import Hmm, Topology, forward_lattice, posteriors_lattice, validate
from .logmath import LOG_ZERO
from .parallel import block_ids, compose_models

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
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be > 0")
        if self.smoothing < 0:
            raise ValueError("smoothing must be >= 0")


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


def _rel_improvement(prev, cur):
    return abs(cur - prev) / (abs(cur) + 1.0)


def _global_discrete_freq(data, alphabet_size):
    counts = np.zeros(alphabet_size)
    for seq in data:
        np.add.at(counts, np.asarray(seq, dtype=int), 1.0)
    total = counts.sum()
    if total == 0:
        raise IncompatibleDataError("no observations in training data")
    return counts / total

def _global_gaussian_moments(data):
    stacked = np.vstack([np.asarray(seq, dtype=float) for seq in data])
    mean = stacked.mean(axis=0)
    var = np.maximum(stacked.var(axis=0), em_mod.VAR_FLOOR)
    return mean, var


def _uniform_topology_rows(n_states, topology):
    trans = np.zeros((n_states, n_states))
    if topology is Topology.LEFT_TO_RIGHT:
        for i in range(n_states - 1):
            trans[i, i] = 0.5
            trans[i, i + 1] = 0.5
        trans[-1, -1] = 1.0
    else:
        trans[:, :] = 1.0 / n_states
    return trans


def initial_model(
    data,
    cfg,
    n_states=3,
    topology=Topology.LEFT_TO_RIGHT,
    alphabet_size=None,
    dim=None,
    seed=None,
):
    """Build a starting model from global data statistics.

    uniform_perturbed applies seeded multiplicative noise in [0.9, 1.1]
    to the uniform pi/trans and the per-state emission parameters, so
    exact-uniform EM saddle points are avoided. from_global_stats is
    the deterministic flat start (gaussian means spread on a +/- 0.5
    sigma ladder).
    """
    if not data:
        raise IncompatibleDataError("training data is empty")
    first = np.asarray(data[0])
    discrete = first.ndim == 1 and np.issubdtype(first.dtype, np.integer)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    perturb = cfg.init_strategy == INIT_UNIFORM_PERTURBED

    def jitter(shape):
        return rng.uniform(0.9, 1.1, size=shape) if perturb else np.ones(shape)

    pi = np.full(n_states, 1.0 / n_states) * jitter(n_states)
    pi /= pi.sum()
    trans = _uniform_topology_rows(n_states, topology)
    mask = trans > 0
    trans = trans * np.where(mask, jitter((n_states, n_states)), 1.0)
    trans /= trans.sum(axis=1, keepdims=True)

    if discrete:
        if alphabet_size is None:
            alphabet_size = int(max(np.max(np.asarray(seq)) for seq in data)) + 1
        freq = _global_discrete_freq(data, alphabet_size)
        probs = freq[None, :] * jitter((n_states, alphabet_size))
        probs /= probs.sum(axis=1, keepdims=True)
        emissions = em_mod.DiscreteEmission(probs)
    else:
        mean, var = _global_gaussian_moments(data)
        if dim is None:
            dim = mean.shape[0]
        if perturb:
            offsets = rng.uniform(-1.0, 1.0, size=(n_states, dim))
        elif n_states > 1:
            ladder = np.linspace(-1.0, 1.0, n_states)
            offsets = np.tile(ladder[:, None], (1, dim))
        else:
            offsets = np.zeros((1, dim))
        means = mean[None, :] + 0.5 * np.sqrt(var)[None, :] * offsets
        variances = np.tile(var[None, :], (n_states, 1))
        emissions = em_mod.GaussianEmission(means, variances)
    model = Hmm(pi, trans, emissions, topology)
    validate(model)
    return model


def _check_variant(model, data):
    discrete = isinstance(model.emissions, em_mod.DiscreteEmission)
    for seq in data:
        arr = np.asarray(seq)
        if discrete and arr.ndim != 1:
            raise IncompatibleDataError("discrete model given vector data")
        if not discrete and arr.ndim != 2:
            raise IncompatibleDataError("gaussian model given symbol data")


def _m_step_trans(prev_trans, trans_acc):
    """Row-normalize expected transition counts; zero-evidence rows keep
    their previous values (their likelihood contribution is flat)."""
    new = prev_trans.copy()
    for i in range(new.shape[0]):
        total = trans_acc[i].sum()
        if total > 0:
            new[i] = trans_acc[i] / total
    return new


def baum_welch(init, data, cfg, on_iteration=None):
    """EM re-estimation of one model from a set of observation sequences.

    Returns (model, report). The report's loglik_trajectory holds the
    total data log likelihood of the model at the start of every
    iteration plus the final model, and is non-decreasing.
    """
    data = list(data)
    if not data:
        raise IncompatibleDataError("training data is empty")
    _check_variant(init, data)
    model = init.copy()
    trajectory = []
    converged = False
    iterations = 0
    for it in range(cfg.max_iters):
        loglik, stats = _e_step(model, data)
        trajectory.append(loglik)
        if on_iteration is not None:
            on_iteration(it, model, loglik)
        if it > 0 and _rel_improvement(trajectory[-2], loglik) < cfg.rel_tol:
            converged = True
            break
        model = _m_step(model, stats, cfg)
        iterations += 1
    if not converged:
        final_ll, _ = _e_step(model, data, stats_needed=False)
        trajectory.append(final_ll)
        if on_iteration is not None:
            on_iteration(iterations, model, final_ll)
    return model, TrainReport(trajectory, iterations, converged)


def _forward_backward(log_pi, log_trans, emissions, data, stats_needed):
    """Forward-backward over the sequences data[b], each scored with
    emissions[b] and entry b of the (N, B) log_pi and (N, N, B) log_trans
    stacks (a batch axis of 1 shares one model): one posteriors_lattice
    call, or one forward_lattice call without stats. Returns (logliks,
    gamma, xi_sum, lengths), gamma and xi_sum None without stats."""
    lengths = np.array([len(obs) for obs in data])
    if not lengths.all():
        raise EmptyObservationError("empty observation sequence")
    logb = np.full((lengths.max(), log_pi.shape[0], len(data)), LOG_ZERO)
    for b, (e, obs) in enumerate(zip(emissions, data)):
        logb[: lengths[b], :, b] = em_mod.log_density_seq(e, obs)
    if not stats_needed:
        logliks, _ = forward_lattice(log_pi, log_trans, logb, lengths)
        return logliks, None, None, lengths
    return (*posteriors_lattice(log_pi, log_trans, logb, lengths), lengths)


def _total_loglik(logliks, what):
    """math.fsum of the log likelihoods; DegenerateModelError counting
    the -inf ones, if any."""
    n_impossible = int(np.count_nonzero(logliks == LOG_ZERO))
    if n_impossible:
        raise DegenerateModelError(f"{n_impossible} of {len(logliks)} {what}")
    return math.fsum(logliks.tolist())


def _e_step(model, data, stats_needed=True):
    """All sequences share the model, so they run as one batch."""
    lp, lt = model.log_params()
    logliks, gamma, xi_sum, lengths = _forward_backward(
        lp[:, None], lt[:, :, None], [model.emissions] * len(data), data, stats_needed
    )
    total = _total_loglik(logliks, "sequences have zero likelihood under the model")
    if not stats_needed:
        return total, None
    pi_acc = np.zeros(model.n_states)
    trans_acc = np.zeros((model.n_states, model.n_states))
    em_stats = em_mod.new_stats(model.emissions)
    for b, seq in enumerate(data):
        pi_acc += gamma[0, :, b]
        trans_acc += xi_sum[:, :, b]
        em_mod.accumulate_seq(em_stats, gamma[: lengths[b], :, b], seq)
    return total, (pi_acc, trans_acc, em_stats)


def _m_step(model, stats, cfg):
    pi_acc, trans_acc, em_stats = stats
    pi_total = pi_acc.sum()
    new_pi = pi_acc / pi_total if pi_total > 0 else model.pi.copy()
    new_trans = _m_step_trans(model.trans, trans_acc)
    new_em = em_mod.maximize(em_stats, cfg.smoothing, fallback=model.emissions)
    return Hmm(new_pi, new_trans, new_em, model.topology)


def train_segmented(
    inventory,
    labeled_segments,
    cfg,
    n_states=3,
    topology=Topology.LEFT_TO_RIGHT,
    init_models=None,
    alphabet_size=None,
):
    """Train one model per phoneme from pre-segmented observations.

    Phonemes are trained independently: the result for a phoneme
    depends only on its own segments, the config and the seed.
    Returns (models, reports), both keyed by phoneme id.
    """
    models = {}
    reports = {}
    for pid in inventory:
        segments = labeled_segments.get(pid)
        if not segments:
            raise MissingPhonemeDataError(pid)
        if init_models is not None and pid in init_models:
            init = init_models[pid]
        else:
            init = initial_model(
                segments,
                cfg,
                n_states=n_states,
                topology=topology,
                alphabet_size=alphabet_size,
                seed=derive_seed(cfg.seed, "segmented", pid),
            )
        models[pid], reports[pid] = baum_welch(init, segments, cfg)
    return models, reports


def train_embedded(
    lexicon, channel, utterances, cfg, init_models=None, on_iteration=None
):
    """Embedded Baum-Welch over composed utterance models for one channel.

    utterances is a sequence of (sign id sequence, observation
    sequence) pairs. Parameters of a phoneme are tied across all of its
    occurrences; epenthesis fillers train like any other phoneme. The
    bound models in the lexicon only provide each phoneme's state count
    and topology; parameters start from init_models when given, else
    from a data-driven initialization.

    Returns (models, report).
    """
    utterances = list(utterances)
    if not utterances:
        raise IncompatibleDataError("no training utterances")
    inv = lexicon.inventory(channel)
    phoneme_ids = list(inv.phonemes)
    first = inv.phonemes[phoneme_ids[0]].emissions
    for _, obs in utterances:
        em_mod.check_observations(first, obs)

    if init_models is None:
        all_obs = [obs for _, obs in utterances]
        init_models = {}
        for pid in phoneme_ids:
            template = inv.phonemes[pid]
            alphabet = (
                template.emissions.alphabet_size
                if isinstance(template.emissions, em_mod.DiscreteEmission)
                else None
            )
            init_models[pid] = initial_model(
                all_obs,
                cfg,
                n_states=template.n_states,
                topology=template.topology,
                alphabet_size=alphabet,
                seed=derive_seed(cfg.seed, "embedded", channel, pid),
            )
    models = {pid: init_models[pid].copy() for pid in phoneme_ids}

    block_id_seqs = {}
    for signs, _ in utterances:
        key = tuple(signs)
        if key not in block_id_seqs:
            block_id_seqs[key] = block_ids(lexicon, channel, signs)

    trajectory = []
    converged = False
    iterations = 0
    touched = set()
    for it in range(cfg.max_iters):
        loglik, accs, touched = _embedded_e_step(
            models, block_id_seqs, utterances, lexicon.exit_prob
        )
        trajectory.append(loglik)
        if on_iteration is not None:
            on_iteration(it, models, loglik)
        if it > 0 and _rel_improvement(trajectory[-2], loglik) < cfg.rel_tol:
            converged = True
            break
        for pid in touched:
            models[pid] = _m_step(models[pid], accs[pid], cfg)
        iterations += 1
    if not converged:
        final_ll, _, _ = _embedded_e_step(
            models, block_id_seqs, utterances, lexicon.exit_prob, stats_needed=False
        )
        trajectory.append(final_ll)
        if on_iteration is not None:
            on_iteration(iterations, models, final_ll)
    untouched = tuple(pid for pid in phoneme_ids if pid not in touched)
    report = TrainReport(trajectory, iterations, converged, untouched)
    return models, report


def _embedded_e_step(models, block_id_seqs, utterances, exit_prob, stats_needed=True):
    """Pooled E-step over all utterances, one forward-backward per batch
    of utterances whose composed models have the same state count.

    Tied statistics per phoneme: initial-state evidence combines the
    first block's start posteriors with the boundary transitions that
    enter later occurrences; within-block transition evidence excludes
    each block's final row, which is structural after composition.
    Statistics are added in corpus order whatever the batches.
    """
    composed = {}
    for key, id_seq in block_id_seqs.items():
        blocks = [(pid, models[pid]) for pid in id_seq]
        model, offsets = compose_models(blocks, exit_prob)
        composed[key] = (blocks, offsets, model.emissions, *model.log_params())
    batches = {}
    for i, (signs, _) in enumerate(utterances):
        batches.setdefault(len(composed[tuple(signs)][3]), []).append(i)
    logliks = np.empty(len(utterances))
    post = [None] * len(utterances)
    for batch in batches.values():
        entries = [composed[tuple(utterances[i][0])] for i in batch]
        lls, gamma, xi_sum, lengths = _forward_backward(
            np.stack([e[3] for e in entries], axis=-1),
            np.stack([e[4] for e in entries], axis=-1),
            [e[2] for e in entries],
            [utterances[i][1] for i in batch],
            stats_needed,
        )
        logliks[batch] = lls
        if stats_needed:
            for b, i in enumerate(batch):
                post[i] = (gamma[: lengths[b], :, b], xi_sum[:, :, b])
    total = _total_loglik(
        logliks, "utterances have zero likelihood under the current models"
    )
    if not stats_needed:
        return total, None, None
    accs = {
        pid: (
            np.zeros(m.n_states),
            np.zeros((m.n_states, m.n_states)),
            em_mod.new_stats(m.emissions),
        )
        for pid, m in models.items()
    }
    touched = set()
    for (signs, obs), (gamma, xi_sum) in zip(utterances, post):
        blocks, offsets = composed[tuple(signs)][:2]
        for k, (pid, sub) in enumerate(blocks):
            off = offsets[k]
            n = sub.n_states
            pi_acc, trans_acc, em_stats = accs[pid]
            touched.add(pid)
            em_mod.accumulate_seq(em_stats, gamma[:, off : off + n], obs)
            if n > 1:
                trans_acc[: n - 1, :] += xi_sum[off : off + n - 1, off : off + n]
            if k == 0:
                pi_acc += gamma[0, off : off + n]
            else:
                prev_last = offsets[k - 1] + blocks[k - 1][1].n_states - 1
                pi_acc += xi_sum[prev_last, off : off + n]
    return total, accs, touched
