"""Baum-Welch estimation through one engine: single models, per-phoneme
segmented training and whole-utterance embedded training.

Every kind of training is EM over a dict of models and a list of
chains, a chain being the tuple of model keys that one sequence is
scored on, composed left to right as parallel.compose_models does.
Every occurrence of a key, within and across sequences, is tied to one
parameter set whose statistics are pooled before one M-step per
iteration. baum_welch trains one model on one-block chains (Rabiner,
Proc. IEEE 1989, section III.C), train_segmented runs baum_welch per
phoneme on its segments, and train_embedded trains every phoneme of a
channel on the utterances' block sequences.

Composition rewires the final row of every block except a chain's last
(exit wiring). Exactly those rows are structural constants and receive
no statistics, so every iteration is an exact EM step, the total log
likelihood never decreases, and a one-block chain is plain Baum-Welch.

The E-step is compiled once per run (_compile): integer maps, built in
numpy for all chains at once, gather each batch of equal-size composed
models from the tied parameters and send the statistics back in corpus
order; emissions come from one table of state log densities per E-step
(emissions.density_table), in which each batch looks its frames up, as
the decoders do. A batch runs the scaled forward-backward
hmm.posteriors_lattice, whose Python loop steps over the frames of its
longest sequence. Fixed accumulation orders make reruns identical.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import emissions as em_mod
from .errors import DegenerateModelError, EmptyObservationError, IncompatibleDataError
from .hmm import Hmm, Topology, loglik_lattice, posteriors_lattice, validate
from .logmath import LOG_ZERO, safe_log
from .parallel import block_ids

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
        if not 0 < self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")
        if not 0 <= self.smoothing < math.inf:
            raise ValueError(f"smoothing must be finite and >= 0, got {self.smoothing!r}")
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
    h = hashlib.sha256("|".join([str(seed)] + [str(x) for x in labels]).encode())
    return int.from_bytes(h.digest()[:8], "big")


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
    return _initial_models({0: template}, {0: data}, cfg, {0: seed})[0]


def _initial_models(templates, data, cfg, seeds):
    """initial_model of every key of data (key -> list of sequences) on
    templates[key] with seeds[key]. A list that several keys share, as
    embedded training pools its corpus, is checked once per emission
    signature, which is all that check reads."""
    checked, models = {}, {}
    for key, seqs in data.items():
        template = templates[key]
        which = (id(seqs), template.emissions.signature())
        if which not in checked:
            if not seqs:
                raise IncompatibleDataError("training data is empty")
            checked[which] = [template.emissions.check(obs) for obs in seqs]
            if not any(len(obs) for obs in checked[which]):
                raise IncompatibleDataError("no observations in training data")
        seed = cfg.seed if seeds[key] is None else seeds[key]
        rng = np.random.default_rng(seed) if cfg.init_strategy == INIT_UNIFORM_PERTURBED else None
        n_states, topology = template.n_states, template.topology
        pi = np.full(n_states, 1.0 / n_states) * em_mod.jitter(rng, n_states)
        pi /= pi.sum()
        if topology is Topology.ERGODIC:
            trans = np.full((n_states, n_states), 1.0 / n_states)
        else:
            trans = 0.5 * (np.eye(n_states) + np.eye(n_states, k=1))
            trans[-1, -1] = 1.0
        trans = trans * np.where(trans > 0, em_mod.jitter(rng, (n_states, n_states)), 1.0)
        trans /= trans.sum(axis=1, keepdims=True)
        models[key] = Hmm(pi, trans, template.emissions.initial(checked[which], rng), topology)
        validate(models[key])
    return models


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


def _compile(models, chains, data, exit_prob, what):
    """The E-step over data[i] (checked and nonempty) on the composed
    chains[i], everything that no iteration changes built once.

    Returns e_step(models, stats_needed=True): the total log likelihood
    and the tied statistics (pi, trans, emission) of every key in a
    chain, or None without stats. Initial-state evidence of a block is
    the chain's start posterior for its first block and the boundary
    transitions into it for later ones. Each iteration fills one flat
    vector with every key's pi, trans and exit_prob * pi, then
    1 - exit_prob and 0: the values composition copies. Integer maps,
    built for all chains at once, gather each state-count batch's
    log_pi/log_trans stack from its log and send the statistics back
    (one np.bincount, in corpus order). The emission class's gatherer,
    asked once here for the run's layout of (utterance, block, frame,
    state), collects the emission statistics from the batches'
    posteriors in the same corpus order.
    """
    keys = list(dict.fromkeys(key for chain in chains for key in chain))
    sizes = {key: models[key].n_states for key in keys}
    base = dict(zip(keys, itertools.accumulate([0] + [n * (n + 2) for n in sizes.values()])))
    stay, zero = -2, -1  # the flat vector ends with 1 - exit_prob and 0
    # Where each flat entry's statistics go: exit_prob * pi to its pi,
    # the constants nowhere (-1).
    spans = [np.r_[a : a + n * (n + 1), a : a + n] for a, n in zip(base.values(), sizes.values())]
    home = np.concatenate(spans + [[-1, -1]])
    # Per block in corpus order, then per state; tail marks the final states exit wiring rewires.
    columns = dict(zip(models, itertools.accumulate([0] + [m.n_states for m in models.values()])))
    flat_keys = [key for chain in chains for key in chain]
    size, at, col = (np.array([d[key] for key in flat_keys]) for d in (sizes, base, columns))
    chain_of = np.repeat(np.arange(len(chains)), [len(chain) for chain in chains])
    first = np.r_[True, chain_of[1:] != chain_of[:-1]]
    block_start = np.cumsum(size) - size
    block = np.repeat(np.arange(len(flat_keys)), size)
    local = np.arange(len(block)) - block_start[block]
    tail = (local == size[block] - 1) & ~np.r_[first[1:], True][block]
    counts = np.bincount(chain_of, size).astype(int)
    start, spot = np.cumsum(counts) - counts, np.empty((len(chains), 2), int)
    batches, shapes, pairs, voff = [], [], [], 0
    for k, count in enumerate(dict.fromkeys(counts.tolist())):
        batch = np.flatnonzero(counts == count)
        spot[batch] = np.c_[np.full(len(batch), k), np.arange(len(batch))]
        lengths = np.array([len(data[i]) for i in batch])
        frames = np.arange(lengths.max())[:, None]
        rows = np.cumsum(lengths) - lengths + np.minimum(frames, lengths - 1)
        # (N, B) state arrays and (N, N, B) trans entries, row u, column v.
        states = start[batch] + np.arange(count)[:, None]
        blk, loc, wired = block[states], local[states], tail[states][:, None]
        n, a = size[blk], at[blk]
        own = np.where(blk[:, None] == blk[None], (a + n + loc * n)[:, None] + loc[None], zero)
        exits = np.where(blk[None] == blk[:, None] + 1, (a + n * (n + 1) + loc)[None], zero)
        trans = np.where(wired, np.where(np.eye(count, dtype=bool)[..., None], stay, exits), own)
        index = np.concatenate([np.where(first[blk], a + loc, zero), trans.reshape(-1, len(batch))])
        obs = np.concatenate([data[i] for i in batch])
        batches.append((batch, lengths, obs, rows[:, :, None], (col[blk] + loc).T, index))
        shapes.append((len(frames), len(batch), count))
        # Entry b's statistics are column b of [gamma[0]; xi_sum] in
        # the batch's part of e_step's values, laid out like index.
        dst = home[index].T
        src = voff + np.arange(len(index)) * len(batch) + np.arange(len(batch))[:, None]
        live = dst >= 0
        pairs.append((np.broadcast_to(batch[:, None], live.shape)[live], src[live], dst[live]))
        voff += index.size
    # Each chain's statistics in order, chains in corpus order.
    owner, src, dst = (np.concatenate(part) for part in zip(*pairs))
    order = np.argsort(owner, kind="stable")
    src, dst = src[order], dst[order]
    offsets = (block_start - start[chain_of]).tolist()
    blocks = list(zip(flat_keys, *spot[chain_of].T.tolist(), offsets, [data[i] for i in chain_of]))
    emissions = {key: models[key].emissions for key in keys}
    gather = type(emissions[keys[0]]).gatherer(emissions, blocks, shapes)
    # One-block chains (baum_welch) pass no exit_prob and read no exit entries.
    exit_value = 0.0 if exit_prob is None else exit_prob

    def e_step(models, stats_needed=True):
        parts = [(m.pi, m.trans.ravel(), exit_value * m.pi) for m in map(models.get, keys)]
        flat = safe_log(np.concatenate([a for p in parts for a in p] + [[1.0 - exit_value, 0.0]]))
        logliks = np.empty(len(data))
        gammas, values = [], []
        table = em_mod.density_table([m.emissions for m in models.values()])
        for batch, lengths, obs, rows, cols, index in batches:
            n = cols.shape[1]
            log_params = flat[index]
            # Gathered batch-major, the layout the kernels step over, and
            # handed on in the (T, N, B) order they take. A frame past an
            # entry's length repeats its last frame; the kernels mask it.
            logb = table(obs)[rows, cols]
            args = (log_params[:n], log_params[n:].reshape(n, n, -1), logb.transpose(0, 2, 1))
            if not stats_needed:
                logliks[batch] = loglik_lattice(*args, lengths)
                continue
            logliks[batch], gamma, xi_sum = posteriors_lattice(*args, lengths)
            gammas.append(gamma.transpose(0, 2, 1))
            values += [gamma[0].ravel(), xi_sum.ravel()]
        n_impossible = int(np.count_nonzero(logliks == LOG_ZERO))
        if n_impossible:
            msg = f"{n_impossible} of {len(data)} {what} have zero likelihood"
            raise DegenerateModelError(msg + " under the current models")
        total = math.fsum(logliks.tolist())
        if not stats_needed:
            return total, None
        acc = np.bincount(dst, np.concatenate(values)[src], minlength=len(flat))
        em_stats = gather(gammas)
        accs = {}
        for key, n in sizes.items():
            pt = acc[base[key] : base[key] + n * (n + 1)]
            accs[key] = (pt[:n], pt[n:].reshape(n, n), em_stats[key])
        return total, accs

    return e_step


def _em(models, chains, data, exit_prob, cfg, on_iteration, what="sequences"):
    """EM on the tied models (a dict keyed like the chains) until the
    relative log-likelihood gain drops below cfg.rel_tol or
    cfg.max_iters M-steps ran; data[i] is checked by the first model of
    chains[i] and scored on chains[i]. on_iteration(it, models, loglik)
    sees the models each log likelihood was computed with. The report's
    non-decreasing loglik_trajectory holds the total log likelihood at
    the start of every iteration plus the final models'; keys in no
    chain keep their parameters and are listed as untouched."""
    if not data:
        raise IncompatibleDataError(f"no training {what}")
    if not all(len(obs) for obs in data):
        raise EmptyObservationError("empty observation sequence")
    data = [models[chain[0]].emissions.check(obs) for chain, obs in zip(chains, data)]
    models = {key: m.copy() for key, m in models.items()}
    e_step = _compile(models, chains, data, exit_prob, what)
    trajectory = []
    for it in range(cfg.max_iters + 1):
        # After max_iters M-steps, only the final models' likelihood.
        loglik, accs = e_step(models, stats_needed=it < cfg.max_iters)
        trajectory.append(loglik)
        if on_iteration is not None:
            on_iteration(it, models, loglik)
        rel_gain = abs(loglik - trajectory[-2]) / (abs(loglik) + 1.0) if it else math.inf
        converged = it < cfg.max_iters and rel_gain < cfg.rel_tol
        if converged or accs is None:
            break
        for key, stats in accs.items():
            models[key] = _m_step(models[key], stats, cfg)
    used = {key for chain in chains for key in chain}
    untouched = tuple(key for key in models if key not in used)
    return models, TrainReport(trajectory, it, converged, untouched)


def baum_welch(init, data, cfg, on_iteration=None):
    """EM re-estimation of one model from a set of observation sequences:
    the engine with every sequence on the one-block chain of the model.

    Returns (model, report); on_iteration(it, model, loglik) as in
    train_embedded, with the one model.
    """
    data = list(data)
    hook = on_iteration and (lambda it, models, loglik: on_iteration(it, models[0], loglik))
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
        seeds = {pid: derive_seed(cfg.seed, "segmented", channel, pid) for pid in data}
        init_models = _initial_models(inv.phonemes, data, cfg, seeds)
    trained = {pid: baum_welch(init_models[pid], seqs, cfg) for pid, seqs in data.items()}
    models = {pid: m.copy() for pid, m in inv.phonemes.items()}
    models.update({pid: model for pid, (model, _) in trained.items()})
    reports = [report for _, report in trained.values()]
    runs = [r.loglik_trajectory for r in reports]
    trajectory = [sum(r[min(i, len(r) - 1)] for r in runs) for i in range(max(map(len, runs)))]
    untouched = tuple(pid for pid in inv.phonemes if pid not in data)
    iterations = max(r.iterations_run for r in reports)
    return models, TrainReport(trajectory, iterations, all(r.converged for r in reports), untouched)


def train_embedded(lexicon, channel, utterances, cfg, init_models=None, on_iteration=None):
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
        seeds = {pid: derive_seed(cfg.seed, "embedded", channel, pid) for pid in phonemes}
        init_models = _initial_models(phonemes, dict.fromkeys(phonemes, data), cfg, seeds)
    chains = [tuple(block_ids(lexicon, channel, signs)) for signs, _ in utterances]
    models = {pid: init_models[pid] for pid in phonemes}
    return _em(models, chains, data, lexicon.exit_prob, cfg, on_iteration, "utterances")
