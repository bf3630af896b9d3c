"""The benchmark's workloads, driven through phmm's documented library API.

Each workload is one closed loop: a single caller issues an operation,
waits for it to return, checks its output and issues the next. An
operation is one utterance decoded or one channel trained. The latency
samples ("steps") are the utterances on the decode workloads and the EM
iterations of one channel over the whole corpus on train-embedded, taken
from the `on_iteration` hook.

Inputs come from the workload seed alone. Corpora are stratified by sign
count (utterance i has ``lo + i % (hi - lo + 1)`` signs), which keeps the
uniform sign-count mix of `phmm generate` while removing its
run-to-run sampling noise from the timings; any prefix of a corpus has
the same mix.

Importing this module imports numpy and phmm; the caller puts phmm's
``src`` directory on ``sys.path`` and pins the BLAS thread counts first.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import phmm
from phmm import corpus as corpus_mod
from phmm import lexicon as lexicon_mod
from phmm import metrics as metrics_mod
from phmm import model_io, parallel, training
from phmm.demo import demo_lexicon

SETUP_REPEATS = 15

# EM may not lower the log-likelihood; the slack allows for rounding in
# sums of a few thousand frame terms.
MONO_SLACK_REL = 1e-12


@dataclass(frozen=True)
class Spec:
    kind: str  # "train", "exhaustive" or "synced"
    n_utterances: int
    signs: tuple  # inclusive sign-count range per utterance
    noise: float = 0.02
    max_iters: int = 20
    max_signs: int = 3
    beam_width: int = 1000
    tail_pct: int = 90


# The tail percentile is fixed per workload so that every commit reports
# the same statistic. It leaves at least ten samples beyond it at the
# sample count this workload reaches in a 30 s run at the seed commit
# (about 147 EM iterations, 65 and 30 utterances), and lies inside a
# sign-count stratum rather than on the jump between two, where a few
# more samples would move it to another stratum. EM iterations take
# nearly equal time, so the top decile of train-embedded is host noise:
# p85 was steady over ten seeds, p90 was not. A faster commit only has
# more samples beyond the tail.
WORKLOADS = {
    "train-embedded": Spec("train", 100, (1, 3), tail_pct=85),
    "decode-exhaustive": Spec("exhaustive", 60, (1, 3), tail_pct=80),
    "decode-synced-long": Spec("synced", 30, (3, 5), tail_pct=60),
}

# Inputs small enough for a smoke run to finish in seconds.
TINY = {
    "train-embedded": Spec("train", 6, (1, 3), max_iters=2),
    "decode-exhaustive": Spec("exhaustive", 3, (1, 2), max_signs=2, tail_pct=80),
    "decode-synced-long": Spec("synced", 2, (3, 3), tail_pct=60),
}

# Functions timed by the traced run, as module.function or
# module.Class.method inside the phmm package.
LAYERS = (
    "logmath.logsumexp",
    "hmm.forward_lattice",
    "hmm.backward_lattice",
    "hmm.posteriors",
    "hmm.viterbi_score_lattice",
    "hmm.viterbi_lattice",
    "emissions.log_density_seq",
    "emissions.accumulate_seq",
    "emissions.maximize",
    "parallel.compose_models",
    "parallel.score_hypothesis",
    "parallel.decode_exhaustive",
    "parallel.decode_synced",
    "parallel._Unit.segment_scores",
    "training.train_embedded",
    "corpus.generate",
    "corpus.write_corpus",
    "corpus.read_corpus",
    "model_io.save_model",
    "model_io.load_model",
    "lexicon.validate_lexicon",
    "metrics.edit_distance",
)

OP, SETUP, SCORE = "bench.op", "bench.setup", "bench.score"

# The host's speed drifts by +-15% within seconds for identical work. A
# fixed kernel of the same kind as phmm's lattice steps (small-array numpy
# max/exp/log recursions) is timed before and after every step, outside
# it; each step's time is divided by the median of the four probes around
# it over REFERENCE_S, which reports it at the speed where the kernel
# takes REFERENCE_S. This cut the spread of decode throughput over seeds
# from about 20% to 2-5% on a 2-vCPU VM.
REFERENCE_S = 0.010
_CAL = np.random.default_rng(20260417)
_CAL_TRANS = np.log(_CAL.dirichlet(np.ones(15), size=15))
_CAL_EMIT = np.log(_CAL.dirichlet(np.ones(15), size=24))


def _reference_kernel(rounds=6):
    total = 0.0
    for _ in range(rounds):
        delta = alpha = _CAL_EMIT[0]
        for row in _CAL_EMIT[1:]:
            delta = np.max(delta[:, None] + _CAL_TRANS, axis=0) + row
            cand = alpha[:, None] + _CAL_TRANS
            m = np.max(cand, axis=0)
            alpha = m + np.log(np.sum(np.exp(cand - m), axis=0)) + row
        total += float(np.max(delta) + np.max(alpha))
    return total


class SpeedProbe:
    """Times the reference kernel and keeps every sample.

    A sample is three times the median of three runs of the kernel, so
    that one preempted run does not skew the correction of a whole step.
    """

    def __init__(self):
        self.samples = []

    def sample(self):
        """Take a sample; return its index."""
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_kernel()
            runs.append(time.perf_counter() - t0)
        self.samples.append(3 * statistics.median(runs))
        return len(self.samples) - 1

    def slowdown(self, k):
        """Host slowdown over a step taken between samples k and k + 1:
        the median of samples k - 1 to k + 2 over REFERENCE_S."""
        return statistics.median(self.samples[max(0, k - 1) : k + 3]) / REFERENCE_S


def untraced_root(name):
    return contextlib.nullcontext()


def derive_seed(*labels):
    digest = hashlib.sha256("|".join(str(x) for x in labels).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_corpus(lexicon, spec, workload, seed):
    lo, hi = spec.signs
    span = hi - lo + 1
    strata = []
    for k in range(span):
        count = len(range(k, spec.n_utterances, span))
        if count == 0:
            break
        cfg = corpus_mod.GenConfig(
            n_utterances=count,
            seed=derive_seed(workload, seed, "corpus", k),
            signs_per_utterance=(lo + k, lo + k),
            channel_noise=spec.noise,
        )
        strata.append(corpus_mod.generate(lexicon, cfg))
    out = []
    for i in range(spec.n_utterances):
        utt = strata[i % span][i // span]
        utt.utt_id = f"utt-{i:05d}"
        out.append(utt)
    return out


def noisy_lexicon(lexicon, noise):
    """The lexicon with every emission row mixed toward uniform at `noise`.

    The demo lexicon has exact zeros, under which every noisy utterance
    scores -inf; the mixed rows keep it a valid decode model without a
    training run in set-up.
    """
    inventories = {}
    for ch in lexicon.channels:
        inv = lexicon.inventory(ch)
        phonemes = {}
        for pid, model in inv.phonemes.items():
            probs = model.emissions.probs
            mixed = (1.0 - noise) * probs + noise / probs.shape[1]
            phonemes[pid] = phmm.Hmm(
                model.pi.copy(), model.trans.copy(), phmm.DiscreteEmission(mixed), model.topology
            )
        inventories[ch] = phmm.PhonemeInventory(phonemes=phonemes, epenthesis=inv.epenthesis)
    return phmm.Lexicon(
        channels=list(lexicon.channels),
        inventories=inventories,
        signs=dict(lexicon.signs),
        epenthesis_policy=lexicon.epenthesis_policy,
        exit_prob=lexicon.exit_prob,
    )


def setup(spec, workload, seed, workdir, root=untraced_root):
    """Generate the corpus, build the model, round-trip both through files.

    Returns (lexicon, corpus, seconds).
    """
    t0 = time.perf_counter()
    with root(SETUP):
        source = demo_lexicon()
        corpus = make_corpus(source, spec, workload, seed)
        model = source if spec.kind == "train" else noisy_lexicon(source, spec.noise)
        model_path = workdir / "model.json"
        corpus_path = workdir / "corpus.jsonl"
        model_io.save_model(model_path, model)
        corpus_mod.write_corpus(corpus_path, corpus)
        lexicon, _ = model_io.load_model(model_path)
        lexicon_mod.validate_lexicon(lexicon)
        corpus = corpus_mod.read_corpus(corpus_path)
    return lexicon, corpus, time.perf_counter() - t0


@dataclass
class Op:
    ok: bool
    wall: float  # seconds, the whole operation
    probe_index: int  # the speed probe sample taken just before it
    steps: list  # latency samples as (seconds, index of the probe before)
    problems: list = field(default_factory=list)


@dataclass
class Outcome:
    ops: list = field(default_factory=list)
    first: list = field(default_factory=list)  # first-pass results, in order
    digest: str = ""
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def failed(self):
        return sum(1 for op in self.ops if not op.ok)

    def problems(self, limit=5):
        found = [p for op in self.ops for p in op.problems]
        return found[:limit]


def _decode(spec, lexicon, utt, cache):
    if spec.kind == "exhaustive":
        return parallel.decode_exhaustive(lexicon, utt.mobs, spec.max_signs, cache=cache)
    return parallel.decode_synced(lexicon, utt.mobs, spec.beam_width)


def check_hypothesis(spec, lexicon, utt, hyp):
    problems = []
    if hyp.total != math.fsum(hyp.channel_scores.values()):
        problems.append(f"{utt.utt_id}: total is not the fsum of its channel scores")
    if spec.kind == "exhaustive":
        fresh = parallel.score_hypothesis(lexicon, hyp.signs, utt.mobs)
        if fresh.total != hyp.total:
            problems.append(
                f"{utt.utt_id}: winner total {hyp.total!r} != uncached rescore {fresh.total!r}"
            )
        # The reference transcription is one of the candidates, so the
        # argmax can never score below it.
        reference = parallel.score_hypothesis(lexicon, utt.signs, utt.mobs)
        if hyp.total < reference.total:
            problems.append(
                f"{utt.utt_id}: winner total {hyp.total!r} < reference total {reference.total!r}"
            )
    return problems


def decode_loop(spec, lexicon, corpus, deadline=None, root=untraced_root):
    """Decode the corpus once, then keep cycling through it until `deadline`.

    One compose cache serves the whole loop, as in `phmm decode`. A
    repeated utterance must give the first pass's signs and total.
    """
    out = Outcome()
    cache = {}
    n = len(corpus)
    i = 0
    before = out.probe.sample()
    while i < n or (deadline is not None and time.perf_counter() < deadline):
        utt = corpus[i % n]
        hyp = None
        t0 = time.perf_counter()
        try:
            with root(OP):
                hyp = _decode(spec, lexicon, utt, cache)
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{utt.utt_id}: {type(exc).__name__}: {exc}"]
        else:
            problems = []
        wall = time.perf_counter() - t0
        if hyp is not None:
            problems += check_hypothesis(spec, lexicon, utt, hyp)
            if i >= n:
                earlier = out.first[i % n]
                same = earlier is None or (earlier.signs, earlier.total) == (hyp.signs, hyp.total)
                if not same:
                    problems.append(f"{utt.utt_id}: repeat decode differs from the first")
        if i < n:
            out.first.append(hyp)
        out.ops.append(Op(not problems, wall, before, [(wall, before)], problems))
        before = out.probe.sample()
        i += 1
    out.digest = hashlib.sha256(
        "\n".join(" ".join(h.signs) if h else "!" for h in out.first).encode()
    ).hexdigest()
    return out


def decode_quality(lexicon, corpus, first, root=untraced_root):
    """Pooled SER, exact-match rate and negated best score per frame."""
    errors = n_ref = exact = 0
    scores = []
    frames = 0
    with root(SCORE):
        for utt, hyp in zip(corpus, first):
            signs = list(hyp.signs) if hyp is not None else []
            errors += sum(metrics_mod.edit_distance(utt.signs, signs))
            n_ref += len(utt.signs)
            exact += signs == list(utt.signs)
            if hyp is not None:
                scores.append(hyp.total)
                frames += sum(len(utt.mobs.channels[ch]) for ch in lexicon.channels)
    return {
        "sign_error_rate": errors / n_ref,
        "exact_match_rate": exact / len(corpus),
        "nll_per_frame": -math.fsum(scores) / frames if frames else 0.0,
        "n_reference_signs": n_ref,
    }


def _model_digest(models, trajectory):
    h = hashlib.sha256(repr(list(trajectory)).encode())
    for pid in sorted(models):
        model = models[pid]
        for arr in (model.pi, model.trans, *vars(model.emissions).values()):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def check_trajectory(channel, trajectory):
    problems = []
    if not all(math.isfinite(x) for x in trajectory):
        problems.append(f"{channel}: non-finite log-likelihood in the EM trajectory")
    for it, (a, b) in enumerate(zip(trajectory, trajectory[1:]), 1):
        if b < a - MONO_SLACK_REL * abs(a):
            problems.append(f"{channel}: log-likelihood fell at iteration {it}: {a!r} -> {b!r}")
            break
    return problems


class _StepTimer:
    """Times the EM iterations of one training through `on_iteration`.

    With `probe_steps`, the reference kernel runs at every iteration
    boundary, between the steps; without, the steps take the probes
    around the whole operation (the traced run, where a probe inside the
    operation would count as phmm's time).
    """

    def __init__(self, probe, probe_steps):
        self.probe = probe
        self.probe_steps = probe_steps
        self.steps = []
        self.first = self.before = probe.sample()
        self.mark = time.perf_counter()

    def on_iteration(self, it, models, loglik):
        self.steps.append((time.perf_counter() - self.mark, self.before))
        if self.probe_steps:
            self.before = self.probe.sample()
        self.mark = time.perf_counter()


def train_loop(
    spec, workload, seed, lexicon, corpus, deadline=None, root=untraced_root, probe_steps=True
):
    """Train each channel once, then keep training channels in turn until
    `deadline`. A repeated channel must reproduce its first models exactly."""
    cfg = training.TrainConfig(
        max_iters=spec.max_iters, seed=derive_seed(workload, seed, "train")
    )
    channels = list(lexicon.channels)
    data = {ch: [(u.signs, u.mobs.channels[ch]) for u in corpus] for ch in channels}
    out = Outcome()
    digests = {}
    k = 0
    while k < len(channels) or (deadline is not None and time.perf_counter() < deadline):
        ch = channels[k % len(channels)]
        timer = _StepTimer(out.probe, probe_steps)
        report = None
        t0 = timer.mark
        try:
            with root(OP):
                models, report = training.train_embedded(
                    lexicon, ch, data[ch], cfg, on_iteration=timer.on_iteration
                )
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{ch}: {type(exc).__name__}: {exc}"]
        else:
            problems = check_trajectory(ch, report.loglik_trajectory)
            digest = _model_digest(models, report.loglik_trajectory)
            if digests.setdefault(ch, digest) != digest:
                problems.append(f"{ch}: repeat training differs from the first")
        wall = time.perf_counter() - t0
        out.probe.sample()
        if k < len(channels):
            out.first.append((ch, report))
        steps = timer.steps or [(wall, timer.first)]
        out.ops.append(Op(not problems, wall, timer.first, steps, problems))
        k += 1
    out.digest = hashlib.sha256(
        "\n".join(f"{ch} {digests.get(ch, '!')}" for ch in channels).encode()
    ).hexdigest()
    return out


def train_quality(corpus, first):
    finals = [r.loglik_trajectory[-1] for _, r in first if r is not None]
    frames = sum(len(u.mobs.channels[ch]) for ch, _ in first for u in corpus)
    loglik = math.fsum(finals)
    return {
        "train_loglik": loglik,
        "nll_per_frame": -loglik / frames,
        "iterations": [r.iterations_run if r else None for _, r in first],
        "converged": [r.converged if r else None for _, r in first],
    }


def percentile(samples, pct):
    """(value, samples beyond it) of the nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_summary(outcome, tail_pct, scaled=True):
    """Throughput and latency of the steps, each divided by its host
    slowdown when `scaled`."""

    def seconds(op):
        return [took / outcome.probe.slowdown(k) if scaled else took for took, k in op.steps]

    steps = [s for op in outcome.ops for s in seconds(op)]
    ok_steps = [s for op in outcome.ops if op.ok for s in seconds(op)]
    value, beyond = percentile(steps, tail_pct)
    return {
        "steps_per_s": len(ok_steps) / math.fsum(ok_steps) if ok_steps else 0.0,
        "step_p50_ms": 1e3 * statistics.median(steps),
        "step_tail_ms": 1e3 * value,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "n_steps": len(steps),
    }
