"""Single-channel HMM: representation, validation and exact inference.

Forward, backward and Viterbi run in log space via the conventions in
logmath. The training E-step (posteriors_lattice, loglik_lattice) runs
Rabiner's scaled forward-backward on probabilities instead: one scale
factor per frame takes the place of the logs, a -inf log value is an
exact 0, and one forward and one backward frame loop fill the alpha
and beta lattices whose product is gamma. A model is immutable during
inference and safe to share across threads; construction and training
updates are single-writer.

The lattice kernels take explicit log parameters and may score a batch
of models and sequences at once, the batch on the innermost axis, each
entry read at its own last frame when lengths are given:
viterbi_score_lattice and viterbi_lattice (scores, and scores with
backtracked paths) for the decoders, and posteriors_lattice and
loglik_lattice for training. viterbi is viterbi_lattice without batch
axes. Both max-product kernels run one frame loop on the band of the
transitions, their finite diagonals, so each frame of a left-to-right
chain reads only a few N-row slices instead of an N x N block per
model, updating one delta buffer in place by the _band_steps, as
parallel._Unit does. viterbi_lattice's loop also keeps its delta rows,
from which its backtrack re-adds the sums that pick Rabiner's
back-pointers psi (Proc. IEEE 1989, section III.B);
viterbi_score_lattice keeps none.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import emissions as em
from .errors import (
    AllPathsZeroError,
    DimensionMismatchError,
    EmptyObservationError,
    TopologyViolationError,
)
from .logmath import LOG_ZERO, logsumexp, safe_log

TINY = np.finfo(float).tiny


class Topology(str, Enum):
    ERGODIC = "ergodic"
    LEFT_TO_RIGHT = "left_to_right"


@dataclass
class Hmm:
    """A phoneme-level hidden Markov model.

    pi is the initial state distribution, trans the row-stochastic
    transition matrix, emissions the per-state output model. A
    left_to_right topology allows only self-loops and single forward
    steps (Bakis), which forces the final state to be absorbing.
    """

    pi: np.ndarray
    trans: np.ndarray
    emissions: object
    topology: Topology = Topology.ERGODIC

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.trans = np.asarray(self.trans, dtype=float)
        self.topology = Topology(self.topology)

    @property
    def n_states(self):
        return self.pi.shape[0]

    def copy(self):
        return Hmm(self.pi.copy(), self.trans.copy(), self.emissions.copy(), self.topology)

    def log_params(self):
        """(log pi, log trans) with zeros mapped to -inf."""
        return safe_log(self.pi), safe_log(self.trans)


def _check_chain(hmm):
    """Raise a ValidationError subclass unless pi is a distribution and
    trans an (N, N) row-stochastic matrix."""
    if hmm.pi.ndim != 1:
        raise DimensionMismatchError(f"pi has shape {hmm.pi.shape}, expected a vector")
    em.check_stochastic("pi", hmm.pi)
    if hmm.trans.shape != (hmm.n_states, hmm.n_states):
        raise DimensionMismatchError(
            f"trans has shape {hmm.trans.shape}, expected {(hmm.n_states, hmm.n_states)}"
        )
    em.check_stochastic("trans", hmm.trans, "trans row")


def validate(hmm):
    """Check all Hmm invariants; raises a ValidationError subclass on failure."""
    _check_chain(hmm)
    if hmm.topology is Topology.LEFT_TO_RIGHT:
        n = hmm.n_states
        for i in range(n):
            for j in range(n):
                if (j < i or j > i + 1) and hmm.trans[i, j] != 0.0:
                    raise TopologyViolationError(i, j, float(hmm.trans[i, j]))
    em.validate_emission(hmm.emissions)
    if hmm.emissions.n_states != hmm.n_states:
        raise DimensionMismatchError(
            f"emissions have {hmm.emissions.n_states} states, expected {hmm.n_states}"
            f" (pi has shape {hmm.pi.shape})"
        )


def _obs_length(hmm, obs):
    logb = em.log_density_seq(hmm.emissions, obs)
    if logb.shape[0] == 0:
        raise EmptyObservationError("empty observation sequence")
    return logb


def forward_lattice(log_pi, log_trans, logb):
    """Forward recursion on explicit log parameters.

    Returns (loglik, alpha) where alpha[t][i] = log P(o_1..o_t, q_t = i).
    """
    alpha = np.empty(logb.shape)
    alpha[0] = log_pi + logb[0]
    for t in range(1, logb.shape[0]):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + log_trans, axis=0) + logb[t]
    return float(logsumexp(alpha[-1], axis=0)), alpha


def backward_lattice(log_trans, logb):
    """Backward recursion: beta[t][i] = log P(o_{t+1}..o_T | q_t = i)."""
    t_len, n = logb.shape
    beta = np.empty((t_len, n))
    beta[-1] = 0.0
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(log_trans + (logb[t + 1] + beta[t + 1])[None, :], axis=1)
    return beta


def band(log_trans):
    """The finite diagonals of log_trans (N, N, ...): a tuple of (o, w)
    pairs, one for each offset o at which some entry log_trans[j - o, j]
    is finite, in ascending order. w (N, ...) holds w[j] = log_trans[j -
    o, j], and -inf where row j - o lies off the matrix."""
    n = log_trans.shape[0]
    diagonals = []
    for o in range(1 - n, n):
        diag = np.diagonal(log_trans, o)
        if np.any(diag > LOG_ZERO):
            w = np.full(log_trans.shape[1:], LOG_ZERO)
            w[max(o, 0) : n + min(o, 0)] = np.moveaxis(diag, -1, 0)
            diagonals.append((o, w))
    return tuple(diagonals)


def _last_frames(t_len, lengths):
    """{t: mask} of the frames at which batch entries end: the mask, over
    the batch axes, holds the entries whose last frame is t. Without
    lengths every entry ends at frame t_len - 1."""
    if lengths is None:
        return {t_len - 1: True}
    lengths = np.asarray(lengths)
    return {n - 1: lengths == n for n in set(lengths.ravel().tolist())}


def _band_steps(diagonals, shape):
    """One (src, dst, w) per offset o of diagonals, a band() of (N, N) +
    shape[1:] transitions, offset 0 first, then the others ascending:
    rows src of a frame's delta feed rows dst of the next, row j - o row
    j, with the weights w, the band's dst rows. A band without offset 0,
    empty or a caller's own, gets an all -inf one."""
    n, weights = shape[0], dict(diagonals)
    if 0 not in weights:
        weights[0] = np.full(shape, LOG_ZERO)
    steps = []
    for o in sorted(weights, key=lambda o: o != 0):
        dst = slice(max(o, 0), n + min(o, 0))
        steps.append((slice(max(-o, 0), n - max(o, 0)), dst, weights[o][dst]))
    return steps


def _max_product(log_pi, log_trans, logb, columns, lengths, keep):
    """The banded max-product frame loop of viterbi_score_lattice and
    viterbi_lattice, arguments as in viterbi_score_lattice. Returns the
    scores over the batch axes and, with keep, also the (T', N, ...)
    rows of every frame's delta and the _band_steps, for _backtrack.

    One delta buffer is updated in place: a frame writes each nonzero
    offset's sums delta[j - o] + w[j] into a buffer of its own, adds
    offset 0 into every row, maxes the sums in and adds the emissions.
    """
    diagonals = log_trans if isinstance(log_trans, tuple) else band(np.asarray(log_trans))

    def frame(t):
        return logb[t] if columns is None else logb[t][columns]

    last = _last_frames(logb.shape[0], lengths)
    t_len = max(last) + 1
    delta = log_pi + frame(0)
    best = np.full(delta.shape[1:], LOG_ZERO)
    steps = _band_steps(diagonals, delta.shape)
    (_, _, stay), *moves = steps
    # The views are made once: on small batches, per frame they cost as much as the arithmetic.
    moves = [(delta[src], w, np.empty_like(delta[dst]), delta[dst]) for src, dst, w in moves]
    if keep:
        rows = np.empty((t_len,) + delta.shape)
    for t in range(t_len):
        if t:
            for prev, w, sums, _ in moves:
                np.add(prev, w, out=sums)
            np.add(delta, stay, out=delta)
            for _, _, sums, into in moves:
                np.maximum(into, sums, out=into)
            np.add(delta, frame(t), out=delta)
        if keep:
            rows[t] = delta
        if t in last:
            np.copyto(best, np.max(delta, axis=0), where=last[t])
    score = float(best) if best.ndim == 0 else best
    return (score, rows, steps) if keep else score


def _backtrack(rows, steps, lengths):
    """(T', E) state paths of the E entries of a max-product pass, its
    batch axes flattened, from the rows and _band_steps of _max_product;
    lengths (E,) holds each entry's frame count. Column e holds entry
    e's path over its first lengths[e] frames and 0 after them.

    An entry ends at the first maximizer of its last row, as np.argmax.
    A step back from row j re-adds prev[j - o] + w[j], the highest o
    first, and moves to the first strict gain over -inf: Python's + is
    numpy's IEEE add, so the sums and ties are the loop's, and ties go
    to the lowest row, as in the dense argmax. A row without a finite
    predecessor stays; a backtrack meets one only in row 0 (a finite sum
    leads to a row with one, and an entry scoring -inf ends in row 0),
    where the dense argmax goes too. A step in Python costs far less
    than a numpy call on the few entries a decoder backtracks.
    """
    t_len, n = rows.shape[:2]
    flat = rows.reshape(t_len, n, -1)
    scan = sorted(steps, key=lambda step: step[0].start - step[1].start)  # by -o, src - dst
    # weights[e][k][j]: entry e's w[j] at the scan's k-th offset.
    weights = np.full((len(scan),) + rows.shape[1:], LOG_ZERO)
    for k, (_, dst, w) in enumerate(scan):
        weights[k][dst] = w
    weights = weights.reshape(len(scan), n, -1).transpose(2, 0, 1).tolist()
    offsets = [dst.start - src.start for src, dst, _ in scan]
    paths = []
    for e, (length, w) in enumerate(zip(lengths.tolist(), weights)):
        *deltas, last = flat[:length, :, e].tolist()
        state = last.index(max(last))
        # preds[j]: (i, w[j]) for each row i = j - o on the matrix, in scan order.
        taps = list(zip(offsets, w))
        preds = [[(j - o, into[j]) for o, into in taps if 0 <= j - o < n] for j in range(n)]
        states = [state]
        for prev in reversed(deltas):
            j, gain = state, LOG_ZERO
            for i, into in preds[j]:
                if prev[i] + into > gain:
                    gain, state = prev[i] + into, i
            states.append(state)
        paths.append(states[::-1] + [0] * (t_len - length))
    return np.array(paths, dtype=np.intp).T


def viterbi_score_lattice(log_pi, log_trans, logb, columns=None, lengths=None):
    """Best-path scores of a batch of models, by the banded max-product
    recursion without backtracking bookkeeping.

    log_pi (N, ...) and log_trans (N, N, ...) may carry trailing batch
    axes, one model per batch entry; the result is then an array over
    those axes instead of a float. The batch is the innermost axis so
    that every step runs over contiguous memory. log_trans may also be
    given as its band(); a dense array is converted on entry. Without
    columns, logb is the (T, N, ...) log-density lattice. With columns,
    an integer array shaped like log_pi, state i of batch entry b emits
    logb[t, columns[i, b]], so one (T, S) table serves every model built
    from the same S states. lengths, an integer array broadcast against
    the batch axes, holds each entry's frame count (T if None): entry b
    is scored at frame lengths[b] - 1, and the frames after it do not
    change its score.

    Each frame maxes delta[j - o] + w[j] over the band's offsets o: the
    same finite sums as delta[i] + log_trans[i, j] over all i, each made
    by the same addition, and a -inf never wins a max, so the score is
    bit-identical to the dense recursion. -inf padding in log_pi,
    log_trans and the gathered logb never wins a max either, so a padded
    model scores exactly as its unpadded self.
    """
    return _max_product(log_pi, log_trans, logb, columns, lengths, False)


def viterbi_lattice(log_pi, log_trans, logb, lengths=None):
    """Best scores and state paths: the frame loop of
    viterbi_score_lattice keeping its delta rows, then a backtrack of
    every entry that re-adds the band's sums into each row it visits.

    log_pi (N, ...), log_trans (N, N, ..., or its band()) and logb (T,
    N, ...) may carry trailing batch axes, one model and one lattice per
    entry; lengths is as in viterbi_score_lattice. Returns (score, path):
    score over the batch axes (a float without them) and path (T', ...)
    of state indices, T' the longest length. Entry b's score and path
    are read at its last frame lengths[b] - 1; path[t, b] is 0 for t >=
    lengths[b].

    Ties go to the lowest predecessor state index at every backtrack
    step and to the lowest end state, the first maximizers np.argmax
    gives. So every score and path is the dense recursion's, bit for
    bit, that of an entry scoring -inf included, and -inf padding rows
    never win.
    """
    score, rows, scan = _max_product(log_pi, log_trans, logb, None, lengths, True)
    batch = rows.shape[2:]
    counts = np.broadcast_to(len(rows) if lengths is None else lengths, batch)
    path = _backtrack(rows, scan, counts.reshape(-1))
    return score, path.reshape(path.shape[:1] + batch)


def forward(hmm, obs):
    """Log likelihood of obs plus the full alpha lattice.

    Returns (loglik, alpha) with loglik = log sum over all state paths
    of P(path, obs | hmm).
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    return forward_lattice(log_pi, log_trans, logb)


def backward(hmm, obs):
    """Beta lattice; logsumexp_i(alpha[t][i] + beta[t][i]) is constant in t."""
    logb = _obs_length(hmm, obs)
    _, log_trans = hmm.log_params()
    return backward_lattice(log_trans, logb)


def viterbi(hmm, obs):
    """Best state path and its joint log score.

    Raises AllPathsZeroError when no path has nonzero probability; a
    path is never fabricated in that case.
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    score, path = viterbi_lattice(log_pi, log_trans, logb)
    if score == LOG_ZERO:
        raise AllPathsZeroError()
    return path.tolist(), score


def row_pieces(rows):
    """(states, cdf, counts) of a stack of distribution rows: the column
    of each nonzero entry, flat and row-major, its emissions.row_cdf
    value, and each row's count of them. A row's cdf rises only at its
    nonzero entries, so the first entry above a draw is always one of
    them. A row padded with leading or trailing zeros keeps its cdf
    values bit for bit, since a zero adds 0.0 exactly."""
    at, states = np.nonzero(rows)
    return states, em.row_cdf(rows)[at, states], np.bincount(at, minlength=len(rows))


def walker(states, cdf, counts, emit, emit_rows):
    """draw(t_len, rng) -> (observations, state path as a list of ints)
    of the chain whose N state rows and then initial distribution have
    the row_pieces (states, cdf, counts). A frame's state is the first
    entry of its row's cdf above one rng.random() draw, as
    Generator.choice(n, p=row) picks it, so the output and the
    generator's state afterwards are those of one choice call per frame.
    The observations are emit(emit_rows[path], rng): emit_rows (N,)
    holds the row of each state in the table the emission sampler emit
    draws from."""
    bounds = [0, *itertools.accumulate(counts.tolist())]
    states, cdf, start = states.tolist(), cdf.tolist(), len(counts) - 1

    def draw(t_len, rng):
        path, s = [], start
        for u in rng.random(t_len).tolist():
            s = states[bisect_right(cdf, u, bounds[s], bounds[s + 1])]
            path.append(s)
        return emit(emit_rows[path], rng), path

    return draw


def sampler(hmm):
    """The walker of hmm's row_pieces of trans and pi, checked here once:
    pi and trans as _check_chain checks them, then the emissions by
    their sampler, whose row i is state i's."""
    _check_chain(hmm)
    emit = hmm.emissions.sampler()
    return walker(*row_pieces(np.vstack([hmm.trans, hmm.pi])), emit, np.arange(hmm.n_states))


def sample(hmm, t_len, seed):
    """Draw (observations, state path) of length t_len by sampler(hmm),
    which raises a ValidationError subclass for a NaN, a negative entry
    or a row that does not sum to 1. seed may be an int or a numpy
    Generator; a fixed int seed gives identical output on every call."""
    if t_len < 1:
        raise EmptyObservationError("t_len must be >= 1")
    return sampler(hmm)(t_len, np.random.default_rng(seed))


def _scaled_forward(log_pi, log_trans, logb, lengths):
    """Rabiner's scaled forward sweep (Proc. IEEE 1989, section V.A),
    the batch on the leading axis so that every frame is one batched
    matmul. Arguments as in posteriors_lattice.

    Returns (loglik (B,), alpha (T, B, N), emit (T, B, N), scale (T, B),
    trans (B, N, N)). trans holds the transition probabilities and emit
    the emission lattice shifted by its per-frame, per-entry max before
    exp (an all -inf frame shifts by 0): every value is at most 1, and
    -inf is exactly 0. A frame whose reachable states all round to 0
    that way shifts by its best reachable state instead. alpha[t] is the
    forward row of frame t divided by scale[t], its sum; a row without
    mass stays 0. loglik adds log(scale) and the shifts over each
    entry's first lengths[b] frames. Only a frame with a sum below TINY
    builds that mask, reshifts and divides where scale > 0.
    """
    trans = np.moveaxis(log_trans, -1, 0)
    trans = np.exp(trans, out=np.empty(trans.shape))
    shift = np.max(logb, axis=1)
    shift[shift == LOG_ZERO] = 0.0
    emit = np.empty(logb.shape[:1] + shift.shape[1:] + logb.shape[1:2])
    np.subtract(logb.transpose(0, 2, 1), shift[:, :, None], out=emit)
    np.exp(emit, out=emit)
    alpha = np.empty_like(emit)
    scale = np.empty(emit.shape[:2])
    pi = np.exp(log_pi.T)
    step = np.empty(emit.shape[1:2] + (1,) + emit.shape[2:])
    for t in range(len(emit)):
        pred = pi if t == 0 else np.matmul(alpha[t - 1][:, None], trans, out=step)[:, 0]
        np.multiply(pred, emit[t], out=alpha[t])
        np.add.reduce(alpha[t], axis=1, out=scale[t])
        if np.minimum.reduce(scale[t]) >= TINY:
            alpha[t] /= scale[t][:, None]
            continue
        # The states the forward mass reaches may all lie so far below
        # the frame's best state that exp rounds them to 0 or to
        # subnormals. Such a frame shifts by its best reachable state
        # instead; the others hold no forward mass, and emit 0.
        lost = scale[t] < TINY
        reach = np.broadcast_to(pred, alpha[t].shape)[lost]
        frame = np.where(reach > 0, logb[t].T[lost], LOG_ZERO)
        top = np.max(frame, axis=1)
        top[top == LOG_ZERO] = 0.0
        shift[t, lost] = top
        emit[t, lost] = np.exp(frame - top[:, None])
        alpha[t, lost] = reach * emit[t, lost]
        scale[t, lost] = np.sum(alpha[t, lost], axis=1)
        np.divide(alpha[t], scale[t][:, None], out=alpha[t], where=scale[t][:, None] > 0)
    live = np.arange(len(emit))[:, None] < lengths
    with np.errstate(divide="ignore"):
        loglik = np.where(live, np.log(scale) + shift, 0.0).sum(axis=0)
    return loglik, alpha, emit, scale, trans


def loglik_lattice(log_pi, log_trans, logb, lengths):
    """(B,) log likelihoods by the forward sweep of posteriors_lattice:
    the same arithmetic, without the backward sweep."""
    return _scaled_forward(log_pi, log_trans, logb, lengths)[0]


def posteriors_lattice(log_pi, log_trans, logb, lengths):
    """Batched E-step: scaled forward-backward over B sequences at once.

    log_pi (N, B), log_trans (N, N, B) and logb (T, N, B) hold one model
    and one padded sequence per batch entry (the batch axes of the
    parameters may be 1 to share one model); lengths (B,) holds each
    entry's frame count. Returns (loglik (B,), gamma (T, N, B),
    xi_sum (N, N, B)): gamma[t, :, b] is entry b's state posterior at
    frame t (0 at and after lengths[b]) and xi_sum[:, :, b] its
    expected transition counts summed over time.

    The backward rows are scaled by the forward sweep's factors and kept
    in a (T, B, N) lattice, so gamma is alpha times beta. A backward row
    is 1 at an entry's last frame and 0 after it, which masks whatever
    logb holds there. The backward sweep turns emit into the weights
    that xi_sum contracts with alpha in one matmul. An entry with loglik
    -inf has meaningless posteriors. A reachable state whose log density
    lies more than about 700 below the best reachable state of its frame
    counts as impossible there.
    """
    loglik, alpha, emit, scale, trans = _scaled_forward(log_pi, log_trans, logb, lengths)
    emit *= np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)[:, :, None]
    lengths = np.asarray(lengths)
    beta = np.empty_like(emit)
    beta[-1] = (lengths == len(emit))[:, None]
    ends = set((lengths - 1).tolist())
    for t in range(len(emit) - 2, -1, -1):
        emit[t + 1] *= beta[t + 1]
        np.matmul(trans, emit[t + 1][:, :, None], out=beta[t][:, :, None])
        if t in ends:
            np.copyto(beta[t], 1.0, where=(lengths == t + 1)[:, None])
    xi_sum = np.matmul(alpha[:-1].transpose(1, 2, 0), emit[1:].transpose(1, 0, 2))
    xi_sum *= trans
    alpha *= beta
    return loglik, alpha.transpose(0, 2, 1), xi_sum.transpose(1, 2, 0)


def posteriors(hmm, obs):
    """E-step quantities for one sequence: posteriors_lattice with B = 1.

    Returns (loglik, gamma, xi_sum, logb) where gamma is the (T, N)
    state posterior matrix and xi_sum the (N, N) expected transition
    counts summed over time. loglik of -inf yields no posteriors.
    """
    logb = _obs_length(hmm, obs)
    log_pi, log_trans = hmm.log_params()
    loglik, gamma, xi_sum = posteriors_lattice(
        log_pi[:, None], log_trans[:, :, None], logb[:, :, None], np.array([len(logb)])
    )
    if loglik[0] == LOG_ZERO:
        return LOG_ZERO, None, None, logb
    return float(loglik[0]), gamma[:, :, 0], xi_sum[:, :, 0], logb
