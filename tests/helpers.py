"""Seeded random model builders shared across test modules."""

from __future__ import annotations

import numpy as np

from phmm.demo import demo_lexicon
from phmm.emissions import DiscreteEmission, GaussianEmission
from phmm.hmm import Hmm, Topology


def bits(x):
    """The bytes of x as float64, for bit-for-bit comparisons."""
    return np.asarray(x, dtype=float).tobytes()


def random_stochastic(rng, shape):
    a = rng.uniform(0.1, 1.0, size=shape)
    return a / a.sum(axis=-1, keepdims=True)


def random_discrete_hmm(rng, n_states=3, alphabet=3):
    return Hmm(
        pi=random_stochastic(rng, n_states),
        trans=random_stochastic(rng, (n_states, n_states)),
        emissions=DiscreteEmission(random_stochastic(rng, (n_states, alphabet))),
        topology=Topology.ERGODIC,
    )


def random_gaussian_hmm(rng, n_states=2, dim=2):
    return Hmm(
        pi=random_stochastic(rng, n_states),
        trans=random_stochastic(rng, (n_states, n_states)),
        emissions=GaussianEmission(
            means=rng.normal(0.0, 2.0, size=(n_states, dim)),
            variances=rng.uniform(0.5, 2.0, size=(n_states, dim)),
        ),
        topology=Topology.ERGODIC,
    )


def left_to_right_hmm(n_states=3, alphabet=4, self_loop=0.5, rng=None):
    """Bakis chain with uniform-ish emissions, optionally perturbed."""
    trans = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        trans[i, i] = self_loop
        trans[i, i + 1] = 1.0 - self_loop
    trans[-1, -1] = 1.0
    pi = np.zeros(n_states)
    pi[0] = 1.0
    if rng is None:
        probs = np.full((n_states, alphabet), 1.0 / alphabet)
    else:
        probs = random_stochastic(rng, (n_states, alphabet))
    return Hmm(pi, trans, DiscreteEmission(probs), Topology.LEFT_TO_RIGHT)


def build_lexicon(
    rng,
    channels=("c0", "c1", "c2"),
    n_phonemes=2,
    vocab=3,
    n_states=2,
    alphabet=4,
    policy="none",
    separated=False,
    phonemes_per_sign=1,
):
    """Small random lexicon for decoder tests.

    With separated=True each phoneme's emissions concentrate on its own
    symbol pair (alphabet is then derived from the phoneme count).
    """
    from phmm.lexicon import Lexicon, PhonemeInventory, Sign

    inventories = {}
    for ch in channels:
        total = n_phonemes + (1 if policy == "between_signs" else 0)
        if separated:
            alpha = 2 * total
        else:
            alpha = alphabet
        phonemes = {}
        for k in range(total):
            pid = f"{ch}_e" if policy == "between_signs" and k == n_phonemes else f"{ch}_p{k}"
            if separated:
                probs = np.zeros((n_states, alpha))
                own = [2 * k, 2 * k + 1]
                tilt = np.linspace(0.8, 0.2, n_states)
                probs[:, own[0]] = tilt
                probs[:, own[1]] = 1.0 - tilt
            else:
                probs = random_stochastic(rng, (n_states, alpha))
            trans = np.zeros((n_states, n_states))
            for i in range(n_states - 1):
                trans[i, i] = rng.uniform(0.3, 0.7) if rng is not None else 0.5
                trans[i, i + 1] = 1.0 - trans[i, i]
            trans[-1, -1] = 1.0
            pi = np.zeros(n_states)
            pi[0] = 1.0
            phonemes[pid] = Hmm(
                pi, trans, DiscreteEmission(probs), Topology.LEFT_TO_RIGHT
            )
        eps = f"{ch}_e" if policy == "between_signs" else None
        inventories[ch] = PhonemeInventory(phonemes=phonemes, epenthesis=eps)

    signs = {}
    for v in range(vocab):
        per_channel = {}
        for ch in channels:
            content = inventories[ch].content_ids
            if phonemes_per_sign == 1:
                per_channel[ch] = [content[v % len(content)]]
            else:
                per_channel[ch] = [
                    content[int(rng.integers(0, len(content)))]
                    for _ in range(phonemes_per_sign)
                ]
        sid = f"s{v}"
        signs[sid] = Sign(sid, per_channel)
    return Lexicon(
        channels=list(channels),
        inventories=inventories,
        signs=signs,
        epenthesis_policy=policy,
    )


def sample_mobs(lexicon, signs, t_len, seed):
    """Sample one multi-channel observation for a known sign sequence."""
    from phmm.hmm import sample
    from phmm.lexicon import MultiObservation
    from phmm.parallel import compose_utterance_model

    data = {}
    for c, ch in enumerate(lexicon.channels):
        model = compose_utterance_model(lexicon, ch, signs)
        t = t_len[ch] if isinstance(t_len, dict) else t_len
        obs, _ = sample(model, t, np.random.default_rng((seed, c)))
        data[ch] = obs
    return MultiObservation(channels=data)


def random_phoneme(rng, n_states, gaussian=False, ergodic=False, alphabet=4, dim=2):
    """A random phoneme model: Bakis chain or ergodic, discrete or Gaussian."""
    if ergodic:
        pi = random_stochastic(rng, n_states)
        trans = random_stochastic(rng, (n_states, n_states))
    else:
        pi = np.zeros(n_states)
        pi[0] = 1.0
        trans = np.zeros((n_states, n_states))
        for i in range(n_states - 1):
            trans[i, i] = rng.uniform(0.2, 0.8)
            trans[i, i + 1] = 1.0 - trans[i, i]
        trans[-1, -1] = 1.0
    if gaussian:
        emissions = GaussianEmission(
            means=rng.normal(0.0, 2.0, size=(n_states, dim)),
            variances=rng.uniform(0.3, 2.0, size=(n_states, dim)),
        )
    else:
        emissions = DiscreteEmission(random_stochastic(rng, (n_states, alphabet)))
    topology = Topology.ERGODIC if ergodic else Topology.LEFT_TO_RIGHT
    return Hmm(pi, trans, emissions, topology)


def random_chains(rng, n_models, table_width):
    """(models, columns): random composed chains of 1-3 phonemes of 1-3
    states, Bakis and ergodic, some with zeroed in-block transitions,
    and for each a list of random columns, one per state, of a table of
    table_width columns (the last column is never read)."""
    from phmm.parallel import compose_models

    models = []
    columns = []
    for _ in range(n_models):
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            block = random_phoneme(rng, int(rng.integers(1, 4)), ergodic=bool(rng.integers(2)))
            trans = block.trans * (rng.random(block.trans.shape) < 0.7)
            np.fill_diagonal(trans, 1.0)
            block.trans = trans / trans.sum(axis=1, keepdims=True)
            blocks.append((None, block))
        model = compose_models(blocks)[0]
        models.append(model)
        columns.append(rng.integers(0, table_width - 1, size=model.n_states).tolist())
    return models, columns


# Every kind of mixed_lexicon: discrete or Gaussian, Bakis or ergodic,
# with and without epenthesis.
BATCH_CASES = [
    dict(gaussian=g, ergodic=e, policy=p)
    for g in (False, True)
    for e in (False, True)
    for p in ("none", "between_signs")
]


def mixed_lexicon(rng, gaussian=False, ergodic=False, policy="none", channels=("c0", "c1")):
    """3 signs of 1-2 phonemes per channel over phonemes of 1-3 states each."""
    from phmm.lexicon import Lexicon, PhonemeInventory, Sign

    inventories = {}
    for ch in channels:
        phonemes = {
            f"{ch}_p{k}": random_phoneme(rng, int(rng.integers(1, 4)), gaussian, ergodic)
            for k in range(3)
        }
        eps = None
        if policy == "between_signs":
            eps = f"{ch}_e"
            phonemes[eps] = random_phoneme(rng, int(rng.integers(1, 3)), gaussian, ergodic)
        inventories[ch] = PhonemeInventory(phonemes=phonemes, epenthesis=eps)
    signs = {}
    for v in range(3):
        per_channel = {}
        for ch in channels:
            content = inventories[ch].content_ids
            size = int(rng.integers(1, 3))
            per_channel[ch] = [content[int(rng.integers(0, 3))] for _ in range(size)]
        signs[f"s{v}"] = Sign(f"s{v}", per_channel)
    return Lexicon(
        channels=list(channels),
        inventories=inventories,
        signs=signs,
        epenthesis_policy=policy,
        exit_prob=float(rng.uniform(0.2, 0.8)),
    )


def absorbing_finals(lex):
    """lex with every phoneme's final state made absorbing, as
    decode_synced requires of the units' last phonemes. A non-final
    block's last row is rewired by composition, so nothing else
    changes."""
    for inv in lex.inventories.values():
        for model in inv.phonemes.values():
            trans = model.trans.copy()
            trans[-1] = np.eye(model.n_states)[-1]
            model.trans = trans
    return lex


def gaussian_twin():
    """The demo lexicon with its chains and 2-d Gaussian emissions, means
    drawn per state at variance 0.5."""
    lexicon = demo_lexicon()
    rng = np.random.default_rng(7007)
    for inv in lexicon.inventories.values():
        for model in inv.phonemes.values():
            shape = (model.n_states, 2)
            model.emissions = GaussianEmission(rng.normal(0, 2, shape), np.full(shape, 0.5))
    return lexicon
