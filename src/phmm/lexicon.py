"""Channels, phoneme inventories, signs and multi-channel observations.

A lexicon maps every sign to one phoneme sequence per channel; each
channel owns an independent phoneme inventory whose entries are bound
to validated Hmm instances. Epenthesis (the transitional movement
between consecutive signs) is an optional designated phoneme per
channel, inserted between signs at composition time.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hmm as hmm_mod
from .emissions import DiscreteEmission, GaussianEmission
from .errors import EmptyObservationError, ValidationError

DEFAULT_CHANNELS = ("right_hand", "left_hand", "head")

EPENTHESIS_NONE = "none"
EPENTHESIS_BETWEEN_SIGNS = "between_signs"


@dataclass
class PhonemeInventory:
    """One channel's phoneme models, plus its optional epenthesis phoneme."""

    phonemes: dict
    epenthesis: str | None = None

    @property
    def content_ids(self):
        """Phoneme ids excluding the epenthesis filler."""
        return [p for p in self.phonemes if p != self.epenthesis]


@dataclass
class Sign:
    """A sign: one nonempty phoneme id sequence per channel."""

    sign_id: str
    channels: dict


@dataclass
class Lexicon:
    channels: list
    inventories: dict
    signs: dict
    epenthesis_policy: str = EPENTHESIS_NONE
    exit_prob: float = 0.5

    def inventory(self, channel):
        return self.inventories[channel]


@dataclass
class MultiObservation:
    """One utterance: an observation sequence per channel (lengths may differ)."""

    channels: dict


def validate_lexicon(lex):
    """Check lexicon invariants, including every bound model."""
    if not lex.channels:
        raise ValidationError("lexicon has no channels")
    if len(set(lex.channels)) != len(lex.channels):
        raise ValidationError("channel names must be unique")
    if lex.epenthesis_policy not in (EPENTHESIS_NONE, EPENTHESIS_BETWEEN_SIGNS):
        raise ValidationError(f"unknown epenthesis policy {lex.epenthesis_policy!r}")
    if not 0.0 < lex.exit_prob < 1.0:
        raise ValidationError(f"exit_prob must be in (0, 1), got {lex.exit_prob!r}")
    for ch in lex.channels:
        inv = lex.inventories.get(ch)
        if inv is None or not inv.phonemes:
            raise ValidationError(f"channel {ch!r} has no phoneme inventory")
        shape = None
        for pid, model in inv.phonemes.items():
            hmm_mod.validate(model)
            sig = _emission_signature(model.emissions)
            if shape is None:
                shape = sig
            elif sig != shape:
                raise ValidationError(
                    f"channel {ch!r}: phoneme {pid!r} emission signature {sig} "
                    f"differs from {shape}"
                )
        if lex.epenthesis_policy == EPENTHESIS_BETWEEN_SIGNS:
            if inv.epenthesis is None or inv.epenthesis not in inv.phonemes:
                raise ValidationError(
                    f"policy between_signs requires an epenthesis phoneme "
                    f"in channel {ch!r}"
                )
    for sid, sign in lex.signs.items():
        if sign.sign_id != sid:
            raise ValidationError(f"sign key {sid!r} does not match id {sign.sign_id!r}")
        for ch in lex.channels:
            seq = sign.channels.get(ch)
            if not seq:
                raise ValidationError(f"sign {sid!r} does not cover channel {ch!r}")
            inv = lex.inventories[ch]
            for pid in seq:
                if pid not in inv.phonemes:
                    raise ValidationError(
                        f"sign {sid!r} references unknown phoneme {pid!r} "
                        f"in channel {ch!r}"
                    )


def _emission_signature(em):
    if isinstance(em, DiscreteEmission):
        return ("discrete", em.alphabet_size)
    if isinstance(em, GaussianEmission):
        return ("gaussian", em.dim)
    return ("unknown",)


def validate_multi_observation(lex, mobs):
    """Observation sequences must exist and be nonempty for every channel."""
    for ch in lex.channels:
        if ch not in mobs.channels:
            raise ValidationError(f"missing observations for channel {ch!r}")
        if len(mobs.channels[ch]) == 0:
            raise EmptyObservationError(f"empty observation sequence for channel {ch!r}")
