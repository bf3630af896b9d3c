"""Exception hierarchy for model validation, inference and decoding."""

from __future__ import annotations


class PhmmError(Exception):
    """Base class for all package errors."""


class ValidationError(PhmmError):
    """A model, lexicon or file failed an invariant check."""


class NonStochasticRowError(ValidationError):
    def __init__(self, which, index, total):
        self.which = which
        self.index = index
        self.total = total
        where = which if index is None else f"{which}[{index}]"
        super().__init__(f"{where} sums to {total!r}, expected 1")


class NegativeEntryError(ValidationError):
    def __init__(self, which, value):
        self.which = which
        self.value = value
        super().__init__(f"negative entry {value!r} in {which}")


class NonFiniteEntryError(ValidationError):
    def __init__(self, which, value):
        self.which = which
        self.value = value
        super().__init__(f"non-finite entry {value!r} in {which}")


class TopologyViolationError(ValidationError):
    def __init__(self, i, j, value):
        self.i = i
        self.j = j
        self.value = value
        super().__init__(
            f"left_to_right topology forbids trans[{i}][{j}] = {value!r}"
        )


class VariantMismatchError(ValidationError):
    """Observation kind does not match the emission model kind."""


class StateOutOfRangeError(ValidationError):
    def __init__(self, state, n_states):
        super().__init__(f"state {state} out of range for {n_states} states")


class DimensionMismatchError(ValidationError):
    """Observation incompatible with the emission model's alphabet/dimension."""


class EmptyObservationError(ValidationError):
    """Inference requires a nonempty observation sequence."""


class NegativeWeightError(ValidationError):
    def __init__(self, weight):
        super().__init__(f"accumulation weight {weight!r} is negative")


class EmptyStateError(PhmmError):
    def __init__(self, state):
        self.state = state
        super().__init__(
            f"state {state} has zero total weight and smoothing is 0"
        )


class AllPathsZeroError(PhmmError):
    """Every state path has probability zero under the model."""

    def __init__(self, channel=None):
        self.channel = channel
        msg = "all state paths have zero probability"
        if channel is not None:
            msg += f" (channel {channel!r})"
        super().__init__(msg)


class IncompatibleDataError(PhmmError):
    """Training data does not match the model's emission variant."""


class DegenerateModelError(PhmmError):
    """Initial model assigns zero likelihood to the training data."""


class MissingPhonemeDataError(PhmmError):
    def __init__(self, phoneme):
        self.phoneme = phoneme
        super().__init__(f"no training segments for phoneme {phoneme!r}")


class UnknownSignError(PhmmError):
    def __init__(self, sign):
        self.sign = sign
        super().__init__(f"sign {sign!r} not in lexicon")


class EmptySequenceError(PhmmError):
    """A sign sequence must contain at least one sign."""


class UnequalChannelLengthsError(PhmmError):
    """Synchronized decoding requires equal observation lengths per channel."""


class NoFiniteHypothesisError(PhmmError):
    """Every candidate hypothesis scored -inf."""


class SearchSpaceTooLargeError(PhmmError):
    def __init__(self, n_candidates, limit):
        super().__init__(
            f"exhaustive decode would enumerate {n_candidates} candidates "
            f"(limit {limit})"
        )


class DegenerateSplitError(PhmmError):
    """A corpus split would leave one side empty."""


class FileFormatError(PhmmError):
    """A corpus or model file is malformed or has an unsupported version."""
