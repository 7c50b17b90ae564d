"""Shared exception hierarchy. Every typed failure in the package derives
from TpcostError so callers (and the CLI) can distinguish input problems
from genuine bugs. The input-file readers here raise one for a file that
does not decode."""

import json


class TpcostError(Exception):
    """Base class for all tpcost errors."""


class ParseError(TpcostError):
    """Malformed IR text. Carries 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ValidationError(TpcostError):
    """Structurally well-formed input that violates an invariant."""


class LeafCountExceeded(TpcostError):
    """Program has more compute leaves than the configured maximum."""


class DegenerateLabels(TpcostError):
    """Label set unusable for fitting (e.g. all values identical)."""


class NotFitted(TpcostError):
    """Normalizer used before fit."""


class DomainError(TpcostError):
    """Value outside the mathematical domain of a transform."""


class EmptyDataset(TpcostError):
    pass


class MissingPeakFlops(TpcostError):
    """Device spec lacks peak FLOPS, required by the synthetic oracle."""


class EmptyBatch(TpcostError):
    pass


class EmptySet(TpcostError):
    pass


class EmptySelection(TpcostError):
    pass


class NonFiniteLoss(TpcostError):
    """Training loss or parameters became NaN/Inf. Carries the epoch index."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class TooFewPoints(TpcostError):
    pass


class TooFewTasks(TpcostError):
    pass


class DimensionMismatch(TpcostError):
    pass


class CycleDetected(TpcostError):
    pass


class InvalidDevice(TpcostError):
    pass


class CheckpointError(TpcostError):
    """Corrupt or incompatible checkpoint file."""


def read_text(path) -> str:
    """The text of an input file; ValidationError naming the file if it is
    not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ValidationError(f"{path}: not UTF-8 text: {e.reason} at byte "
                              f"{e.start}") from e


def read_json(path):
    """The JSON document of an input file; ValidationError naming the file
    if it is not UTF-8 JSON."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: bad JSON: {e}") from e
