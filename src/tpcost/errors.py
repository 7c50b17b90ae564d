"""Shared exception hierarchy. Every typed failure in the package derives
from TpcostError so callers (and the CLI) can distinguish input problems
from genuine bugs. The input-file readers here raise one for a file that
does not decode; the `json_*` checkers type every part of a JSON input."""

import json
import sys
from math import inf
from reprlib import repr as brief  # a rejected value may be a whole document


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


def json_int(value, what: str, low: int | None = None) -> int:
    """A JSON integer (never a bool), >= `low` if given."""
    if type(value) is not int or low is not None and value < low:
        bound = "" if low is None else f" >= {low}"
        raise ValidationError(f"{what} must be a JSON integer{bound}, got "
                              f"{value!r}")
    return value


def json_number(value, what: str, low: float = -inf,
                inclusive: bool = True) -> float:
    """A finite JSON number (an int or a float, not a bool) as a float,
    >= `low`, or > `low` unless `inclusive`."""
    kind = type(value)
    if kind is float or kind is int and abs(value) <= sys.float_info.max:
        number = float(value)
        # chained comparisons, which NaN fails
        if -inf < number < inf and (
                low <= number if inclusive else low < number):
            return number
        reason = f"got {value!r}"
    elif kind is int:
        reason = "got an integer too large"
    else:
        reason = f"could not convert {value!r}"
    bound = f" {'>=' if inclusive else '>'} {low:g}" if low > -inf else ""
    raise ValidationError(f"{what} must be a finite JSON number{bound}, "
                          f"{reason}")


def json_list(value, what: str, kind=None, length: int | None = None) -> list:
    """The entries of a JSON list, each checked by `kind` (a checker such
    as json_number) if given, and then its length, if given."""
    if type(value) is not list:
        raise ValidationError(f"{what} must be a list, got {brief(value)}")
    if kind is not None:
        try:
            value = [kind(v, f"entry {i}") for i, v in enumerate(value)]
        except ValidationError as e:
            raise ValidationError(f"{what} must be a list: {e}") from None
    if length is not None and len(value) != length:
        raise ValidationError(f"{what} must be a list of {length} entries, "
                              f"got {len(value)}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object, such as one entry of an input file."""
    if type(value) is not dict:
        raise ValidationError(f"{what} must be a JSON object, got "
                              f"{brief(value)}")
    return value


def json_str(value, what: str) -> str:
    """A JSON string, such as an identifier."""
    if type(value) is not str:
        raise ValidationError(f"{what} must be a JSON string, got {value!r}")
    return value


def json_bool(value, what: str) -> bool:
    """A JSON true or false, not 0 or 1."""
    if type(value) is not bool:
        raise ValidationError(f"{what} must be a JSON bool, got {value!r}")
    return value
