import math
import re
from pathlib import Path

import pytest

from tpcost.errors import (ValidationError, json_int, json_list, json_number,
                           json_object, json_str)

SRC = Path(__file__).resolve().parents[1] / "src" / "tpcost"


@pytest.mark.parametrize("check", [json_int, json_number])
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_a_number(check, value):
    with pytest.raises(ValidationError, match=r"^x must be a "):
        check(value, "x")


def test_int_is_a_number_and_comes_back_as_float():
    assert json_number(3, "x") == 3.0 and type(json_number(3, "x")) is float
    assert type(json_number(2.5, "x")) is float
    assert json_int(3, "x") == 3 and json_int(-2, "x") == -2


@pytest.mark.parametrize("value, low, inclusive, ok", [
    (0, 0.0, True, True), (0.0, 0.0, True, True), (-0.0, 0.0, True, True),
    (0, 0.0, False, False), (-0.0, 0.0, False, False),
    (1e-300, 0.0, False, True), (-1e-300, 0.0, True, False),
    (math.nan, 0.0, True, False), (math.nan, 0.0, False, False),
    (math.inf, 0.0, True, False), (-math.inf, 0.0, True, False),
    (math.nan, -math.inf, True, False), (math.inf, -math.inf, True, False),
    (-math.inf, -math.inf, True, False), (-1e308, -math.inf, True, True),
])
def test_number_bounds(value, low, inclusive, ok):
    if ok:
        assert json_number(value, "x", low, inclusive) == value
    else:
        with pytest.raises(ValidationError, match="must be a finite JSON"):
            json_number(value, "x", low, inclusive)


@pytest.mark.parametrize("low, inclusive", [(0.0, True), (0.0, False)])
@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
def test_int_too_large_for_a_float(value, low, inclusive):
    with pytest.raises(ValidationError, match="too large"):
        json_number(value, "x", low, inclusive)


def test_bound_is_named():
    with pytest.raises(ValidationError, match=r"^t must be a finite JSON "
                                              r"number > 0, got 0$"):
        json_number(0, "t", 0.0, inclusive=False)
    with pytest.raises(ValidationError, match=r"^k must be a JSON integer "
                                              r">= 1, got 0$"):
        json_int(0, "k", 1)
    assert json_int(1, "k", 1) == 1


@pytest.mark.parametrize("value", ["1", "1.5", "nan", None, [1], {"a": 1}])
def test_string_or_other_json_is_not_a_number(value):
    for check in (json_int, json_number):
        with pytest.raises(ValidationError, match=r"^x must be a "):
            check(value, "x")
    with pytest.raises(ValidationError, match="could not convert"):
        json_number(value, "x")


def test_float_is_not_an_integer():
    with pytest.raises(ValidationError, match="must be a JSON integer"):
        json_int(1.0, "n")


@pytest.mark.parametrize("value", [None, 1, True, ["a"], {"a": "b"}])
def test_identifier_is_a_string(value):
    assert json_str("a", "id") == "a"
    with pytest.raises(ValidationError,
                       match=r"^id must be a JSON string, got "):
        json_str(value, "id")


def test_list_length_off_by_one():
    assert json_list([1, 2, 3], "v", json_int, 3) == [1, 2, 3]
    for value in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValidationError,
                           match=r"^v must be a list of 3 entries, got "):
            json_list(value, "v", json_int, 3)


def test_list_entries_are_checked_and_converted():
    assert json_list([1, 2.5], "v", json_number) == [1.0, 2.5]
    assert json_list(["a", 1], "v") == ["a", 1]
    with pytest.raises(ValidationError, match=r"^v must be a list: entry 1 "
                                              r"must be a JSON integer"):
        json_list([1, True], "v", json_int)
    with pytest.raises(ValidationError, match="entry 0 .*could not convert"):
        # an entry is checked before the length
        json_list(["x"], "v", json_number, 3)
    for value in ("[1]", (1,), None):
        with pytest.raises(ValidationError, match=r"^v must be a list"):
            json_list(value, "v", json_int)


@pytest.mark.parametrize("value", [[1, 2], "x", 5, None, True])
def test_entry_is_an_object(value):
    assert json_object({"a": 1}, "node") == {"a": 1}
    with pytest.raises(ValidationError,
                       match=r"^node must be a JSON object, got "):
        json_object(value, "node")


def test_shape_error_shows_the_start_of_a_long_value():
    # a rejected value may be a whole document
    with pytest.raises(ValidationError) as info:
        json_object(["x"] * 20000, "splits")
    assert str(info.value) == ("splits must be a JSON object, got ['x', 'x', "
                               "'x', 'x', 'x', 'x', ...]")
    with pytest.raises(ValidationError) as info:
        json_list({str(i): i for i in range(20000)}, "edges")
    assert str(info.value) == ("edges must be a list, got {'0': 0, '1': 1, "
                               "'10': 10, '100': 100, ...}")


# The hand-rolled JSON type idioms that the checkers above replace, such as
# `type(v) is not int` and `type(v) not in (int, float)`
_IDIOMS = re.compile(
    r"type\([^()]*\) (is |is not |in |not in )\(?(int|float)\b")


def test_json_type_idioms_live_only_in_errors_py():
    """Every input loader types its JSON through the errors.py checkers."""
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(SRC.glob("*.py"))
                 if path.name != "errors.py"
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if _IDIOMS.search(line)]
    assert offenders == []
    for idiom in ("type(d['n']) is not int", "type(v) not in (int, float)",
                  "type(x) is float", "type(k) in (int, float)"):
        assert _IDIOMS.search(idiom), idiom


# An `except` that names TypeError, the path by which Python's own text
# ("string indices must be integers") reached an input-error message
_TYPE_ERROR_CATCH = re.compile(r"except\b[^:]*\bTypeError\b")


def test_no_except_clause_catches_type_error():
    """A loader checks an entry's shape with json_object instead."""
    offenders = [f"{path.name}: {match.group()}"
                 for path in sorted(SRC.glob("*.py"))
                 for match in _TYPE_ERROR_CATCH.finditer(path.read_text())]
    assert offenders == []
    for clause in ("except TypeError:", "except (KeyError, TypeError) as e:",
                   "except (ValueError,\n        TypeError):"):
        assert _TYPE_ERROR_CATCH.search(clause), clause
