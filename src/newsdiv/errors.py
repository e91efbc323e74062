"""Exception types shared across the engine, and helpers for JSON input.

The CLI maps these onto exit codes: parse/validation/lookup/contract
problems exit 2, I/O problems exit 1, enumeration-guard refusals exit 3.
Every json.loads failure becomes a ParseError through json_decode_error.
Numeric parameters are range-checked by json_number_in: a bool is not a
number, NaN lies in no interval, and a value is compared as given, never
after float().
"""
import json
import sys


def load_json(text: str, what: str):
    """Decode one JSON document; a failure raises json_decode_error(exc, what)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise json_decode_error(exc, what) from exc


def json_decode_error(exc: Exception, what: str) -> "ParseError":
    """The ParseError naming `what` for a json.loads failure: malformed text
    (JSONDecodeError, with line and column), text nested too deeply
    (RecursionError), or an integer past Python's digit limit (a plain
    ValueError, the only other one json.loads raises on text)."""
    if isinstance(exc, json.JSONDecodeError):
        return ParseError(
            f"{what} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if isinstance(exc, RecursionError):
        return ParseError(f"{what} nests too deeply to parse")
    return ParseError(f"{what} holds an integer of more than {sys.get_int_max_str_digits()} digits")


def json_isinstance(value, types) -> bool:
    """isinstance for parsed JSON values: a JSON boolean is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


def json_number_in(value, low, high, kind=(int, float)) -> bool:
    """True when `value` is a `kind` that is not a bool and low <= value <= high."""
    return isinstance(value, kind) and not isinstance(value, bool) and low <= value <= high


def json_float(value, what: str) -> float:
    """A parsed JSON number as a float. An integer too large for one raises
    ValidationError naming `what`."""
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what} is too large for a float") from None


class NewsdivError(Exception):
    """Base class for every error raised by this package."""


class ParseError(NewsdivError):
    """Input text could not be parsed. Message carries line/position."""


class ValidationError(NewsdivError):
    """Parseable input violated a structural invariant."""


class UnknownEntityError(NewsdivError):
    """An aspect, label, document, node, or rule target does not exist."""


class ContractError(NewsdivError):
    """An operation was called with arguments outside its contract."""


class DerivationError(ValidationError):
    """Label distances could not be derived from the aspect's graph."""


class GuardExceededError(NewsdivError):
    """An exhaustive enumeration would exceed the safety guard."""
