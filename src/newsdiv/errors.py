"""Exception types shared across the engine, and helpers for JSON input.

The CLI maps these onto exit codes: parse/validation/lookup/contract
problems exit 2, I/O problems exit 1, enumeration-guard refusals exit 3.
"""
import json


def load_json(text: str, what: str):
    """Decode one JSON document. Malformed text (reported with line and
    column) and text nested too deeply to decode raise ParseError naming
    `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{what} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise too_deeply_nested(what) from None


def too_deeply_nested(what: str) -> "ParseError":
    """The error for JSON text that json.loads gave up on with RecursionError."""
    return ParseError(f"{what} nests too deeply to parse")


def json_isinstance(value, types) -> bool:
    """isinstance for parsed JSON values: a JSON boolean is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


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
