"""Exception types shared across the engine, and the type test for JSON input.

The CLI maps these onto exit codes: parse/validation/lookup/contract
problems exit 2, I/O problems exit 1, enumeration-guard refusals exit 3.
"""


def json_isinstance(value, types) -> bool:
    """isinstance for parsed JSON values: a JSON boolean is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


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
