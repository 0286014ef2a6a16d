"""The one base of every bad-input error in matk.

Each module's own exception classes derive from ``MatkError``, so a caller
(the CLI above all) tells bad input from an internal fault by one
``except MatkError``.  It is a ``ValueError`` so that code catching the old
per-module ``ValueError`` subclasses keeps working.  A library call with
arguments outside its domain (an unknown ring kind, division in Z, a bad
slot recipe) raises a ``MatkError`` too; any other exception, a plain
``ValueError`` included, is an internal fault.
"""


class MatkError(ValueError):
    pass


class MalformedInput(MatkError):
    """A value that does not parse: a coefficient, a ring name, an integer."""


def parse_int(value, what: str) -> int:
    """An int or a decimal string as an int; MalformedInput naming the value,
    read as a ``what``, for anything else (so 1.5 is not read as 1)."""
    if isinstance(value, str) or type(value) is int:
        try:
            return int(value)
        except ValueError:
            pass
    raise MalformedInput(f"{what} {value!r} is not an integer")
