"""Shared exception types, the bound on dimensions read from input, and
the test of an integer basis label.

Validation failures carry which law broke and the first violating witness
(usually a basis triple) so callers can report precisely.
"""
from __future__ import annotations

# The largest base dimension that outside input may set; an algebra read
# from a file, a T* extension of such a base, may have twice it.
MAX_N = 1_000


class QuadlieError(Exception):
    pass


class ValidationError(QuadlieError):
    def __init__(self, message: str, law: str = "", witness=None):
        super().__init__(message)
        self.law = law
        self.witness = witness


def _int_in(x) -> bool:
    """Whether x is an integer label: an int, but not the bool True or
    False, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def within_limit(value: int, top: int, what: str) -> int:
    """value, when it is at most top; else the one `limit` error, raised
    before anything of that size is built."""
    if value > top:
        raise ValidationError(f"{what} {value} exceeds the limit {top}",
                              law="limit")
    return value
