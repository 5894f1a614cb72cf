"""Exception types shared across the package, and the two checks every
scalar argument goes through: ``_check_integer`` for counts, orders, sizes
and seeds, ``_positive_real`` for scales and fractions."""

import math
import numbers
from contextlib import suppress


class DirmaxError(Exception):
    """Base class for package errors."""


class InvalidArgument(DirmaxError, ValueError):
    """An argument violates an operation's preconditions."""


class ValidationFailure(DirmaxError):
    """A constructed object fails its structural invariants.

    The message names the offending stage / interval where applicable.
    """


class PreconditionViolation(DirmaxError):
    """A documented precondition of an operation does not hold."""


class TruncationError(DirmaxError):
    """A sampled kernel loses too much mass outside the grid.

    Carries the estimated lost mass fraction in ``lost_fraction``.
    """

    def __init__(self, message: str, lost_fraction: float):
        super().__init__(message)
        self.lost_fraction = lost_fraction


def _check_integer(name: str, value, lo: int, hi: float = math.inf) -> None:
    """InvalidArgument naming ``name`` unless ``value`` is an integer, not a
    bool, in [lo, hi]."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lo <= value <= hi):
        rule = (f">= {lo}" if hi == math.inf else f"from {lo} to {hi}" if hi - lo > 2
                else f"{', '.join(map(str, range(lo, hi)))} or {hi}")
        kind = "" if integral else " (not an integer)"
        raise InvalidArgument(f"{name} must be {rule}, got {value!r}{kind}")


def _positive_real(name: str, value, hi: float = math.inf) -> float:
    """``value`` as a float; InvalidArgument naming ``name`` unless it is
    finite and > 0 (a scale) or, for a finite ``hi``, in [0, hi] (a fraction)."""
    with suppress(TypeError, ValueError):
        value = float(value)
    bounded = hi != math.inf
    if not (isinstance(value, float) and (0.0 <= value <= hi if bounded else 0.0 < value < hi)):
        rule = f"a real from 0 to {hi:g}" if bounded else "a positive real"
        raise InvalidArgument(f"{name} must be {rule}, got {value!r}")
    return value
