"""Scalar conventions shared across the package.

Two numeric modes coexist:

* exact mode: every scalar is a :class:`fractions.Fraction`.  Inputs opt in
  by writing integers or rational strings like ``"1/3"``.
* float mode: plain Python/numpy floats.

Extended reals use ``math.inf`` / ``-math.inf`` as the two infinite states;
they interoperate with both modes (``Fraction(1, 3) < math.inf`` is fine).
The only nonstandard convention is ``0 * inf == 0``, which enters exactly
once, in the positive-homogeneity identity for support functions; use
:func:`scale_extended` for that.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

INF = math.inf
NEG_INF = -math.inf

Number = object  # Fraction | int | float; kept loose on purpose


class SchemaError(ValueError):
    """Raised when an input document violates the documented schema."""

    def __init__(self, message, path=None):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


def exact_mode_forced() -> bool:
    """True when the CONDUAL_EXACT=1 environment override is active."""
    return os.environ.get("CONDUAL_EXACT", "") == "1"


def parse_number(value, path=None):
    """Parse a JSON scalar into a Fraction (exact) or float.

    Integers and strings of the form ``"p/q"`` or ``"p"`` become Fractions;
    floats stay floats unless CONDUAL_EXACT=1 forces an exact conversion.
    """
    if isinstance(value, bool):
        raise SchemaError("expected a number, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SchemaError("numbers in input files must be finite", path)
        if exact_mode_forced():
            return Fraction(value)
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"not a rational literal: {value!r}", path) from exc
    raise SchemaError(f"expected a number, got {type(value).__name__}", path)


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


def is_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def scale_extended(lam, value):
    """lam * value with the documented 0 * inf := 0 convention (lam >= 0)."""
    if lam == 0:
        return 0 * lam if is_finite(value) else 0
    return lam * value


def number_to_json(value):
    """Serialize a scalar: Fractions as "p/q" strings, infinities as text."""
    if isinstance(value, float):
        if value == INF:
            return "inf"
        if value == NEG_INF:
            return "-inf"
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value
