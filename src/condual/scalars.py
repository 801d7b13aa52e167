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

Every exact linear solve of the package (certified LP bases and
projections onto the increments' span) runs the one fraction-free
elimination :func:`gauss_jordan` on rows made integer by
:func:`integer_row`.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

INF = math.inf
NEG_INF = -math.inf


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


def parse_list(value, path=None):
    """A JSON array, read as a list or tuple; anything else is refused."""
    if not isinstance(value, (list, tuple)):
        raise SchemaError(f"expected a list, got {type(value).__name__}", path)
    return value


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


def integer_row(values):
    """The rationals values (floats read as the rationals they are) times
    the least common multiple of their denominators."""
    values = [Fraction(v) if isinstance(v, float) else v for v in values]
    dens = [int(v.denominator) for v in values]
    s = math.lcm(*dens)
    return [int(v.numerator) * (s // d) for v, d in zip(values, dens)]


def gauss_jordan(rows, width=None):
    """Fraction-free Gauss-Jordan elimination of the rational rows on their
    first ``width`` columns (all of them by default); the columns after
    those ride along as right-hand sides.

    Returns ``(a, pivots)``.  ``pivots`` lists, in increasing order, the
    columns that are not combinations of the columns before them, so
    ``len(pivots)`` is the rank.  ``a`` holds the rows as integers (each
    scaled by :func:`integer_row`, then kept divided by its gcd after every
    elimination): for k < len(pivots), row k is the only row with a nonzero
    entry in column pivots[k], and row k divided by that entry is row k of
    the reduced row echelon form; the later rows vanish on the first
    ``width`` columns.
    """
    a = [integer_row(row) for row in rows]
    m = len(a)
    if width is None:
        width = len(a[0]) if a else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot_row = a[r]
        pk = pivot_row[col]
        for i in range(m):
            f = a[i][col]
            if i != r and f:
                row = [pk * u - f * v for u, v in zip(a[i], pivot_row)]
                g = math.gcd(*row)
                a[i] = [v // g for v in row] if g > 1 else row
        pivots.append(col)
    return a, pivots


def solve_exact(system, width):
    """X with M X = Y for the square rational system given as rows [M_i,
    Y_i], M of ``width`` columns: one row of Fractions per row of M; None
    when M is singular.  One :func:`gauss_jordan` elimination."""
    a, pivots = gauss_jordan(system, width)
    if len(pivots) < width:
        return None
    return [[Fraction(v, row[k]) for v in row[width:]]
            for k, row in enumerate(a)]


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
