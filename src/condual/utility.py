"""Utility functions, their convex conjugates, and growth diagnostics.

Supported families: power x^p/p with p in (0,1), logarithmic, piecewise
linear concave, and tabulated concave (the piecewise-linear interpolant of
its samples, built as a piecewise-linear utility).  Every U lives on
(0, inf) and is extended by U(0) = inf U and U(x) = -inf for x < 0.

The conjugate is V(y) = sup_x (U(x) - x y), extended by V(0) = sup U (its
limit from the right) and V(y) = +inf for y < 0.  For the two smooth
families it is closed form; for the piecewise families the supremum of a
concave piecewise-linear function minus a linear one is attained at a
breakpoint, so V is the upper envelope of one line per breakpoint
(:meth:`PiecewiseLinearUtility.conjugate_lines`).

Each family states U and V (``_u``, ``_v``; power and log also ``_du``,
``_d2u``, ``_dv``, ``_d2v``) once, on a number or on a float array, from
``_u_edge`` and ``_v_edge`` on; the solvers call them on arrays, and the
scalar API and the extension at 0 and below derive from them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import INF, NEG_INF, SchemaError, parse_list


class UtilityFunction:
    """Common interface; see the family subclasses below."""

    smooth = False
    strictly_concave = False
    _u_edge = _v_edge = 0.0

    def __call__(self, x):
        """U(x) under the extension, on a number or a float array."""
        return _extend(self._u, x, self._u_edge, self.inf_value, NEG_INF)

    def marginal(self, x):
        """(left derivative, right derivative) at x > 0."""
        d = self._du(float(x))
        return d, d

    def conjugate(self, y):
        """V(y) under the extension, on a number or a float array."""
        return _extend(self._v, y, self._v_edge, self.sup_value, INF)

    def conjugate_marginal(self, y):
        """(left, right) derivative of V at y > 0."""
        d = self._dv(float(y))
        return d, d

    def sup_value(self):
        """sup of U over (0, inf), possibly +inf; equals V(0+)."""
        raise NotImplementedError

    def inf_value(self):
        """U(0) under the semicontinuous extension."""
        raise NotImplementedError

    def inada_zero(self) -> bool:
        """Does the right derivative blow up as x -> 0+?"""
        raise NotImplementedError


def _extend(formula, x, edge, at_zero, outside):
    """formula(x) at x > 0 from edge on, at_zero() at 0 and outside
    elsewhere: on a number (formula sees float(x)), or elementwise on a
    float array (formula sees only the points where it applies)."""
    if isinstance(x, np.ndarray):
        inside = x >= edge if edge > 0 else x > 0
        if inside.all():
            return formula(x)
        out = np.where(x == 0, at_zero(), outside)
        out[inside] = formula(x[inside])
        return out
    if x == 0:
        return at_zero()
    if x < 0 or x < edge:
        return outside
    return formula(float(x))


def _log(x):
    """log on a number or elementwise on a float array."""
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def _envelope(lines, x):
    """The greatest a + b x over the lines (a, b): on a number, or
    elementwise on a float array."""
    terms = [a + b * x for a, b in lines]
    if isinstance(x, np.ndarray):
        return functools.reduce(np.maximum, terms)
    return max(terms)


def _slopes(lines, x):
    """(left, right) derivative at the number x of _envelope(lines, x): the
    least and the greatest b of the lines (a, b) that attain it, ties taken
    up to rounding, 1e-12 relative to the value."""
    heights = [a + b * x for a, b in lines]
    best = max(heights)
    tied = [b for (_, b), h in zip(lines, heights)
            if h >= best - 1e-12 * max(1.0, abs(best))]
    return min(tied), max(tied)


class _SmoothUtility(UtilityFunction):
    """A smooth, strictly concave family with sup U = U'(0+) = +inf."""

    smooth = True
    strictly_concave = True

    def conjugate_derivatives(self, z):
        """(V'(z), V''(z)) elementwise on a float array z > 0."""
        return self._dv(z), self._d2v(z)

    def sup_value(self):
        return INF

    def inada_zero(self):
        return True


@dataclass(frozen=True)
class PowerUtility(_SmoothUtility):
    p: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("power exponent must lie in (0, 1)")

    def _u(self, w):
        return w ** self.p / self.p

    def _du(self, w):
        return w ** (self.p - 1)

    def _d2u(self, w):
        return (self.p - 1.0) * w ** (self.p - 2)

    def _v(self, z):
        return (1.0 / self.p - 1.0) * z ** (self.p / (self.p - 1.0))

    def _dv(self, z):
        return -z ** (1.0 / (self.p - 1.0))

    def _d2v(self, z):
        return self._dv(z) / ((self.p - 1.0) * z)

    def inf_value(self):
        return 0.0


@dataclass(frozen=True)
class LogUtility(_SmoothUtility):
    def _u(self, w):
        return _log(w)

    def _du(self, w):
        return 1.0 / w

    def _d2u(self, w):
        return -1.0 / (w * w)

    def _v(self, z):
        return -_log(z) - 1.0

    def _dv(self, z):
        return -1.0 / z

    def _d2v(self, z):
        return 1.0 / (z * z)

    def inf_value(self):
        return NEG_INF


@dataclass(frozen=True)
class PiecewiseLinearUtility(UtilityFunction):
    """Concave piecewise-linear U anchored at U(breakpoints[0]) = anchor.

    slopes[i] applies on [breakpoints[i], breakpoints[i+1]); slopes must be
    nonincreasing.  A first slope of +inf is the documented degenerate
    convention U = -inf below breakpoints[1] (an infinitely steep first
    piece), which restores the blow-up of the marginal at the left edge.
    """

    breakpoints: tuple
    slopes: tuple
    anchor: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "slopes", tuple(self.slopes))
        if len(self.slopes) != len(self.breakpoints) or not self.slopes:
            raise ValueError("need one slope per breakpoint, and at least one")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if self.breakpoints[0] < 0:
            raise ValueError("breakpoints must start at or above 0")
        finite = [s for s in self.slopes if s != INF]
        if any(s2 > s1 for s1, s2 in zip(finite, finite[1:])):
            raise ValueError("slopes must be nonincreasing (concavity)")
        if any(s < 0 for s in finite):
            raise ValueError("slopes must be nonnegative (monotonicity)")
        if INF in self.slopes[1:]:
            raise ValueError("only the first slope may be infinite")
        if self.slopes[0] == INF and len(self.breakpoints) < 2:
            raise ValueError("an infinite first slope needs a second "
                             "breakpoint, where U becomes finite")
        # U = -max_k (-c_k - s_k w) and V = max_i (v_i - b_i z); a z within
        # rounding (1e-12 relative) below V's edge counts as on it:
        # densities of LP measures on that edge land either side
        lines, edge = self.lines()
        object.__setattr__(self, "_u_lines", [(-c, -s) for s, c in lines])
        object.__setattr__(self, "_u_edge", edge)
        lines, edge = self.conjugate_lines()
        object.__setattr__(self, "_v_lines", [(v, -b) for v, b in lines])
        object.__setattr__(self, "_v_edge", edge - 1e-12 * edge)

    def _u(self, w):
        return -_envelope(self._u_lines, w)

    def _v(self, z):
        return _envelope(self._v_lines, z)

    def _knot_values(self):
        vals = [self.anchor]
        for i in range(len(self.breakpoints) - 1):
            step = self.breakpoints[i + 1] - self.breakpoints[i]
            s = self.slopes[i]
            if s == INF:
                vals.append(self.anchor)
            else:
                vals.append(vals[-1] + s * step)
        return vals

    def marginal(self, x):
        if x < self._u_edge:
            return INF, INF  # below the domain
        left, right = _slopes(self._u_lines, x)  # of -U
        return (INF if x == self._u_edge else -left), -right

    def lines(self):
        """(lines, edge): U(w) = min_k (c_k + s_k w) over the (s_k, c_k) in
        lines, one per piece of finite slope, for w >= edge (the first
        breakpoint of finite U), and U = -inf below it."""
        vals = self._knot_values()
        lines = [(s, v - s * b) for v, b, s in
                 zip(vals, self.breakpoints, self.slopes) if s != INF]
        edge = self.breakpoints[1 if self.slopes[0] == INF else 0]
        return lines, edge

    def conjugate_lines(self):
        """(lines, domain_edge) with V(z) = max_i (v_i - b_i z) over the
        (v_i, b_i) in lines for z >= domain_edge, and V = +inf below it.

        One line per knot (its value and abscissa); an infinite first slope
        drops the first knot and its line comes from the second one.
        """
        vals = self._knot_values()
        lines = [(v, b) for v, b, s in
                 zip(vals, self.breakpoints, self.slopes) if s != INF]
        if self.slopes[0] == INF:
            lines.append((vals[1], self.breakpoints[1]))
        return lines, [s for s in self.slopes if s != INF][-1]

    def conjugate_marginal(self, y):
        # V is the upper envelope of lines with slopes -b; just below a tie
        # the steeper line (larger b) is active, just above the flatter one
        return _slopes(self._v_lines, y)

    def sup_value(self):
        if self.slopes[-1] > 0:
            return INF
        return self._knot_values()[-1]

    def inf_value(self):
        # U = -inf on (0, breakpoints[0]), so its limit at 0 is -inf too
        if self.slopes[0] == INF or self.breakpoints[0] > 0:
            return NEG_INF
        return self.anchor

    def inada_zero(self):
        return self.slopes[0] == INF


INADA_SLOPE_THRESHOLD = 1e6  # first sampled slope that counts as blowing up


@dataclass(frozen=True)
class TabulatedUtility(PiecewiseLinearUtility):
    """Concave U given by samples (grid[i], values[i]): the piecewise-linear
    interpolant, extended with the first segment's slope down to 0 and with
    the last segment's slope past the last sample.

    The samples only set the knots of the piecewise-linear parent:
    breakpoints (0, x_0, ..., x_{n-1}), slopes (s_0, s_0, s_1, ...,
    s_{n-2}, s_{n-2}) for the segment slopes s_i, anchor u_0 - s_0 x_0.
    Concavity and monotonicity are checked up to 1e-12, and slopes within
    that tolerance are clamped to be nonincreasing and nonnegative.
    """

    breakpoints: tuple = field(init=False, repr=False, compare=False)
    slopes: tuple = field(init=False, repr=False, compare=False)
    anchor: float = field(init=False, repr=False, compare=False)
    grid: tuple
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.grid) != len(self.values) or len(self.grid) < 2:
            raise ValueError("need matching x/u samples, at least two")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("sample grid must be strictly increasing")
        if self.grid[0] <= 0:
            raise ValueError("sample grid must be strictly positive")
        raw = _segment_slopes(self.grid, self.values)
        if any(s2 > s1 + 1e-12 for s1, s2 in zip(raw, raw[1:])):
            raise ValueError("samples are not concave")
        if raw[-1] < -1e-12:
            raise ValueError("samples are not nondecreasing")
        slopes = [max(s, 0.0) for s in itertools.accumulate(raw, min)]
        object.__setattr__(self, "breakpoints", (0.0,) + self.grid)
        object.__setattr__(self, "slopes",
                           (slopes[0],) + tuple(slopes) + (slopes[-1],))
        object.__setattr__(self, "anchor",
                           self.values[0] - slopes[0] * self.grid[0])
        super().__post_init__()

    def inada_zero(self):
        """Grid-based verdict: the sampled slopes must grow monotonically
        toward 0 and the first one must reach INADA_SLOPE_THRESHOLD."""
        slopes = _segment_slopes(self.grid, self.values)
        increasing_toward_zero = all(s1 >= s2 for s1, s2 in zip(slopes, slopes[1:]))
        return increasing_toward_zero and slopes[0] >= INADA_SLOPE_THRESHOLD


def _segment_slopes(grid, values):
    return [(v2 - v1) / (x2 - x1) for (x1, x2), (v1, v2)
            in zip(zip(grid, grid[1:]), zip(values, values[1:]))]


# ---------------------------------------------------------------------------
# functional wrappers


def eval_utility(utility: UtilityFunction, x):
    """U(x) under the extension: family formula on (0,inf), inf U at 0,
    -inf below zero."""
    return utility(x)


def conjugate(utility: UtilityFunction, y):
    """V(y) = sup_x (U(x) - x y); V(0) is the limit from the right (sup U).
    y may be a float array, elementwise."""
    return utility.conjugate(y)


def marginal(utility: UtilityFunction, x):
    if x <= 0:
        raise ValueError("marginals are defined for x > 0")
    return utility.marginal(x)


@dataclass
class RaeReport:
    holds_on_grid: bool
    worst_ratio: float
    worst_x: float
    meaningful: bool
    analytic: bool | None = None

    def __bool__(self):
        return self.holds_on_grid


def check_rae(utility: UtilityFunction, x0, c, grid) -> RaeReport:
    """Grid check of the doubling-growth bound U(2x) <= c U(x) for x >= x0.

    The verdict means 'holds at every grid point', never a statement about
    all of [x0, inf); closed-form families carry an analytic answer too.
    The ratio diagnostics assume U > 0 on the grid, which is what the
    `meaningful` flag (U(x0) > 0) is about.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    if not 1 < c < 2:
        raise ValueError("the growth constant must lie in (1, 2)")
    if any(x < x0 for x in grid):
        raise ValueError("all grid points must be >= x0")
    meaningful = utility(x0) > 0
    xs = np.asarray(grid, dtype=float)
    ux, u2x = utility(xs), utility(2 * xs)
    ratio = np.divide(u2x, ux, out=np.full(len(xs), INF), where=ux > 0)
    k = int(np.argmax(ratio))  # the first worst ratio
    analytic = None
    if isinstance(utility, PowerUtility):
        analytic = c >= 2 ** utility.p  # ratio is exactly 2^p at every x
    elif isinstance(utility, LogUtility):
        analytic = utility(x0) > 0  # ratio 1 + log2/log x decreases to 1
    return RaeReport(not (u2x > c * ux).any(), float(ratio[k]), grid[k],
                     meaningful, analytic)


def check_inada_zero(utility: UtilityFunction) -> bool:
    """Does U'(x) -> inf as x -> 0+?"""
    return utility.inada_zero()


def parse_utility(doc, path="utility") -> UtilityFunction:
    if isinstance(doc, str):
        doc = {"family": doc}
    if not isinstance(doc, dict) or "family" not in doc:
        raise SchemaError("utility descriptor must name a 'family'", path)
    family = doc["family"]

    def seq(sub):
        return parse_list(doc[sub], f"{path}.{sub}")

    try:
        if family == "log":
            return LogUtility()
        if family == "power":
            return PowerUtility(float(doc["p"]))
        if family == "piecewise":
            slopes = [INF if s in ("inf", None) else float(s)
                      for s in seq("slopes")]
            return PiecewiseLinearUtility(
                tuple(float(b) for b in seq("breakpoints")),
                tuple(slopes),
                float(doc.get("anchor", 0.0)),
            )
        if family == "table":
            return TabulatedUtility(tuple(seq("x")), tuple(seq("u")))
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r}", path) from exc
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        # float() of a list or an object, or the family's own refusal
        raise SchemaError(str(exc), path) from exc
    raise SchemaError(f"unknown utility family {family!r}", path)
