"""Utility functions, their convex conjugates, and growth diagnostics.

Supported families: power x^p/p with p in (0,1), logarithmic, piecewise
linear concave, and tabulated concave (the piecewise-linear interpolant of
its samples, built as a piecewise-linear utility).  Every U lives on
(0, inf) and is extended by U(0) = inf U and U(x) = -inf for x < 0.

The conjugate is V(y) = sup_x (U(x) - x y).  For the two smooth families it
is closed form; for the piecewise families the supremum of a concave
piecewise-linear function minus a linear one is attained at a breakpoint, so
V is the upper envelope of one line per breakpoint
(:meth:`PiecewiseLinearUtility.conjugate_lines`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .scalars import INF, NEG_INF, SchemaError


class UtilityFunction:
    """Common interface; see the family subclasses below."""

    smooth = False
    strictly_concave = False

    def value(self, x):
        raise NotImplementedError

    def marginal(self, x):
        """(left derivative, right derivative) at x > 0."""
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def conjugate_marginal(self, y):
        """(left, right) derivative of V at y > 0."""
        raise NotImplementedError

    def sup_value(self):
        """sup of U over (0, inf), possibly +inf; equals V(0+)."""
        raise NotImplementedError

    def inf_value(self):
        """U(0) under the semicontinuous extension."""
        raise NotImplementedError

    def inada_zero(self) -> bool:
        """Does the right derivative blow up as x -> 0+?"""
        raise NotImplementedError

    # shared extension convention
    def __call__(self, x):
        if x < 0:
            return NEG_INF
        if x == 0:
            return self.inf_value()
        return self.value(x)


@dataclass(frozen=True)
class PowerUtility(UtilityFunction):
    p: float

    smooth = True
    strictly_concave = True

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("power exponent must lie in (0, 1)")

    def value(self, x):
        return float(x) ** self.p / self.p

    def marginal(self, x):
        d = float(x) ** (self.p - 1)
        return d, d

    def conjugate(self, y):
        if y < 0:
            return INF
        if y == 0:
            return INF
        return (1.0 / self.p - 1.0) * float(y) ** (self.p / (self.p - 1.0))

    def conjugate_marginal(self, y):
        d = -float(y) ** (1.0 / (self.p - 1.0))
        return d, d

    def conjugate_derivatives(self, z):
        """(V'(z), V''(z)) elementwise on a float array z > 0."""
        d1 = -z ** (1.0 / (self.p - 1.0))
        return d1, d1 / ((self.p - 1.0) * z)

    def sup_value(self):
        return INF

    def inf_value(self):
        return 0.0

    def inada_zero(self):
        return True


@dataclass(frozen=True)
class LogUtility(UtilityFunction):
    smooth = True
    strictly_concave = True

    def value(self, x):
        return math.log(float(x))

    def marginal(self, x):
        d = 1.0 / float(x)
        return d, d

    def conjugate(self, y):
        if y <= 0:
            return INF
        return -math.log(float(y)) - 1.0

    def conjugate_marginal(self, y):
        d = -1.0 / float(y)
        return d, d

    def conjugate_derivatives(self, z):
        """(V'(z), V''(z)) elementwise on a float array z > 0."""
        return -1.0 / z, 1.0 / (z * z)

    def sup_value(self):
        return INF

    def inf_value(self):
        return NEG_INF

    def inada_zero(self):
        return True


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

    def value(self, x):
        bps, slopes = self.breakpoints, self.slopes
        if x < bps[0]:
            return NEG_INF
        if slopes[0] == INF and x < bps[1]:
            return NEG_INF
        vals = self._knot_values()
        for i in range(len(bps) - 1, -1, -1):
            if x >= bps[i]:
                return vals[i] + slopes[i] * (x - bps[i]) if slopes[i] != INF else vals[i]
        return NEG_INF  # pragma: no cover

    def marginal(self, x):
        bps, slopes = self.breakpoints, self.slopes
        if x < bps[0]:
            return INF, INF  # below the domain
        for i in range(len(bps)):
            if x < bps[i]:
                return slopes[i - 1], slopes[i - 1]
            if x == bps[i]:
                left = slopes[i - 1] if i > 0 else INF
                return left, slopes[i]
        return slopes[-1], slopes[-1]

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

    def conjugate(self, y):
        # a y within rounding (1e-12 relative) below the domain edge counts
        # as on it: densities of LP measures on that edge land either side
        lines, edge = self.conjugate_lines()
        if y < 0 or y < edge - 1e-12 * edge:
            return INF
        return max(v - b * y for v, b in lines)

    def conjugate_marginal(self, y):
        # V is the upper envelope of lines with slopes -b; just below a tie
        # the steeper line (larger b) is active, just above the flatter one.
        # Ties are taken up to rounding, 1e-12 relative to V.
        lines, _ = self.conjugate_lines()
        heights = [v - b * y for v, b in lines]
        best = max(heights)
        tied = [b for (_, b), h in zip(lines, heights)
                if h >= best - 1e-12 * max(1.0, abs(best))]
        return -max(tied), -min(tied)

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


class ConjugateFunction:
    """Callable view of a utility's convex conjugate V, with memoization.

    V(y) = sup_x (U(x) - x y); V(0) is the right limit (sup U).  Evaluations
    are cached per instance, so sharing one view across threads is safe in
    the usual CPython sense but separate instances are cheaper than locks.
    """

    def __init__(self, utility: UtilityFunction):
        self.utility = utility
        self.closed_form = utility.smooth  # power/log have analytic V
        self._cache = {}

    def __call__(self, y):
        key = float(y)
        if key not in self._cache:
            self._cache[key] = conjugate(self.utility, y)
        return self._cache[key]

    def marginal(self, y):
        """(left, right) derivative of V at y > 0."""
        return conjugate_marginal(self.utility, y)

    def inverse_marginal(self, y):
        """-V'(y), the wealth with marginal utility y (smooth families)."""
        return inverse_marginal(self.utility, y)


# ---------------------------------------------------------------------------
# functional wrappers


def eval_utility(utility: UtilityFunction, x):
    """U(x) under the extension: family formula on (0,inf), inf U at 0,
    -inf below zero."""
    return utility(x)


def conjugate(utility: UtilityFunction, y):
    """V(y) = sup_x (U(x) - x y); V(0) is the limit from the right (sup U)."""
    if y < 0:
        return INF
    if y == 0:
        return utility.sup_value()
    return utility.conjugate(y)


def marginal(utility: UtilityFunction, x):
    if x <= 0:
        raise ValueError("marginals are defined for x > 0")
    return utility.marginal(x)


def conjugate_marginal(utility: UtilityFunction, y):
    if y <= 0:
        raise ValueError("conjugate marginals are defined for y > 0")
    return utility.conjugate_marginal(y)


def inverse_marginal(utility: UtilityFunction, y):
    """-V'(y): the wealth level with marginal utility y (smooth families)."""
    if not (utility.smooth and utility.strictly_concave):
        raise ValueError("inverse marginal requires a smooth, strictly "
                         "concave family")
    return -utility.conjugate_marginal(y)[0]


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
    worst_ratio, worst_x = NEG_INF, None
    holds = True
    for x in grid:
        ux, u2x = utility(x), utility(2 * x)
        if u2x > c * ux:
            holds = False
        ratio = u2x / ux if ux > 0 else INF
        if ratio > worst_ratio:
            worst_ratio, worst_x = ratio, x
    analytic = None
    if isinstance(utility, PowerUtility):
        analytic = c >= 2 ** utility.p  # ratio is exactly 2^p at every x
    elif isinstance(utility, LogUtility):
        analytic = utility(x0) > 0  # ratio 1 + log2/log x decreases to 1
    return RaeReport(holds, worst_ratio, worst_x, meaningful, analytic)


def check_inada_zero(utility: UtilityFunction) -> bool:
    """Does U'(x) -> inf as x -> 0+?"""
    return utility.inada_zero()


def parse_utility(doc, path="utility") -> UtilityFunction:
    if isinstance(doc, str):
        doc = {"family": doc}
    if not isinstance(doc, dict) or "family" not in doc:
        raise SchemaError("utility descriptor must name a 'family'", path)
    family = doc["family"]
    try:
        if family == "log":
            return LogUtility()
        if family == "power":
            return PowerUtility(float(doc["p"]))
        if family == "piecewise":
            slopes = [INF if s in ("inf", None) else float(s) for s in doc["slopes"]]
            return PiecewiseLinearUtility(
                tuple(float(b) for b in doc["breakpoints"]),
                tuple(slopes),
                float(doc.get("anchor", 0.0)),
            )
        if family == "table":
            return TabulatedUtility(tuple(doc["x"]), tuple(doc["u"]))
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r}", path) from exc
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc
    raise SchemaError(f"unknown utility family {family!r}", path)

