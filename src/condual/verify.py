"""End-to-end verification of the duality relations.

Three checks: the conjugacy between the primal and dual value functions on
finite grids (with an explicit grid-resolution allowance derived from
concavity), the agreement of three independent routes to the critical
initial wealth, and the per-leaf first-order linkage between the optimal
terminal wealth and the marginal conjugate at the dual optimizer, whose
scale is read off the primal optimum as y_hat = E[U'(X_T)] = u'(x).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual import min_support, solve_dual
from .market import MarketModel
from .primal import primal_feasible, solve_primal
from .scalars import INF, NEG_INF
from .utility import UtilityFunction

_BRACKET = (-100.0, 100.0)


@dataclass
class ConjugacyRecord:
    kind: str  # "dual-from-primal" | "primal-from-dual"
    point: float
    lhs: object
    rhs: object
    residual: float
    bound: float
    tolerance: float
    boundary: bool  # grid argmax/argmin sat on the edge of the grid
    ok: bool


@dataclass
class DualityReport:
    records: list = field(default_factory=list)
    worst_gap: float = 0.0
    xbar: object = None
    tolerance: float = 0.0

    @property
    def ok(self):
        return all(r.ok for r in self.records)


def verify_conjugacy(market: MarketModel, utility: UtilityFunction,
                     x_grid, y_grid, tol=1e-5) -> DualityReport:
    """Check v(y) ~ sup_x (u(x) - xy) and u(x) ~ inf_y (v(y) + xy) on grids.

    Grid extrema are one-sided approximations of the true conjugates, so
    each verdict allows tol plus a concavity-based resolution bound.  A
    grid whose extremum sits on its edge is flagged (``boundary``: the
    bracket may have missed the optimizer); its bound is +inf, so only the
    lower side, residual >= -tol, is checked there, and the record can
    still pass.
    """
    if not x_grid or not y_grid:
        raise ValueError("grids must be nonempty")
    xs = [float(x) for x in x_grid]
    ys = [float(y) for y in y_grid]
    ms = min_support(market)
    if ms.xbar != NEG_INF and min(xs) <= float(ms.xbar):
        raise ValueError("every x grid point must exceed the critical "
                         f"initial wealth {ms.xbar}")

    u_vals = [solve_primal(market, utility, x).value for x in xs]
    v_vals = [solve_dual(market, utility, y).value for y in ys]
    report = DualityReport(xbar=ms.xbar, tolerance=tol)

    for y, v in zip(ys, v_vals):
        candidates = [u - x * y for u, x in zip(u_vals, xs)]
        k = max(range(len(xs)), key=lambda i: candidates[i])
        target = candidates[k]
        bound, boundary = _overshoot_bound(xs, candidates, k)
        residual = float(v) - float(target)  # in [0 - eps, bound + eps]
        ok = -tol <= residual <= tol + bound
        report.records.append(ConjugacyRecord(
            "dual-from-primal", y, v, target, abs(residual), bound, tol,
            boundary, ok))

    for x, u in zip(xs, u_vals):
        candidates = [v + x * y for v, y in zip(v_vals, ys)]
        k = min(range(len(ys)), key=lambda i: candidates[i])
        target = candidates[k]
        bound, boundary = _overshoot_bound(ys, [-c for c in candidates], k)
        residual = float(target) - float(u)
        ok = -tol <= residual <= tol + bound
        report.records.append(ConjugacyRecord(
            "primal-from-dual", x, u, target, abs(residual), bound, tol,
            boundary, ok))

    report.worst_gap = max((r.residual - r.bound for r in report.records
                            if r.bound != INF),
                           default=0.0)
    return report


def _overshoot_bound(grid, values, k):
    """(bound, boundary flag) for the grid max of a concave function.

    An interior max gets the adjacent-slope bound; a max on the grid edge
    cannot be bounded from grid data at all (the function may keep rising
    past the edge), so the bound is infinite, the point is flagged, and
    only the lower-side check remains meaningful there.
    """
    if len(grid) < 2:
        return 0.0, False
    if k in (0, len(grid) - 1):
        return INF, True
    return _concave_overshoot(grid, values, k), False


def _concave_overshoot(grid, values, k):
    """How far the max of a concave function interpolating the grid values
    can exceed the value at the interior grid-argmax k.

    By concavity the function lies below the line through the argmax with
    the incoming slope on the right interval, and below the line with the
    outgoing slope on the left interval; both slopes are divided
    differences of the given values.
    """
    if len(grid) < 2 or values[k] in (INF, NEG_INF):
        return 0.0
    bound = 0.0
    if 0 < k and values[k - 1] not in (INF, NEG_INF) and k + 1 < len(grid):
        s_in = (values[k] - values[k - 1]) / (grid[k] - grid[k - 1])
        bound = max(bound, s_in * (grid[k + 1] - grid[k]))
    if k + 1 < len(grid) and values[k + 1] not in (INF, NEG_INF) and k > 0:
        s_out = (values[k + 1] - values[k]) / (grid[k + 1] - grid[k])
        bound = max(bound, -s_out * (grid[k] - grid[k - 1]))
    return max(bound, 0.0)


@dataclass
class XbarReport:
    from_support: object
    from_essinf: object
    feasible_at: float | None
    infeasible_at: float | None
    spread: float
    tolerance: float
    ok: bool


def verify_xbar(market: MarketModel, tol=1e-6) -> XbarReport:
    """Three independent routes to the critical initial wealth: the two
    sides of min_support, a = inf alpha and b = -sup essinf, and the float
    phase-1 LP of primal_feasible.

    Feasibility is monotone in the initial wealth, so the third route needs
    no bisection: with lo = min(a, b) and hi = max(a, b), the routes agree
    within tol iff |a - b| <= tol, the market is feasible at lo + tol, and
    it is infeasible at hi - tol.  tol must exceed the float LP's
    feasibility tolerance (about 1e-7), or the LP admits wealth just below
    xbar.  The checks stop at the first that fails; feasible_at and
    infeasible_at are the wealth levels checked (None if not reached), and
    spread is |a - b|.

    The edges of _BRACKET stand in for an infinite critical wealth
    (constrained arbitrage pushes it to -inf, an empty admissible class to
    +inf): both sides must give the same infinity, and the market must be
    feasible at the lower edge for -inf, infeasible at the upper for +inf,
    since a feasibility LP can only certify "at or beyond the bracket".
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    ms = min_support(market)
    a, b = ms.xbar, -ms.sup_essinf
    feasible_at = infeasible_at = None
    if INF in (a, b) or NEG_INF in (a, b):
        spread = 0.0 if a == b else INF
        if a == b == NEG_INF:
            feasible_at = _BRACKET[0]
            ok = primal_feasible(market, feasible_at)
        elif a == b == INF:
            infeasible_at = _BRACKET[1]
            ok = not primal_feasible(market, infeasible_at)
        else:
            ok = False
        return XbarReport(a, b, feasible_at, infeasible_at, spread, tol, ok)
    lo, hi = sorted((float(a), float(b)))
    spread = hi - lo
    ok = spread <= tol
    if ok:
        feasible_at = lo + tol
        ok = primal_feasible(market, feasible_at)
    if ok:
        infeasible_at = hi - tol
        ok = not primal_feasible(market, infeasible_at)
    return XbarReport(a, b, feasible_at, infeasible_at, spread, tol, ok)


@dataclass
class LinkReport:
    y_hat: float
    residuals: tuple
    max_residual: float
    attained: bool  # the dual at y_hat is attained (False if not solved)
    tolerance: float
    # None when the verifier abstains: the primal ascent stopped short
    # (max-iterations), so no dual is solved, or the dual is not attained
    ok: bool | None


def verify_primal_dual_link(market: MarketModel, utility: UtilityFunction,
                            x, tol=1e-5) -> LinkReport:
    """Per-leaf check of optimal terminal wealth against the marginal
    conjugate at the dual optimizer.

    Applies to smooth, strictly concave utilities above the critical
    wealth.  The dual point is read off the primal optimum: U'(X_T) =
    y dQ/dP there, so y_hat = E[U'(X_T)] = u'(x).  The dual is solved once
    at y_hat, and the optimal terminal wealth must equal the inverse
    marginal I(y_hat dQ/dP), leaf by leaf, within tol.  Both problems are
    solved at their default tolerances; tol only sets the verdict.

    An ascent that stops short of the optimum (``max-iterations``) gives no
    verdict: y_hat is read from the terminal wealth it reached, no dual is
    solved, and ok is None.  An infeasible or unbounded primal has no
    optimum to link and raises ValueError.
    """
    if not (utility.smooth and utility.strictly_concave):
        raise ValueError("the first-order linkage needs a smooth, strictly "
                         "concave utility family")
    primal = solve_primal(market, utility, x)
    if primal.status not in ("optimal", "max-iterations"):
        raise ValueError(f"primal solve did not converge: {primal.status}")

    probs = np.asarray(market.tree.leaf_probabilities(), dtype=float)
    terminal = np.asarray(primal.terminal, dtype=float)
    y_hat = float(probs @ utility._du(np.maximum(terminal, 1e-12)))
    if primal.status != "optimal":
        return LinkReport(y_hat, (), INF, False, tol, None)
    dual = solve_dual(market, utility, y_hat)
    if not dual.attained:
        return LinkReport(y_hat, (), INF, False, tol, None)
    # the optimal wealth is the inverse marginal -V'(y_hat dQ/dP)
    z = np.maximum(np.asarray(dual.measure.densities, dtype=float), 1e-300)
    residuals = tuple(np.abs(terminal + utility._dv(z)).tolist())
    worst = max(residuals)
    return LinkReport(y_hat, residuals, worst, True, tol, worst <= tol)
