"""Maximize expected utility of terminal wealth over constrained portfolios.

A piecewise-linear utility (knots or a table) makes this one LP,
:meth:`condual.treelp.TreeLP.epigraph` with x fixed.  Power and log take
projected gradient ascent with Barzilai-Borwein steps and nonmonotone
Armijo backtracking (the spectral projected gradient of Birgin, Martinez
and Raydan, SIAM J. Optim. 10, 2000) over the product of per-node
constraint sets.  Each projection is ``TreeLP.project``: one clip to the
stacked bounds of the sets that are boxes (``ConvexSet.box``), then each
other set's own ``ConvexSet.project``, whose float data the set builds once
and keeps, so no LP is solved per projection.  When every set is a box (in
dimension one, every set is) and there is no floor, each iteration first
tries a projected Newton step (Bertsekas, SIAM J. Control Optim. 20, 1982),
which converges in a handful of steps there, and takes the gradient step
only when the Newton step does not strictly raise the objective.  Both steps
reuse the wealth x + L h the arc search computed for the iterate.  Economic
failure modes are statuses, not exceptions: infeasible means no admissible
portfolio keeps terminal wealth in the utility's domain, unbounded means an
admissible recession direction produces a free lunch while the utility is
unbounded.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linprog import OPTIMAL, UNBOUNDED, solve_lp
from .market import (MarketModel, PortfolioProcess, validate_market,
                     wealth_process)
from .scalars import INF, NEG_INF, is_finite
from .treelp import tree_lp
from .utility import PiecewiseLinearUtility, UtilityFunction

_DOMAIN_EPS = 1e-12
# grid points brute_force_primal evaluates in one array call
_BLOCK = 1 << 14


@dataclass
class PrimalSolution:
    """``max-iterations``: the ascent ran out of iterations or its line
    search stalled; ``iterations`` counts those it ran (0 on the LP route,
    which reports no gradient mapping either)."""

    value: object
    portfolio: PortfolioProcess | None
    terminal: tuple | None
    status: str  # optimal | infeasible | unbounded | max-iterations
    iterations: int = 0
    gradient_mapping: float | None = None


def solve_primal(market: MarketModel, utility: UtilityFunction, x,
                 tol=1e-8, max_iter=20000) -> PrimalSolution:
    """Best expected utility from initial wealth x and its optimizer.

    Power and log take the spectral projected gradient ascent, with
    projected Newton steps on a floorless market of boxes; it stops when
    the gradient mapping is at most tol, or after max_iter iterations.
    The LP route of a piecewise-linear utility ignores both and needs
    every set in halfspace form (else NotImplementedError).  On a market
    without one the ascent starts from the set centers, and when they give
    no start it raises NotImplementedError too, since no LP can decide
    feasibility there."""
    _require_finite(x)
    if tol <= 0:
        raise ValueError("tol must be positive")
    problems = validate_market(market)
    if problems:
        raise ValueError("invalid market: " + "; ".join(problems))
    if isinstance(utility, PiecewiseLinearUtility):
        lp = tree_lp(market)
        res = lp.epigraph(*utility.lines(), x=x)
        if res.status != OPTIMAL:
            value = INF if res.status == UNBOUNDED else NEG_INF
            return PrimalSolution(value, None, None, res.status)
        return _package(market, np.asarray(res.x[:lp.n_h]), float(x),
                        -res.value, OPTIMAL, 0, None)

    slack, start = _feasible_start(market, x)
    needs_interior = utility.inf_value() == NEG_INF
    if slack < 0 or (needs_interior and slack == 0):
        # without a halfspace form only the set centers were tried
        tree_lp(market).require_polyhedral()
        return PrimalSolution(NEG_INF, None, None, "infeasible")

    # power and log are unbounded above, so a free lunch is unbounded
    if slack == INF or find_free_lunch_direction(market) is not None:
        return PrimalSolution(INF, None, None, "unbounded")

    return _projected_gradient(market, utility, x, start, tol, max_iter)


def primal_feasible(market: MarketModel, x) -> bool:
    """Pure feasibility at initial wealth x: can terminal wealth stay >= 0?

    A per-x phase-1 question; verify_xbar asks it just above and just below
    the critical wealth that min_support reports.  Deliberately not the
    max-min-slack LP, so the check stays independent of min_support.  On a
    market where some set has no halfspace form only the set centers are
    tried: True when they keep wealth >= 0, else NotImplementedError.
    """
    _require_finite(x)
    lp = tree_lp(market)
    if not lp.polyhedral:
        if _feasible_start(market, x)[0] >= 0:
            return True
        lp.require_polyhedral()  # the set centers alone decide nothing
    exact = market.exact and isinstance(x, (int, Fraction))
    A, b, L = lp.rows(exact)[:3]
    x = np.full(len(L), x if exact else float(x), b.dtype)
    res = solve_lp([0] * lp.n_h, A_ub=np.vstack([A, -L]),
                   b_ub=np.concatenate([b, x]), exact=exact)
    return res.status == OPTIMAL


def _require_finite(x):
    if not is_finite(x):
        raise ValueError(f"initial wealth x must be finite, got {x}")


def _feasible_start(market: MarketModel, x):
    """(slack, start): x + sup essinf, the greatest worst-leaf wealth from x
    (x is feasible iff it is >= 0; +inf on a free lunch, -inf with no start
    when a floor empties the admissible class), and stacked holdings that
    attain it, from the market's kept TreeLP.sup_essinf in x's arithmetic:
    no LP is solved per wealth.  Without a halfspace form at every node the
    start is the set centers, whose worst leaf below zero proves nothing,
    so callers then raise the NotImplementedError of require_polyhedral."""
    lp = tree_lp(market)
    if lp.polyhedral:
        exact = market.exact and isinstance(x, (int, Fraction))
        essinf, hedge = lp.sup_essinf(exact)
        return (x if exact else float(x)) + essinf, hedge
    holdings = {i: market.constraint(i).center() for i in market.tree.nonleaf}
    w = wealth_process(market, PortfolioProcess(holdings), x)
    return (min(float(v) for v in w.leaf_values(market)),
            tuple(v for i in market.tree.nonleaf for v in holdings[i]))


def find_free_lunch_direction(market: MarketModel):
    """Admissible recession direction whose terminal gains are >= 0 on every
    leaf and sum to 1: a certificate that the attainable set is unbounded.
    None without an LP when every set is a bounded box: the recession cone
    is then {0}, and a floor only shrinks it.  Otherwise the LP is solved
    once per market and kept on its TreeLP."""
    lp = tree_lp(market)
    if np.isfinite(lp.box_lo).all() and np.isfinite(lp.box_hi).all():
        return None

    def solve():
        _, _, L, _, R, _ = lp.rows(market.exact)
        A_ub = np.vstack([R, -L])
        res = solve_lp([0] * lp.n_h, A_ub=A_ub, b_ub=[0] * len(A_ub),
                       A_eq=[L.sum(axis=0)], b_eq=[1], exact=market.exact)
        return lp.portfolio(res.x) if res.status == OPTIMAL else None
    return lp.kept("free lunch", solve)


def _projected_gradient(market, utility, x, start, tol, max_iter):
    lp = tree_lp(market)
    _, _, L, N, _, leaf_probs = lp.rows(False)
    floor_rows = floor = None
    if market.floor is not None:
        floor_rows, floor = N, float(market.floor)
    x = float(x)

    def objective(h):
        w = x + L @ h
        if (w < _DOMAIN_EPS).any() or floor_rows is not None \
                and (floor_rows @ h < -floor - 1e-12).any():
            return NEG_INF, w
        return float(leaf_probs @ utility._u(w)), w

    def arc_search(h, g, d, s, ref, strict=False):
        """(h, f, w) at the first point P(h + s d) of the projection arc, s
        halving, that passes the Armijo test against ref and, when strict,
        beats ref; None when none does; w = x + L h is its wealth."""
        for _ in range(60):
            cand = lp.project(h + s * d)
            fc, wc = objective(cand)
            if (fc > ref if strict else fc != NEG_INF) and \
                    fc >= ref + 1e-4 * float(g @ (cand - h)) - 1e-300:
                return cand, fc, wc
            s *= 0.5
        return None

    def newton_direction(h, w, g, gm, step):
        """The projected Newton direction (Bertsekas, SIAM J. Control
        Optim. 20, 1982) on a floorless product of boxes: the coordinates
        within min(1e-3, gm) of a bound that g pushes outward take the
        gradient step, the others the Newton step of their block of the
        Hessian L^T diag(p U''(w)) L; None when that block is singular."""
        eps = min(1e-3, gm)
        free = ~(((h <= lp.box_lo + eps) & (g < 0))
                 | ((h >= lp.box_hi - eps) & (g > 0)))
        d = step * g
        if free.any():
            # the free block of -Hessian, as S^T S with S = sqrt(p |U''|) L_F
            root = np.sqrt(leaf_probs * -utility._d2u(w))
            S = root[:, None] * L[:, free]
            hess = S.T @ S
            # numpy has no triangular solve, and one LU solve of the
            # positive definite block costs half of two on its factor (LU
            # can still find singular a block that passes Cholesky)
            try:
                np.linalg.cholesky(hess)
                d[free] = np.linalg.solve(hess, g[free])
            except np.linalg.LinAlgError:
                return None  # dependent columns of L
        return d

    h = np.asarray(start, dtype=float)
    f, wealth = objective(h)
    if f == NEG_INF:
        return PrimalSolution(NEG_INF, None, None, "infeasible")

    newton = floor_rows is None and lp.boxed
    step = 1.0
    prev_h = prev_g = None
    recent = deque([f], maxlen=10)  # nonmonotone line-search memory
    gm = None
    it = 0
    for it in range(1, max_iter + 1):
        g = L.T @ (leaf_probs * utility._du(wealth))
        gm = float(np.linalg.norm(h - lp.project(h + g)))
        if gm <= tol:
            return _package(market, h, x, f, "optimal", it, gm)
        if prev_g is not None:
            dh = h - prev_h
            dg = g - prev_g
            denom = -float(dh @ dg)  # >= 0 for a concave objective
            step = (float(dh @ dh) / denom) if denom > 1e-300 else step * 2.0
            step = min(max(step, 1e-12), 1e10)
        # a Newton step must strictly gain; else the nonmonotone gradient
        # step, which accepts any point beating the worst recent value
        d = newton_direction(h, wealth, g, gm, step) if newton else None
        moved = ((d is not None and arc_search(h, g, d, 1.0, f, strict=True))
                 or arc_search(h, g, g, step, min(recent)))
        if not moved:
            break  # pinned against the domain boundary along this direction
        prev_h, prev_g = h, g
        h, f, wealth = moved
        recent.append(f)
    status = "optimal" if gm is not None and gm <= tol else "max-iterations"
    return _package(market, h, x, f, status, it, gm)


def _package(market, h, x, f, status, iters, gm):
    portfolio = tree_lp(market).portfolio(h.tolist())
    terminal = wealth_process(market, portfolio, x).leaf_values(market)
    return PrimalSolution(f, portfolio, terminal, status, iters, gm)


def primal_value_grid(market: MarketModel, utility: UtilityFunction, xs,
                      tol=1e-8) -> list:
    """(x, value, status) along a sorted grid of initial wealths."""
    if list(xs) != sorted(xs):
        raise ValueError("x grid must be sorted ascending")
    out = []
    for x in xs:
        sol = solve_primal(market, utility, x, tol)
        out.append((x, sol.value, sol.status))
    return out


def brute_force_primal(market: MarketModel, utility: UtilityFunction, x,
                       grid_spec) -> float:
    """Exhaustive grid maximum over constrained portfolios: the oracle.

    grid_spec fields:
      points   grid points per scalar variable (required)
      rounds   zoom rounds; each round shrinks the window around the best
               grid point by 5x (default 1, i.e. a single pass)
      radius   clip for unbounded constraint directions (default 10)
      box      optional per-node-id list of (lo, hi) overrides
      terminal_offset  optional leaf-id -> payoff added to terminal wealth

    The grid maximum never exceeds the true optimum, and for Lipschitz
    utilities it is within a resolution-dependent gap of it.
    """
    points = int(grid_spec["points"])
    rounds = int(grid_spec.get("rounds", 1))
    radius = float(grid_spec.get("radius", 10.0))
    overrides = grid_spec.get("box", {})
    lp = tree_lp(market)
    if points ** lp.n_h * max(rounds, 1) > 10 ** 7:
        raise ValueError("grid too large: over the documented 1e7-evaluation cap")

    x = float(x)
    _, _, L, N, _, leaf_probs = lp.rows(False)
    floor = INF if market.floor is None else float(market.floor)
    offset_vec = np.zeros(len(market.tree.leaves))
    if "terminal_offset" in grid_spec:
        ids = [market.tree.nodes[i].node_id for i in market.tree.leaves]
        offset_vec = np.asarray([float(grid_spec["terminal_offset"][nid])
                                 for nid in ids])

    windows = []
    for i in market.tree.nonleaf:
        nid = market.tree.nodes[i].node_id
        if nid in overrides:
            for lo, hi in overrides[nid]:
                windows.append((float(lo), float(hi)))
        else:
            for lo, hi in market.constraint(i).bounding_box():
                lo = -radius if lo == NEG_INF else float(lo)
                hi = radius if hi == INF else float(hi)
                windows.append((lo, hi))

    d = market.dim
    best_val, best_h = NEG_INF, None
    for _ in range(max(rounds, 1)):
        axes = [np.linspace(lo, hi, points) if hi > lo else np.asarray([lo])
                for lo, hi in windows]
        # the admissible points of each node's own grid, in product order;
        # the combinations of these are the grid's admissible points
        local = []
        for k, i in enumerate(market.tree.nonleaf):
            cset = market.constraint(i)
            grid = itertools.product(*axes[k * d:(k + 1) * d])
            pts = [pt for pt in grid if cset.contains(pt, 1e-9)]
            local.append(np.reshape(pts, (-1, d)))
        picks = itertools.product(*(range(len(p)) for p in local))
        while block := list(itertools.islice(picks, _BLOCK)):
            H = np.hstack([p[j] for p, j in zip(local, np.transpose(block))])
            U = utility(x + H @ L.T + offset_vec)  # -inf below zero wealth
            skip = (U == NEG_INF).any(axis=1) | (H @ N.T < -floor).any(axis=1)
            vals = np.where(skip, NEG_INF, U @ leaf_probs)
            k = int(np.argmax(vals))  # the first maximum
            if vals[k] > best_val:
                best_val, best_h = float(vals[k]), H[k]
        if best_h is None:
            break
        windows = [(max(lo, c - (hi - lo) / 5), min(hi, c + (hi - lo) / 5))
                   for (lo, hi), c in zip(windows, best_h)]
    return best_val
