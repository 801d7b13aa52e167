"""Maximize expected utility of terminal wealth over constrained portfolios.

The optimizer is projected gradient ascent with Barzilai-Borwein steps and
Armijo backtracking; the feasible region is the product of per-node
constraint sets.  Each step projects every node's float holdings with that
set's own ``ConvexSet.project`` (float array in, float array out), whose
float data (bounds, pinned values, halfspace rows and a feasible start) the
set builds once and keeps, so no LP is solved per projection.  Economic
failure modes are statuses, not exceptions: infeasible means no admissible
portfolio keeps terminal wealth in the utility's domain, unbounded means an
admissible recession direction produces a free lunch while the utility is
unbounded.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linprog import OPTIMAL, solve_lp
from .market import MarketModel, PortfolioProcess, validate_market
from .scalars import INF, NEG_INF
from .treelp import tree_lp
from .utility import UtilityFunction

_DOMAIN_EPS = 1e-12
# Cap on the worst-leaf slack in _feasible_start's max-min LP, above |x|.
# It only keeps that LP bounded on a free-lunch market; being positive, it
# never changes the sign of the slack, which is the feasibility verdict.
_SLACK_CAP = 10 ** 6


@dataclass
class PrimalSolution:
    value: object
    portfolio: PortfolioProcess | None
    terminal: tuple | None
    status: str  # optimal | infeasible | unbounded | max-iterations
    iterations: int = 0
    gradient_mapping: float | None = None


def solve_primal(market: MarketModel, utility: UtilityFunction, x,
                 tol=1e-8, max_iter=20000) -> PrimalSolution:
    """Best expected utility from initial wealth x and its optimizer."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    problems = validate_market(market)
    if problems:
        raise ValueError("invalid market: " + "; ".join(problems))

    feasible, start, slack = _feasible_start(market, x)
    needs_interior = utility.inf_value() == NEG_INF
    if not feasible or (needs_interior and slack <= 0):
        return PrimalSolution(NEG_INF, None, None, "infeasible")

    if utility.sup_value() == INF and find_free_lunch_direction(market) is not None:
        return PrimalSolution(INF, None, None, "unbounded")

    return _projected_gradient(market, utility, x, start, tol, max_iter)


def primal_feasible(market: MarketModel, x) -> bool:
    """Pure feasibility at initial wealth x: can terminal wealth stay >= 0?

    A per-x phase-1 question, used by the bisection route to the critical
    wealth level; deliberately not the max-min-slack LP.
    """
    lp = tree_lp(market)
    if not lp.polyhedral:
        return _feasible_start(market, x)[0]
    exact = market.exact and isinstance(x, (int, Fraction))
    A, b, L = lp.rows(exact)[:3]
    x = np.full(len(L), x if exact else float(x), b.dtype)
    res = solve_lp([0] * lp.n_h, A_ub=np.vstack([A, -L]),
                   b_ub=np.concatenate([b, x]), exact=exact)
    return res.status == OPTIMAL


def _feasible_start(market: MarketModel, x):
    """Maximize the worst leaf wealth; feasible iff the optimum is >= 0.

    Returns (feasible, starting holdings dict, worst-leaf slack).
    """
    lp = tree_lp(market)
    if not lp.polyhedral:
        return _feasible_start_nonpolyhedral(market, x)
    exact = market.exact and isinstance(x, (int, Fraction))
    x = x if exact else float(x)
    res = lp.worst_leaf(exact, x, abs(x) + _SLACK_CAP)
    if res.status != OPTIMAL:
        # infeasible only when the floor empties the admissible class
        return False, None, NEG_INF
    m = -res.value
    return m >= 0, lp.portfolio(res.x).as_dict(), m


def _feasible_start_nonpolyhedral(market, x):
    """Center-based fallback when some constraint has no halfspace form."""
    holdings = {i: market.constraint(i).center() for i in market.tree.nonleaf}
    from .market import wealth_process

    w = wealth_process(market, PortfolioProcess(holdings), x)
    slack = min(float(v) for v in w.leaf_values(market))
    return slack >= 0, holdings, slack


def find_free_lunch_direction(market: MarketModel):
    """Admissible recession direction whose terminal gains are >= 0 on every
    leaf and sum to 1: a certificate that the attainable set is unbounded."""
    lp = tree_lp(market)
    _, _, L, _, R, _ = lp.rows(market.exact)
    A_ub = np.vstack([R, -L])
    res = solve_lp([0] * lp.n_h, A_ub=A_ub, b_ub=[0] * len(A_ub),
                   A_eq=[L.sum(axis=0)], b_eq=[1], exact=market.exact)
    if res.status != OPTIMAL:
        return None
    return lp.portfolio(res.x)


def _vectorized_utility(utility):
    """(value over array, right marginal over array) in numpy terms."""
    from .utility import LogUtility, PowerUtility

    if isinstance(utility, LogUtility):
        return np.log, lambda w: 1.0 / w
    if isinstance(utility, PowerUtility):
        p = utility.p
        return (lambda w: w ** p / p), (lambda w: w ** (p - 1.0))
    value = np.vectorize(lambda v: utility(v), otypes=[float])
    marg = np.vectorize(lambda v: utility.marginal(v)[1], otypes=[float])
    return value, marg


def _projected_gradient(market, utility, x, start, tol, max_iter):
    lp = tree_lp(market)
    _, _, L, N, _, leaf_probs = lp.rows(False)
    floor_rows = floor = None
    if market.floor is not None:
        floor_rows, floor = N, float(market.floor)
    x = float(x)
    guard = utility.inf_value() == NEG_INF or utility.inada_zero()
    low = _DOMAIN_EPS if guard else 0.0
    value_fn, marginal_fn = _vectorized_utility(utility)
    projectors = [((lp.offsets[i], lp.offsets[i] + market.dim),
                   market.constraint(i).project)
                  for i in market.tree.nonleaf]

    def objective(h):
        w = x + L @ h
        if (w < low).any():
            return NEG_INF
        if floor_rows is not None and (floor_rows @ h < -floor - 1e-12).any():
            return NEG_INF
        vals = value_fn(w)
        if not np.isfinite(vals).all():
            return NEG_INF
        return float(leaf_probs @ vals)

    def gradient(h):
        return L.T @ (leaf_probs * marginal_fn(x + L @ h))

    def project(h):
        out = h.copy()
        for (a, b), proj in projectors:
            out[a:b] = proj(h[a:b])
        return out

    h = np.asarray([float(start[i][k]) for i in market.tree.nonleaf
                    for k in range(market.dim)])
    f = objective(h)
    if f == NEG_INF:
        return PrimalSolution(NEG_INF, None, None, "infeasible")

    step = 1.0
    prev_h = prev_g = None
    recent = [f]  # nonmonotone line-search memory
    gm = None
    for it in range(1, max_iter + 1):
        g = gradient(h)
        gm = float(np.linalg.norm(h - project(h + g)))
        if gm <= tol:
            return _package(market, h, x, f, "optimal", it, gm)
        if prev_g is not None:
            dh = h - prev_h
            dg = g - prev_g
            denom = -float(dh @ dg)  # >= 0 for a concave objective
            step = (float(dh @ dh) / denom) if denom > 1e-300 else step * 2.0
            step = min(max(step, 1e-12), 1e10)
        ref = min(recent)  # accept any point beating the worst recent value
        accepted = False
        s = step
        for _ in range(60):
            cand = project(h + s * g)
            fc = objective(cand)
            if fc != NEG_INF and fc >= ref + 1e-4 * float(g @ (cand - h)) - 1e-300:
                prev_h, prev_g = h, g
                h, f = cand, fc
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break  # pinned against the domain boundary along this direction
        recent.append(f)
        if len(recent) > 10:
            recent.pop(0)
    status = "optimal" if gm is not None and gm <= tol else "max-iterations"
    return _package(market, h, x, f, status, max_iter, gm)


def _package(market, h, x, f, status, iters, gm):
    portfolio = tree_lp(market).portfolio(h.tolist())
    from .market import wealth_process

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

    _, _, L, N, _, leaf_probs = lp.rows(False)
    floor_rows = N if market.floor is not None else None
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

    best_val, best_h = NEG_INF, None
    for _ in range(max(rounds, 1)):
        axes = [np.linspace(lo, hi, points) if hi > lo else np.asarray([lo])
                for lo, hi in windows]
        for combo in itertools.product(*axes):
            h = np.asarray(combo)
            if not _grid_point_admissible(market, lp.offsets, h):
                continue
            w = x + L @ h + offset_vec
            if (w < 0).any():
                continue
            vals = [utility(v) for v in w]
            if any(v == NEG_INF for v in vals):
                continue
            if floor_rows is not None and (floor_rows @ h < -float(market.floor)).any():
                continue
            val = float(leaf_probs @ np.asarray(vals))
            if val > best_val:
                best_val, best_h = val, h
        if best_h is None:
            break
        windows = [(max(lo, c - (hi - lo) / 5), min(hi, c + (hi - lo) / 5))
                   for (lo, hi), c in zip(windows, best_h)]
    return best_val


def _grid_point_admissible(market, offsets, h):
    for i in market.tree.nonleaf:
        sl = tuple(h[offsets[i] + k] for k in range(market.dim))
        if not market.constraint(i).contains(sl, 1e-9):
            return False
    return True
