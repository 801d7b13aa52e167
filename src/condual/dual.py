"""Measure-side machinery: the attainable-claim support function, the dual
value function, superhedging prices, and the critical initial wealth.

Everything here runs over leaf measures.  Expected terminal gains decompose
node by node, so without a floor the support function of the attainable set
is a finite sum of per-node constraint-set support values, taken at the
directions of one pass over the tree (:func:`condual.market.node_directions`)
by :func:`face_supports`, which the supermartingale certificates of
:mod:`condual.conditions` also call.

Superhedging prices, and the critical wealth as the superhedge of the zero
claim (``min_support``), take one of two routes:

* without a floor, when every set has a halfspace form, by backward
  induction over the tree (:mod:`condual.recursion`): one closed-form step
  per node in dimension one, one small LP per node otherwise;
* with a floor, which couples the nodes, by the global worst-leaf LP over
  the stacked holdings (:meth:`condual.treelp.TreeLP.worst_leaf`).

Either route returns certificates for both sides of LP duality: a hedging
portfolio, whose worst leaf is read off its terminal gains, and a pricing
measure, whose value is its expected payoff minus the support function
evaluated at it.  The measure is read off the multipliers of the solve
that prices it, and valued on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from .market import MarketModel, node_directions
from .recursion import backward_induction
from .scalars import INF, NEG_INF, all_exact, is_finite
from .treelp import MARGIN_TOL, tree_lp
from .utility import PiecewiseLinearUtility, UtilityFunction, conjugate

# Newton steps the smooth dual's interior-point solve may take before it
# counts as no answer.  The solves measured stop within 27 steps: the
# benchmark's utility-float duals (seeds 1-10), random_market up to four
# periods, the drifted binomial up to T = 7, and with floors up to T = 4
NEWTON_MAX_STEPS = 100
# the scaled residuals and mean complementarity at which it stops
NEWTON_TOL = 1e-12
# a hedge closes the smooth dual's minorant bound when A H <= b holds within
# this, on every row (HiGHS's feasibility tolerance, which the bound's LP
# used to run at, is 1e-7)
HEDGE_TOL = 1e-9


@dataclass(frozen=True)
class DualMeasure:
    """Nonnegative measure on leaves, stored with the reference leaf
    probabilities it is absolutely continuous against."""

    weights: tuple
    probabilities: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        if len(self.weights) != len(self.probabilities):
            raise ValueError("weights and probabilities differ in length")
        if any(w < 0 for w in self.weights):
            raise ValueError("measure weights must be nonnegative")

    @property
    def mass(self):
        return sum(self.weights)

    @property
    def densities(self):
        return tuple(w / p for w, p in zip(self.weights, self.probabilities))

    def scaled(self, lam):
        return DualMeasure(tuple(lam * w for w in self.weights),
                           self.probabilities)


def measure_from_weights(market: MarketModel, weights) -> DualMeasure:
    return DualMeasure(tuple(weights), market.tree.leaf_probabilities())


# ---------------------------------------------------------------------------
# support function of the attainable set


def support_alpha(market: MarketModel, measure) -> object:
    """sup over admissible portfolios of the measure-weighted terminal gains.

    +inf when some node's constraint set is unbounded in the induced
    direction.  Positively homogeneous: scaling the measure scales the value
    (with 0 * inf = 0).

    Without a floor it is the sum of the per-node values of
    :func:`face_supports` at the directions of
    :func:`~condual.market.node_directions`.
    """
    weights = _leaf_weights(market, measure.weights
                            if isinstance(measure, DualMeasure) else measure)
    if market.floor is None:
        supports = face_supports(market, node_directions(market, weights)[1],
                                 market.exact and all_exact(weights))
        if supports is None:
            return INF
        return sum(value for value, _ in supports.values())
    # intermediate-wealth floor couples the nodes: one stacked LP
    value, _ = _alpha_lp(market, weights)
    return value


def face_supports(market: MarketModel, directions, exact):
    """{node: (support value, direction)} of each constraint set at its
    node's direction, in tree order; None at the first value that is +inf.

    Unless ``exact`` (market and measure both rational), an infinite value
    is retried once with the direction's components at or below the noise
    floor 1e-9 (1 + max |price|) set to 0.0, and that direction is returned:
    a float LP's measure (e.g. on the martingale face) meets the equality
    faces of its rows only up to rounding.  Finite values are never
    perturbed.
    """
    out = {}
    for i, cset in market.constraints:
        xi = directions[i]
        value = cset.support(xi)
        if value == INF and not exact:
            floor = 1e-9 * (1.0 + max(abs(float(v)) for p in market.prices
                                      for v in p))
            cleaned = tuple(0.0 if abs(float(v)) <= floor else v for v in xi)
            if cleaned != tuple(xi):
                value, xi = cset.support(cleaned), cleaned
        if value == INF:
            return None
        out[i] = value, xi
    return out


def _leaf_weights(market, weights):
    weights = tuple(weights)
    if len(weights) != len(market.tree.leaves):
        raise ValueError("a measure needs one weight per leaf")
    return weights


def _alpha_lp(market, weights):
    lp = tree_lp(market)
    lp.require_polyhedral()
    exact = market.exact and all_exact(weights)
    A, b, L = lp.rows(exact)[:3]
    c = -(L.T @ np.asarray(weights, dtype=L.dtype))
    res = solve_lp(c, A_ub=A, b_ub=b, exact=exact)
    if res.status == UNBOUNDED:
        return INF, None
    if res.status == INFEASIBLE:  # empty admissible class
        return NEG_INF, None
    return -res.value, res.x


@dataclass(frozen=True)
class MinSupportResult:
    inf_alpha: object
    sup_essinf: object
    xbar: object
    minimizer: DualMeasure | None = None

    def __iter__(self):
        return iter((self.inf_alpha, self.sup_essinf, self.xbar))


def min_support(market: MarketModel) -> MinSupportResult:
    """(inf over measures of alpha, sup over claims of the worst leaf, xbar).

    All three are read off the superhedge of the zero claim in the
    market's arithmetic: sup essinf is minus its price, inf alpha minus its
    dual value (from its own certificate, so their agreement is LP
    duality), the minimizer its witness, and xbar = -inf alpha.  The answer
    is solved once per market and kept on its TreeLP.
    """
    def solve():
        res = _superhedge(market, (0,) * len(market.tree.leaves),
                          market.exact)
        inf_alpha = 0 - res.dual_value
        return MinSupportResult(inf_alpha, 0 - res.price, -inf_alpha,
                                res.witness)
    return tree_lp(market).kept("min_support", solve)


def _recursive(market):
    """True when backward induction prices the market: no floor, and a
    halfspace form at every node."""
    return market.floor is None and tree_lp(market).polyhedral


def _bound(market):
    """|sup essinf|, the zero claim's |price| (+inf when infinite), from its
    hedge side alone in the market's arithmetic: the kept min_support
    without a floor, the kept TreeLP.sup_essinf with one."""
    if _recursive(market):
        value = min_support(market).sup_essinf
    else:
        value = tree_lp(market).sup_essinf(market.exact)[0]
    return abs(value) if value not in (INF, NEG_INF) else INF


# ---------------------------------------------------------------------------
# superhedging


@dataclass
class SuperhedgeResult:
    price: object
    portfolio_x: list | None
    dual_value: object
    witness: DualMeasure | None
    bound: object  # |price| <= bound + max |payoff|


def superhedge_price(market: MarketModel, payoff) -> SuperhedgeResult:
    """Least initial capital whose attainable wealth dominates the payoff.

    Returns both sides of LP duality, each from its own certificate:
    ``price`` with ``portfolio_x = [price] + stacked H``, whose wealth
    dominates the payoff on every leaf, and ``dual_value``, the expected
    payoff minus the support penalty under the ``witness`` measure, which
    certifies prices > 0 in the claim-membership test.  ``bound`` is
    |sup essinf|, read off the hedge side of the zero claim, which is
    solved once per market and kept (|price| <= bound + max |payoff|).

    Markets without a floor, with every set in halfspace form, are priced
    by backward induction (recursion module), whose node weights give the
    witness; otherwise by the stacked worst-leaf LP, whose leaf-row
    multipliers give it.  The payoff needs one finite value per leaf (else
    ValueError).
    """
    payoff = tuple(payoff)
    if len(payoff) != len(market.tree.leaves):
        raise ValueError("payoff must assign one value per leaf")
    if not all(is_finite(f) for f in payoff):
        raise ValueError("payoff values must be finite")
    res = _superhedge(market, payoff, market.exact and all_exact(payoff))
    return replace(res, bound=_bound(market))


def _superhedge(market, payoff, exact):
    """The superhedge of a payoff by the market's route, without bound."""
    if _recursive(market):
        back = backward_induction(market, payoff, exact)
        return _priced(market, payoff, back.value, back.hedge, back.weights)
    return _superhedge_lp(market, payoff, exact)


def _superhedge_lp(market, payoff, exact):
    lp = tree_lp(market)
    # x + gains_l >= payoff_l on every leaf is m = -x <= gains_l - payoff_l,
    # so the price is the least -m: +inf when no portfolio is admissible,
    # -inf on a free lunch.  The leaf rows' multipliers are the pricing
    # measure (those of A H <= b its mu), float noise below 0 clipped
    res = lp.worst_leaf(exact, [-f for f in payoff])
    if res.status != OPTIMAL:
        price = INF if res.status == INFEASIBLE else NEG_INF
        return _priced(market, payoff, price, None, None)
    zero = 0 if exact else 0.0
    weights = [max(v, zero) for v in res.duals[-len(payoff):]]
    return _priced(market, payoff, res.value, res.x[:lp.n_h], weights)


def _priced(market, payoff, price, hedge, weights):
    """The SuperhedgeResult of a price, its stacked hedge and the leaf
    weights of its pricing measure q, valued on its own as sum q f -
    alpha(q).  Without weights the price is infinite and so is the dual
    value: -inf on a free lunch (no measure has finite alpha), +inf when
    the admissible class is empty (alpha is -inf at every measure)."""
    if weights is None:
        return SuperhedgeResult(price, None, price, None, None)
    witness = measure_from_weights(market, weights)
    dual_value = sum(q * f for q, f in zip(witness.weights, payoff)) \
        - support_alpha(market, witness)
    return SuperhedgeResult(price, [price] + hedge, dual_value, witness, None)


# ---------------------------------------------------------------------------
# the dual value function


@dataclass
class DualSolution:
    value: object
    measure: DualMeasure | None  # mass y
    attained: bool
    gap: object
    iterations: int = 0
    y: object = None


def dual_objective(market: MarketModel, utility: UtilityFunction, y, weights):
    """E[V(y dQ/dP)] + y alpha(Q) for a mass-one measure Q."""
    weights = _leaf_weights(market, weights)
    ev = _expected_conjugate(market, utility, y, weights)[0]
    return _plus_penalty(market, y, weights, ev)


def _plus_penalty(market, y, weights, ev):
    """ev + y alpha(Q) at the leaf weights of Q; +inf when either term is."""
    if ev == INF:
        return INF
    a = support_alpha(market, weights)
    if a == INF:
        return INF
    return ev + y * float(a)


def _expected_conjugate(market, utility, y, weights):
    """(E[V(z)], z) at the densities z = y max(q, 0) / p of the leaf
    weights q; +inf where V is."""
    probs = tree_lp(market).rows(False)[5]
    z = float(y) * (np.maximum(np.asarray(weights, dtype=float), 0.0) / probs)
    return float(probs @ conjugate(utility, z)), z


def _face_interior_point(market):
    """(q, t): a float copy of the leaf measure of the finite-alpha face
    with the greatest margin t in q >= t p (TreeLP.max_margin), strictly
    positive when t > MARGIN_TOL; None when the face is empty."""
    found = tree_lp(market).max_margin()
    if found is None:
        return None
    return np.asarray(found[0], dtype=float), found[1]


def solve_dual(market: MarketModel, utility: UtilityFunction, y,
               tol=1e-8) -> DualSolution:
    """Minimize E[V(y dQ/dP)] + y alpha(Q) over mass-one measures Q.

    The utility's class picks the route:

    * a piecewise-linear utility (knots or a table) takes its primal's
      epigraph LP (TreeLP.epigraph) with x free and priced at y;
    * any other conjugate (power, log) is smooth, and the dual is one
      primal-dual interior-point Newton solve over the lifted (q, mu)
      polytope of TreeLP.lifted, started from the strictly positive face
      point of TreeLP.max_margin; when the solve finds no answer, that
      face point itself is reported.  When the face has no strictly
      positive point (margin at or below MARGIN_TOL), some leaf has no
      mass under every face measure, and since V(0) = sup U = +inf the
      value is +inf, with no Newton solve.

    The reported value is always the dual objective evaluated at the
    reported measure.  ``gap`` is its distance to a bound on the dual value:
    on the LP route the LP optimum (in absolute value, since the optimum is
    the dual value itself), on the Newton route the lower bound given by the
    minimum of the partial linearization at the reported measure (the
    first-order minorant of E[V] plus the exact support penalty), closed by
    weak duality with an admissible hedge instead of an LP
    (_minorant_lower_bound).  The hedge is the one read off the Newton
    solve's row multipliers, or, when the face point is reported, the
    market's kept worst-leaf hedge (TreeLP.sup_essinf).  The gap is +inf at
    a point where V or its slope is infinite, and when the hedge fails A H
    <= b by more than HEDGE_TOL.  ``attained`` means the value is
    finite and the gap is within max(tol, 1e-6 * max(1, |value|)).
    ``iterations`` counts Newton steps (NEWTON_MAX_STEPS when the solve
    stops at that cap), and is 0 on the LP route.  An empty admissible
    class gives -inf (on the Newton route the market's kept worst-leaf
    solve decides it, before the face is asked for), and an empty
    finite-alpha face, a face of zero margin on the Newton route and an
    unbounded epigraph LP give +inf, each without a measure, with gap
    +inf, ``attained`` False and 0 iterations.
    """
    if not is_finite(y) or y <= 0:
        raise ValueError(f"the dual is solved for finite y > 0, got y = {y}")
    if isinstance(utility, PiecewiseLinearUtility):
        q, optimum = _epigraph_dual(market, utility, y)
        if q is None:
            return DualSolution(optimum, None, False, INF, y=y)
        iterations = 0
        value = dual_objective(market, utility, y, tuple(q))
        # the LP optimum is the dual value: a difference either way is error
        gap = abs(float(value) - float(optimum))
    else:
        if market.floor is not None \
                and tree_lp(market).sup_essinf(market.exact)[0] == NEG_INF:
            # only a floor can empty the admissible class (every set is
            # nonempty), and then alpha is -inf at every measure
            return DualSolution(NEG_INF, None, False, INF, y=y)
        found = _face_interior_point(market)
        if found is None:
            return DualSolution(INF, None, False, INF, y=y)
        q0, margin = found
        if margin <= MARGIN_TOL:
            return DualSolution(INF, None, False, INF, y=y)
        q, hedge, iterations = _lifted_smooth_solve(market, utility, y, q0)
        if q is None:
            q = q0
            hedge = tree_lp(market).sup_essinf(market.exact)[1]
        ev, z = _expected_conjugate(market, utility, y, q)
        value = _plus_penalty(market, y, tuple(q), ev)
        lower = _minorant_lower_bound(market, utility, y, q, hedge, ev, z)
        gap = max(0.0, float(value) - lower) if lower != NEG_INF else INF
    measure = measure_from_weights(market, tuple(float(v) for v in q)).scaled(y)
    attained = math.isfinite(value) \
        and gap <= max(tol, 1e-6 * max(1.0, abs(float(value))))
    return DualSolution(value, measure, attained, gap, iterations, y)


def _lifted_smooth_solve(market, utility, y, q0):
    """Interior-point solve of min E[V(y q/p)] + y b . mu over the lifted
    polytope {E w = e, w = (q, mu) >= 0} of TreeLP.lifted.

    For fixed q the inner minimum over mu >= 0 of b . mu subject to
    A^T mu = L^T q is exactly the support penalty, so this program equals
    the dual restricted to the finite face, with the nonsmoothness traded
    for multiplier variables.  Smooth conjugates only.

    Mehrotra's predictor-corrector primal-dual method (Mehrotra, SIAM J.
    Optim. 2, 1992), started infeasible from w = (q0, 1), slacks s = 1 and
    row multipliers 0.  Each Newton step eliminates dw and ds and solves
    the dense Schur system (E D^-1 E^T) dlam = r of 1 + n_h rows, with the
    diagonal D = diag(y^2 V''(y q/p) / p, 0) + s/w, once for the predictor
    and once for the corrector (centring sigma = (mu_aff/mu)^3), each cut
    by _step_length; E^T, |E| and the y b and 0 halves of the gradient
    and of D are formed once.  It stops when the primal residual (relative
    to 1 + the largest row of |E| w), the dual residual (relative to 1 +
    the largest gradient entry) and the mean complementarity w . s /
    len(w) are all at most NEWTON_TOL.

    The all-zero rows of E (a holding coordinate that no increment moves
    and no row of A bounds) would make the Schur system singular, so they
    are dropped before the loop.

    Returns (q, H, Newton steps).  H is the stacked hedge read off the row
    multipliers, H = lam[1:] / y, with H = 0 on the dropped rows: the dual
    residual of the mu columns is y b - A lam[1:] - s with slacks s > 0,
    so A H <= b holds up to that residual, and it is the hedge of the
    minorant bound (_minorant_lower_bound).  q and H are None when there
    is no answer: a singular Schur system, a non-finite residual,
    NEWTON_MAX_STEPS steps without convergence, or a q whose mass is not 1.
    """
    lp = tree_lp(market)
    E, e, _ = lp.lifted(False)
    held = np.any(E != 0, axis=1)
    E, e = E[held], np.asarray(e, dtype=float)[held]
    _, b, _, _, _, probs = lp.rows(False)
    n, y = len(probs), float(y)
    w = np.concatenate([q0, np.ones(len(b))])
    s = np.ones_like(w)
    lam = np.zeros(len(E))
    E_T, abs_E, yb, zero_b = E.T, np.abs(E), y * b, np.zeros_like(b)
    steps = 0
    while True:
        d1, d2 = utility.conjugate_derivatives(y * w[:n] / probs)
        grad = np.concatenate([y * d1, yb])
        r_p = E @ w - e
        r_d = grad - E_T @ lam - s
        mean = w @ s / len(w)
        res_p = np.abs(r_p).max() / (1.0 + (abs_E @ w).max())
        res_d = np.abs(r_d).max() / (1.0 + np.abs(grad).max())
        err = res_p + res_d + mean  # NaN when a term is: max may drop it
        err = err if math.isnan(err) else max(res_p, res_d, mean)
        if err <= NEWTON_TOL:
            break
        if steps == NEWTON_MAX_STEPS or not math.isfinite(err):
            return None, None, steps
        d_inv = 1.0 / (np.concatenate([y * y * d2 / probs, zero_b]) + s / w)
        schur = (E * d_inv) @ E_T

        def direction(r_c):
            # H dw - E^T dlam - ds = -r_d, E dw = -r_p, s dw + w ds = r_c
            t = d_inv * (r_c / w - r_d)
            dlam = np.linalg.solve(schur, -r_p - E @ t)
            dw = t + d_inv * (E_T @ dlam)
            return dw, dlam, (r_c - s * dw) / w

        try:
            dw, _, ds = direction(-w * s)
            a = _step_length(n, w, dw, s, ds)
            sigma = ((w + a * dw) @ (s + a * ds) / len(w) / mean) ** 3
            dw, dlam, ds = direction(sigma * mean - w * s - dw * ds)
        except np.linalg.LinAlgError:
            return None, None, steps
        a = _step_length(n, w, dw, s, ds)
        w, s, lam = w + a * dw, s + a * ds, lam + a * dlam
        steps += 1
    q = w[:n]
    if abs(q.sum() - 1.0) > 1e-6:
        return None, None, steps
    hedge = np.zeros(lp.n_h)
    hedge[held[1:]] = lam[1:] / y
    return q, hedge, steps


def _step_length(n, w, dw, s, ds):
    """The longest step along (dw, ds), at most 1, that goes at most half
    of the way to q = 0 for the leaf masses q = w[:n], and at most 0.995 of
    the way to the boundary for the multipliers w[n:] and the slacks s,
    read off one masked divide of the stacked (w, s) by (dw, ds).

    V'' grows without bound as q falls to 0 (as 1/q^2 for log, 1/q^3 for
    power(1/2)), so the quadratic model at q overrates a step that takes q
    far toward 0; with the 0.995 rule on q too, Newton steps on the
    benchmark's power duals at y = 2 cycle between q near 0 and q beyond
    the optimum until the step cap.
    """
    v, dv = np.concatenate([w, s]), np.concatenate([dw, ds])
    room = np.divide(-v, dv, out=np.full(len(v), np.inf), where=dv < 0)
    return min(1.0, 0.5 * room[:n].min(), 0.995 * room[n:].min())


def _epigraph_dual(market, utility, y):
    """(q, v(y)) from TreeLP.epigraph with x free and priced at y; y q_l
    = sum_k s_k lambda_kl + nu_l over the multipliers of leaf l's line rows
    and domain row.  (None, +inf) when the LP is unbounded, (None, -inf)
    when it is infeasible (empty admissible class)."""
    lines, edge = utility.lines()
    res = tree_lp(market).epigraph(lines, edge, y=y)
    if res.status == UNBOUNDED:
        return None, INF
    if res.status == INFEASIBLE:
        return None, NEG_INF
    n = len(market.tree.leaves)
    duals = np.reshape(res.duals[:(len(lines) + 1) * n], (-1, n))
    slopes = np.asarray([float(s) for s, _ in lines] + [1.0])
    q = np.clip(slopes @ duals, 0.0, None)
    return q / q.sum(), -res.value


def _minorant_lower_bound(market, utility, y, q_hat, hedge, ev, z):
    """Lower bound on the dual value via partial linearization at q_hat,
    closed by weak duality with an admissible hedge; ``ev, z`` is
    _expected_conjugate at q_hat.

    The conjugate-expectation part of the objective is replaced by its
    first-order minorant at q_hat, with slopes c = y V'(y q_hat/p), while
    the support penalty is kept exact, so the bound is ev - c . q_hat plus
    the least c . q + y alpha(q) over the face.  alpha(q) >= q . (L H) for
    every admissible H, and q is a probability, so that least value is at
    least min_l (c_l + y (L H)_l): no LP is solved.  The hedge must pass
    A H <= b within HEDGE_TOL; -inf when it does not, when it is None, or
    at a q_hat where V or its slope is infinite.
    """
    # the slope may be unbounded at the boundary z = 0
    if ev == INF or (z <= 0).any() or hedge is None:
        return NEG_INF
    hedge = np.asarray(hedge, dtype=float)
    if not _admissible(market, hedge):
        return NEG_INF
    grad_ev = float(y) * utility._dv(z)
    L = tree_lp(market).rows(False)[2]
    worst = (grad_ev + float(y) * (L @ hedge)).min()
    return ev - float(grad_ev @ np.asarray(q_hat, dtype=float)) + float(worst)


def _admissible(market, hedge):
    """True when the stacked float hedge satisfies the market's float rows
    A H <= b within HEDGE_TOL on every row."""
    A, b = tree_lp(market).rows(False)[:2]
    return bool(np.all(A @ hedge - b <= HEDGE_TOL))
