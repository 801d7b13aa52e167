"""Measure-side machinery: the attainable-claim support function, the dual
value function, superhedging prices, and the critical initial wealth.

Everything here runs over leaf measures.  Expected terminal gains decompose
node by node, so the support function of the attainable set is a finite sum
of per-node constraint-set support values.

Superhedging prices and the critical wealth take one of two routes:

* without a floor, when every set has a halfspace form, by backward
  induction over the tree (:mod:`condual.recursion`): one closed-form step
  per node in dimension one, one small LP per node otherwise;
* with a floor, which couples the nodes, by global LPs over the stacked
  holdings and over the lifted (measure, multiplier) polytope of
  :class:`condual.treelp.TreeLP`.

Either route returns certificates for both sides of LP duality: a hedging
portfolio, whose worst leaf is read off its terminal gains, and a pricing
measure, whose value is its expected payoff minus the support function
evaluated at it.  Neither side is copied from the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from .market import MarketModel
from .recursion import backward_induction, interval_support
from .scalars import INF, NEG_INF, all_exact
from .treelp import node_direction, subtree_weights, tree_lp
from .utility import (PiecewiseLinearUtility, UtilityFunction, conjugate,
                      conjugate_marginal)


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

    @property
    def exact(self):
        return all_exact(self.weights) and all_exact(self.probabilities)

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

    Unless the market and the weights are both exact, induced direction
    components at or below the market's noise floor count as exact zeros
    when the support value would otherwise be infinite, so measures
    produced by float LPs can sit on equality faces (e.g. the martingale
    face) without the support value spuriously exploding.
    """
    weights = measure.weights if isinstance(measure, DualMeasure) else tuple(measure)
    if market.floor is None:
        zero_tol = 0 if market.exact and all_exact(weights) \
            else _noise_floor(market)
        total = 0
        mass = subtree_weights(market, weights)
        intervals = tree_lp(market).intervals  # dimension one only
        for i, cset in market.constraints:
            support = cset.support if i not in intervals \
                else functools.partial(interval_support, intervals[i])
            val = _support_with_floor_noise(support,
                                            node_direction(market, mass, i),
                                            zero_tol)
            if val == INF:
                return INF
            total = total + val
        return total
    # intermediate-wealth floor couples the nodes: one stacked LP
    value, _ = _alpha_lp(market, weights)
    return value


def _support_with_floor_noise(support, xi, zero_tol):
    """Support value, retrying with denoised direction only when infinite.

    Finite values are never perturbed; the retry merely lets float-produced
    directions sit on equality faces they satisfy up to LP tolerance.
    """
    val = support(xi)
    if val != INF or zero_tol == 0:
        return val
    cleaned = tuple(0.0 if abs(float(v)) <= zero_tol else v for v in xi)
    return val if cleaned == tuple(xi) else support(cleaned)


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


# ---------------------------------------------------------------------------
# lifted measure-side LPs
#
# alpha(q) = max { (L^T q) . H : A H <= b } has the LP dual
# min { b . mu : A^T mu = L^T q, mu >= 0 }, so any "optimize over q" problem
# with alpha in the objective becomes one joint LP over (q, mu).


def _lifted_lp(market, q_objective, maximize_payoff=None, mu_cost_scale=1,
               force_float=False):
    """Solve min/max over the lifted (q, mu) polytope (TreeLP.lifted).

    Minimizes q_objective . q + mu_cost_scale * (b . mu); for fixed q the
    inner minimum over mu is exactly alpha(q) scaled, so this is
    min over the finite-alpha face of [q_objective . q + scale * alpha(q)].
    When maximize_payoff is given the objective is
    max payoff . q - b . mu instead.
    """
    lp = tree_lp(market)
    exact = market.exact and not force_float
    A_eq, b_eq, nonneg = lp.lifted(exact)
    b = lp.rows(exact)[1]
    if maximize_payoff is not None:
        c = [-v for v in maximize_payoff] + list(b)
    else:
        c = list(q_objective) + [mu_cost_scale * v for v in b]
    if not exact:
        c = [float(v) for v in c]
    res = solve_lp(c, A_eq=A_eq, b_eq=b_eq, exact=exact, nonneg=nonneg)
    return res, len(market.tree.leaves)


@dataclass
class MinSupportResult:
    inf_alpha: object
    sup_essinf: object
    xbar: object
    minimizer: DualMeasure | None = None

    def __iter__(self):
        return iter((self.inf_alpha, self.sup_essinf, self.xbar))


def min_support(market: MarketModel) -> MinSupportResult:
    """(inf over measures of alpha, sup over claims of the worst leaf, xbar).

    Both come from superhedging the zero claim: sup essinf of the attainable
    gains is minus its price, and inf alpha is its measure-side value.  Each side
    comes from its own certificate (TreeLP.L times the hedge for the worst
    leaf; support_alpha at the minimizing measure for inf alpha), so their
    agreement is an LP-duality identity.  The critical initial wealth is
    -inf alpha.

    Markets without a floor, with every set in halfspace form, are solved
    by backward induction (recursion module); otherwise by the lifted LP
    and the stacked worst-leaf LP.
    """
    if _recursive(market):
        return _min_support_recursive(market)
    return _min_support_lp(market)


def _min_support_recursive(market):
    back = backward_induction(market, _zero_claim(market), market.exact)
    if back.value == NEG_INF:  # constrained arbitrage
        return MinSupportResult(INF, INF, NEG_INF, None)
    minimizer = measure_from_weights(market, back.weights)
    inf_alpha = support_alpha(market, minimizer)
    return MinSupportResult(inf_alpha, _worst_gain(market, back.hedge),
                            _xbar(inf_alpha), minimizer)


def _min_support_lp(market):
    res, n_leaves = _lifted_lp(market, [0] * len(market.tree.leaves))
    if res.status == INFEASIBLE:
        # every measure sees an unbounded support value: constrained
        # arbitrage; the critical wealth is minus infinity
        inf_alpha = INF
        minimizer = None
    elif res.status == UNBOUNDED:
        # the admissible class is empty (a floor can do that): the support
        # value is identically minus infinity and no wealth is feasible
        inf_alpha = NEG_INF
        minimizer = None
    else:
        inf_alpha = res.value
        minimizer = measure_from_weights(market, res.x[:n_leaves])
    return MinSupportResult(inf_alpha, _sup_essinf(market), _xbar(inf_alpha),
                            minimizer)


def _xbar(inf_alpha):
    if inf_alpha == INF:
        return NEG_INF
    if inf_alpha == NEG_INF:
        return INF
    return -inf_alpha


def _recursive(market):
    """True when backward induction prices the market: no floor, and a
    halfspace form at every node."""
    return market.floor is None and tree_lp(market).polyhedral


def _zero_claim(market):
    return (0,) * len(market.tree.leaves)


def _worst_gain(market, hedge):
    """Least terminal gain over the leaves of a stacked hedge; +inf for the
    free lunch (hedge None) of a constrained arbitrage."""
    if hedge is None:
        return INF
    L = tree_lp(market).rows(market.exact)[2].tolist()
    return min(sum(a * h for a, h in zip(row, hedge) if a) for row in L)


def _sup_essinf(market):
    res = tree_lp(market).worst_leaf(market.exact, 0)
    if res.status == UNBOUNDED:
        return INF
    if res.status == INFEASIBLE:  # empty admissible class
        return NEG_INF
    return -res.value


# ---------------------------------------------------------------------------
# superhedging


@dataclass
class SuperhedgeResult:
    price: object
    portfolio_x: list | None
    dual_value: object
    witness: DualMeasure | None
    bound: object  # |price| <= bound + max |payoff|

    def __float__(self):
        return float(self.price)


def superhedge_price(market: MarketModel, payoff) -> SuperhedgeResult:
    """Least initial capital whose attainable wealth dominates the payoff.

    Returns both sides of LP duality, each from its own certificate:
    ``price`` with ``portfolio_x = [price] + stacked H``, whose wealth
    dominates the payoff on every leaf, and ``dual_value``, the expected
    payoff minus the support penalty under the ``witness`` measure, which
    certifies prices > 0 in the claim-membership test.  ``bound`` is
    |sup essinf| from the zero claim (|price| <= bound + max |payoff|).

    Markets without a floor, with every set in halfspace form, are priced
    by backward induction (recursion module); otherwise by the stacked
    primal LP, the lifted measure-side LP and the worst-leaf LP.
    """
    payoff = tuple(payoff)
    leaves = market.tree.leaves
    if len(payoff) != len(leaves):
        raise ValueError("payoff must assign one value per leaf")
    exact = market.exact and all_exact(payoff)

    if _recursive(market):
        return _superhedge_recursive(market, payoff, exact)
    return _superhedge_lp(market, payoff, exact)


def _superhedge_recursive(market, payoff, exact):
    back = backward_induction(market, payoff, exact)
    essinf = _worst_gain(market, backward_induction(
        market, _zero_claim(market), market.exact).hedge)
    if back.value == NEG_INF:
        return SuperhedgeResult(NEG_INF, None, NEG_INF, None, _bound(essinf))
    witness = measure_from_weights(market, back.weights)
    dual_value = sum(q * f for q, f in zip(witness.weights, payoff)) \
        - support_alpha(market, witness)
    return SuperhedgeResult(back.value, [back.value] + back.hedge, dual_value,
                            witness, _bound(essinf))


def _superhedge_lp(market, payoff, exact):
    lp = tree_lp(market)
    # x + gains_l >= payoff_l on every leaf is m = -x <= gains_l - payoff_l,
    # so the price is the least -m: +inf when no portfolio is admissible,
    # -inf on a free lunch
    res = lp.worst_leaf(exact, [-f for f in payoff])
    if res.status == OPTIMAL:
        price, x = res.value, [res.value] + res.x[:lp.n_h]
    else:
        price, x = (INF if res.status == INFEASIBLE else NEG_INF), None

    dual_res, n_leaves = _lifted_lp(market, None, maximize_payoff=payoff)
    if dual_res.status == OPTIMAL:
        witness = measure_from_weights(market, dual_res.x[:n_leaves])
        dual_value = -dual_res.value
    else:
        # unbounded when the admissible class is empty (alpha = -inf)
        witness = None
        dual_value = INF if dual_res.status == UNBOUNDED else NEG_INF
    return SuperhedgeResult(price, x, dual_value, witness,
                            _bound(_sup_essinf(market)))


def _bound(essinf):
    return abs(essinf) if essinf not in (INF, NEG_INF) else INF


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


def _noise_floor(market):
    scale = max(abs(float(v)) for p in market.prices for v in p)
    return 1e-9 * (1.0 + scale)


def dual_objective(market: MarketModel, utility: UtilityFunction, y, weights):
    """E[V(y dQ/dP)] + y alpha(Q) for a mass-one measure Q."""
    probs = market.tree.leaf_probabilities()
    total = 0.0
    for w, p in zip(weights, probs):
        density = max(float(w), 0.0) / float(p)
        v = conjugate(utility, y * density)
        if v == INF:
            return INF
        total += float(p) * v
    a = support_alpha(market, weights)
    if a == INF:
        return INF
    return total + y * float(a)


def _max_margin_measure(market, multipliers=True):
    """(q, t): a leaf measure maximizing the margin t in q >= t p, found by
    a float LP over the lifted polytope with margin t <= 1; None when that
    LP has no optimum.

    With multipliers q ranges over the finite-alpha face; without them it
    must give zero drift at every node (a martingale measure).
    """
    lp = tree_lp(market)
    A_eq, b_eq, nonneg = lp.lifted(False, extra=1, multipliers=multipliers)
    p = lp.rows(False)[5]
    n = len(p)
    A_ub = np.zeros((n + 1, A_eq.shape[1]))
    A_ub[:n, :n] = -np.eye(n)  # q_k >= t p_k
    A_ub[:n, -1] = p
    A_ub[n, -1] = 1.0
    b_ub = np.zeros(n + 1)
    b_ub[n] = 1.0
    c = np.zeros(A_eq.shape[1])
    c[-1] = -1.0
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   nonneg=nonneg)
    if res.status != OPTIMAL:
        return None
    return res.x[:n], -res.value


def _face_interior_point(market):
    """Strictly positive q on the finite-alpha face, or None if the face is
    empty; found by maximizing a proportional margin."""
    found = _max_margin_measure(market)
    if found is None or found[1] <= 1e-12:
        # fall back to any face point (possibly on the simplex boundary)
        res, n_leaves = _lifted_lp(market, [0] * len(market.tree.leaves),
                                   force_float=True)
        if res.status != OPTIMAL:
            return None
        return np.asarray([float(v) for v in res.x[:n_leaves]])
    return np.asarray(found[0], dtype=float)


def solve_dual(market: MarketModel, utility: UtilityFunction, y,
               tol=1e-8) -> DualSolution:
    """Minimize E[V(y dQ/dP)] + y alpha(Q) over mass-one measures Q.

    The utility's class picks the route:

    * a piecewise-linear utility (knots or a table) takes its primal's
      epigraph LP (TreeLP.epigraph) with x free and priced at y;
    * any other conjugate (power, log) is smooth, and the dual is one SQP
      solve over the lifted (q, mu) polytope of TreeLP.lifted, started
      from a point of the finite-alpha face that is strictly positive where
      the face allows; when the solve finds no answer, that face point
      itself is reported.

    The reported value is always the dual objective evaluated at the
    reported measure.  ``gap`` is its distance to a bound on the dual value:
    on the LP route the LP optimum (in absolute value, since the optimum is
    the dual value itself), on the SQP route the lower bound given by the
    minimum of the partial linearization at the reported measure (the
    first-order minorant of E[V] plus the exact support penalty), which is
    +inf at a point where V or its slope is infinite.  ``attained`` means the value is
    finite and the gap is within max(tol, 1e-6 * max(1, |value|)).
    ``iterations`` counts SQP iterations over all restarts, and is 0 on the
    LP route.  A value of +inf (empty finite-alpha face, or V infinite at
    every density y dQ/dP) or -inf (empty admissible class) comes without a
    measure.
    """
    if y <= 0:
        raise ValueError("the dual is solved for y > 0")
    if isinstance(utility, PiecewiseLinearUtility):
        q, optimum = _epigraph_dual(market, utility, y)
        if q is None:
            return DualSolution(optimum, None, False, INF, y=y)
        iterations = 0
        value = dual_objective(market, utility, y, tuple(q))
        # the LP optimum is the dual value: a difference either way is error
        gap = abs(float(value) - float(optimum))
    else:
        q0 = _face_interior_point(market)
        if q0 is None:
            return DualSolution(INF, None, False, INF, y=y)
        if market.floor is not None \
                and support_alpha(market, q0) == NEG_INF:
            # only a floor can empty the admissible class (every set is
            # nonempty), and then alpha is -inf at every measure
            return DualSolution(NEG_INF, None, False, INF, y=y)
        q, iterations = _lifted_smooth_solve(market, utility, y, q0)
        if q is None:
            q = q0
        value = dual_objective(market, utility, y, tuple(q))
        lower = _minorant_lower_bound(market, utility, y, q)
        gap = max(0.0, float(value) - lower) if lower != NEG_INF else INF
    measure = measure_from_weights(market, tuple(float(v) for v in q)).scaled(y)
    attained = math.isfinite(value) \
        and gap <= max(tol, 1e-6 * max(1.0, abs(float(value))))
    return DualSolution(value, measure, attained, gap, iterations, y)


def _lifted_smooth_solve(market, utility, y, q0):
    """SQP solve of min E[V(y q/p)] + y b . mu over the lifted polytope.

    For fixed q the inner minimum over mu >= 0 of b . mu subject to
    A^T mu = L^T q is exactly the support penalty, so this program equals
    the dual restricted to the finite face, with the nonsmoothness traded
    for multiplier variables.  Smooth conjugates only.  Returns (q, SLSQP
    iterations over all restarts); q is None when there is no answer.
    """
    from scipy.optimize import minimize

    lp = tree_lp(market)
    E, e, _ = lp.lifted(False)
    A, bf, L, _, _, probs = lp.rows(False)
    n, n_mu = len(probs), len(bf)

    # feasible multipliers for the starting measure
    target = L.T @ q0
    if n_mu:
        res = solve_lp(bf, A_eq=A.T, b_eq=target, nonneg=range(n_mu))
        if res.status != OPTIMAL:
            return None, 0
        mu0 = np.asarray(res.x)
    else:
        if np.abs(target).max(initial=0.0) > 1e-9:
            return None, 0
        mu0 = np.zeros(0)

    floor_z = 1e-14

    def fun(z):
        q, mu = z[:n], z[n:]
        dens = y * np.maximum(q, floor_z) / probs
        vvals = np.asarray([conjugate(utility, d) for d in dens])
        if not np.isfinite(vvals).all():
            return 1e50
        return float(probs @ vvals) + float(y) * float(bf @ mu)

    def jac(z):
        q, mu = z[:n], z[n:]
        dens = y * np.maximum(q, floor_z) / probs
        vp = np.asarray([conjugate_marginal(utility, max(d, floor_z))[1]
                         for d in dens])
        return np.concatenate([y * vp, y * bf])

    # SLSQP often stops on a failed line search short of ftol, where the
    # minorant gap (and so `attained`) turns on rounding noise; restarting
    # from its last point while the objective still falls settles it
    z = np.concatenate([q0, mu0])
    best = fun(z)
    iterations = 0
    for _ in range(8):
        result = minimize(fun, z, jac=jac, method="SLSQP",
                          bounds=[(0.0, None)] * (n + n_mu),
                          constraints=[{"type": "eq", "fun": lambda w: E @ w - e,
                                        "jac": lambda w: E}],
                          options={"maxiter": 300, "ftol": 1e-14})
        iterations += result.nit
        if not result.fun < best:
            break
        z, best = result.x, result.fun
    q = np.clip(z[:n], 0.0, None)
    if abs(q.sum() - 1.0) > 1e-6:
        return None, iterations
    return q, iterations


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


def _minorant_lower_bound(market, utility, y, q_hat):
    """Lower bound on the dual value via partial linearization at q_hat.

    The conjugate-expectation part of the objective is replaced by its
    first-order minorant while the (convex, polyhedral) support penalty is
    kept exact, so the bound is min over the face of a linear term plus
    y * alpha(q): one lifted LP.
    """
    probs = [float(p) for p in market.tree.leaf_probabilities()]
    ev = 0.0
    grad_ev = []
    for w, p in zip(q_hat, probs):
        z = y * max(float(w), 0.0) / p
        v = conjugate(utility, z)
        if v == INF:
            return NEG_INF
        ev += p * float(v)
        if z <= 0:
            return NEG_INF  # slope may be unbounded at the boundary
        grad_ev.append(y * conjugate_marginal(utility, z)[1])
    res, n_leaves = _lifted_lp(market, grad_ev, mu_cost_scale=float(y),
                               force_float=True)
    if res.status != OPTIMAL:
        return NEG_INF
    return ev - float(np.dot(grad_ev, q_hat)) + float(res.value)