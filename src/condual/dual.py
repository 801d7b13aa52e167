"""Measure-side machinery: the attainable-claim support function, the dual
value function, superhedging prices, and the critical initial wealth.

Everything here runs over leaf measures.  Expected terminal gains decompose
node by node, so the support function of the attainable set is a finite sum
of per-node constraint-set support values, and its minimization over the
probability simplex is a single LP once each support value is written in its
dual (halfspace-multiplier) form.  A floor on intermediate wealth couples
the nodes, in which case the stacked-LP route below is used instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from .market import MarketModel
from .numbers import INF, NEG_INF, all_exact, scale_extended
from .treelp import node_direction, subtree_weights, tree_lp
from .utility import UtilityFunction, conjugate, conjugate_marginal

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DualMeasure:
    """Nonnegative measure on leaves, stored with the reference leaf
    probabilities it is absolutely continuous against."""

    weights: tuple
    probabilities: tuple
    alpha: object = None  # cached support value, filled by the solvers

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

    def normalized(self):
        m = self.mass
        if m == 0:
            raise ValueError("cannot normalize the zero measure")
        return DualMeasure(tuple(w / m for w in self.weights), self.probabilities)

    def scaled(self, lam):
        return DualMeasure(tuple(lam * w for w in self.weights),
                           self.probabilities,
                           None if self.alpha is None
                           else scale_extended(lam, self.alpha))


def measure_from_weights(market: MarketModel, weights) -> DualMeasure:
    return DualMeasure(tuple(weights), market.tree.leaf_probabilities())


# ---------------------------------------------------------------------------
# support function of the attainable set


def support_alpha(market: MarketModel, measure, zero_tol=0.0) -> object:
    """sup over admissible portfolios of the measure-weighted terminal gains.

    +inf when some node's constraint set is unbounded in the induced
    direction.  Positively homogeneous: scaling the measure scales the value
    (with 0 * inf = 0).

    zero_tol is the float-mode noise floor: induced direction components
    with magnitude at or below it are treated as exact zeros, so measures
    produced by float LPs can sit on equality faces (e.g. the martingale
    face) without the support value spuriously exploding.  Exact-mode
    callers leave it at 0.
    """
    weights = measure.weights if isinstance(measure, DualMeasure) else tuple(measure)
    if market.floor is None:
        total = 0
        mass = subtree_weights(market, weights)
        for i, cset in market.constraints:
            val = _support_with_floor_noise(cset, node_direction(market, mass, i),
                                            zero_tol)
            if val == INF:
                return INF
            total = total + val
        return total
    # intermediate-wealth floor couples the nodes: one stacked LP
    value, _ = _alpha_lp(market, weights)
    return value


def _clean(xi, zero_tol):
    if zero_tol == 0:
        return xi
    return tuple(0.0 if abs(float(v)) <= zero_tol else v for v in xi)


def _support_with_floor_noise(cset, xi, zero_tol):
    """Support value, retrying with denoised direction only when infinite.

    Finite values are never perturbed; the retry merely lets float-produced
    directions sit on equality faces they satisfy up to LP tolerance.
    """
    val = cset.support(xi)
    if val != INF or zero_tol == 0:
        return val
    cleaned = _clean(xi, zero_tol)
    if cleaned == tuple(xi):
        return val
    return cset.support(cleaned)


def alpha_argmax_gains(market: MarketModel, weights, zero_tol=0.0):
    """(alpha, per-leaf terminal gains of a sup-attaining portfolio).

    The gains vector is a subgradient of alpha at the given weights.
    Returns (inf, None) off the finite face.
    """
    if market.floor is None:
        mass = subtree_weights(market, weights)
        holdings = {}
        total = 0
        for i, cset in market.constraints:
            xi = node_direction(market, mass, i)
            val, point = cset.support_argmax(xi)
            if point is None and zero_tol > 0:
                val, point = cset.support_argmax(_clean(xi, zero_tol))
            if point is None:
                return INF, None
            holdings[i] = point
            total = total + val
        from .market import PortfolioProcess, wealth_process

        gains = wealth_process(market, PortfolioProcess(holdings), 0)
        return total, gains.leaf_values(market)
    value, x = _alpha_lp(market, weights)
    if x is None:
        return INF, None
    gains = tuple(sum(a * b for a, b in zip(row, x)) for row in tree_lp(market).L)
    return value, gains


def _alpha_lp(market, weights):
    lp = tree_lp(market)
    if market.exact and all_exact(weights):
        c = [-sum(w * row[j] for w, row in zip(weights, lp.L))
             for j in range(lp.n_h)]
        res = solve_lp(c, A_ub=lp.A, b_ub=lp.b, exact=True)
    else:
        c = -(lp.L_f.T @ np.asarray(weights, dtype=float))
        res = solve_lp(c, A_ub=lp.A_f, b_ub=lp.b_f)
    if res.status == UNBOUNDED:
        return INF, None
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
    if maximize_payoff is not None:
        c = [-v for v in maximize_payoff] + list(lp.b)
    else:
        c = list(q_objective) + [mu_cost_scale * v for v in lp.b]
    if not exact:
        c = [float(v) for v in c]
    res = solve_lp(c, A_eq=A_eq, b_eq=b_eq, exact=exact, nonneg=nonneg)
    return res, len(lp.p)


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

    The two optimizations are solved as separate LPs; they are dual to each
    other, so their agreement is an LP-duality identity, and the critical
    initial wealth is the negation.
    """
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
        minimizer = DualMeasure(minimizer.weights, minimizer.probabilities,
                                inf_alpha)

    sup_essinf = _sup_essinf(market)
    if inf_alpha == INF:
        xbar = NEG_INF
    elif inf_alpha == NEG_INF:
        xbar = INF
    else:
        xbar = -inf_alpha
    return MinSupportResult(inf_alpha, sup_essinf, xbar, minimizer)


def _sup_essinf(market):
    lp = tree_lp(market)
    # variables (H, m): m - gains_l <= 0 on every leaf
    A2 = [row + (0,) for row in lp.A] + [tuple(-v for v in row) + (1,)
                                         for row in lp.L]
    b2 = list(lp.b) + [0] * len(lp.L)
    res = solve_lp([0] * lp.n_h + [-1], A_ub=A2, b_ub=b2, exact=market.exact)
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

    Solved twice: directly (min x with x + gains >= payoff) and through the
    measure-side LP (max expected payoff minus the support penalty).  Both
    values are returned so LP duality is observable; the witness measure
    comes from the measure-side solution and certifies prices > 0 in the
    claim-membership test.
    """
    payoff = tuple(payoff)
    leaves = market.tree.leaves
    if len(payoff) != len(leaves):
        raise ValueError("payoff must assign one value per leaf")
    lp = tree_lp(market)
    exact = market.exact and all_exact(payoff)

    # primal: variables (x, H), x + gains_l >= payoff_l on every leaf
    A2 = [(0,) + row for row in lp.A] + [(-1,) + tuple(-v for v in row)
                                         for row in lp.L]
    b2 = list(lp.b) + [-f for f in payoff]
    res = solve_lp([1] + [0] * lp.n_h, A_ub=A2, b_ub=b2, exact=exact)
    if res.status == INFEASIBLE:
        # cannot happen once constraint sets are nonempty
        raise RuntimeError("superhedging LP infeasible")
    if res.status == UNBOUNDED:
        price, x = NEG_INF, None
    else:
        price, x = res.value, res.x

    dual_res, n_leaves = _lifted_lp(market, None, maximize_payoff=payoff)
    if dual_res.status == OPTIMAL:
        witness = measure_from_weights(market, dual_res.x[:n_leaves])
        dual_value = -dual_res.value
    else:
        witness, dual_value = None, NEG_INF

    essinf = _sup_essinf(market)
    bound = abs(essinf) if essinf not in (INF, NEG_INF) else INF
    return SuperhedgeResult(price, x, dual_value, witness, bound)


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


def dual_objective(market: MarketModel, utility: UtilityFunction, y, weights,
                   zero_tol=0.0):
    """E[V(y dQ/dP)] + y alpha(Q) for a mass-one measure Q."""
    probs = market.tree.leaf_probabilities()
    total = 0.0
    for w, p in zip(weights, probs):
        density = max(float(w), 0.0) / float(p)
        v = conjugate(utility, y * density)
        if v == INF:
            return INF
        total += float(p) * v
    a = support_alpha(market, weights, zero_tol)
    if a == INF:
        return INF
    return total + y * float(a)


def _objective_subgradient(market, utility, y, weights, zero_tol=0.0):
    """Per-leaf subgradient of the dual objective at an interior point."""
    probs = market.tree.leaf_probabilities()
    alpha, gains = alpha_argmax_gains(market, weights, zero_tol)
    if gains is None:
        return None
    grad = []
    for w, p, gain in zip(weights, probs, gains):
        density = max(float(w), 0.0) / float(p)
        z = y * density
        if z <= 0:
            return None  # boundary point: the conjugate slope may blow up
        vprime = conjugate_marginal(utility, z)[1]
        grad.append(y * vprime + y * float(gain))
    return np.asarray(grad)


def _max_margin_measure(market, multipliers=True):
    """(q, t): a leaf measure maximizing the margin t in q >= t p, found by
    a float LP over the lifted polytope with margin t <= 1; None when that
    LP has no optimum.

    With multipliers q ranges over the finite-alpha face; without them it
    must give zero drift at every node (a martingale measure).
    """
    lp = tree_lp(market)
    n = len(lp.p)
    A_eq, b_eq, nonneg = lp.lifted(False, extra=1, multipliers=multipliers)
    A_ub = np.zeros((n + 1, A_eq.shape[1]))
    A_ub[:n, :n] = -np.eye(n)  # q_k >= t p_k
    A_ub[:n, -1] = lp.p_f
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


def _face_equality_basis(market):
    """Equality rows pinning the face's affine hull: the mass-one row plus
    the components of L^T q outside the span of the stacked constraint
    rows, which must vanish for the support value to stay finite."""
    lp = tree_lp(market)
    A, L = lp.A_f, lp.L_f
    n = L.shape[0]
    rows = [np.ones(n)]
    if len(A):
        u, s, vt = np.linalg.svd(A, full_matrices=True)
        rank = int((s > 1e-10 * max(1.0, s[0] if len(s) else 1.0)).sum())
        null_basis = vt[rank:]  # orthocomplement of the row span
    else:
        null_basis = np.eye(L.shape[1])
    for w in null_basis:
        rows.append(L @ w)  # (L^T q) . w == q . (L w)
    E = np.asarray(rows)
    # keep an independent subset
    u, s, vt = np.linalg.svd(E, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum())
    return E, rank


def solve_dual(market: MarketModel, utility: UtilityFunction, y,
               tol=1e-8, max_iter=4000) -> DualSolution:
    """Minimize E[V(y dQ/dP)] + y alpha(Q) over mass-one measures Q.

    Piecewise-linear conjugates make the whole problem one epigraph LP and
    are solved that way outright.  Otherwise the finite-alpha face is
    pinned down first (its affine hull comes from the equality part of the
    support-penalty domain); the remaining free directions are searched by
    golden section (one direction) or a feasible-descent subgradient pass
    plus an SQP solve of the lifted multiplier form (more).  The reported
    gap is the distance to the best subgradient-minorant lower bound, and
    `attained` means that gap was closed to tolerance at a point of the
    closed face.
    """
    if y <= 0:
        raise ValueError("the dual is solved for y > 0")
    q0 = _face_interior_point(market)
    if q0 is None:
        return DualSolution(INF, None, False, INF, y=y)
    zero_tol = _noise_floor(market)

    E, rank = _face_equality_basis(market)
    u, s, vt = np.linalg.svd(E, full_matrices=True)
    basis = vt[rank:]  # null space of the equality rows: free directions
    k = basis.shape[0]

    evals = [0]

    def g(q):
        evals[0] += 1
        return dual_objective(market, utility, y, tuple(q), zero_tol)

    lines = _conjugate_lines(utility)
    q_lp = None
    if lines is not None:
        # piecewise-linear conjugate: the whole dual is one epigraph LP
        q_lp = _piecewise_dual_lp(market, utility, y, lines)

    if q_lp is not None:
        q_best, f_best = q_lp, g(q_lp)
    elif k == 0:
        value = g(q0)
        measure = measure_from_weights(market, tuple(float(v) for v in q0)).scaled(y)
        return DualSolution(value, measure, True, 0.0, evals[0], y)
    elif k == 1:
        direction = basis[0]
        t_lo, t_hi = _face_segment(market, q0, direction)
        t_best, f_best, iters = _golden_section(
            lambda t: g(np.clip(q0 + t * direction, 0.0, None)), t_lo, t_hi, tol)
        q_best = np.clip(q0 + t_best * direction, 0.0, None)
    else:
        q_best, f_best, iters = _feasible_descent(
            market, utility, y, q0, basis, g, tol, max_iter, zero_tol)
        if utility.smooth:
            # the support penalty is the only nonsmooth term; in the lifted
            # multiplier form the whole program is smooth with linear
            # constraints, which an SQP solve handles far better than
            # subgradient steps once several free directions remain
            q_smooth = _lifted_smooth_solve(market, utility, y, q0)
            if q_smooth is not None:
                f_smooth = g(q_smooth)
                if f_smooth < f_best:
                    q_best, f_best = q_smooth, f_smooth

    lower = _minorant_lower_bound(market, utility, y, q_best, zero_tol)
    gap = max(0.0, float(f_best) - lower) if lower != NEG_INF else INF
    measure = measure_from_weights(
        market, tuple(float(v) for v in q_best)).scaled(y)
    attained = gap <= max(tol, 1e-6 * max(1.0, abs(float(f_best))))
    return DualSolution(f_best, measure, attained, gap, evals[0], y)


def _face_segment(market, q0, direction):
    """Feasible t-range of q0 + t * direction within the lifted polytope."""
    lp = tree_lp(market)
    n_mu = len(lp.b_f)
    # variables (t, mu): q0 + t d >= 0, A^T mu = L^T (q0 + t d), mu >= 0
    A_ub = np.zeros((len(q0), 1 + n_mu))
    A_ub[:, 0] = -np.asarray(direction)
    A_eq = np.hstack([-(lp.L_f.T @ direction)[:, None], lp.A_f.T])
    b_eq = lp.L_f.T @ q0
    out = []
    for sign in (1, -1):
        res = solve_lp([sign] + [0.0] * n_mu, A_ub=A_ub, b_ub=q0,
                       A_eq=A_eq, b_eq=b_eq, nonneg=range(1, 1 + n_mu))
        if res.status == UNBOUNDED:  # cannot happen: the simplex is bounded
            out.append(INF if sign < 0 else NEG_INF)
        else:
            out.append(res.x[0])
    return min(out), max(out)


def _golden_section(fn, lo, hi, tol):
    """Golden-section minimization; stops the first time the bracket is
    within tol so achieved accuracy tracks the requested tolerance."""
    a, b = float(lo), float(hi)
    iters = 0
    if b - a < 1e-15:
        t = 0.5 * (a + b)
        return t, fn(t), 1
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        iters += 1
        if iters > 400:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    t = c if fc <= fd else d
    return t, min(fc, fd), iters


def _feasible_descent(market, utility, y, q0, basis, g, tol, max_iter,
                      zero_tol):
    """Backtracked subgradient descent in the face's free directions."""
    q = q0.copy()
    f = g(q)
    best_q, best_f = q.copy(), f
    step = 0.5
    steps_taken = 0
    for _ in range(max_iter):
        steps_taken += 1
        grad = _objective_subgradient(market, utility, y, tuple(q), zero_tol)
        if grad is None or not np.isfinite(grad).all():
            break
        reduced = basis @ grad
        norm = float(np.linalg.norm(reduced))
        if norm <= tol:
            break
        d = -(basis.T @ reduced) / norm
        s = step
        improved = False
        for _ in range(40):
            cand = q + s * d
            if (cand >= -1e-15).all():
                cand = np.clip(cand, 0.0, None)
                cand /= cand.sum()
                fc = g(cand)
                if fc < f:
                    q, f = cand, fc
                    improved = True
                    break
            s *= 0.5
        if not improved:
            step *= 0.5
            if step < 1e-14:
                break
        else:
            step = min(s * 2.0, 1.0)
        if f < best_f:
            best_q, best_f = q.copy(), f
    return best_q, best_f, steps_taken


def _lifted_smooth_solve(market, utility, y, q0):
    """SQP solve of min E[V(y q/p)] + y b . mu over the lifted polytope.

    For fixed q the inner minimum over mu >= 0 of b . mu subject to
    A^T mu = L^T q is exactly the support penalty, so this program equals
    the dual restricted to the finite face, with the nonsmoothness traded
    for multiplier variables.  Smooth conjugates only.
    """
    from scipy.optimize import minimize

    lp = tree_lp(market)
    probs, bf = lp.p_f, lp.b_f
    n, n_mu = len(probs), len(bf)
    E, e, _ = lp.lifted(False)

    # feasible multipliers for the starting measure
    target = lp.L_f.T @ q0
    if n_mu:
        res = solve_lp(bf, A_eq=lp.A_f.T, b_eq=target, nonneg=range(n_mu))
        if res.status != OPTIMAL:
            return None
        mu0 = np.asarray(res.x)
    else:
        if np.abs(target).max(initial=0.0) > 1e-9:
            return None
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
    for _ in range(8):
        result = minimize(fun, z, jac=jac, method="SLSQP",
                          bounds=[(0.0, None)] * (n + n_mu),
                          constraints=[{"type": "eq", "fun": lambda w: E @ w - e,
                                        "jac": lambda w: E}],
                          options={"maxiter": 300, "ftol": 1e-14})
        if not result.fun < best:
            break
        z, best = result.x, result.fun
    q = np.clip(z[:n], 0.0, None)
    if abs(q.sum() - 1.0) > 1e-6:
        return None
    return q


def _conjugate_lines(utility):
    """(value, slope-coefficient) pairs with V(z) = max_i (v_i - b_i z), or
    None when the conjugate is not piecewise linear.  The final entry of the
    second element is the domain edge: V = +inf below it."""
    from .utility import PiecewiseLinearUtility, TabulatedUtility

    if isinstance(utility, PiecewiseLinearUtility):
        vals = utility._knot_values()
        lines = [(v, b) for v, b, s in
                 zip(vals, utility.breakpoints, utility.slopes) if s != INF]
        if utility.slopes[0] == INF:
            lines.append((vals[1], utility.breakpoints[1]))
        finite_slopes = [s for s in utility.slopes if s != INF]
        return lines, finite_slopes[-1]
    if isinstance(utility, TabulatedUtility):
        slopes = utility._segment_slopes()
        lines = [(v, x) for v, x in zip(utility.values, utility.grid)]
        lines.append((utility.inf_value(), 0.0))
        return lines, slopes[-1]
    return None


def _piecewise_dual_lp(market, utility, y, lines_and_edge):
    """Exact dual solve for piecewise-linear conjugates.

    Epigraph variables t per leaf replace V(y q/p): t_l >= v_i - b_i y
    q_l / p_l per supporting line; the support penalty enters through its
    multiplier form as usual.  One LP, no iterations.
    """
    lines, domain_edge = lines_and_edge
    lp = tree_lp(market)
    probs = lp.p_f
    n, n_mu = len(probs), len(lp.b_f)
    A_eq, b_eq, nonneg = lp.lifted(False, extra=n)  # columns q, mu, t
    total = A_eq.shape[1]
    y = float(y)

    A_ub, b_ub = [], []
    for k in range(n):
        if domain_edge > 0:  # V infinite below the final slope
            row = [0.0] * total
            row[k] = -1.0
            A_ub.append(row)
            b_ub.append(-probs[k] * float(domain_edge) / y)
        for v_i, b_i in lines:
            row = [0.0] * total
            row[k] = float(b_i) * y / probs[k]
            row[n + n_mu + k] = -1.0
            A_ub.append(row)
            b_ub.append(-float(v_i))

    c = np.concatenate([np.zeros(n), y * lp.b_f, probs])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   nonneg=nonneg)
    if res.status != OPTIMAL:
        return None
    return np.clip(np.asarray(res.x[:n], dtype=float), 0.0, None)


def _minorant_lower_bound(market, utility, y, q_hat, zero_tol=0.0):
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