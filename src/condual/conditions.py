"""Certificates for the no-arbitrage-flavoured sufficient conditions.

Three checks feed the main one: the admissible class is nonempty, every
projected constraint set is closed, and there is a triple (Q, H-hat, A) of a
strictly positive leaf measure, an admissible reference portfolio, and a
nondecreasing compensator such that relative gains minus the compensator are
a Q-supermartingale for every admissible portfolio simultaneously.  On a
finite tree that supermartingale property is the per-node inequality

    sup_{h in constraint set} (h - H_hat(n)) . beta(n) <= dA(n),

with beta(n) the conditional one-step drift under Q, and the compensator
increment dA(n) = (support of the constraint set at beta(n)) - H_hat(n) .
beta(n) makes it hold with equality, provided that support value is finite.

When these certify, the attainable-claim set from any initial wealth is
bounded and closed; the converse is not claimed (the search reports "not
certified", never "condition false").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .convex import Cone, ProjectionMatrix, _unit, min_norm_solution, \
    predictable_range_projection, projected_set_closed
from .dual import measure_from_weights
from .linprog import OPTIMAL, solve_lp
from .market import MarketModel, PortfolioProcess, is_admissible
from .primal import find_free_lunch_direction
from .scalars import INF, all_exact, gauss_jordan
from .treelp import MARGIN_TOL, node_direction, subtree_weights, tree_lp


# ---------------------------------------------------------------------------
# condition (1): the admissible class is nonempty


@dataclass
class NonemptyReport:
    nonempty: bool
    witness: PortfolioProcess | None

    def __bool__(self):
        return self.nonempty


def check_nonempty(market: MarketModel) -> NonemptyReport:
    """Select one point per constraint set; fall back to a phase-1 LP when a
    floor couples the nodes."""
    holdings = {i: market.constraint(i).center() for i in market.tree.nonleaf}
    witness = PortfolioProcess(holdings)
    if is_admissible(market, witness):
        return NonemptyReport(True, witness)
    if market.floor is None:  # centers are in their sets by construction
        return NonemptyReport(False, None)  # pragma: no cover
    lp = tree_lp(market)
    if not lp.polyhedral:
        return NonemptyReport(False, None)
    A, b = lp.rows(market.exact)[:2]
    res = solve_lp([0] * lp.n_h, A_ub=A, b_ub=b, exact=market.exact)
    if res.status != OPTIMAL:
        return NonemptyReport(False, None)
    return NonemptyReport(True, lp.portfolio(res.x))


# ---------------------------------------------------------------------------
# condition (2): projected constraint sets are closed


@dataclass
class ClosednessReport:
    verdicts: dict  # node id -> (verdict, reason)
    overall: str    # "true" | "unknown"

    def __bool__(self):
        return self.overall == "true"


def check_projected_closedness(market: MarketModel) -> ClosednessReport:
    verdicts = {}
    for i in market.tree.nonleaf:
        node = market.tree.nodes[i]
        increments = [market.increment(c) for c in node.children]
        projection = predictable_range_projection(increments)
        verdicts[node.node_id] = projected_set_closed(projection,
                                                      market.constraint(i))
    overall = "true" if all(v == "true" for v, _ in verdicts.values()) else "unknown"
    return ClosednessReport(verdicts, overall)


# ---------------------------------------------------------------------------
# condition (3): supermartingale triple


@dataclass
class SupermartingaleCertificate:
    certified: bool
    stage: str | None = None  # martingale-measure | reference-compensator | searched-measure
    measure: object = None            # DualMeasure, mass 1, strictly positive
    reference: PortfolioProcess | None = None
    compensator: dict = field(default_factory=dict)  # node id -> dA >= 0
    drifts: dict = field(default_factory=dict)       # node id -> beta vector
    failure_node: str | None = None
    failure_direction: tuple | None = None
    notes: list = field(default_factory=list)

    def __bool__(self):
        return self.certified

    @property
    def total_compensator(self):
        """Largest accumulated compensator over root-to-leaf paths."""
        if not self.certified:
            return None
        return max(self._path_sum(leaf) for leaf in self._market.tree.leaves)

    def _path_sum(self, leaf):
        tree = self._market.tree
        total = 0
        for i in tree.path_to_leaf(leaf)[:-1]:
            total = total + self.compensator[tree.nodes[i].node_id]
        return total


def check_supermartingale_condition(market: MarketModel) -> SupermartingaleCertificate:
    """Search for the certificate triple in three documented stages:

    (i)   an equivalent martingale measure, the max-margin measure of the
          zero-drift rows (then the reference portfolio is any admissible
          selection and the compensator vanishes),
    (ii)  the reference measure itself plus the support-value compensator,
    (iii) only when (ii) fails, the max-margin measure of the finite-alpha
          face, which keeps every node's support value finite, again with
          the compensator.

    Stages (i) and (iii) need a margin above MARGIN_TOL and, on an exact
    market, a rounding of it that satisfies their rows exactly.  Failure
    of all three yields "not certified" with a witness node and escape
    direction; the condition is sufficient only, so no claim of falsity is
    made.
    """
    cert = _try_martingale_measure(market) or _compensator_certificate(
        market, "reference-compensator", market.tree.leaf_probabilities()) \
        or _compensator_certificate(
            market, "searched-measure",
            _positive_measure_lp(market, require_zero_drift=False))
    if cert is not None:
        cert._market = market
        return cert
    failure = _failure_witness(market)
    out = SupermartingaleCertificate(False, failure_node=failure[0],
                                     failure_direction=failure[1])
    out.notes.append("all three search stages failed; the sufficient "
                     "condition could not be certified (this is not a "
                     "proof of failure)")
    out._market = market
    return out


def _admissible_reference(market, drifts=None):
    """Reference portfolio: all-zero when admissible, else the per-node
    support argmax against the drift (attained whenever finite), else the
    center selection."""
    zero = PortfolioProcess.constant(market, (0,) * market.dim)
    if is_admissible(market, zero):
        return zero
    if drifts is not None:
        holdings = {}
        for i, cset in market.constraints:
            _, point = cset.support_argmax(drifts[i])
            if point is None:
                holdings = None
                break
            holdings[i] = point
        if holdings is not None:
            cand = PortfolioProcess(holdings)
            if is_admissible(market, cand):
                return cand
    cand = PortfolioProcess({i: market.constraint(i).center()
                             for i in market.tree.nonleaf})
    return cand if is_admissible(market, cand) else None


def _try_martingale_measure(market):
    """Stage (i): strictly positive leaf measure with zero conditional
    drift at every node (the max-margin measure of the zero-drift rows)."""
    weights = _positive_measure_lp(market, require_zero_drift=True)
    if weights is None:
        return None
    reference = _admissible_reference(market)
    if reference is None:
        return None
    zero = Fraction(0) if all_exact(weights) else 0.0
    return SupermartingaleCertificate(
        True, "martingale-measure",
        measure_from_weights(market, weights),
        reference,
        {market.tree.nodes[i].node_id: zero for i in market.tree.nonleaf},
        {market.tree.nodes[i].node_id: _conditional_drift(market, weights, i)
         for i in market.tree.nonleaf},
        notes=["zero-drift measure found: the compensator vanishes"],
    )


def _compensator_certificate(market, stage, weights):
    """Stages (ii)/(iii): fixed measure, compensator from support values;
    None when there are no weights (stage (iii) found no measure)."""
    if weights is None:
        return None
    drifts = {i: _conditional_drift(market, weights, i)
              for i in market.tree.nonleaf}
    reference = _admissible_reference(market, drifts)
    if reference is None:
        return None
    compensator = {}
    for i in market.tree.nonleaf:
        cset = market.constraint(i)
        beta = drifts[i]
        support = cset.support(beta)
        if support == INF:
            return None
        increment = support - sum(h * b for h, b in zip(reference[i], beta))
        compensator[market.tree.nodes[i].node_id] = increment
    return SupermartingaleCertificate(
        True, stage, measure_from_weights(market, weights), reference,
        compensator,
        {market.tree.nodes[i].node_id: drifts[i] for i in market.tree.nonleaf},
    )


def _conditional_drift(market, weights, node):
    mass = subtree_weights(market, weights)
    xi = node_direction(market, mass, node)
    return tuple(v / mass[node] for v in xi)


def _positive_measure_lp(market, require_zero_drift):
    """Strictly positive leaf weights from TreeLP.max_margin, rounded to
    rationals on an exact market; None when there are none.

    With zero drift required the rows pin every induced direction to zero;
    otherwise they only require a nonnegative-multiplier representation,
    i.e. membership of the barrier cone (finite support value).
    """
    lp = tree_lp(market)
    if not lp.polyhedral:
        return None
    found = lp.max_margin(multipliers=not require_zero_drift)
    if found is None or found[1] <= MARGIN_TOL:
        return None
    if market.exact:
        return _snap_rational(market, found[0], require_zero_drift)
    return tuple(found[0])


def _snap_rational(market, weights, require_zero_drift):
    """Try to turn a float LP measure into nearby small rationals that still
    satisfy the defining constraints exactly; None when none does."""
    for denom_cap in (24, 360, 10 ** 6):
        cand = [Fraction(w).limit_denominator(denom_cap) for w in weights]
        total = sum(cand)
        if total == 0:
            continue
        cand = [w / total for w in cand]
        if any(w <= 0 for w in cand):
            continue
        if require_zero_drift:
            mass = subtree_weights(market, cand)
            ok = all(all(v == 0 for v in node_direction(market, mass, i))
                     for i in market.tree.nonleaf)
        else:
            ok = all(market.constraint(i).support(
                _conditional_drift(market, cand, i)) != INF
                for i in market.tree.nonleaf)
        if ok:
            return tuple(cand)
    return None


def _failure_witness(market):
    """Node at which the reference measure explodes the support value, plus
    an escaping recession ray with positive drift product."""
    probs = market.tree.leaf_probabilities()
    for i in market.tree.nonleaf:
        beta = _conditional_drift(market, probs, i)
        cset = market.constraint(i)
        if cset.support(beta) == INF:
            ray = _escaping_ray(cset.recession(), beta, market.exact)
            return market.tree.nodes[i].node_id, ray
    return None, None


def _escaping_ray(cone: Cone, beta, exact):
    """Recession ray with positive inner product against beta, boxed to stay
    bounded; certifies the infinite support value."""
    rows = [list(r) for r in cone.as_halfspace().rows]
    d = cone.dim
    flat = rows + [_unit(d, j, s) for j in range(d) for s in (1, -1)]
    b = [0] * len(rows) + [1] * (2 * d)
    res = solve_lp([-v for v in beta], A_ub=flat, b_ub=b, exact=exact)
    if res.status == OPTIMAL and -res.value > 0:
        return tuple(res.x)
    return None


def certificate_inequality_residual(market, cert, portfolio):
    """max over nodes of E_Q[(H - H_hat) . dS | node] - dA(node); a valid
    certificate keeps this at or below zero for every admissible H."""
    weights = cert.measure.weights
    worst = None
    for i in market.tree.nonleaf:
        nid = market.tree.nodes[i].node_id
        beta = cert.drifts[nid]
        diff = [a - b for a, b in zip(portfolio[i], cert.reference[i])]
        lhs = sum(d * v for d, v in zip(diff, beta))
        resid = lhs - cert.compensator[nid]
        worst = resid if worst is None else max(worst, resid)
    return worst


# ---------------------------------------------------------------------------
# the drift condition at a single node


@dataclass
class DriftResult:
    feasible: bool
    mu_hat: tuple | None = None
    nu: tuple | None = None
    beta: tuple | None = None

    def __bool__(self):
        return self.feasible


def check_drift_condition(span, drift, barrier: Cone) -> DriftResult:
    """Does the span of the volatility directions meet drift - barrier-cone?

    `span` is either a ProjectionMatrix or a list of spanning vectors; on
    success the returned mu_hat lies in the span, nu is the minimal-norm
    coordinate vector with basis @ nu = mu_hat, and beta = drift - mu_hat
    lies in the barrier cone (exactly so for rational inputs).
    """
    if isinstance(span, ProjectionMatrix):
        basis = _projection_basis(span)
    else:
        basis = [tuple(v) for v in span]
    basis = [b for b in basis if any(v != 0 for v in b)]
    d = len(drift)
    exact = all_exact([v for vec in basis for v in vec]) and all_exact(drift) \
        and barrier.exact
    k = len(basis)
    if k == 0:
        # trivial span: the condition reduces to drift in the barrier cone
        if barrier.contains(drift, tol=0 if exact else 1e-9):
            zero = tuple(0 * v for v in drift)
            return DriftResult(True, zero, (), tuple(drift))
        return DriftResult(False)
    barrier_h = barrier if barrier.rep == "halfspace" else None

    if barrier_h is not None:
        # variables nu (k): mu_hat = sum nu_i basis_i; G (drift - mu_hat) <= 0
        A_ub, b_ub = [], []
        for row in barrier_h.rows:
            coeff = [-sum(row[j] * basis[i][j] for j in range(d)) for i in range(k)]
            A_ub.append(coeff)
            b_ub.append(-sum(r * m for r, m in zip(row, drift)))
        res = solve_lp([0] * k, A_ub=A_ub or None, b_ub=b_ub or None, exact=exact)
        if res.status != OPTIMAL:
            return DriftResult(False)
        nu0 = res.x
    else:
        # generator barrier: drift - basis^T nu = sum lambda_i g_i, lambda >= 0
        gens = [list(r) for r in barrier.rows]
        m = len(gens)
        A_eq = []
        b_eq = list(drift)
        for j in range(d):
            row = [basis[i][j] for i in range(k)] + [gens[g][j] for g in range(m)]
            A_eq.append(row)
        res = solve_lp([0] * (k + m), A_eq=A_eq, b_eq=b_eq, exact=exact,
                       nonneg=range(k, k + m))
        if res.status != OPTIMAL:
            return DriftResult(False)
        nu0 = res.x[:k]

    mu_hat = tuple(sum(basis[i][j] * nu0[i] for i in range(k)) for j in range(d))
    matrix = [[basis[i][j] for i in range(k)] for j in range(d)]
    nu = min_norm_solution(matrix, mu_hat)
    beta = tuple(m - h for m, h in zip(drift, mu_hat))
    if not barrier.contains(beta, tol=0 if exact else 1e-9):
        return DriftResult(False)  # pragma: no cover - LP guarantees this
    return DriftResult(True, mu_hat, tuple(nu), beta)


def _projection_basis(projection: ProjectionMatrix):
    """A basis of the range of the projection: exactly, the columns of the
    matrix that no earlier columns span (the pivot columns of
    :func:`gauss_jordan`), as Fractions; in floats, the leading left
    singular vectors."""
    cols = [tuple(row[j] for row in projection.matrix)
            for j in range(projection.dim)]
    if projection.exact:
        _, pivots = gauss_jordan(projection.matrix)
        return [tuple(Fraction(v) for v in cols[j]) for j in pivots]
    import numpy as np

    arr = np.asarray([[float(v) for v in c] for c in cols]).T
    u, s, _ = np.linalg.svd(arr)
    rank = int((s > 1e-10 * max(1.0, s[0])).sum())
    return [tuple(float(v) for v in u[:, i]) for i in range(rank)]


# ---------------------------------------------------------------------------
# the headline check


@dataclass
class ConvexCompactnessResult:
    verdict: str  # "true" | "false" | "unknown"
    bounded: bool
    closedness: ClosednessReport
    escape_direction: PortfolioProcess | None = None

    def __bool__(self):
        return self.verdict == "true"


def check_convex_compactness(market: MarketModel, x=0) -> ConvexCompactnessResult:
    """Bounded + closed attainable-claim set, finite-tree style.

    Boundedness fails exactly when some admissible recession direction has
    nonnegative terminal gains on every leaf and positive somewhere (the
    free-lunch LP); closedness comes from the projected-constraint check.
    The initial wealth x shifts the set without changing either property;
    it is accepted for interface fidelity.
    """
    direction = find_free_lunch_direction(market)
    closedness = check_projected_closedness(market)
    if direction is not None:
        return ConvexCompactnessResult("false", False, closedness, direction)
    verdict = "true" if closedness.overall == "true" else "unknown"
    return ConvexCompactnessResult(verdict, True, closedness)
