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
The drifts and support values come from the pass and the face rule of the
support function (:func:`condual.market.node_directions`,
:func:`condual.dual.face_supports`).

When these certify, the attainable-claim set from any initial wealth is
bounded and closed; the converse is not claimed (the search reports "not
certified", never "condition false").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .convex import Cone, projected_set_closed
from .dual import face_supports, measure_from_weights
from .linprog import OPTIMAL, solve_lp
from .market import MarketModel, PortfolioProcess, is_admissible, \
    node_directions
from .primal import find_free_lunch_direction
from .scalars import INF, all_exact
from .treelp import MARGIN_TOL, tree_lp


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
    floor couples the nodes.  That LP needs every set's halfspace form:
    when the centers break the floor and some set has none, it raises
    NotImplementedError rather than report an empty class."""
    holdings = {i: market.constraint(i).center() for i in market.tree.nonleaf}
    witness = PortfolioProcess(holdings)
    if is_admissible(market, witness):
        return NonemptyReport(True, witness)
    if market.floor is None:  # centers are in their sets by construction
        return NonemptyReport(False, None)  # pragma: no cover
    lp = tree_lp(market)
    lp.require_polyhedral()
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
    """Is each constraint set's projection onto the span of its node's
    price increments closed?  The criteria of :func:`projected_set_closed`
    read the set alone, so no projection is built."""
    verdicts = {market.tree.nodes[i].node_id:
                projected_set_closed(cset)
                for i, cset in market.constraints}
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
    # largest compensator accumulated along a root-to-leaf path, when
    # certified; derived from compensator
    total_compensator: object = field(default=None, repr=False)

    def __bool__(self):
        return self.certified


def check_supermartingale_condition(market: MarketModel) -> SupermartingaleCertificate:
    """Search for the certificate triple in three documented stages:

    (i)   an equivalent martingale measure, the max-margin measure of the
          zero-drift rows (then the reference portfolio is any admissible
          selection and the compensator vanishes),
    (ii)  the reference measure itself plus the support-value compensator,
    (iii) only when (ii) fails, the max-margin measure of the finite-alpha
          face, which keeps every node's support value finite, again with
          the compensator.

    Stages (i) and (iii) need a margin above MARGIN_TOL.  On an exact
    market their measure is the exact vertex of that LP, which satisfies
    their rows exactly: it is not rounded.  Failure of all three yields
    "not certified" with a witness node and escape direction; the condition
    is sufficient only, so no claim of falsity is made.
    """
    cert = _try_martingale_measure(market) or _compensator_certificate(
        market, "reference-compensator", market.tree.leaf_probabilities()) \
        or _compensator_certificate(
            market, "searched-measure",
            _positive_measure_lp(market, require_zero_drift=False))
    if cert is not None:
        return cert
    failure = _failure_witness(market)
    out = SupermartingaleCertificate(False, failure_node=failure[0],
                                     failure_direction=failure[1])
    out.notes.append("all three search stages failed; the sufficient "
                     "condition could not be certified (this is not a "
                     "proof of failure)")
    return out


def _admissible_reference(market, drifts=None):
    """Reference portfolio: all-zero when admissible, else the per-node
    support argmax against the drift (attained whenever finite), else the
    center selection."""
    zero = PortfolioProcess.constant(market, (0,) * market.dim)
    if is_admissible(market, zero):
        return zero
    if drifts is not None:
        cand = PortfolioProcess({i: cset.support_argmax(drifts[i])[1]
                                 for i, cset in market.constraints})
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
        {market.tree.nodes[i].node_id: drift
         for i, drift in _conditional_drifts(market, weights).items()},
        notes=["zero-drift measure found: the compensator vanishes"],
        total_compensator=zero,
    )


def _compensator_certificate(market, stage, weights):
    """Stages (ii)/(iii): fixed measure, compensator from support values;
    None when there are no weights (stage (iii) found no measure).

    The support values, and the drifts under float weights, are those of
    :func:`~condual.dual.face_supports`, as in
    :func:`~condual.dual.support_alpha`.
    """
    if weights is None:
        return None
    supports = face_supports(market, _conditional_drifts(market, weights),
                             market.exact and all_exact(weights))
    if supports is None:
        return None
    drifts = {i: beta for i, (_, beta) in supports.items()}
    reference = _admissible_reference(market, drifts)
    if reference is None:
        return None
    compensator = {
        i: value - sum(h * b for h, b in zip(reference[i], drifts[i]))
        for i, (value, _) in supports.items()}
    tree = market.tree
    return SupermartingaleCertificate(
        True, stage, measure_from_weights(market, weights), reference,
        {tree.nodes[i].node_id: v for i, v in compensator.items()},
        {tree.nodes[i].node_id: beta for i, beta in drifts.items()},
        total_compensator=_largest_path_sum(tree, compensator),
    )


def _largest_path_sum(tree, increments):
    """The largest sum of increments[i] over the non-leaf nodes i of a
    root-to-leaf path, accumulated down the tree (parents come first)."""
    total = {tree.root: 0}
    for n in tree.nodes[1:]:
        total[n.index] = total[n.parent] + increments[n.parent]
    return max(total[leaf] for leaf in tree.leaves)


def _conditional_drifts(market, weights):
    """E[dS | node] at every non-leaf node under the leaf weights, from
    the one pass of :func:`~condual.market.node_directions`."""
    mass, xi = node_directions(market, weights)
    return {i: tuple(v / mass[i] for v in direction)
            for i, direction in xi.items()}


def _positive_measure_lp(market, require_zero_drift):
    """Strictly positive leaf weights from TreeLP.max_margin, in the
    market's arithmetic; None when there are none.

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
    return found[0]


def _failure_witness(market):
    """Node at which the reference measure explodes the support value, plus
    an escaping recession ray with positive drift product."""
    drifts = _conditional_drifts(market, market.tree.leaf_probabilities())
    for i, beta in drifts.items():
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
    flat = rows + list(Cone.zero(d).rows)
    b = [0] * len(rows) + [1] * (2 * d)
    res = solve_lp([-v for v in beta], A_ub=flat, b_ub=b, exact=exact)
    if res.status == OPTIMAL and -res.value > 0:
        return tuple(res.x)
    return None


def certificate_inequality_residual(market, cert, portfolio):
    """max over nodes of E_Q[(H - H_hat) . dS | node] - dA(node); a valid
    certificate keeps this at or below zero for every admissible H."""
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
# the headline check


@dataclass
class ConvexCompactnessResult:
    verdict: str  # "true" | "false" | "unknown"
    bounded: bool
    closedness: ClosednessReport
    escape_direction: PortfolioProcess | None = None

    def __bool__(self):
        return self.verdict == "true"


def check_convex_compactness(market: MarketModel) -> ConvexCompactnessResult:
    """Bounded + closed attainable-claim set, finite-tree style.

    Boundedness fails exactly when some admissible recession direction has
    nonnegative terminal gains on every leaf and positive somewhere (the
    free-lunch LP); closedness comes from the projected-constraint check.
    The initial wealth shifts the set without changing either property, so
    it is not an argument.
    """
    direction = find_free_lunch_direction(market)
    closedness = check_projected_closedness(market)
    if direction is not None:
        return ConvexCompactnessResult("false", False, closedness, direction)
    verdict = "true" if closedness.overall == "true" else "unknown"
    return ConvexCompactnessResult(verdict, True, closedness)
