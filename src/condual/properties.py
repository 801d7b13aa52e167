"""Seeded randomized invariant suite.

Each property draws fresh random instances from the given seed and checks
one structural identity end to end.  The suite is what the `properties`
subcommand runs; the same checks back the library's test suite, so this
module stays import-light and dependency-free beyond the package itself.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .conditions import (
    certificate_inequality_residual,
    check_convex_compactness,
    check_nonempty,
    check_projected_closedness,
    check_supermartingale_condition,
)
from .convex import Cone, polar_cone, predictable_range_projection, \
    recession_cone, support_function
from .dual import dual_objective, min_support, superhedge_price, support_alpha
from .market import wealth_process
from .primal import solve_primal
from .randomgen import (
    random_admissible_portfolio,
    random_direction,
    random_market,
    random_payoff,
    sample_point,
)
from .scalars import INF
from .utility import LogUtility, PowerUtility, conjugate, eval_utility, marginal

F = Fraction


@dataclass
class PropertyResult:
    name: str
    passed: bool
    cases: int
    detail: str
    seconds: float


def run_property_suite(seed: int, scale: int = 1):
    """Run every registered property; scale multiplies the case counts."""
    results = []
    for name, fn, cases in _REGISTRY:
        rng = random.Random(f"{seed}:{name}")
        count = max(1, cases * scale)
        start = time.perf_counter()
        try:
            detail = fn(rng, count)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        results.append(PropertyResult(name, passed, count,
                                      detail or "", time.perf_counter() - start))
    return results


def _property(name, cases):
    def wrap(fn):
        _REGISTRY.append((name, fn, cases))
        return fn

    return wrap


_REGISTRY = []


@_property("wealth-linearity", 10)
def _wealth_linearity(rng, cases):
    for _ in range(cases):
        market = random_market(rng)
        H = random_admissible_portfolio(rng, market)
        G = random_admissible_portfolio(rng, market)
        a, b = F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2)
        x = F(rng.randint(-2, 2))
        combined = wealth_process(market, H.combine(G, a, b), x)
        wh = wealth_process(market, H, 0)
        wg = wealth_process(market, G, 0)
        for i in range(len(market.tree.nodes)):
            expect = x + a * wh.values[i] + b * wg.values[i]
            assert combined.values[i] == expect, \
                f"wealth not affine at node {i}"
    return "nodewise exact over rational trees"


@_property("leaf-probabilities-sum", 20)
def _leaf_probs(rng, cases):
    for _ in range(cases):
        market = random_market(rng)
        assert sum(market.tree.leaf_probabilities()) == 1, \
            "leaf path probabilities do not sum to one"
    return "exact mass one"


@_property("admissibility-convexity", 10)
def _admissibility_convex(rng, cases):
    from .market import is_admissible

    for _ in range(cases):
        market = random_market(rng)
        H = random_admissible_portfolio(rng, market)
        G = random_admissible_portfolio(rng, market)
        lam = F(rng.randint(0, 12), 12)
        assert is_admissible(market, H.combine(G, lam, 1 - lam)), \
            "a convex combination of admissible portfolios left the class"
    return "mixtures stay admissible"


@_property("support-homogeneity-subadditivity", 120)
def _support_props(rng, cases):
    from .convex import set_from_json
    from .randomgen import random_constraint_doc

    for _ in range(cases):
        dim = rng.randint(1, 3)
        cset = set_from_json(random_constraint_doc(
            rng, dim, ("box", "halfline", "pin", "polyhedron")))
        xi = random_direction(rng, dim)
        eta = random_direction(rng, dim)
        lam = F(rng.randint(0, 6), 2)
        v = support_function(cset, xi)
        v_scaled = support_function(cset, tuple(lam * a for a in xi))
        if v == INF:
            assert lam == 0 or v_scaled == INF, "homogeneity lost at infinity"
        else:
            assert v_scaled == lam * v, "support not positively homogeneous"
        both = support_function(cset, tuple(a + b for a, b in zip(xi, eta)))
        parts = v + support_function(cset, eta)
        assert both <= parts, "support not subadditive"
    return "exact on rational sets"


@_property("polar-polar-roundtrip", 40)
def _polar_roundtrip(rng, cases):
    for _ in range(cases):
        dim = rng.randint(2, 4)
        rows = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                     for _ in range(rng.randint(dim, dim + 3)))
        cone = Cone(dim, "halfspace", rows).canonical()
        back = polar_cone(polar_cone(cone)).canonical()
        assert back.rows == cone.rows, "polar round trip changed the cone"
    return "canonical halfspace forms equal"


@_property("recession-membership", 30)
def _recession_member(rng, cases):
    from .convex import set_from_json
    from .randomgen import random_constraint_doc

    for _ in range(cases):
        dim = rng.randint(1, 3)
        cset = set_from_json(random_constraint_doc(
            rng, dim, ("box", "halfline", "polyhedron")))
        cone = recession_cone(cset)
        inside = sample_point(rng, cset)
        xi = random_direction(rng, dim, span=2)
        big = F(10 ** 6)
        stays = cset.contains(tuple(p + big * v for p, v in zip(inside, xi)))
        assert cone.contains(xi) == stays, \
            "recession membership disagrees with far-point sampling"
    return "sampling oracle agrees"


@_property("projection-idempotent-symmetric", 40)
def _projection_props(rng, cases):
    import numpy as np

    for _ in range(cases):
        d = rng.randint(1, 4)
        incs = [[rng.gauss(0, 1) for _ in range(d)]
                for _ in range(rng.randint(1, d + 1))]
        P = predictable_range_projection([tuple(r) for r in incs]).as_array()
        assert np.allclose(P @ P, P, atol=1e-10), "projection not idempotent"
        assert np.allclose(P, P.T, atol=1e-10), "projection not symmetric"
    return "within 1e-10"


@_property("superhedge-lp-duality", 15)
def _superhedge_duality(rng, cases):
    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box", "pin"))
        payoff = random_payoff(rng, market)
        res = superhedge_price(market, payoff)
        assert res.price == res.dual_value, \
            "superhedging primal and dual LP values differ"
        c = F(7, 10)
        shifted = superhedge_price(market, tuple(v + c for v in payoff))
        assert shifted.price == res.price + c, "translation invariance broken"
    return "exact LP duality and translation"


@_property("minimax-identity", 15)
def _minimax(rng, cases):
    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box", "pin",
                                                        "polyhedron"))
        ms = min_support(market)
        if ms.inf_alpha == INF:
            assert ms.sup_essinf == INF, "one-sided infinite minimax"
        else:
            assert ms.inf_alpha == ms.sup_essinf, \
                "minimax identity violated (exact LPs)"
    return "LP duality across random trees"


@_property("weak-duality", 8)
def _weak_duality(rng, cases):
    log = LogUtility()
    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box",))
        x = 1 + F(rng.randint(0, 4), 2)
        primal = solve_primal(market, log, float(x))
        if primal.status != "optimal":
            continue
        leaves = len(market.tree.leaves)
        for _ in range(10):
            raw = [rng.randint(1, 9) for _ in range(leaves)]
            q = tuple(F(r, sum(raw)) for r in raw)
            for y in (0.5, 1.0, 2.0):
                bound = dual_objective(market, log, y, q)
                if bound == INF:
                    continue
                assert primal.value <= bound + float(x) * y + 1e-9, \
                    "weak duality violated"
    return "primal value below every dual bound"


@_property("certificate-soundness", 8)
def _certificates(rng, cases):
    checked = 0
    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box", "pin"))
        cert = check_supermartingale_condition(market)
        if not cert.certified:
            continue
        checked += 1
        for _ in range(10):
            H = random_admissible_portfolio(rng, market)
            resid = certificate_inequality_residual(market, cert, H)
            assert float(resid) <= 1e-10, \
                "certified triple fails the nodewise inequality"
    return f"{checked} certified markets validated"


@_property("compactness-from-certificates", 8)
def _compactness_meta(rng, cases):
    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box", "pin"))
        if (check_nonempty(market)
                and check_projected_closedness(market)
                and check_supermartingale_condition(market).certified):
            assert check_convex_compactness(market), \
                "certified conditions but compactness check failed"
    return "sufficient conditions imply compactness"


@_property("fenchel-young", 60)
def _fenchel_young(rng, cases):
    families = [LogUtility(), PowerUtility(0.3), PowerUtility(0.7)]
    for _ in range(cases):
        u = rng.choice(families)
        x = rng.uniform(0.01, 10.0)
        y = rng.uniform(0.01, 10.0)
        assert eval_utility(u, x) <= conjugate(u, y) + x * y + 1e-9, \
            "Fenchel-Young inequality violated"
        y_star = marginal(u, x)[1]
        gap = conjugate(u, y_star) + x * y_star - eval_utility(u, x)
        assert abs(gap) <= 1e-8, "equality fails at the marginal"
    return "inequality plus equality at the marginal"


@_property("alpha-homogeneity", 20)
def _alpha_homogeneity(rng, cases):
    from .scalars import scale_extended

    for _ in range(cases):
        market = random_market(rng, constraint_palette=("box", "halfline"))
        leaves = len(market.tree.leaves)
        raw = [rng.randint(1, 9) for _ in range(leaves)]
        q = tuple(F(r, sum(raw)) for r in raw)
        base = support_alpha(market, q)
        for lam in (F(1, 2), F(2), F(7)):
            scaled = support_alpha(market, tuple(lam * v for v in q))
            assert scaled == scale_extended(lam, base), \
                "support function not positively homogeneous in the measure"
    return "exact at scales 1/2, 2, 7"
