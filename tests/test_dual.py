"""Dual-side solvers: support function, dual value, superhedging, xbar."""

import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from condual import dual
from condual.dual import (
    DualMeasure,
    _face_interior_point,
    dual_objective,
    measure_from_weights,
    min_support,
    solve_dual,
    superhedge_price,
    support_alpha,
)
from condual.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from condual.market import build_market, parse_market_file
from condual.primal import solve_primal
from condual.randomgen import random_market, random_payoff, random_tree_spec
from condual.scalars import INF, NEG_INF, scale_extended
from condual.treelp import MARGIN_TOL, tree_lp
from condual.utility import (LogUtility, PiecewiseLinearUtility, PowerUtility,
                             conjugate)

from conftest import (binomial_spec, drift_spec, drifted_binomial_spec,
                      float_copy, two_asset_spec, two_period_spec)
from helpers import check_certificates

F = Fraction
LOG = LogUtility()

B1_DUAL_LOG = -1 + 0.5 * math.log(9 / 8)  # V at densities 2/3 and 4/3
FLAT_TAIL = PiecewiseLinearUtility((0.0, 1.0, 2.0), (3.0, 1.0, 0.5))


@pytest.fixture
def b1_no_trading():
    return build_market(binomial_spec({"type": "singleton", "point": [0]}))


# ---------------------------------------------------------------------------
# support function of the attainable set


def test_alpha_unconstrained_binomial(b1):
    # only the martingale measure (1/3, 2/3) keeps the sup finite
    assert support_alpha(b1, (F(1, 3), F(2, 3))) == 0
    assert support_alpha(b1, (F(1, 2), F(1, 2))) == INF


def test_alpha_float_measure_on_exact_market(b1):
    # a float measure within rounding of the martingale face: its induced
    # direction is cleaned at the market's noise floor, though the market
    # is exact
    assert support_alpha(b1, (1 / 3 + 1e-13, 2 / 3 - 1e-13)) \
        == pytest.approx(0, abs=1e-12)
    assert support_alpha(b1, (0.5, 0.5)) == INF


def test_alpha_box_binomial(b1_box):
    for q in (F(0), F(1, 3), F(1, 2), F(1)):
        expected = abs(F(3, 2) * q - F(1, 2))
        assert support_alpha(b1_box, (q, 1 - q)) == expected


def test_alpha_no_trading(b1_no_trading):
    for q in (F(0), F(1, 4), F(1)):
        assert support_alpha(b1_no_trading, (q, 1 - q)) == 0


def test_alpha_positive_homogeneity(b1_box):
    q = measure_from_weights(b1_box, (F(2, 5), F(3, 5)))
    base = support_alpha(b1_box, q)
    for lam in (F(1, 2), F(2), F(7)):
        scaled = support_alpha(b1_box, q.scaled(lam))
        assert scaled == scale_extended(lam, base)
    assert scale_extended(0, INF) == 0  # documented 0 * inf convention


def test_alpha_convexity_random(two_period):
    rng = random.Random(5)
    leaves = len(two_period.tree.leaves)
    for _ in range(20):
        raw1 = [F(rng.randint(1, 9)) for _ in range(leaves)]
        raw2 = [F(rng.randint(1, 9)) for _ in range(leaves)]
        q1 = [v / sum(raw1) for v in raw1]
        q2 = [v / sum(raw2) for v in raw2]
        mid = [(a + b) / 2 for a, b in zip(q1, q2)]
        lhs = support_alpha(two_period, mid)
        rhs1, rhs2 = support_alpha(two_period, q1), support_alpha(two_period, q2)
        if rhs1 != INF and rhs2 != INF:
            assert lhs <= (rhs1 + rhs2) / 2
        # inf on the right never violates the inequality


def test_measure_validation(b1):
    with pytest.raises(ValueError):
        DualMeasure((-0.1, 1.1), b1.tree.leaf_probabilities())


# ---------------------------------------------------------------------------
# the dual value function


def test_dual_unconstrained_binomial(b1):
    sol = solve_dual(b1, LOG, 1.0)
    assert sol.attained
    assert sol.value == pytest.approx(B1_DUAL_LOG, abs=1e-9)
    assert sol.measure.weights == pytest.approx((1 / 3, 2 / 3), abs=1e-9)


def test_dual_no_trading_picks_reference_measure(b1_no_trading):
    # E[-log(dQ/dP)] - 1 is the relative-entropy objective: minimized at P
    sol = solve_dual(b1_no_trading, LOG, 1.0)
    assert sol.attained
    assert sol.value == pytest.approx(-1.0, abs=1e-9)
    assert sol.measure.weights == pytest.approx((0.5, 0.5), abs=1e-5)


def grid_minimum(market, utility, y):
    """Least dual objective over measures (q, 1 - q) on two leaves, by a
    zooming 1-d grid: the minimum sits at a kink of the support penalty or
    of V, so a single uniform grid cannot resolve it."""
    lo, hi, oracle = 0.0, 1.0, None
    for _ in range(6):
        qs = np.linspace(lo, hi, 2001)
        vals = [dual_objective(market, utility, y, (q, 1 - q)) for q in qs]
        k = int(np.argmin(vals))
        oracle = vals[k]
        span = (hi - lo) / 50
        lo, hi = max(0.0, qs[k] - span), min(1.0, qs[k] + span)
    return oracle


def test_dual_box_against_grid_oracle(b1_box):
    sol = solve_dual(b1_box, LOG, 1.0)
    assert sol.value == pytest.approx(grid_minimum(b1_box, LOG, 1.0), abs=1e-6)
    assert sol.attained


def test_dual_mass_is_y(b1):
    sol = solve_dual(b1, LOG, 2.5)
    assert sol.measure.mass == pytest.approx(2.5, abs=1e-9)


def test_dual_value_convex_lsc_on_grid(b1, b1_box, d1):
    ys = np.linspace(0.3, 3.0, 10)
    for market in (b1, b1_box, d1):
        vs = [solve_dual(market, LOG, float(y)).value for y in ys]
        second = [vs[i - 1] - 2 * vs[i] + vs[i + 1] for i in range(1, len(vs) - 1)]
        assert all(s >= -1e-8 for s in second)


def test_dual_infinite_value_not_attained(b1_box):
    # U keeps slope 1/2 for ever, so V(z) = +inf for z < 1/2; at y < 1/2 no
    # measure on two equally likely leaves keeps both densities times y
    # that high, and v(y) = +inf is no attained minimum
    for y in (0.2, 0.4):
        sol = solve_dual(b1_box, FLAT_TAIL, y)
        assert sol.value == INF and sol.gap == INF
        assert not sol.attained


SWEEP = [(seed, name, utility, y) for seed in range(20)
         for name, utility in (("log", LOG), ("power", PowerUtility(0.5)),
                               ("piecewise", FLAT_TAIL))
         for y in (0.5, 2.0)]


@pytest.mark.parametrize("seed,name,utility,y", SWEEP,
                         ids=[f"{s}-{n}-{y}" for s, n, _, y in SWEEP])
def test_dual_random_sweep(seed, name, utility, y):
    # both routes on random trees up to T = 3: a finite answer has a finite
    # nonnegative gap, is no worse than its start on the face, has mass y,
    # and bounds the primal value from above (weak duality); the epigraph
    # LP's answers are attained
    market = random_market(random.Random(seed), max_periods=3)
    sol = solve_dual(market, utility, y)
    if sol.value == INF:
        return
    assert math.isfinite(sol.gap) and sol.gap >= 0
    if name == "piecewise":
        assert sol.attained
    start = dual_objective(market, utility, y,
                           tuple(_face_interior_point(market)[0]))
    assert sol.value <= start + 1e-9 * max(1.0, abs(start))
    assert sol.measure.mass == pytest.approx(y, rel=1e-9)
    xbar = min_support(market).xbar
    assert xbar not in (INF, NEG_INF)
    x = float(xbar) + 1.0
    u = solve_primal(market, utility, x, max_iter=500).value
    assert u <= sol.value + x * y + 1e-7 * (1 + abs(u) + abs(sol.value) + x * y)


def test_dual_log_attained_on_thirteen_leaf_market():
    # a T = 3 face with many free directions: one Newton solve closes the
    # minorant gap
    market = random_market(random.Random(6), max_periods=3)
    sol = solve_dual(market, LOG, 0.5)
    assert sol.attained


def test_dual_power_attained_on_thirteen_leaf_market():
    # the same face under power(1/2), where a first-order solve stops at a
    # minorant gap between 5e-7 and 2.4e-6, depending on rounding
    market = random_market(random.Random(6), max_periods=3)
    sol = solve_dual(market, PowerUtility(0.5), 1.5)
    assert sol.attained and sol.gap <= 1e-9


def test_dual_power_attained_on_drifted_binomial_t7():
    # 128 leaves and 254 multipliers: a first-order solve stops at a
    # minorant gap of 8e-6
    market = build_market(drifted_binomial_spec(7))
    sol = solve_dual(market, PowerUtility(0.5), 1.0)
    assert sol.attained and sol.gap <= 1e-9


def test_newton_step_cap_reports_the_face_point(monkeypatch):
    # a solve cut at its step cap has no answer: the face point q0 is
    # reported with its finite value, and its gap decides `attained`
    monkeypatch.setattr(dual, "NEWTON_MAX_STEPS", 1)
    market = random_market(random.Random(6), max_periods=3)
    q0 = tuple(_face_interior_point(market)[0])
    for utility in (LOG, PowerUtility(0.5)):
        sol = solve_dual(market, utility, 1.5)
        assert sol.iterations == 1
        assert sol.value == dual_objective(market, utility, 1.5, q0)
        assert math.isfinite(sol.value)
        assert sol.measure.weights == pytest.approx([1.5 * q for q in q0])
        assert sol.attained == (
            sol.gap <= max(1e-8, 1e-6 * max(1.0, abs(sol.value))))
        assert not sol.attained


def test_dual_rejects_nonpositive_y(b1):
    with pytest.raises(ValueError):
        solve_dual(b1, LOG, 0.0)


def test_weak_duality_random_measures(two_period):
    # u(x) <= E[V(y dQ/dP)] + y alpha(Q) + xy for any feasible Q and y > 0
    rng = random.Random(11)
    x = 1.0
    u = solve_primal(two_period, LOG, x).value
    leaves = len(two_period.tree.leaves)
    for _ in range(30):
        raw = [rng.uniform(0.05, 1.0) for _ in range(leaves)]
        q = tuple(v / sum(raw) for v in raw)
        for y in (0.5, 1.0, 2.0):
            bound = dual_objective(two_period, LOG, y, q)
            if bound == INF:
                continue
            assert u <= bound + x * y + 1e-10


# ---------------------------------------------------------------------------
# superhedging


def test_superhedge_call_binomial(b1):
    res = superhedge_price(b1, (F(1), F(0)))
    assert res.price == F(1, 3)
    assert res.dual_value == F(1, 3)
    assert res.witness.weights == (F(1, 3), F(2, 3))


def test_superhedge_translation_exact(b1_box):
    rng = random.Random(3)
    for _ in range(10):
        f = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
        c = F(7, 10)
        base = superhedge_price(b1_box, f).price
        shifted = superhedge_price(b1_box, tuple(v + c for v in f)).price
        assert shifted == base + c


def test_superhedge_pinned_zero_claim(b1_pinned):
    # forced unit holding: the worst leaf loses 1/2, so 1/2 is needed
    res = superhedge_price(b1_pinned, (F(0), F(0)))
    assert res.price == F(1, 2)


def test_superhedge_lp_duality_random(two_period):
    rng = random.Random(17)
    leaves = len(two_period.tree.leaves)
    essinf = min_support(two_period).sup_essinf
    for _ in range(25):
        f = tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(leaves))
        res = superhedge_price(two_period, f)
        assert res.price == res.dual_value  # exact mode: LP duality on the nose
        assert abs(res.price) <= res.bound + max(abs(v) for v in f)
        if essinf not in (INF, NEG_INF):
            assert res.bound == abs(essinf)


def test_hedging_characterization(b1_box):
    # claims with nonpositive price lie below the support function against
    # every measure; a positive price is certified by the witness measure
    rng = random.Random(23)
    for _ in range(20):
        f = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        res = superhedge_price(b1_box, f)
        if res.price <= 0:
            for _ in range(100):
                q = rng.uniform(0, 1)
                expectation = q * f[0] + (1 - q) * f[1]
                alpha = float(support_alpha(b1_box, (q, 1 - q)))
                assert expectation <= alpha + 1e-9
        else:
            w = res.witness
            expectation = sum(wi * fi for wi, fi in zip(w.weights, f))
            alpha = support_alpha(b1_box, w)
            assert float(expectation) > float(alpha) - 1e-9


# ---------------------------------------------------------------------------
# the critical initial wealth


def test_min_support_unconstrained(b1):
    ms = min_support(b1)
    assert ms.inf_alpha == 0 and ms.sup_essinf == 0 and ms.xbar == 0


def test_min_support_pinned_exact(b1_pinned):
    ms = min_support(b1_pinned)
    assert ms.inf_alpha == F(-1, 2)
    assert ms.sup_essinf == F(-1, 2)
    assert ms.xbar == F(1, 2)  # exact rational answer


def test_min_support_no_trading(b1_no_trading):
    ms = min_support(b1_no_trading)
    assert tuple(ms) == (0, 0, 0)


def test_min_support_sides_agree_on_random_trees():
    rng = random.Random(31)
    for _ in range(10):
        spec = two_period_spec({"type": "box",
                                "lower": [-rng.randint(1, 3)],
                                "upper": [rng.randint(1, 3)]})
        market = build_market(spec)
        ms = min_support(market)
        assert ms.inf_alpha == ms.sup_essinf  # LP duality, exactly
        assert ms.xbar == -ms.inf_alpha


def test_min_support_deterministic_trend(d1):
    # capped holding of a always-rising asset: riskless gain of 2 is the best
    ms = min_support(d1)
    assert ms.sup_essinf == 2
    assert ms.xbar == -2


def test_dual_mixed_equality_face_four_leaves():
    # an unconstrained root (martingale equality on the measure) atop boxed
    # children: the finite face is a 2-dim slice of the 4-leaf simplex
    spec = two_period_spec()
    spec["constraints"] = {
        "r": {"type": "box", "lower": ["-inf"], "upper": ["inf"]},
        "u": {"type": "box", "lower": [-1], "upper": [1]},
        "d": {"type": "box", "lower": [-1], "upper": [1]},
    }
    market = build_market(spec)
    for y in (0.5, 1.0, 2.0):
        sol = solve_dual(market, LOG, y, tol=1e-9)
        assert sol.attained
        assert float(sol.gap) <= 1e-6
        # conjugacy sandwich against a primal x-sweep: the sweep's sup is a
        # lower bound for v and its resolution bias is small
        xs = np.linspace(0.3, 6.0, 240)
        grid_sup = max(solve_primal(market, LOG, float(x), tol=1e-10).value
                       - float(x) * y for x in xs)
        assert grid_sup - 1e-9 <= sol.value <= grid_sup + 5e-4


def test_ball_constraints_supported_analytically():
    # support values of balls are closed form; a ball in dimension two
    # never enters halfspace LPs, so the measure-side LP operations refuse
    # with a clear message
    market = build_market(binomial_spec(
        {"type": "ball", "center": [0], "radius": 1}))
    alpha = support_alpha(market, (0.6, 0.4))
    assert alpha == pytest.approx(abs(0.6 * 1 + 0.4 * (-0.5)), abs=1e-12)
    market = build_market(two_asset_spec(
        {"type": "ball", "center": [0, 0], "radius": 1}))
    with pytest.raises(NotImplementedError, match="halfspace"):
        min_support(market)


def test_dual_piecewise_linear_exact_lp(b1_box):
    # kinked utility: the whole dual is an epigraph LP; cross-check against
    # a zooming 1-d grid over the measure
    kinked = PiecewiseLinearUtility((0.0, 1.0, 2.0), (3.0, 1.0, 0.0))
    for y in (0.5, 1.5, 3.5):
        sol = solve_dual(b1_box, kinked, y)
        assert sol.value == pytest.approx(grid_minimum(b1_box, kinked, y),
                                          abs=1e-7)


def test_dual_piecewise_pinned_holding_matches_grid(b1_pinned):
    # a forced unit holding makes the penalty linear in q, so the minimum
    # sits on a kink of V; the epigraph rows must carry V's slopes as -b_i
    for y in (0.7, 1.5, 3.0):
        sol = solve_dual(b1_pinned, FLAT_TAIL, y)
        assert sol.value == pytest.approx(grid_minimum(b1_pinned, FLAT_TAIL, y),
                                          abs=1e-7)


def test_dual_piecewise_attained_at_lp_optimum(b1_pinned):
    # the LP optimum certifies the epigraph route; the minorant gap would
    # stay open at this kink of V
    sol = solve_dual(b1_pinned, FLAT_TAIL, 0.7)
    assert sol.value == pytest.approx(2.625, abs=1e-9)
    assert sol.attained and sol.gap <= 1e-9
    assert sol.measure.mass == pytest.approx(0.7, rel=1e-12)


@pytest.fixture
def empty_floor_market():
    # a forced long holding loses on the down move, so the floor at zero
    # admits no portfolio
    spec = binomial_spec({"type": "box", "lower": [1], "upper": [2]})
    spec["floor"] = 0
    return build_market(spec)


def test_dual_piecewise_empty_admissible_class(empty_floor_market):
    # alpha is -inf everywhere and the epigraph LP is unbounded
    sol = solve_dual(empty_floor_market, FLAT_TAIL, 1.0)
    assert sol.value == NEG_INF and sol.measure is None
    assert not sol.attained


def test_dual_smooth_empty_admissible_class(empty_floor_market):
    # the stacked alpha LP is infeasible, which is alpha = -inf, and the
    # smooth route reports that value as the epigraph route does
    assert support_alpha(empty_floor_market, (F(1, 2), F(1, 2))) == NEG_INF
    assert support_alpha(empty_floor_market, (0.5, 0.5)) == NEG_INF
    for utility in (LOG, PowerUtility(0.5)):
        sol = solve_dual(empty_floor_market, utility, 1.0)
        assert sol.value == NEG_INF and sol.measure is None
        assert not sol.attained


def test_dual_smooth_empty_class_reads_the_zero_claim(monkeypatch,
                                                      empty_floor_market):
    # the empty class is the kept worst-leaf LP's -inf: no alpha LP is run
    def refuse(*args):
        raise AssertionError("the empty class needs no alpha LP")

    monkeypatch.setattr(dual, "_alpha_lp", refuse)
    for utility in (LOG, PowerUtility(0.5)):
        sol = solve_dual(empty_floor_market, utility, 1.0)
        assert sol.value == NEG_INF and sol.measure is None


# floor markets whose admissible class is nonempty: the boxes keep alpha
# finite; on the drift market both increments are positive, so the floor
# bounds only the short side of the half-line [-1, inf) and alpha = +inf
# at every positive measure
FLOOR_MARKETS = [
    (binomial_spec({"type": "box", "lower": [-1], "upper": [1]}), "1/2", True),
    (two_period_spec(), 1, True),
    (drift_spec({"type": "box", "lower": [-1], "upper": ["inf"]}), 1, False),
]


@pytest.mark.parametrize("spec,floor,finite", FLOOR_MARKETS,
                         ids=["b1-box", "two-period", "half-line"])
def test_floor_support_alpha_matches_its_lp_dual(spec, floor, finite):
    # with a floor, alpha(q) = max {(L^T q) . H : A H <= b} is the stacked
    # LP; its LP dual min {b . mu : A^T mu = L^T q, mu >= 0}, solved
    # exactly, must give the same value, +inf when the dual is infeasible
    market = build_market(dict(spec, floor=floor))
    A, b, L = tree_lp(market).rows(True)[:3]
    rng = random.Random(7)
    for _ in range(6):
        q = [F(rng.randint(1, 9)) for _ in range(len(L))]
        q = [v / sum(q) for v in q]
        res = solve_lp(list(b), A_eq=A.T, b_eq=L.T @ np.asarray(q, object),
                       exact=True, nonneg=range(len(b)))
        assert res.status != UNBOUNDED  # the admissible class is nonempty
        expected = res.value if res.status == OPTIMAL else INF
        assert support_alpha(market, q) == expected
        assert (expected != INF) == finite


@pytest.mark.parametrize("y", [math.nan, math.inf])
@pytest.mark.parametrize("utility", [LOG, FLAT_TAIL], ids=["log", "piecewise"])
def test_nonfinite_y_is_rejected(b1, utility, y):
    with pytest.raises(ValueError, match="finite y"):
        solve_dual(b1, utility, y)


def test_measure_needs_one_weight_per_leaf(two_period):
    # four leaves, one weight: rejected before any node is visited
    floored = build_market(dict(two_period_spec(), floor=1))
    for market in (two_period, floored):
        for fn in (lambda w: support_alpha(market, w),
                   lambda w: dual_objective(market, LOG, 1.0, w)):
            with pytest.raises(ValueError, match="one weight per leaf"):
                fn((F(1),))


ZERO_MARGIN_SEEDS = (5, 7, 10, 16, 17, 19, 20, 26, 29, 30, 34, 35, 37, 38)


def test_zero_margin_face_is_plus_infinity(monkeypatch):
    # a face whose max-margin measure leaves a leaf without mass has that
    # leaf empty under every face measure (the face is convex), so
    # E[V(y dQ/dP)] = +inf: one LP decides it, with no Newton solve
    from condual import linprog

    markets = [random_market(random.Random(s), max_periods=3)
               for s in ZERO_MARGIN_SEEDS]
    # every LP, float or exact: an exact market's max-margin LP is exact
    # and certified off one HiGHS solve
    solves = []
    for route in ("_solve_float", "_certified"):
        monkeypatch.setattr(linprog, route, lambda *a, _s=getattr(
            linprog, route): solves.append(a) or _s(*a))
    monkeypatch.setattr(linprog, "_simplex_exact", None)

    def no_newton(*_, **__):
        raise AssertionError("Newton solve on a zero-margin face")

    monkeypatch.setattr(dual, "_lifted_smooth_solve", no_newton)
    for seed, market in zip(ZERO_MARGIN_SEEDS, markets):
        assert market.floor is None
        solves.clear()
        for utility in (LOG, PowerUtility(0.5)):
            for y in (0.5, 2.0):
                sol = solve_dual(market, utility, y)
                assert (sol.value, sol.measure, sol.gap, sol.attained,
                        sol.iterations) == (INF, None, INF, False, 0), seed
        # the max-margin LP, solved by the first query: the TreeLP keeps it
        assert len(solves) == 1
        assert tree_lp(market).max_margin()[1] <= MARGIN_TOL


def test_second_dual_query_solves_no_max_margin_lp(monkeypatch):
    # the face point is a property of the market, kept on its TreeLP: a
    # second solve_dual solves no max-margin LP, with values equal to the
    # bit to those of a market that has answered no query yet
    from condual.treelp import TreeLP

    seeds = (0, 3, 6)
    fresh = [solve_dual(random_market(random.Random(s), max_periods=3), LOG,
                        1.3) for s in seeds]
    faces = []
    max_margin = TreeLP._max_margin
    monkeypatch.setattr(TreeLP, "_max_margin", lambda self, multipliers: (
        faces.append(multipliers) or max_margin(self, multipliers)))
    for s, expected in zip(seeds, fresh):
        market = random_market(random.Random(s), max_periods=3)
        faces.clear()
        sols = [solve_dual(market, LOG, 1.3) for _ in range(2)]
        assert faces == [True]
        assert tree_lp(market).max_margin() is tree_lp(market).max_margin()
        for sol in sols:
            assert (sol.value, sol.gap, sol.measure, sol.iterations) == (
                expected.value, expected.gap, expected.measure,
                expected.iterations)


def test_dual_query_on_a_kept_face_point_solves_no_lp(monkeypatch):
    # once the face point is kept, a smooth dual without a floor solves no
    # LP (with a floor, support_alpha is itself an LP): its minorant bound
    # is closed by the Newton solve's own hedge, and on the face-point path
    # by the kept worst-leaf hedge, whose gap stays finite
    from condual import linprog

    markets = [random_market(random.Random(s), max_periods=3)
               for s in (0, 6, 24)]
    markets += [build_market(drifted_binomial_spec(3)),
                build_market(float_copy(two_period_spec()))]
    for market in markets:
        solve_dual(market, LOG, 1.0)
        tree_lp(market).sup_essinf(market.exact)
    # every route of solve_lp: float, certified exact and the exact tableau
    solves = []
    for route in ("_solve_float", "_certified", "_simplex_exact"):
        monkeypatch.setattr(linprog, route, lambda *a, _s=getattr(
            linprog, route): solves.append(a) or _s(*a))
    for market in markets:
        for utility in (LOG, PowerUtility(0.5)):
            for y in (0.5, 2.0):
                assert solve_dual(market, utility, y).attained
    assert solves == []
    monkeypatch.setattr(dual, "_lifted_smooth_solve",
                        lambda *_: (None, None, 0))
    for market in markets:
        sol = solve_dual(market, LOG, 1.0)
        assert math.isfinite(sol.value) and math.isfinite(sol.gap)
    assert solves == []


def test_zero_row_holding_leaves_the_newton_solve():
    # the second asset's price never moves and its holding is unbounded:
    # its row of TreeLP.lifted is zero, which made the Schur system
    # singular (the face point was reported, -0.75 with gap 0.25).  Dropped,
    # it gets H = 0, and the value is that of the market with both boxed
    def market(lower, upper):
        spec = binomial_spec({"type": "box", "lower": [-1, lower],
                              "upper": [1, upper]})
        spec["dimension"] = 2
        for node in spec["nodes"]:
            node["prices"] = node["prices"] + [1]
        return build_market(spec)

    free, boxed = market("-inf", "inf"), market(-1, 1)
    assert not tree_lp(free).lifted(False)[0][2].any()
    sol = solve_dual(free, LOG, 1.0)
    assert sol.attained and sol.iterations > 0
    assert sol.value == pytest.approx(solve_dual(boxed, LOG, 1.0).value,
                                      rel=1e-12)
    assert sol.value == pytest.approx(-0.9411084821716722, rel=1e-12)
    q0 = _face_interior_point(free)[0]
    hedge = dual._lifted_smooth_solve(free, LOG, 1.0, q0)[1]
    assert hedge[1] == 0


def _lp_minorant(market, utility, y, q):
    """The minorant bound at q closed by the lifted LP (TreeLP.lifted)
    instead of a hedge: ev - c . q + min over the face of c . q' + y
    alpha(q'), which is y times the least (c / y) . q' + b . mu over the
    lifted pairs (q', mu)."""
    probs = [float(p) for p in market.tree.leaf_probabilities()]
    z = [y * w / p for w, p in zip(q, probs)]
    ev = sum(p * conjugate(utility, v) for p, v in zip(probs, z))
    c = [y * utility.conjugate_marginal(v)[1] for v in z]
    lp = tree_lp(market)
    A_eq, b_eq, nonneg = lp.lifted(False)
    cost = np.concatenate([np.asarray(c) / y, lp.rows(False)[1]])
    res = solve_lp(cost, A_eq=A_eq, b_eq=b_eq, nonneg=nonneg)
    assert res.status == OPTIMAL
    return ev - float(np.dot(c, q)) + y * res.value


def test_hedge_bound_matches_the_lifted_lp_minorant():
    # weak duality: the bound closed by an admissible hedge is at most the
    # LP's, and the Newton multipliers are that LP's dual optimum up to the
    # solve's residuals, so the two agree
    checked = 0
    for seed in range(40):
        market = random_market(random.Random(seed), max_periods=3)
        found = _face_interior_point(market)
        if found is None or found[1] <= MARGIN_TOL:
            continue
        q0 = found[0]
        A, b = tree_lp(market).rows(False)[:2]
        for utility in (LOG, PowerUtility(0.5)):
            for y in (0.5, 1.5, 2.0):
                q, hedge, _ = dual._lifted_smooth_solve(market, utility, y, q0)
                assert (A @ hedge - b).max() <= dual.HEDGE_TOL
                assert dual._admissible(market, hedge)
                bound = dual._minorant_lower_bound(
                    market, utility, y, q, hedge,
                    *dual._expected_conjugate(market, utility, y, q))
                oracle = _lp_minorant(market, utility, y, q)
                assert bound <= oracle + 1e-12 * max(1.0, abs(oracle))
                assert bound == pytest.approx(oracle, rel=0, abs=1e-9)
                checked += 1
    assert checked == 24 * 6


def test_hedge_tolerance_edge(b1_box):
    # a hedge past HEDGE_TOL on one row is refused (the bound is -inf and
    # the answer is not attained); one just inside it is accepted
    q0 = _face_interior_point(b1_box)[0]
    q, hedge, _ = dual._lifted_smooth_solve(b1_box, LOG, 1.0, q0)
    A, b = tree_lp(b1_box).rows(False)[:2]
    row = int(np.argmax(A @ hedge - b))
    for factor, accepted in ((0.99, True), (1.01, False)):
        excess = factor * dual.HEDGE_TOL - (A[row] @ hedge - b[row])
        pushed = hedge + excess * A[row] / (A[row] @ A[row])
        slack = A @ pushed - b
        assert slack[row] == pytest.approx(factor * dual.HEDGE_TOL, rel=1e-3)
        assert np.delete(slack, row).max() < 0
        assert dual._admissible(b1_box, pushed) is accepted
        bound = dual._minorant_lower_bound(
            b1_box, LOG, 1.0, q, pushed,
            *dual._expected_conjugate(b1_box, LOG, 1.0, q))
        assert math.isfinite(bound) is accepted


def test_superhedge_empty_admissible_class(empty_floor_market):
    # no admissible portfolio hedges anything, so the price is +inf; the
    # lifted LP is unbounded since alpha is -inf at every measure
    for payoff in ((F(1), F(0)), (1.0, 0.0)):
        res = superhedge_price(empty_floor_market, payoff)
        assert res.price == INF and res.dual_value == INF
        assert res.portfolio_x is None and res.witness is None
        assert res.bound == INF


@pytest.mark.parametrize("spec", [two_period_spec(),
                                  drifted_binomial_spec(2, floor=1)],
                         ids=["no-floor", "floor"])
@pytest.mark.parametrize("exact", [True, False])
def test_zero_claim_priced_once_per_market(monkeypatch, spec, exact):
    # sup essinf, behind min_support and every superhedge bound, depends on
    # the market alone: its superhedge is solved once per market and
    # arithmetic, and repeated queries answer as on a fresh market
    from condual import recursion, treelp

    spec = spec if exact else float_copy(spec)
    payoffs = [(1, 0, 0, 0), (0, 1, 2, 3), (F(1, 2), -1, 0, 1)]
    fresh = [(superhedge_price(build_market(spec), f),
              min_support(build_market(spec))) for f in payoffs]
    runs, lps = [], []
    backward = dual.backward_induction
    monkeypatch.setattr(dual, "backward_induction", lambda m, f, e: (
        runs.append(tuple(f)) or backward(m, f, e)))
    for module in (dual, recursion, treelp):
        monkeypatch.setattr(module, "solve_lp", lambda *a, _s=module.solve_lp,
                            **k: lps.append(a) or _s(*a, **k))
    market = build_market(spec)
    for f, (price, support) in zip(payoffs, fresh):
        assert superhedge_price(market, f) == price
        assert min_support(market) == support
    k = len(payoffs)
    if market.floor is None:
        # one sweep per payoff, and one for the zero claim; one dimension
        # needs no LP
        assert runs.count((0,) * 4) == 1 and len(runs) == k + 1
        assert lps == []
    else:
        # per superhedge its worst-leaf and lifted LPs, and once per market
        # the lifted LP of min_support and the worst-leaf LP of the zero
        # claim: min_support is kept too
        assert runs == [] and len(lps) == 2 * k + 2


def _sweep_specs():
    """40 random specs of up to three periods, then d = 1 (three periods)
    and d = 2 (two binary periods), with and without floor 1, 12 each."""
    for seed in range(40):
        yield random_tree_spec(random.Random(seed), max_periods=3)
    for dim, kwargs in ((1, dict(max_periods=3)),
                        (2, dict(max_periods=2, max_children=2))):
        for floor in (None, 1):
            for seed in range(12):
                spec = random_tree_spec(random.Random(seed), dim=dim, **kwargs)
                if floor is not None:
                    spec["floor"] = floor
                yield spec


@pytest.mark.parametrize("exact", [True, False])
def test_min_support_is_the_zero_claim_superhedge(monkeypatch, exact):
    # min_support is the superhedge of the zero claim relabelled, and the
    # two share its solves: asking either first solves the same LPs
    from condual import convex, recursion, treelp

    lps = []
    for module in (dual, recursion, treelp, convex):
        monkeypatch.setattr(module, "solve_lp", lambda *a, _s=module.solve_lp,
                            **k: lps.append(a) or _s(*a, **k))
    floors = 0
    for k, spec in enumerate(_sweep_specs()):
        floors += "floor" in spec
        spec = spec if exact else float_copy(spec)
        rng = random.Random(k)
        market = build_market(spec)
        payoffs = [random_payoff(rng, market) for _ in range(2)]
        if not exact:
            payoffs = [tuple(float(v) for v in f) for f in payoffs]
        zero = (0,) * len(market.tree.leaves)
        answers, counts = [], []
        for support_first in (True, False):
            market = build_market(spec)
            lps.clear()
            if support_first:
                ms = min_support(market)
            prices = [superhedge_price(market, f) for f in payoffs]
            if not support_first:
                ms = min_support(market)
            answers.append((ms, prices))
            counts.append(len(lps))
        assert answers[0] == answers[1] and counts[0] == counts[1]
        if exact:
            res = superhedge_price(market, zero)
            assert ms.inf_alpha == 0 - res.dual_value
            assert ms.sup_essinf == 0 - res.price
            assert ms.xbar == -ms.inf_alpha and ms.minimizer == res.witness
            assert ms.inf_alpha == ms.sup_essinf  # LP duality, exactly
            if ms.sup_essinf not in (INF, NEG_INF):
                assert res.bound == abs(ms.sup_essinf)
    assert floors == 24


def test_float_payoff_on_exact_floor_market_prices_in_floats(monkeypatch):
    # both sides of a float payoff's superhedge run in floats (the
    # worst-leaf LP, then the support LP at its measure); only the bound's
    # sup essinf, a property of the market, stays exact
    from condual import treelp

    market = build_market(drifted_binomial_spec(3, floor=1))
    arithmetic = []
    for module in (treelp, dual):
        monkeypatch.setattr(module, "solve_lp", lambda *a, _s=solve_lp, **k:
                            arithmetic.append(k["exact"]) or _s(*a, **k))
    res = superhedge_price(market, (0.0, 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 1.0))
    assert arithmetic == [False, False, True]
    assert type(res.price) is float and type(res.dual_value) is float
    assert res.price == pytest.approx(8 / 9, abs=1e-12)
    assert res.dual_value == pytest.approx(8 / 9, abs=1e-12)
    assert res.bound == abs(min_support(market).sup_essinf)


def _empty_class_markets():
    # the fixture's root pin loses 2 on the down move, past the floor of 1;
    # both children hold half-lines [0, inf) whose increments are all
    # positive, so every measure has alpha = +inf there: the class and the
    # finite-alpha face are both empty.  Random(118) is one such market
    yield parse_market_file(os.path.join(os.path.dirname(__file__),
                                         "fixtures", "empty_floor_face.json"))
    spec = random_tree_spec(random.Random(118), max_periods=3, dim=2)
    spec["floor"] = 1
    yield build_market(spec)


@pytest.mark.parametrize("market", list(_empty_class_markets()),
                         ids=["empty_floor_face", "random118"])
def test_an_empty_class_decides_before_an_empty_face(market):
    # alpha is -inf at every measure once the class is empty, whatever the
    # face: xbar = +inf, the zero claim's dual value is +inf like its
    # price, and the dual value function is -inf
    assert _face_interior_point(market) is None
    assert tuple(min_support(market)) == (NEG_INF, NEG_INF, INF)
    res = superhedge_price(market, (0,) * len(market.tree.leaves))
    assert (res.price, res.dual_value, res.witness) == (INF, INF, None)
    for utility in (LOG, PowerUtility(0.5)):
        sol = solve_dual(market, utility, 1.0)
        assert (sol.value, sol.attained, sol.measure) == (NEG_INF, False, None)


@pytest.mark.parametrize("dim", [1, 2])
def test_floor_superhedge_certificates(dim):
    # the floor route reads its witness off the worst-leaf LP's leaf-row
    # multipliers: exactly a probability whose value is the price, and on
    # the float twin a value within 1e-12 relative of the price
    finite = 0
    for seed in range(40):
        for floor in ("1/2", 1, 2):
            spec = random_tree_spec(random.Random(seed), max_periods=3,
                                    dim=dim)
            spec["floor"] = floor
            market, twin = build_market(spec), build_market(float_copy(spec))
            payoff = random_payoff(random.Random(seed), market)
            res = superhedge_price(market, payoff)
            flt = superhedge_price(twin, tuple(float(v) for v in payoff))
            if res.price in (INF, NEG_INF):
                assert res.dual_value == res.price and res.witness is None
                assert flt.price == flt.dual_value == res.price
                continue
            check_certificates(market, payoff, res)
            assert flt.dual_value == pytest.approx(flt.price, rel=1e-12)
            finite += 1
    assert finite == {1: 86, 2: 85}[dim]


@pytest.mark.parametrize("market", ["b1", "b1-box-floor"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_superhedge_refuses_non_finite_payoff(market, bad):
    # without a floor a nan payoff used to price at -inf, a free lunch
    spec = binomial_spec()
    if market == "b1-box-floor":
        spec = binomial_spec({"type": "box", "lower": [-1], "upper": [1]})
        spec["floor"] = "1/2"
    market = build_market(spec)
    for payoff in ((bad, 0.0), (F(0), bad)):
        with pytest.raises(ValueError, match="payoff values must be finite"):
            superhedge_price(market, payoff)


def test_one_dimensional_ball_is_its_interval():
    # a ball in dimension one is the interval [c - r, c + r], so every LP
    # route answers on it, exactly as on that box
    ball, box = (build_market(binomial_spec(s)) for s in (
        {"type": "ball", "center": [3], "radius": 1},
        {"type": "box", "lower": [2], "upper": [4]}))
    assert ball.constraint(0).halfspaces() == ([(1,), (-1,)], [4, -2])
    assert min_support(ball) == min_support(box)
    assert superhedge_price(ball, (1, 0)) == superhedge_price(box, (1, 0))
    for market in (ball, box):
        sol = solve_primal(market, LOG, 1.5)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(0.2798078939677114, abs=1e-12)
    kinked = PiecewiseLinearUtility((0, 1), (2, 1))
    assert solve_primal(ball, kinked, 2).value \
        == solve_primal(box, kinked, 2).value
    assert solve_dual(ball, LOG, 1).value == solve_dual(box, LOG, 1).value


def _lifted_epigraph_dual(market, utility, y):
    """The dual over the lifted (q, mu) polytope, an epigraph variable t_l
    per leaf above every line of V(y q_l / p_l): the oracle.  Returns
    (q, optimum), (None, +inf) when infeasible and (None, -inf) when
    unbounded."""
    lines, edge = utility.conjugate_lines()
    lp = tree_lp(market)
    n = len(market.tree.leaves)
    A_eq, b_eq, nonneg = lp.lifted(False)
    A_eq = np.hstack([A_eq, np.zeros((len(A_eq), n))])  # columns q, mu, t
    _, b, _, _, _, p = lp.rows(False)
    A_ub, b_ub = [], []
    for k in range(n):
        row = np.zeros(A_eq.shape[1])
        row[k] = -1.0
        A_ub.append(row)
        b_ub.append(-p[k] * float(edge) / y)
        for v, a in lines:
            row = np.zeros(A_eq.shape[1])
            row[k] = -float(a) * y / p[k]
            row[n + len(b) + k] = -1.0
            A_ub.append(row)
            b_ub.append(-float(v))
    c = np.concatenate([np.zeros(n), y * b, p])
    res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                   nonneg=nonneg)
    if res.status != OPTIMAL:
        return None, INF if res.status == INFEASIBLE else NEG_INF
    return tuple(max(float(v), 0.0) for v in res.x[:n]), res.value


def test_dual_piecewise_matches_lifted_epigraph_lp():
    # the primal's epigraph LP with x free gives what the lifted LP over
    # (q, mu) gives, and its multipliers a measure of mass y
    for seed in range(40):
        market = random_market(random.Random(seed), max_periods=3)
        for y in (0.5, 1.3, 2.0):
            sol = solve_dual(market, FLAT_TAIL, y)
            q, optimum = _lifted_epigraph_dual(market, FLAT_TAIL, y)
            if q is None:
                assert (sol.value, sol.measure, sol.attained) == (
                    optimum, None, False)
                continue
            value = dual_objective(market, FLAT_TAIL, y, q)
            attained = abs(value - optimum) <= max(1e-8, 1e-6 * max(
                1.0, abs(value)))
            assert sol.value == pytest.approx(value, abs=1e-12), (seed, y)
            assert sol.attained == attained
            assert sol.measure.mass == pytest.approx(y, abs=1e-12)


def test_dual_piecewise_on_equality_face(b1):
    # unconstrained holding forces the martingale measure; the epigraph LP
    # must respect that equality and land on V evaluated there
    from condual.utility import conjugate

    kinked = PiecewiseLinearUtility((0.0, 1.0, 2.0), (3.0, 1.0, 0.0))
    sol = solve_dual(b1, kinked, 1.0)
    expected = (0.5 * conjugate(kinked, (1 / 3) / 0.5)
                + 0.5 * conjugate(kinked, (2 / 3) / 0.5))
    assert sol.value == pytest.approx(expected, abs=1e-8)


def _three_room_step(n, w, dw, s, ds):
    """_step_length as three masked reductions, one per group."""
    def room(v, dv):
        down = dv < 0
        return (-v[down] / dv[down]).min(initial=np.inf)

    return min(1.0, 0.5 * room(w[:n], dw[:n]),
               0.995 * min(room(w[n:], dw[n:]), room(s, ds)))


def test_step_length_matches_three_room_reductions():
    rng = np.random.default_rng(7)

    def check(n, w, dw, s, ds):
        with np.errstate(all="raise"):
            step = dual._step_length(n, w, dw, s, ds)
            assert step == _three_room_step(n, w, dw, s, ds)
        return step

    for _ in range(300):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        w, s = rng.uniform(0.0, 2.0, n + m), rng.uniform(0.0, 2.0, n + m)
        dw, ds = rng.normal(0, 3, n + m), rng.normal(0, 3, n + m)
        # zero entries, in the point and in the direction
        for v in (w, s, dw, ds):
            v[rng.random(n + m) < 0.2] = 0.0
        check(n, w, dw, s, ds)
        # a direction that falls nowhere takes the full step
        assert check(n, w, np.abs(dw), s, np.abs(ds)) == 1.0
    w, s = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0, 1.0])
    ds = np.array([-0.1, 0.0, 0.5, -0.2])
    # a leaf mass binds at the 0.5 rule: half of 2 / 4
    assert check(2, w, np.array([0.0, -4.0, -0.5, 1.0]), s, ds) == 0.25
    # a slack binds at the 0.995 rule: 0.995 of 1 / 2
    assert check(2, w, np.array([-0.1, 0.0, -0.5, 1.0]), s,
                 np.array([-0.1, -2.0, 0.5, -0.2])) == 0.995 * 0.5
