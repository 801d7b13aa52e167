"""Primal solver against closed forms and the brute-force oracle."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from condual.conditions import check_convex_compactness
from condual.dual import min_support, solve_dual
from condual.linprog import OPTIMAL, solve_lp
from condual.market import PortfolioProcess, build_market, is_admissible
from condual.primal import (
    brute_force_primal,
    find_free_lunch_direction,
    primal_feasible,
    primal_value_grid,
    solve_primal,
)
from condual.randomgen import random_market, random_tree_spec
from condual.scalars import NEG_INF, is_finite
from condual.treelp import tree_lp
from condual.utility import (LogUtility, PiecewiseLinearUtility, PowerUtility,
                             TabulatedUtility)

from conftest import (binomial_spec, deterministic_spec, drift_spec,
                      drifted_binomial_spec, float_copy, two_asset_spec,
                      two_period_spec)

LOG = LogUtility()
SQRT = PowerUtility(0.5)

# hand FOC for the binomial log problem: 0.5/(1+h) = 0.25/(1-0.5h) -> h = 0.5
B1_LOG_VALUE = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)


def test_b1_log_closed_form(b1):
    sol = solve_primal(b1, LOG, 1.0)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(B1_LOG_VALUE, abs=1e-8)
    assert sol.portfolio[0] == pytest.approx((0.5,), abs=1e-6)
    assert sol.terminal == pytest.approx((1.5, 0.75), abs=1e-6)


def test_b1_log_agrees_with_brute_force(b1):
    oracle = brute_force_primal(b1, LOG, 1.0,
                                {"points": 3801, "box": {"root": [(-1.9, 1.9)]}})
    sol = solve_primal(b1, LOG, 1.0)
    assert sol.value >= oracle - 1e-6
    assert sol.value == pytest.approx(oracle, abs=1e-4)


def test_d1_boundary_optimum(d1):
    sol = solve_primal(d1, LOG, 1.0)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(math.log(3.0), abs=1e-7)
    for i in d1.tree.nonleaf:
        assert sol.portfolio[i] == pytest.approx((1.0,), abs=1e-6)


def test_pinned_constraint_feasibility_boundary(b1_pinned):
    # forced holding 1: worst leaf wealth is x - 1/2
    sol = solve_primal(b1_pinned, SQRT, 0.4)
    assert sol.status == "infeasible"
    assert sol.value == NEG_INF
    sol = solve_primal(b1_pinned, SQRT, 0.6)
    assert sol.status == "optimal"
    assert sol.terminal == pytest.approx((1.6, 0.1), abs=1e-9)


def test_unbounded_with_free_lunch(arbitrage_market):
    # both increments positive and no holding cap: log utility explodes
    assert find_free_lunch_direction(arbitrage_market) is not None
    sol = solve_primal(arbitrage_market, LOG, 1.0)
    assert sol.status == "unbounded"


def test_drift_market_capped_is_solvable(drift_market):
    sol = solve_primal(drift_market, LOG, 1.0)
    assert sol.status == "optimal"
    # increments are both positive, so the cap binds: h = 1
    assert sol.portfolio[0] == pytest.approx((1.0,), abs=1e-6)
    assert sol.value == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(1.5),
                                      abs=1e-8)


def test_grid_log_scaling(b1):
    # with an unconstrained holding, log wealth scales: u(x) = log x + u(1)
    rows = primal_value_grid(b1, LOG, [0.5, 1.0, 2.0], tol=1e-10)
    base = rows[1][1]
    for x, value, status in rows:
        assert status == "optimal"
        assert value == pytest.approx(math.log(x) + base, abs=1e-6)


def test_grid_spans_feasibility_boundary(b1_pinned):
    rows = primal_value_grid(b1_pinned, SQRT, [0.4, 0.6])
    assert rows[0][2] == "infeasible" and rows[0][1] == NEG_INF
    assert rows[1][2] == "optimal"


def test_grid_singleton_delegates(b1):
    rows = primal_value_grid(b1, LOG, [1.0])
    assert rows[0][1] == pytest.approx(solve_primal(b1, LOG, 1.0).value, abs=1e-12)


def test_grid_requires_sorted(b1):
    with pytest.raises(ValueError):
        primal_value_grid(b1, LOG, [2.0, 1.0])


def test_brute_force_d1_boundary(d1):
    val = brute_force_primal(d1, LOG, 1.0, {"points": 41})
    assert val == pytest.approx(math.log(3.0), abs=1e-12)


def test_brute_force_zero_increment_market():
    spec = {
        "horizon": 1,
        "dimension": 1,
        "nodes": [
            {"id": "r", "time": 0, "parent": None, "prob": 1, "prices": [1]},
            {"id": "a", "time": 1, "parent": "r", "prob": "1/2", "prices": [1]},
            {"id": "b", "time": 1, "parent": "r", "prob": "1/2", "prices": [1]},
        ],
        "constraints": {"r": {"type": "box", "lower": [-1], "upper": [1]}},
    }
    market = build_market(spec)
    val = brute_force_primal(market, LOG, 2.0, {"points": 11})
    assert val == pytest.approx(math.log(2.0), abs=1e-12)
    assert solve_primal(market, LOG, 2.0).value == pytest.approx(math.log(2.0),
                                                                 abs=1e-9)


# (spec, utility, x, grid_spec, value): brute_force_primal's values as its
# one-point-at-a-time loop over the grid gave them; the cases cover box
# overrides, a floor, a terminal offset, a 2-D polyhedron (also on a random
# market), a 1-D ball, wealth 0 on the grid, U = -inf below a first knot,
# and a grid with no admissible point
ORACLE_CASES = {
    "box-override-log": (
        binomial_spec(), LOG, 1.0,
        {"points": 401, "box": {"root": [(-1.9, 1.9)]}}, 0.058888795598558974),
    "floor-log": (
        dict(two_period_spec(), floor="1/2"), LOG, 1.0,
        {"points": 21, "rounds": 3}, 0.08830206402253274),
    "offset-log": (
        two_period_spec(), LOG, 1.0,
        {"points": 17, "rounds": 4, "terminal_offset": {
            "uu": Fraction(1), "ud": Fraction(1, 2), "du": Fraction(1, 4),
            "dd": Fraction(0)}}, 0.3334596894048967),
    "polyhedron-2d-power": (
        two_asset_spec({"type": "polyhedron", "A": [[1, 1], [-1, 0], [0, -1]],
                        "b": [1, 1, 1]}),
        SQRT, 1.0, {"points": 41, "rounds": 3}, 2.1043976826464834),
    "ball-1d-power": (
        binomial_spec({"type": "ball", "center": [0], "radius": "1/2"}),
        PowerUtility(0.3), 1.0, {"points": 51, "rounds": 2},
        3.4111028168320954),
    "zero-wealth-power": (
        binomial_spec(), SQRT, 1.0, {"points": 31, "box": {"root": [(-1, 2)]}},
        2.121320343559643),
    "kinked-two-period": (
        two_period_spec(),
        PiecewiseLinearUtility((0.0, 1.0, 2.0), (3.0, 1.0, 0.0)), 1.0,
        {"points": 15, "rounds": 3}, 3.0),
    "steep-piecewise": (
        drift_spec(),
        PiecewiseLinearUtility((0.0, 1.0, 2.0), (math.inf, 1.0, 0.25)), 1.0,
        {"points": 41, "rounds": 2}, 0.75),
    "table-floor": (
        drifted_binomial_spec(2, floor=1),
        TabulatedUtility((0.5, 1, 2, 4), (0, 1, 1.5, 1.7)), 2.0,
        {"points": 9, "rounds": 3}, 1.5),
    "random-2d-log": (
        random_tree_spec(random.Random(8), dim=2), LOG, 1.8333333333333335,
        {"points": 61, "rounds": 3}, 0.5219157382785354),
    "nowhere-admissible-log": (
        binomial_spec(), LOG, 0.1, {"points": 11, "box": {"root": [(1.5, 1.9)]}},
        NEG_INF),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_brute_force_regression(name):
    spec, utility, x, grid_spec, value = ORACLE_CASES[name]
    found = brute_force_primal(build_market(spec), utility, x, grid_spec)
    assert found == pytest.approx(value, rel=0, abs=1e-9)


def test_brute_force_cap():
    spec = deterministic_spec()
    market = build_market(spec)
    with pytest.raises(ValueError):
        brute_force_primal(market, LOG, 1.0, {"points": 10 ** 5})


def test_optimizer_is_admissible(two_period):
    sol = solve_primal(two_period, LOG, 1.0)
    assert sol.status == "optimal"
    assert is_admissible(two_period, sol.portfolio)
    assert min(sol.terminal) >= -1e-12


def test_values_monotone_and_concave(two_period):
    xs = [0.5, 0.75, 1.0, 1.25, 1.5]
    rows = primal_value_grid(two_period, LOG, xs, tol=1e-10)
    vals = [v for _, v, _ in rows]
    for v1, v2 in zip(vals, vals[1:]):
        assert v1 <= v2 + 1e-10
    for i in range(1, len(vals) - 1):
        assert vals[i] >= 0.5 * (vals[i - 1] + vals[i + 1]) - 1e-8


def test_primal_feasible_bisection_route(b1_pinned):
    assert primal_feasible(b1_pinned, 0.51)
    assert not primal_feasible(b1_pinned, 0.49)
    lo, hi = 0.0, 2.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if primal_feasible(b1_pinned, mid):
            hi = mid
        else:
            lo = mid
    # the float LP's feasibility tolerance caps the achievable accuracy
    assert hi == pytest.approx(0.5, abs=1e-6)


def test_floored_market_respects_floor():
    spec = binomial_spec()
    spec["floor"] = "1/4"  # gains must stay above -1/4: h <= 1/2
    market = build_market(spec)
    sol = solve_primal(market, LOG, 1.0)
    assert sol.status == "optimal"
    assert sol.portfolio[0][0] <= 0.5 + 1e-9
    oracle = brute_force_primal(market, LOG, 1.0,
                                {"points": 2001, "box": {"root": [(-1.0, 0.5)]}})
    assert sol.value == pytest.approx(oracle, abs=1e-6)


def test_ball_constraint_primal():
    from condual.market import build_market

    market = build_market(binomial_spec(
        {"type": "ball", "center": [0], "radius": "1/2"}))
    sol = solve_primal(market, LOG, 1.0)
    assert sol.status == "optimal"
    # unconstrained optimum h = 1/2 sits on the ball boundary
    assert sol.portfolio[0][0] == pytest.approx(0.5, abs=1e-7)


def _free_lunch_lp(market):
    """The global free-lunch LP over the stacked holdings: the oracle."""
    lp = tree_lp(market)
    _, _, L, _, R, _ = lp.rows(market.exact)
    A_ub = np.vstack([R, -L])
    res = solve_lp([0] * lp.n_h, A_ub=A_ub, b_ub=[0] * len(A_ub),
                   A_eq=[L.sum(axis=0)], b_eq=[1], exact=market.exact)
    return res.status == OPTIMAL


def _counting_solve_lp(monkeypatch):
    import condual.primal

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(condual.primal, "solve_lp", counting)
    return calls


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("floor", [None, "1/4"])
def test_free_lunch_skips_lp_on_bounded_boxes(monkeypatch, exact, floor):
    # every set a bounded box: the recession cone is {0}, no LP needed
    specs = [binomial_spec({"type": "box", "lower": [-1], "upper": [1]}),
             drift_spec(), two_period_spec(),
             two_period_spec({"type": "singleton", "point": ["1/2"]})]
    calls = _counting_solve_lp(monkeypatch)
    for spec in specs:
        if floor is not None:
            spec["floor"] = floor
        market = build_market(spec if exact else float_copy(spec))
        assert find_free_lunch_direction(market) is None
        assert not _free_lunch_lp(market)
    assert len(calls) == 0


def _unbounded_sets_spec(rng, dim):
    """A random market whose sets include half-lines, random polyhedra
    (often unbounded) and pinned coordinates with free ones beside them."""
    spec = random_tree_spec(rng, dim=dim, constraint_palette=(
        "box", "halfline", "pin", "polyhedron"))
    for nid in spec["constraints"]:
        if rng.random() < 0.25:
            fixed = {"0": str(rng.randint(-1, 1))} if dim > 1 else {}
            spec["constraints"][nid] = {"type": "affine_fixed", "dim": dim,
                                        "fixed": fixed}
    if rng.random() < 0.3:
        spec["floor"] = str(rng.randint(0, 2))
    return spec


def test_free_lunch_verdict_matches_global_lp(monkeypatch):
    calls = _counting_solve_lp(monkeypatch)
    verdicts, skipped = [], 0
    for seed in range(40):
        rng = random.Random(4000 + seed)
        spec = _unbounded_sets_spec(rng, 1 + seed % 2)
        for market in (build_market(spec), build_market(float_copy(spec))):
            calls.clear()
            found = find_free_lunch_direction(market)
            skipped += not calls
            assert (found is not None) == _free_lunch_lp(market)
            verdicts.append(found is not None)
    # both verdicts occur, and so do the shortcut and the LP
    assert any(verdicts) and not all(verdicts)
    assert 0 < skipped < len(verdicts)


def test_stalled_line_search_reports_iterations_run():
    # the floor binds at the optimum, and the line search stalls there
    market = build_market(drifted_binomial_spec(3, floor=2))
    x = 6
    sol = solve_primal(market, LOG, x, max_iter=300)
    assert sol.status == "max-iterations"
    assert 0 < sol.iterations < 300
    # the ascent stopped on its own: more room changes nothing
    again = solve_primal(market, LOG, x, max_iter=1000)
    assert (again.status, again.iterations, again.value) == (
        sol.status, sol.iterations, sol.value)


@pytest.mark.parametrize("x, value", [(3.0, 1.5400301497657785),
                                      (10.0, 2.5847828042567498)])
def test_box_market_ascent_takes_newton_steps(x, value):
    # every set is a box and there is no floor: projected Newton steps
    # reach the optimum in a handful of iterations, where gradient steps
    # alone take 545 at x = 3
    market = build_market(drifted_binomial_spec(8))
    sol = solve_primal(market, LOG, x)
    assert sol.status == "optimal" and sol.iterations <= 30
    assert sol.value == pytest.approx(value, abs=1e-10)


def test_one_dimensional_ball_market_is_a_box_market(monkeypatch):
    # the ball of center 0 and radius 2 is the interval [-2, 2], so a ball
    # at every node answers as the box does: its sets are clipped, the free
    # lunch check needs no LP, and the ascent takes the same projected
    # Newton steps to the same value (gradient steps alone take 6)
    box = build_market(drifted_binomial_spec(6))
    spec = drifted_binomial_spec(6)
    spec["constraints"]["default"] = {"type": "ball", "center": [0],
                                      "radius": 2}
    ball = build_market(spec)
    assert tree_lp(ball).boxed
    calls = _counting_solve_lp(monkeypatch)
    assert find_free_lunch_direction(ball) is None and not calls
    got, want = (solve_primal(m, LOG, 10.0) for m in (ball, box))
    assert (want.status, want.iterations) == ("optimal", 3)
    assert (got.value, got.status, got.iterations) \
        == (want.value, want.status, want.iterations)


@pytest.mark.parametrize("spec, dx, status, value, iterations", [
    (drifted_binomial_spec(3, floor=2), None, "max-iterations",
     1.9049486759324805, 30),
    (drifted_binomial_spec(3, floor=1), None, "max-iterations",
     1.859638182467915, 34),
    (random_tree_spec(random.Random(6), max_periods=3, dim=2), 1, "optimal",
     0.9457858836368284, 73)], ids=["floor-2", "floor-1", "polyhedron"])
def test_ascent_off_a_box_market_keeps_gradient_steps(spec, dx, status, value,
                                                      iterations):
    # neither a floor nor a two-dimensional polyhedron is a clip, so these
    # markets take the spectral projected gradient steps alone, and their
    # iteration counts are those steps' own: the floor markets at x = 6
    # stall where the floor binds
    market = build_market(spec)
    x = 6 if dx is None else min_support(market).xbar + dx
    sol = solve_primal(market, LOG, x)
    assert (sol.status, sol.iterations) == (status, iterations)
    assert sol.value == pytest.approx(value, abs=1e-12)


# ---------------------------------------------------------------------------
# piecewise-linear utilities: one epigraph LP

KINKED = PiecewiseLinearUtility((0, 1, 2), (3, 1, 0.5))

# the values at which projected gradient ascent stalled on these markets
# at x = xbar + 0.01 (status max-iterations, at any iteration budget)
ASCENT_VALUES = {1: 1.347499999999985, 9: 0.03856481481363794,
                 11: 1.6037172872155854, 12: 1.0226666666666644,
                 15: 0.09999999999675309, 22: 0.03444444444440671,
                 24: 2.151856881829848}


@pytest.mark.parametrize("seed", sorted(ASCENT_VALUES))
def test_piecewise_primal_is_one_lp(seed):
    market = random_market(random.Random(seed), max_periods=3)
    x = min_support(market).xbar + 0.01
    sol = solve_primal(market, KINKED, x, max_iter=1)  # no iteration budget
    assert (sol.status, sol.iterations, sol.gradient_mapping) == (
        "optimal", 0, None)
    assert sol.value >= ASCENT_VALUES[seed]
    assert is_admissible(market, sol.portfolio)
    probs = market.tree.leaf_probabilities()
    assert sum(float(p) * KINKED(w) for p, w in zip(probs, sol.terminal)) \
        == pytest.approx(sol.value, abs=1e-9)


@pytest.mark.parametrize("seed,value", [(11, 4.155462), (6, 6.136173)])
def test_piecewise_primal_reaches_dual_value(seed, value):
    market = random_market(random.Random(seed), max_periods=3)
    sol = solve_primal(market, KINKED, min_support(market).xbar + 1)
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(value, abs=5e-7)


def test_piecewise_primal_solves_no_ascent_lp(monkeypatch, b1_box):
    import condual.primal

    def refuse(*args):
        raise AssertionError("the LP route needs no start and no free lunch")

    monkeypatch.setattr(condual.primal, "_feasible_start", refuse)
    monkeypatch.setattr(condual.primal, "find_free_lunch_direction", refuse)
    assert solve_primal(b1_box, KINKED, 1.0).status == "optimal"


@pytest.mark.parametrize("spec", [two_period_spec(),
                                  drifted_binomial_spec(2, floor=1)],
                         ids=["no-floor", "floor"])
@pytest.mark.parametrize("exact", [True, False])
def test_worst_leaf_solved_once_per_arithmetic(monkeypatch, spec, exact):
    # the worst-leaf hedge is the start at every wealth: a warm market's
    # smooth primal solves no LP of its own, and answers as a fresh one
    from condual import treelp

    spec = spec if exact else float_copy(spec)
    wealths = [Fraction(x) for x in (3, 6, 10)] + [3.0, 6.0, 10.0]
    fresh = [solve_primal(build_market(spec), LOG, x) for x in wealths]
    lps = []
    monkeypatch.setattr(treelp, "solve_lp", lambda *a, _s=treelp.solve_lp,
                        **k: lps.append(k["exact"]) or _s(*a, **k))
    market = build_market(spec)
    for x, sol in zip(wealths, fresh):
        warm = solve_primal(market, LOG, x)
        assert (warm.status, warm.value) == (sol.status, sol.value)
    assert lps == ([True, False] if exact else [False])


@pytest.mark.parametrize("exact", [True, False])
def test_free_lunch_solved_once_per_market(monkeypatch, exact):
    # the free-lunch direction depends on the market alone: the smooth
    # primal at every wealth and the compactness check share one LP
    spec = drifted_binomial_spec(3)
    spec["constraints"]["default"]["upper"] = ["inf"]
    market = build_market(spec if exact else float_copy(spec))
    calls = _counting_solve_lp(monkeypatch)
    for x in (10, Fraction(21, 2), 11.0):
        assert solve_primal(market, LOG, x).status == "optimal"
    assert check_convex_compactness(market).bounded
    assert len(calls) == 1


def test_unbounded_worst_leaf_is_a_free_lunch(monkeypatch, arbitrage_market):
    import condual.primal

    def refuse(*args):
        raise AssertionError("an unbounded worst leaf needs no free-lunch LP")

    monkeypatch.setattr(condual.primal, "find_free_lunch_direction", refuse)
    sol = solve_primal(arbitrage_market, LOG, 1.0)
    assert (sol.status, sol.value) == ("unbounded", math.inf)


def test_feasibility_verdict_matches_primal_feasible():
    # the kept worst-leaf LP and primal_feasible's own LP agree on either
    # side of the critical wealth
    verdicts = set()
    for seed in range(40):
        market = random_market(random.Random(seed), max_periods=3)
        xbar = min_support(market).xbar
        if not is_finite(xbar):
            continue
        delta = 1e-6 * (1 + abs(xbar))
        for x in (xbar + delta, xbar - delta):
            infeasible = solve_primal(market, LOG, x,
                                      max_iter=1).status == "infeasible"
            assert infeasible == (not primal_feasible(market, x)), (seed, x)
            verdicts.add(infeasible)
    assert verdicts == {True, False}


def test_piecewise_primal_statuses(b1_pinned, arbitrage_market):
    # forced unit holding: the down leaf ends at x - 1/2, below the domain
    sol = solve_primal(b1_pinned, KINKED, 0.4)
    assert (sol.status, sol.value, sol.portfolio) == (
        "infeasible", NEG_INF, None)
    # both increments positive and no cap: the last slope 1/2 is forever
    sol = solve_primal(arbitrage_market, KINKED, 1.0)
    assert (sol.status, sol.value) == ("unbounded", math.inf)


def test_piecewise_primal_needs_halfspaces():
    market = build_market(two_asset_spec(
        {"type": "ball", "center": [0, 0], "radius": "1/2"}))
    with pytest.raises(NotImplementedError, match="halfspace"):
        solve_primal(market, KINKED, 1.0)


def test_ball_market_without_center_start_is_not_infeasible():
    # the ball's center (3, 0) loses 1.3 on the down leaf at x = 1.2, but
    # its point (2, 0) keeps wealth >= 0.2 on every leaf: with no LP to
    # decide feasibility, both answers must refuse rather than say no
    market = build_market(two_asset_spec(
        {"type": "ball", "center": [3, 0], "radius": 1}))
    assert is_admissible(market, PortfolioProcess({0: (2, 0)}))
    with pytest.raises(NotImplementedError, match="halfspace"):
        solve_primal(market, LOG, 1.2)
    with pytest.raises(NotImplementedError, match="halfspace"):
        primal_feasible(market, 1.2)
    # a start at the centers is still used
    assert solve_primal(market, LOG, 2.0).status == "optimal"
    assert primal_feasible(market, 2.0)


@pytest.mark.parametrize("name", ["b1", "b1_box", "b1_pinned", "d1",
                                  "drift_market", "two_period"])
def test_piecewise_primal_bounds_brute_force(request, name):
    market = request.getfixturevalue(name)
    for utility in (KINKED, TabulatedUtility((0.5, 1, 2), (0, 1, 1.5))):
        sol = solve_primal(market, utility, 1.0)
        assert sol.status == "optimal"
        oracle = brute_force_primal(market, utility, 1.0,
                                    {"points": 15, "rounds": 3})
        assert oracle <= sol.value + 1e-9


def _golden_minimum(f, lo, hi, steps=50):
    """Minimum of a convex f on [lo, hi] by golden-section search."""
    r = (math.sqrt(5) - 1) / 2
    c, d = hi - r * (hi - lo), lo + r * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - r * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + r * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def test_piecewise_primal_is_min_of_dual_plus_xy():
    # u(x) = min_y v(y) + xy: LP duality of the one epigraph program
    checked = 0
    for seed in range(40):
        market = random_market(random.Random(seed), max_periods=3)
        xbar = min_support(market).xbar
        if not math.isfinite(xbar):
            continue
        x = float(xbar) + 1.0
        u = solve_primal(market, KINKED, x).value
        dual = _golden_minimum(
            lambda y: solve_dual(market, KINKED, y).value + x * y, 1e-3, 20.0)
        assert u == pytest.approx(dual, abs=1e-7), seed
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_nonfinite_initial_wealth_is_rejected(b1, x):
    with pytest.raises(ValueError, match="initial wealth"):
        solve_primal(b1, LOG, x)
    with pytest.raises(ValueError, match="initial wealth"):
        primal_feasible(b1, x)


def test_wealth_above_infinite_critical_wealth_is_rejected():
    # xbar = -inf here, so xbar + 0.01 is no initial wealth at all
    market = random_market(random.Random(8), max_periods=3)
    xbar = min_support(market).xbar
    assert xbar == NEG_INF
    with pytest.raises(ValueError, match="initial wealth"):
        solve_primal(market, LOG, xbar + 0.01)
