"""Primal solver against closed forms and the brute-force oracle."""

import math
import random

import numpy as np
import pytest

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
from condual.scalars import NEG_INF
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
