"""Conjugacy, critical-wealth, and first-order-linkage verification."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condual.verify
from condual.dual import MinSupportResult, min_support, solve_dual
from condual.market import build_market
from condual.primal import primal_feasible, solve_primal
from condual.randomgen import random_market
from condual.treelp import tree_lp
from condual.utility import LogUtility, PiecewiseLinearUtility, PowerUtility
from condual.verify import (
    verify_conjugacy,
    verify_primal_dual_link,
    verify_xbar,
)

from conftest import binomial_spec, empty_floor_spec, short_arbitrage_spec

LOG = LogUtility()

# closed forms for the unconstrained binomial with log utility:
# u(x) = log x + u(1), v(y) = -log y - 1 + u(1)
U1 = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)


def test_conjugacy_binomial_log(b1):
    report = verify_conjugacy(b1, LOG, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert report.ok
    # the (x, y) = (1, 1) record reproduces the closed forms by hand
    rec = next(r for r in report.records
               if r.kind == "dual-from-primal" and r.point == 1.0)
    assert rec.lhs == pytest.approx(-1.0 + U1, abs=1e-6)
    assert rec.residual <= 1e-5


def test_conjugacy_no_trading_reduces_to_fenchel():
    market = build_market(binomial_spec({"type": "singleton", "point": [0]}))
    report = verify_conjugacy(market, LOG, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert report.ok
    rec = next(r for r in report.records
               if r.kind == "primal-from-dual" and r.point == 1.0)
    # u = U and v = V here, so the relation is plain conjugate duality
    assert rec.lhs == pytest.approx(0.0, abs=1e-8)  # log(1)


def test_conjugacy_deterministic_trend(d1):
    # aligned grids: y = u'(x) = 1/(x + 2)
    xs = [0.5, 1.0, 2.0]
    ys = sorted(1.0 / (x + 2.0) for x in xs)
    report = verify_conjugacy(d1, LOG, xs, ys)
    assert report.ok
    assert max(r.residual for r in report.records) <= 1e-5


def test_conjugacy_rejects_x_below_critical(b1_pinned):
    with pytest.raises(ValueError):
        verify_conjugacy(b1_pinned, LOG, [0.4, 1.0], [1.0])


def test_conjugacy_weak_duality_all_pairs(b1_box):
    xs = [0.5, 1.0, 2.0]
    ys = [0.5, 1.0, 2.0]
    report = verify_conjugacy(b1_box, LOG, xs, ys)
    us = {r.point: r.lhs for r in report.records if r.kind == "primal-from-dual"}
    vs = {r.point: r.lhs for r in report.records if r.kind == "dual-from-primal"}
    for x in xs:
        for y in ys:
            assert us[x] <= vs[y] + x * y + 1e-10


# ---------------------------------------------------------------------------
# critical initial wealth


def test_xbar_pinned(b1_pinned):
    report = verify_xbar(b1_pinned, tol=1e-6)
    assert report.ok
    assert float(report.from_support) == pytest.approx(0.5, abs=1e-9)
    assert float(report.from_essinf) == pytest.approx(0.5, abs=1e-9)
    assert report.infeasible_at == pytest.approx(0.5 - 1e-6, abs=1e-12)
    assert report.feasible_at == pytest.approx(0.5 + 1e-6, abs=1e-12)


def test_xbar_unconstrained(b1):
    report = verify_xbar(b1, tol=1e-6)
    assert report.ok
    assert abs(float(report.from_support)) <= 1e-12


def test_xbar_no_trading():
    market = build_market(binomial_spec({"type": "singleton", "point": [0]}))
    report = verify_xbar(market, tol=1e-6)
    assert report.ok and report.from_support == 0


def test_xbar_deterministic_trend(d1):
    report = verify_xbar(d1, tol=1e-6)
    assert report.ok
    assert float(report.from_support) == pytest.approx(-2.0, abs=1e-9)


@pytest.mark.parametrize("kwargs", [{"tol": 0}, {"tol": -1e-6}])
def test_xbar_rejects_bad_tolerance_and_bracket(b1, kwargs):
    with pytest.raises(ValueError):
        verify_xbar(b1, **kwargs)


def count_feasibility_lps(monkeypatch):
    """Record each wealth level verify_xbar hands to primal_feasible."""
    levels = []

    def counted(market, x):
        levels.append(x)
        return primal_feasible(market, x)

    monkeypatch.setattr(condual.verify, "primal_feasible", counted)
    return levels


def test_xbar_bracket_lp_count(monkeypatch, b1_pinned):
    levels = count_feasibility_lps(monkeypatch)
    assert verify_xbar(b1_pinned).ok
    assert len(levels) <= 2
    for spec in (short_arbitrage_spec(), empty_floor_spec()):
        levels.clear()
        assert verify_xbar(build_market(spec)).ok
        assert len(levels) == 1


@pytest.mark.parametrize("shift, ok", [
    (10.0, False), (-10.0, False), (0.4, True), (-0.4, True),
])
def test_xbar_bracket_catches_shifted_support(monkeypatch, b1_pinned,
                                              shift, ok):
    # both min_support sides moved together keep |a - b| = 0, so only the
    # feasibility bracket can tell a wrong critical wealth from the true 1/2
    tol = 1e-6
    ms = min_support(b1_pinned)
    shifted = MinSupportResult(ms.inf_alpha - shift * tol,
                               ms.sup_essinf - shift * tol,
                               ms.xbar + shift * tol)
    monkeypatch.setattr(condual.verify, "min_support", lambda market: shifted)
    report = verify_xbar(b1_pinned, tol=tol)
    assert report.spread == 0.0
    assert report.ok is ok


# ---------------------------------------------------------------------------
# first-order linkage


def test_link_binomial_log_hand_values(b1):
    # y-hat = 1, densities (2/3, 4/3), inverse slope 1/z: leaves (1.5, 0.75)
    report = verify_primal_dual_link(b1, LOG, 1.0, tol=1e-5)
    assert report.ok
    assert report.y_hat == pytest.approx(1.0, abs=1e-4)
    assert report.max_residual <= 1e-5


def test_link_no_trading_power():
    market = build_market(binomial_spec({"type": "singleton", "point": [0]}))
    report = verify_primal_dual_link(market, PowerUtility(0.5), 1.0, tol=1e-5)
    assert report.ok
    # y-hat = U'(1) = 1 and the terminal wealth is identically 1
    assert report.y_hat == pytest.approx(1.0, abs=1e-4)


def test_link_binding_box(b1_box):
    report = verify_primal_dual_link(b1_box, LOG, 1.0, tol=1e-5)
    assert report.ok
    assert report.max_residual <= 1e-5


def test_link_residual_tracks_tolerance(b1):
    r1 = verify_primal_dual_link(b1, LOG, 1.0, tol=1e-4).max_residual
    r2 = verify_primal_dual_link(b1, LOG, 1.0, tol=5e-5).max_residual
    assert r2 <= 2.0 * r1 + 1e-15
    assert r2 >= r1 / 8.0 - 1e-15


def test_link_detects_shifted_terminal_wealth(b1, monkeypatch):
    # a primal whose terminal wealth is off by delta must fail the check
    delta = 1e-3
    solve = condual.verify.solve_primal

    def shifted(*args, **kwargs):
        sol = solve(*args, **kwargs)
        sol.terminal = tuple(w + delta for w in sol.terminal)
        return sol

    monkeypatch.setattr(condual.verify, "solve_primal", shifted)
    report = verify_primal_dual_link(b1, LOG, 1.0, tol=delta / 4)
    assert delta / 2 <= report.max_residual <= 2 * delta
    assert report.ok is False


def test_link_rejects_nonsmooth():
    market = build_market(binomial_spec())
    kinked = PiecewiseLinearUtility((0.0, 1.0), (2.0, 1.0))
    with pytest.raises(ValueError):
        verify_primal_dual_link(market, kinked, 1.0)


def test_link_solves_each_problem_once(b1, monkeypatch):
    # the dual point comes from the primal optimum, not from a search
    calls = {"primal": 0, "dual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(condual.verify, "solve_primal",
                        counted("primal", condual.verify.solve_primal))
    monkeypatch.setattr(condual.verify, "solve_dual",
                        counted("dual", condual.verify.solve_dual))
    assert verify_primal_dual_link(b1, LOG, 1.0).ok
    assert calls == {"primal": 1, "dual": 1}


def test_link_y_hat_is_expected_marginal_utility():
    # y_hat = E[U'(X_T)] at the primal optimum; here a search for the
    # minimizer of v(y) + xy stopped short of a 1e-5 per-leaf residual
    market = random_market(random.Random(1), max_periods=3)
    x = float(min_support(market).xbar) + 5
    report = verify_primal_dual_link(market, LOG, x, tol=1e-5)
    assert report.ok
    terminal = solve_primal(market, LOG, x).terminal
    expected = sum(float(p) / float(w) for p, w in
                   zip(market.tree.leaf_probabilities(), terminal))
    assert report.y_hat == pytest.approx(expected, rel=1e-12)


def test_golden_values_hold_in_float_mode():
    # the float twin of the binomial market: same verdicts at float grade
    from conftest import float_copy

    market = build_market(float_copy(binomial_spec()))
    assert not market.exact
    report = verify_xbar(market, tol=1e-6)
    assert report.ok
    conj = verify_conjugacy(market, LOG, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0])
    assert conj.ok
    link = verify_primal_dual_link(market, LOG, 1.0, tol=1e-5)
    assert link.ok


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 2),
       utility=st.sampled_from([LOG, PowerUtility(0.5)]),
       dx=st.floats(0.05, 8.0))
def test_primal_meets_dual_on_random_box_markets(seed, dim, utility, dx):
    # floorless boxes up to four periods: weak duality u(x) <= v(y) + x y
    # on a y grid, and the first-order link holds or abstains
    market = random_market(random.Random(seed), max_periods=4, dim=dim,
                           constraint_palette=("box",))
    x = float(min_support(market).xbar) + dx
    u = float(solve_primal(market, utility, x).value)
    for y in (0.25, 1.0, 4.0):
        v = float(solve_dual(market, utility, y).value)
        assert u <= v + x * y + 1e-9 * (1.0 + abs(u) + abs(v) + x * y)
    report = verify_primal_dual_link(market, utility, x)
    # dependent columns of L (a node with fewer moves than assets, or one
    # whose moves are all zero) make the ascent refuse every Newton step,
    # and its gradient steps stop with leaf wealth up to about 4e-4 off,
    # past the link's tolerance of 1e-5; there the verdict is not asserted
    L = tree_lp(market).rows(False)[2]
    if np.linalg.matrix_rank(L) == L.shape[1]:
        assert report.ok in (True, None)
