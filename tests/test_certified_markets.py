"""The certified exact LP route against a tableau-only run on exact markets
in one and two dimensions, with and without a floor: identical prices,
supports and free-lunch verdicts, and every hedge, measure and direction
passing its own exact check (each route may pick another optimal point)."""

import math
import random

import pytest

from condual import linprog
from condual.dual import min_support, superhedge_price, support_alpha
from condual.market import build_market
from condual.primal import find_free_lunch_direction
from condual.randomgen import random_payoff, random_tree_spec
from condual.scalars import INF, NEG_INF
from condual.treelp import tree_lp

from conftest import (binomial_spec, drift_spec, drifted_binomial_spec,
                      empty_floor_spec, two_period_spec)
from helpers import check_certificates


def _specs():
    box = {"type": "box", "lower": [-1], "upper": [1]}
    half_line = {"type": "box", "lower": [-1], "upper": ["inf"]}
    yield "b1-box-floor", dict(binomial_spec(box), floor="1/2")
    yield "two-period-floor", dict(two_period_spec(), floor=1)
    yield "half-line-floor", dict(drift_spec(half_line), floor=1)
    yield "empty-floor", empty_floor_spec()
    yield "drifted-T3-floor", drifted_binomial_spec(3, floor=2)
    for seed in range(40):
        spec = random_tree_spec(random.Random(seed), max_periods=3)
        yield f"random-{seed}", spec
        yield f"random-{seed}-floor", dict(spec, floor=1)
    for seed in range(12):
        spec = random_tree_spec(random.Random(seed), max_periods=3, dim=2)
        yield f"random-2d-{seed}", spec
        yield f"random-2d-{seed}-floor", dict(spec, floor=1)


SPECS = dict(_specs())


def _answers(market, payoff):
    """The exact values, each answer checked on its own terms."""
    sh = superhedge_price(market, payoff)
    if sh.price not in (INF, NEG_INF):
        check_certificates(market, payoff, sh)
    ms = min_support(market)
    if ms.inf_alpha not in (INF, NEG_INF):
        q = ms.minimizer.weights
        assert all(w >= 0 for w in q) and sum(q) == 1
        assert support_alpha(market, q) == ms.inf_alpha
    direction = find_free_lunch_direction(market)
    if direction is not None:
        lp = tree_lp(market)
        _, _, L, _, R, _ = lp.rows(True)
        h = [v for i in lp.offsets for v in direction[i]]
        gains = [sum(a * v for a, v in zip(row, h)) for row in L]
        assert all(g >= 0 for g in gains) and sum(gains) == 1
        assert all(sum(a * v for a, v in zip(row, h)) <= 0 for row in R)
    return (sh.price, sh.dual_value, ms.inf_alpha, ms.sup_essinf, ms.xbar,
            direction is None)


@pytest.mark.parametrize("name", SPECS)
def test_certified_route_matches_tableau(monkeypatch, name):
    market = build_market(SPECS[name])
    if not tree_lp(market).polyhedral:
        pytest.skip("a ball constraint has no halfspace form")
    assert market.exact
    payoff = random_payoff(random.Random(name), market)
    fast = _answers(market, payoff)
    monkeypatch.setattr(linprog, "EXACT_HIGHS_CELLS", math.inf)
    slow = _answers(build_market(SPECS[name]), payoff)
    assert fast == slow


@pytest.mark.parametrize("name", ["two-period-floor", "drifted-T3-floor",
                                  "random-26-floor"])
def test_floor_markets_take_the_certified_route(monkeypatch, name):
    market = build_market(SPECS[name])
    routes = []
    solve = linprog._certified
    monkeypatch.setattr(linprog, "_certified",
                        lambda *a: routes.append(res := solve(*a)) or res)
    _answers(market, random_payoff(random.Random(name), market))
    assert routes and all(res.route == "certified" for res in routes)
