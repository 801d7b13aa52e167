"""Backward induction against the global LPs it replaces for markets
without a floor, and the certificates it returns."""

import random
from fractions import Fraction as F

import pytest

import condual.linprog as linprog
from condual.dual import (
    _min_support_lp,
    _superhedge_lp,
    min_support,
    superhedge_price,
    support_alpha,
)
from condual.market import build_market
from condual.randomgen import random_payoff, random_tree_spec
from condual.scalars import INF, NEG_INF
from condual.treelp import tree_lp

from conftest import float_copy


def _draws():
    # d = 1 up to T = 5 (binary trees keep the oracle LPs small), d = 2 up
    # to T = 3; the default palette: box, half-line, pin, polyhedron
    for seed in range(14):
        yield 1, seed, dict(max_periods=5, max_children=2)
    for seed in range(8):
        yield 1, 100 + seed, dict(max_periods=3)
    for seed in range(8):
        yield 2, 200 + seed, dict(max_periods=3, max_children=2, dim=2)


DRAWS = list(_draws())


def _dot(row, h):
    return sum(a * x for a, x in zip(row, h))


def check_certificates(market, payoff, res):
    """The hedge dominates the payoff from the price and is admissible; the
    witness is a probability measure whose value is the price."""
    A, b, L = tree_lp(market).rows(True)[:3]
    x, H = res.portfolio_x[0], res.portfolio_x[1:]
    assert x == res.price
    assert all(x + _dot(row, H) >= f for row, f in zip(L, payoff))
    assert all(_dot(row, H) <= bound for row, bound in zip(A, b))
    q = res.witness.weights
    assert all(w >= 0 for w in q) and sum(q) == 1
    value = sum(w * f for w, f in zip(q, payoff)) - support_alpha(market, q)
    assert value == res.dual_value == res.price


@pytest.mark.parametrize("dim,seed,kwargs", DRAWS,
                         ids=[f"d{d}-{s}" for d, s, _ in DRAWS])
def test_recursion_matches_global_lp(dim, seed, kwargs):
    rng = random.Random(seed)
    spec = random_tree_spec(rng, **kwargs)
    market = build_market(spec)
    twin = build_market(float_copy(spec))
    assert market.exact and market.floor is None

    ms, oracle = min_support(market), _min_support_lp(market)
    assert tuple(ms) == tuple(oracle)
    if ms.inf_alpha != INF:
        assert support_alpha(market, ms.minimizer) == ms.inf_alpha
        assert sum(ms.minimizer.weights) == 1

    for _ in range(3):
        payoff = random_payoff(rng, market)
        res = superhedge_price(market, payoff)
        ref = _superhedge_lp(market, payoff, True)
        assert isinstance(res.price, F) or res.price == NEG_INF
        assert (res.price, res.bound) == (ref.price, ref.bound)
        if res.price == NEG_INF:
            assert res.witness is None and res.dual_value == NEG_INF
            continue
        check_certificates(market, payoff, res)
        flt = superhedge_price(twin, tuple(float(v) for v in payoff))
        assert flt.price == pytest.approx(float(res.price), rel=1e-9,
                                          abs=1e-9)


def _binary(prices, constraints):
    """Two-period binary tree r -> (u, d) -> leaves, with the given prices
    (node id -> price) and constraint descriptors."""
    parent = {"r": None, "u": "r", "d": "r",
              "uu": "u", "ud": "u", "du": "d", "dd": "d"}
    nodes = [{"id": nid, "time": len(nid) if nid != "r" else 0,
              "parent": parent[nid], "prob": "1/2" if parent[nid] else 1,
              "prices": [prices[nid]]} for nid in parent]
    return build_market({"horizon": 2, "dimension": 1, "nodes": nodes,
                         "constraints": constraints})


def free_box():
    return {"type": "box", "lower": ["-inf"], "upper": ["inf"]}


def test_constrained_arbitrage():
    # both moves go up and the holding is unbounded above: a free lunch
    market = _binary({"r": 1, "u": 2, "d": "3/2", "uu": 3, "ud": "5/2",
                      "du": 2, "dd": "7/4"}, {"default": free_box()})
    ms = min_support(market)
    assert (ms.inf_alpha, ms.sup_essinf, ms.xbar) == (INF, INF, NEG_INF)
    assert ms.minimizer is None
    assert tuple(_min_support_lp(market)) == tuple(ms)
    res = superhedge_price(market, (F(1), F(0), F(0), F(2)))
    assert (res.price, res.dual_value, res.bound) == (NEG_INF, NEG_INF, INF)
    assert res.portfolio_x is None and res.witness is None


def test_free_lunch_in_one_subtree_only():
    # below u both moves go up with an unbounded holding; the pinned root
    # keeps the price finite, and the witness puts no mass under u
    market = _binary({"r": 1, "u": 2, "d": "1/2", "uu": 3, "ud": "5/2",
                      "du": 1, "dd": "1/4"},
                     {"r": {"type": "singleton", "point": ["1/2"]},
                      "u": free_box(),
                      "d": {"type": "box", "lower": [-1], "upper": [1]}})
    payoff = (F(5), F(-3), F(2), F(1, 3))
    res = superhedge_price(market, payoff)
    assert res.price == _superhedge_lp(market, payoff, True).price
    assert res.price not in (INF, NEG_INF)
    assert res.witness.weights[:2] == (0, 0)
    check_certificates(market, payoff, res)
    ms = min_support(market)
    assert tuple(ms) == tuple(_min_support_lp(market))
    assert ms.minimizer.weights[:2] == (0, 0)


def test_zero_increment_child():
    # three children at the root, the middle one with no price move
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": 1, "prices": [2]},
             {"id": "a", "time": 1, "parent": "r", "prob": "1/4", "prices": [3]},
             {"id": "b", "time": 1, "parent": "r", "prob": "1/4", "prices": [2]},
             {"id": "c", "time": 1, "parent": "r", "prob": "1/2", "prices": [1]}]
    for cset in (free_box(), {"type": "box", "lower": [-1], "upper": [2]}):
        market = build_market({"horizon": 1, "dimension": 1, "nodes": nodes,
                               "constraints": {"r": cset}})
        for payoff in ((F(0), F(4), F(0)), (F(3), F(-1), F(0)),
                       (F(0), F(0), F(0)), (F(-2), F(1), F(5))):
            res = superhedge_price(market, payoff)
            assert res.price == _superhedge_lp(market, payoff, True).price
            check_certificates(market, payoff, res)
        assert tuple(min_support(market)) == tuple(_min_support_lp(market))


@pytest.mark.parametrize("side", ["below", "above"])
def test_unbounded_half_line(side):
    half = {"type": "box", "lower": ["-inf"], "upper": [2]} if side == "below" \
        else {"type": "box", "lower": [-1], "upper": ["inf"]}
    market = _binary({"r": 1, "u": 2, "d": "1/2", "uu": 3, "ud": "3/2",
                      "du": 1, "dd": "1/4"}, {"default": half})
    rng = random.Random(side)
    for _ in range(10):
        payoff = random_payoff(rng, market)
        res = superhedge_price(market, payoff)
        assert res.price == _superhedge_lp(market, payoff, True).price
        check_certificates(market, payoff, res)
    assert tuple(min_support(market)) == tuple(_min_support_lp(market))


def test_one_dimensional_pricing_solves_no_lp(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an LP was solved")

    rng = random.Random(7)
    spec = random_tree_spec(rng, max_periods=3, max_children=2)
    markets = [build_market(spec), build_market(float_copy(spec))]
    payoff = random_payoff(rng, markets[0])
    for market in markets:
        tree_lp(market)  # compiling reads the sets, which may solve LPs
    monkeypatch.setattr(linprog, "_simplex_exact", forbidden)
    monkeypatch.setattr(linprog, "_solve_float", forbidden)
    for market in markets:
        superhedge_price(market, payoff)
        min_support(market)
