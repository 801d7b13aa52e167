"""The compiled LP rows against an independent route: the wealth recursion."""

import glob
import os
import random

import numpy as np
import pytest

from condual.market import build_market, parse_market_file, wealth_process
from condual.randomgen import random_admissible_portfolio, random_market
from condual.treelp import tree_lp

from conftest import binomial_spec

FIXTURES = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                         "fixtures", "*.json")))


def _markets():
    for path in FIXTURES:
        yield os.path.basename(path), parse_market_file(path)
    for seed in range(12):
        rng = random.Random(3000 + seed)
        yield f"random-{seed}", random_market(rng, dim=1 + seed % 2)


MARKETS = list(_markets())


@pytest.mark.parametrize("name,market", MARKETS, ids=[n for n, _ in MARKETS])
def test_gain_rows_match_wealth_process(name, market):
    assert market.exact
    lp = tree_lp(market)
    assert tree_lp(market) is lp  # compiled once per market
    A, b, L, N = lp.rows(True)[:4]
    rng = random.Random(name)
    for _ in range(5):
        portfolio = random_admissible_portfolio(rng, market)
        h = [v for i in market.tree.nonleaf for v in portfolio[i]]
        assert lp.portfolio(h) == portfolio
        wealth = wealth_process(market, portfolio, 0)
        node_gains = tuple(sum(a * x for a, x in zip(row, h)) for row in N)
        leaf_gains = tuple(sum(a * x for a, x in zip(row, h)) for row in L)
        assert node_gains == wealth.values
        assert leaf_gains == wealth.leaf_values(market)
        assert all(sum(a * x for a, x in zip(row, h)) <= bound
                   for row, bound in zip(A, b))
    L_f = lp.rows(False)[2]
    assert L_f.tolist() == [[float(v) for v in row] for row in L]
    assert not L_f.flags.writeable


@pytest.mark.parametrize("name,market", MARKETS[-2:], ids=[n for n, _ in MARKETS[-2:]])
def test_rows_per_arithmetic(name, market):
    # exact rows hold the market's own numbers, float rows their values;
    # each set is built once and cannot be written to
    lp = tree_lp(market)
    exact, floats = lp.rows(True), lp.rows(False)
    assert lp.rows(True) is exact and lp.rows(False) is floats
    for e, f in zip(exact, floats):
        assert e.dtype == object and f.dtype == float
        assert not e.flags.writeable and not f.flags.writeable
        assert np.array_equal(e.astype(float), f)


def test_ball_market_has_gain_rows_only():
    market = build_market(binomial_spec(
        {"type": "ball", "center": [0], "radius": 1}))
    lp = tree_lp(market)
    A, b, L, N, R, p = lp.rows(False)
    assert not lp.polyhedral and A is None and b is None
    assert L.tolist() == [[1.0], [-0.5]] and p.tolist() == [0.5, 0.5]
    for build in (lambda: lp.worst_leaf(False, 0), lambda: lp.lifted(False)):
        with pytest.raises(NotImplementedError, match="halfspace form"):
            build()
