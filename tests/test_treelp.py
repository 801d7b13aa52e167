"""The compiled LP rows against an independent route: the wealth recursion."""

import glob
import os
import random

import pytest

from condual.market import parse_market_file, wealth_process
from condual.randomgen import random_admissible_portfolio, random_market
from condual.treelp import tree_lp

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
    rng = random.Random(name)
    for _ in range(5):
        portfolio = random_admissible_portfolio(rng, market)
        h = [v for i in market.tree.nonleaf for v in portfolio[i]]
        assert lp.portfolio(h) == portfolio
        wealth = wealth_process(market, portfolio, 0)
        node_gains = tuple(sum(a * x for a, x in zip(row, h)) for row in lp.N)
        leaf_gains = tuple(sum(a * x for a, x in zip(row, h)) for row in lp.L)
        assert node_gains == wealth.values
        assert leaf_gains == wealth.leaf_values(market)
        assert all(sum(a * x for a, x in zip(row, h)) <= bound
                   for row, bound in zip(lp.A, lp.b))
    assert lp.L_f.tolist() == [[float(v) for v in row] for row in lp.L]
    assert not lp.L_f.flags.writeable
