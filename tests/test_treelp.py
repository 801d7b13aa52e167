"""The compiled LP rows against an independent route: the wealth recursion."""

import glob
import os
import random

import numpy as np
import pytest

from condual.market import build_market, parse_market_file, wealth_process
from condual.randomgen import random_admissible_portfolio, random_market
from condual.treelp import tree_lp

from conftest import float_copy, two_asset_spec

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
    market = build_market(two_asset_spec(
        {"type": "ball", "center": [0, 0], "radius": 1}))
    lp = tree_lp(market)
    A, b, L, N, R, p = lp.rows(False)
    assert not lp.polyhedral and A is None and b is None
    assert L.tolist() == [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]
    assert p.tolist() == [1 / 3] * 3
    for build in (lambda: lp.worst_leaf(False, 0), lambda: lp.lifted(False)):
        with pytest.raises(NotImplementedError, match="halfspace form"):
            build()


MIXED_SETS = [
    {"type": "box", "lower": [-1, 0], "upper": [2, 1]},
    {"type": "box", "lower": ["-inf", "-inf"], "upper": [1, "1/2"]},
    {"type": "singleton", "point": ["1/3", -2]},
    {"type": "affine_fixed", "dim": 2, "fixed": {"1": 2}},
    {"type": "cross_fixed", "base": {"type": "box", "lower": [-1], "upper": [1]},
     "fixed": [1]},
    {"type": "cross_fixed", "base": {"type": "ball", "center": [0], "radius": 1},
     "fixed": ["1/2"]},
    {"type": "polyhedron", "A": [[1, 1], [-1, 0], [0, -1]], "b": [1, 0, 0]},
    {"type": "ball", "center": ["1/2", -1], "radius": "3/2"},
    {"type": "intersection", "members": [
        {"type": "box", "lower": [-2, -2], "upper": [2, 2]},
        {"type": "polyhedron", "A": [[1, 1]], "b": [1]}]},
]


def mixed_spec():
    """Two periods in dimension two: the root and its eight children carry
    the nine sets of MIXED_SETS, one kind per node."""
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": 1, "prices": [2, 2]}]
    for k in range(8):
        mid = [2 + k % 3 - 1, 2 - k % 2]
        nodes.append({"id": f"c{k}", "time": 1, "parent": "r", "prob": "1/8",
                      "prices": mid})
        for j, step in enumerate((1, -1)):
            nodes.append({"id": f"c{k}{j}", "time": 2, "parent": f"c{k}",
                          "prob": "1/2",
                          "prices": [mid[0] + step, mid[1] - step]})
    ids = ["r"] + [f"c{k}" for k in range(8)]
    return {"horizon": 2, "dimension": 2, "nodes": nodes,
            "constraints": dict(zip(ids, MIXED_SETS))}


@pytest.mark.parametrize("exact", [True, False])
def test_stacked_projection_matches_per_node(exact):
    market = build_market(mixed_spec() if exact else float_copy(mixed_spec()))
    lp = tree_lp(market)
    d = market.dim
    sets = [(lp.offsets[i], market.constraint(i)) for i in market.tree.nonleaf]
    for o, cset in sets:
        # box-shaped sets are clipped, every other one is projected alone
        bounds = cset.box_bounds()
        lo, hi = lp.box_lo[o:o + d], lp.box_hi[o:o + d]
        if bounds is None:
            assert (lo == -np.inf).all() and (hi == np.inf).all()
        else:
            assert np.array_equal(lo, bounds[0]) and np.array_equal(hi, bounds[1])
    assert sum(cset.box_bounds() is None for _, cset in sets) == 4
    rng = np.random.default_rng(11)
    for _ in range(40):
        h = 3 * rng.standard_normal(lp.n_h)
        expected = np.concatenate([cset.project(h[o:o + d]) for o, cset in sets])
        out = lp.project(h)
        assert out.dtype == float and np.array_equal(out, expected)
