"""Seeded cross-solver sweep over random markets, plus infinite-wealth edges.

The sweep seed is the one that originally surfaced a HiGHS-undecided
feasibility LP (now settled by the exact-arithmetic fallback) and the
infinite critical-wealth cases, so it stays as a regression net.
"""

import random
from fractions import Fraction

from condual.dual import min_support, superhedge_price
from condual.market import build_market
from condual.randomgen import random_market, random_payoff
from condual.scalars import INF, NEG_INF
from condual.verify import verify_xbar

from conftest import empty_floor_spec, short_arbitrage_spec

F = Fraction


def test_random_market_sweep_consistency():
    rng = random.Random(1234)
    for _ in range(15):
        dim = rng.choice([1, 1, 2])
        market = random_market(
            rng, max_periods=3 if dim == 1 else 2,
            max_children=3 if dim == 1 else 2, dim=dim,
            constraint_palette=("box", "pin", "halfline", "polyhedron"))
        ms = min_support(market)
        if ms.inf_alpha not in (INF, NEG_INF):
            assert ms.inf_alpha == ms.sup_essinf
        payoff = random_payoff(rng, market)
        res = superhedge_price(market, payoff)
        if res.dual_value != NEG_INF:
            assert res.price == res.dual_value
        assert verify_xbar(market, tol=1e-5).ok


def test_constrained_arbitrage_critical_wealth_minus_infinity():
    market = build_market(short_arbitrage_spec())
    ms = min_support(market)
    assert ms.inf_alpha == INF           # no measure tames the support value
    assert ms.sup_essinf == INF          # unlimited riskless terminal gains
    assert ms.xbar == NEG_INF
    report = verify_xbar(market)
    assert report.ok                     # all three routes agree at -inf
    assert report.feasible_at == -100.0
    assert report.infeasible_at is None


def test_floor_empties_admissible_class():
    market = build_market(empty_floor_spec())
    ms = min_support(market)
    assert ms.inf_alpha == NEG_INF
    assert ms.sup_essinf == NEG_INF
    assert ms.xbar == INF
    report = verify_xbar(market)
    assert report.ok
    assert report.infeasible_at == 100.0
    assert report.feasible_at is None
