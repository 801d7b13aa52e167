"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a PASS line with the measured quantities when its
assertions hold, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from condual.conditions import (
    certificate_inequality_residual,
    check_supermartingale_condition,
)
from condual.convex import Cone, polar_cone, predictable_range_projection, \
    support_function
from condual.dual import superhedge_price
from condual.market import embed_endowment
from condual.primal import brute_force_primal, solve_primal
from condual.randomgen import random_constraint_doc, random_direction, \
    random_market, random_payoff
from condual.scalars import INF
from condual.utility import (
    LogUtility,
    PiecewiseLinearUtility,
    PowerUtility,
    conjugate,
    check_rae,
    eval_utility,
    marginal,
)
from condual.verify import verify_conjugacy, verify_primal_dual_link, verify_xbar

from helpers import subprocess_env
from test_conditions import sample_admissible

F = Fraction
LOG = LogUtility()


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_01_binomial_log_primal(b1):
    start = time.perf_counter()
    # oracle first: re-derive the optimum by brute force on a fine grid
    oracle_value = brute_force_primal(
        b1, LOG, 1.0, {"points": 3801, "rounds": 3,
                       "box": {"root": [(-1.9, 1.9)]}})
    hs = np.linspace(-0.9, 1.9, 28001)
    objective = 0.5 * np.log(1.0 + hs) + 0.5 * np.log(1.0 - 0.5 * hs)
    oracle_h = float(hs[int(np.argmax(objective))])
    closed_form = 0.5 * math.log(1.5) + 0.5 * math.log(0.75)
    assert oracle_value == pytest.approx(closed_form, abs=1e-6)
    assert oracle_h == pytest.approx(0.5, abs=1e-4)

    sol = solve_primal(b1, LOG, 1.0)
    elapsed = time.perf_counter() - start
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(closed_form, abs=1e-5)
    assert sol.value == pytest.approx(oracle_value, abs=1e-5)
    assert sol.portfolio[0][0] == pytest.approx(0.5, abs=1e-4)
    assert elapsed < 1.0
    _report("criterion 1",
            f"u(1)={sol.value:.6f} (closed form {closed_form:.6f}), "
            f"H={sol.portfolio[0][0]:.6f}, {elapsed:.2f}s")


def test_criterion_02_conjugacy_on_fixtures(b1, b1_pinned, b1_box, d1):
    start = time.perf_counter()
    # grids are aligned so the conjugate extremum lands on grid points:
    # the y values are the marginal values of u at the x grid
    cases = [
        ("binomial", b1, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]),
        ("box", b1_box, [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]),
        # pinned holding: u(x) = (log(x+1) + log(x-1/2)) / 2, u'(x) below
        ("pinned", b1_pinned, [0.6, 1.0, 2.0],
         sorted(0.5 / (x + 1) + 0.5 / (x - 0.5) for x in (0.6, 1.0, 2.0))),
        # deterministic trend: u(x) = log(x + 2), u'(x) = 1/(x + 2)
        ("trend", d1, [0.5, 1.0, 2.0],
         sorted(1.0 / (x + 2.0) for x in (0.5, 1.0, 2.0))),
    ]
    worst = 0.0
    for name, market, xs, ys in cases:
        report = verify_conjugacy(market, LOG, xs, ys, tol=1e-5)
        assert report.ok, f"{name}: conjugacy verdict failed"
        worst = max(worst, max(r.residual for r in report.records))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    _report("criterion 2",
            f"4 fixtures, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_xbar_triple_agreement(b1, b1_pinned, b1_box, d1):
    for name, market in [("binomial", b1), ("pinned", b1_pinned),
                         ("box", b1_box), ("trend", d1)]:
        report = verify_xbar(market, tol=1e-6)
        assert report.ok, f"{name}: triple spread {report.spread}"
    pinned = verify_xbar(b1_pinned, tol=1e-6)
    assert pinned.from_support == F(1, 2)   # exact in rational mode
    assert pinned.from_essinf == F(1, 2)
    _report("criterion 3",
            f"spreads <= 1e-6 on 4 fixtures; pinned value exactly 1/2")


def test_criterion_04_primal_dual_link_scaling(b1):
    base = verify_primal_dual_link(b1, LOG, 1.0, tol=1e-4)
    assert base.ok and base.max_residual <= 1e-5
    halved = verify_primal_dual_link(b1, LOG, 1.0, tol=5e-5)
    ratio = halved.max_residual / base.max_residual
    # halving the tolerance halves the residual, within a factor of 4
    assert 0.5 / 4.0 <= ratio <= 0.5 * 4.0
    _report("criterion 4",
            f"residual {base.max_residual:.2e} -> {halved.max_residual:.2e} "
            f"(ratio {ratio:.3f})")


def test_criterion_05_superhedging_lp_duality():
    rng = random.Random(2026)
    checked = 0
    for _ in range(10):
        market = random_market(rng, constraint_palette=("box", "pin",
                                                        "halfline"))
        for _ in range(10):
            payoff = random_payoff(rng, market)
            res = superhedge_price(market, payoff)
            if res.price == float("-inf"):
                continue  # unbounded improvement direction: no finite price
            assert res.price == res.dual_value  # exact rational LP duality
            shift = superhedge_price(market,
                                     tuple(v + F(7, 10) for v in payoff))
            assert shift.price == res.price + F(7, 10)
            checked += 1
    assert checked >= 100
    _report("criterion 5",
            f"{checked} payoffs: primal == dual exactly, translation exact")


def test_criterion_06_certificate_soundness(b1, d1, drift_market, b1_box,
                                            b1_pinned):
    for name, market in [("binomial", b1), ("trend", d1),
                         ("drift", drift_market), ("box", b1_box),
                         ("pinned", b1_pinned)]:
        cert = check_supermartingale_condition(market)
        assert cert.certified, name
        rng = random.Random(len(name))
        for H in sample_admissible(market, rng, 100):
            resid = certificate_inequality_residual(market, cert, H)
            assert float(resid) <= 1e-10, f"{name}: residual {resid}"
    d1_cert = check_supermartingale_condition(d1)
    assert d1_cert.compensator == {"t0": 1, "t1": 1}  # unit per step
    assert d1_cert.total_compensator == d1.tree.horizon
    _report("criterion 6",
            "5 certificates x 100 admissible portfolios, residuals <= 1e-10; "
            "trend compensator = 1 per step, total = horizon")


def test_criterion_07_convex_geometry_suite():
    rng = random.Random(77)
    for _ in range(200):
        dim = rng.randint(2, 4)
        rows = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                     for _ in range(rng.randint(dim, dim + 3)))
        cone = Cone(dim, "halfspace", rows).canonical()
        back = polar_cone(polar_cone(cone)).canonical()
        assert back.rows == cone.rows

    from condual.convex import set_from_json

    for _ in range(500):
        dim = rng.randint(1, 3)
        cset = set_from_json(random_constraint_doc(
            rng, dim, ("box", "halfline", "pin", "polyhedron")))
        xi = random_direction(rng, dim)
        eta = random_direction(rng, dim)
        lam = F(rng.randint(0, 6), 2)
        v = support_function(cset, xi)
        scaled = support_function(cset, tuple(lam * a for a in xi))
        if v == INF:
            assert lam == 0 or scaled == INF
        else:
            assert scaled == lam * v
        assert support_function(cset, tuple(a + b for a, b in zip(xi, eta))) \
            <= v + support_function(cset, eta)

    nprng = np.random.default_rng(7)
    for _ in range(100):
        d = int(nprng.integers(1, 5))
        incs = nprng.normal(size=(int(nprng.integers(1, d + 2)), d))
        P = predictable_range_projection([tuple(r) for r in incs]).as_array()
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(P, P.T, atol=1e-10)
    _report("criterion 7",
            "200 polar round trips exact, 500 support-function pairs, "
            "100 projections within 1e-10")


def test_criterion_08_endowment_embedding(two_period):
    # pricing measure: one-step martingale weights are 1/3 everywhere
    q = (F(1, 9), F(2, 9), F(2, 9), F(4, 9))
    leaves = [two_period.tree.nodes[i].node_id for i in two_period.tree.leaves]
    payoff = dict(zip(leaves, (F(1), F(1, 2), F(1, 4), F(0))))

    augmented, offset = embed_endowment(two_period, payoff, q)
    w = 1.0
    direct = brute_force_primal(
        two_period, LOG, w,
        {"points": 33, "rounds": 9, "terminal_offset": payoff})
    via_embedding = solve_primal(augmented, LOG, w - float(offset), tol=1e-10)
    assert via_embedding.status == "optimal"
    assert via_embedding.value == pytest.approx(direct, abs=1e-6)

    zero = dict.fromkeys(leaves, F(0))
    augmented0, offset0 = embed_endowment(two_period, zero, q)
    assert offset0 == 0
    for x in (0.8, 1.0, 1.5, 2.5):
        base = solve_primal(two_period, LOG, x, tol=1e-10).value
        lifted = solve_primal(augmented0, LOG, x, tol=1e-10).value
        assert lifted == pytest.approx(base, abs=1e-8)
    _report("criterion 8",
            f"augmented value {via_embedding.value:.8f} vs direct oracle "
            f"{direct:.8f}; zero endowment neutral on 4 wealth levels")


def test_criterion_09_utility_validation():
    for p in (0.3, 0.5, 0.8):
        grid = [1.0, 2.0, 5.0, 17.0]
        assert check_rae(PowerUtility(p), 1.0, 2 ** p + 1e-3, grid).holds_on_grid
        assert not check_rae(PowerUtility(p), 1.0, 2 ** p - 1e-3,
                             grid).holds_on_grid
    linear = PiecewiseLinearUtility((0.0,), (1.0,))
    assert not check_rae(linear, 1.0, 1.999, [1.0, 4.0]).holds_on_grid
    assert check_rae(LOG, 10.0, 1.5, [10.0, 100.0, 1e6]).holds_on_grid

    for u in (LOG, PowerUtility(0.3), PowerUtility(0.5), PowerUtility(0.8)):
        for x in (0.2, 1.0, 3.7, 9.0):
            y = marginal(u, x)[1]
            gap = conjugate(u, y) + x * y - eval_utility(u, x)
            assert abs(gap) <= 1e-8
    _report("criterion 9",
            "growth verdicts sharp at 2^p +- 1e-3; Fenchel-Young equality "
            "within 1e-8")


def test_criterion_10_property_suite_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "condual.cli", "properties", "--seed", "42",
         "--format", "json"],
        capture_output=True, timeout=120, env=subprocess_env())
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout.decode()[-2000:]
    doc = json.loads(proc.stdout.decode())
    assert doc["verdict"] == "pass"
    assert all(r["passed"] for r in doc["results"])
    assert elapsed < 60.0
    _report("criterion 10",
            f"`condual properties --seed 42` green in {elapsed:.1f}s "
            f"({len(doc['results'])} properties)")
