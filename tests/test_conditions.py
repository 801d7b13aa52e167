"""Certificates: nonemptiness, closedness, the supermartingale triple,
the drift condition, and convex compactness."""

import random
from fractions import Fraction

import pytest

from condual.conditions import (
    SupermartingaleCertificate,
    certificate_inequality_residual,
    check_convex_compactness,
    check_drift_condition,
    check_nonempty,
    check_projected_closedness,
    check_supermartingale_condition,
)
from condual.convex import Cone, ProjectionMatrix
from condual.dual import measure_from_weights
from condual.market import PortfolioProcess, build_market

from conftest import binomial_spec, drift_spec

F = Fraction


def sample_admissible(market, rng, count):
    """Random admissible portfolios from each constraint's bounding box."""
    out = []
    while len(out) < count:
        holdings = {}
        for i in market.tree.nonleaf:
            box = market.constraint(i).bounding_box()
            point = []
            for lo, hi in box:
                lo = max(float(lo), -5.0)
                hi = min(float(hi), 5.0)
                point.append(rng.uniform(lo, hi))
            holdings[i] = tuple(point)
        candidate = PortfolioProcess(holdings)
        from condual.market import is_admissible

        if is_admissible(market, candidate):
            out.append(candidate)
    return out


# ---------------------------------------------------------------------------
# conditions (1) and (2)


def test_nonempty_box(b1_box):
    report = check_nonempty(b1_box)
    assert report
    assert report.witness[0] == (0,)


def test_nonempty_singleton(b1_pinned):
    assert check_nonempty(b1_pinned).witness[0] == (1,)


def test_nonempty_endowment_constraint(b1):
    from condual.market import embed_endowment

    augmented, _ = embed_endowment(b1, {"up": F(1), "down": F(0)},
                                   (F(1, 3), F(2, 3)))
    report = check_nonempty(augmented)
    assert report.witness[0] == (0, 1)


def test_projected_closedness_polyhedral(b1, d1):
    for market in (b1, d1):
        report = check_projected_closedness(market)
        assert report
        assert all(v == "true" for v, _ in report.verdicts.values())


def test_projected_closedness_ball():
    market = build_market(binomial_spec(
        {"type": "ball", "center": [0], "radius": 1}))
    assert check_projected_closedness(market)


# ---------------------------------------------------------------------------
# condition (3): the supermartingale triple


def test_certificate_deterministic_trend(d1):
    # measure = the reference one, zero reference holdings, and one unit of
    # compensator per step: the documented "limited riskless gain" pattern
    cert = check_supermartingale_condition(d1)
    assert cert.certified
    assert cert.stage == "reference-compensator"
    assert all(v == (0,) for v in cert.reference.as_dict().values())
    assert cert.compensator == {"t0": 1, "t1": 1}
    assert cert.total_compensator == 2  # horizon many units


def test_searched_measure_lp_only_after_reference_fails(d1, monkeypatch):
    # stage (ii) certifies d1, so only stage (i)'s zero-drift LP is solved
    from condual.treelp import TreeLP

    calls = []
    max_margin = TreeLP.max_margin
    monkeypatch.setattr(TreeLP, "max_margin", lambda self, multipliers=True: (
        calls.append(multipliers) or max_margin(self, multipliers)))
    assert check_supermartingale_condition(d1).stage == "reference-compensator"
    assert calls == [False]


def test_certificate_drift_market(drift_market):
    # increments +1 and +1/2 with equal odds: drift 3/4, compensator |drift|
    cert = check_supermartingale_condition(drift_market)
    assert cert.certified
    assert cert.stage == "reference-compensator"
    assert cert.compensator == {"root": F(3, 4)}


def test_certificate_martingale_stage(b1):
    cert = check_supermartingale_condition(b1)
    assert cert.certified
    assert cert.stage == "martingale-measure"
    assert cert.measure.weights == (F(1, 3), F(2, 3))
    assert all(v == 0 for v in cert.compensator.values())


@pytest.mark.parametrize("fixture", ["b1", "d1", "drift_market", "b1_box",
                                     "b1_pinned", "two_period"])
def test_certificate_soundness_random_portfolios(fixture, request):
    market = request.getfixturevalue(fixture)
    cert = check_supermartingale_condition(market)
    assert cert.certified
    rng = random.Random(hash(fixture) % 2 ** 31)
    for H in sample_admissible(market, rng, 100):
        residual = certificate_inequality_residual(market, cert, H)
        assert float(residual) <= 1e-10


def test_certificate_not_certified_reports_witness(arbitrage_market):
    cert = check_supermartingale_condition(arbitrage_market)
    assert not cert.certified
    assert cert.failure_node == "root"
    assert cert.failure_direction is not None
    # the escape direction really does blow up the support value
    beta = (F(3, 4),)
    ray = cert.failure_direction
    assert sum(r * b for r, b in zip(ray, beta)) > 0


def test_certificate_cone_scaling(drift_market):
    # manual certificate on a conic constraint set: h <= 0
    spec = drift_spec({"type": "box", "lower": ["-inf"], "upper": [0]})
    market = build_market(spec)
    base = check_supermartingale_condition(market)
    assert base.certified
    probe_rng = random.Random(9)
    portfolios = sample_admissible(market, probe_rng, 50)
    for lam in (F(2), F(1, 2)):
        scaled = SupermartingaleCertificate(
            True, base.stage, base.measure,
            PortfolioProcess({i: tuple(lam * v for v in vec)
                              for i, vec in base.reference.as_dict().items()}),
            {nid: lam * da for nid, da in base.compensator.items()},
            base.drifts)
        scaled._market = market
        for H in portfolios:
            assert float(certificate_inequality_residual(market, scaled, H)) <= 1e-10


# ---------------------------------------------------------------------------
# the drift condition


def test_drift_full_span():
    res = check_drift_condition([(F(1),)], (F(1),), Cone.zero(1))
    assert res
    assert res.mu_hat == (1,) and res.nu == (1,) and res.beta == (0,)


def test_drift_zero_span_trivial_barrier():
    res = check_drift_condition([], (F(1),), Cone.zero(1))
    assert not res


def test_drift_zero_span_full_barrier():
    res = check_drift_condition([], (F(1),), Cone.full(1))
    assert res
    assert res.mu_hat == (0,) and res.beta == (1,)


def test_drift_projection_input():
    proj = ProjectionMatrix(((F(1), F(0)), (F(0), F(0))))
    barrier = Cone(2, "halfspace", ((F(0), F(1)), (F(0), F(-1))))  # x-axis
    res = check_drift_condition(proj, (F(2), F(0)), barrier)
    assert res
    assert res.beta[1] == 0


def test_drift_generator_barrier():
    barrier = Cone(1, "generator", ((F(1),),))  # nonnegative half-line
    res = check_drift_condition([], (F(3),), barrier)
    assert res and res.beta == (3,)
    res = check_drift_condition([], (F(-3),), barrier)
    assert not res


def test_drift_memberships_exact_rational():
    basis = [(F(1), F(2))]
    barrier = Cone(2, "halfspace", ((F(-1), F(0)), (F(0), F(-1))))
    drift = (F(3), F(4))
    res = check_drift_condition(basis, drift, barrier)
    if res:
        assert all(isinstance(v, F) or v == int(v) for v in res.mu_hat)
        assert barrier.contains(res.beta, tol=0)
        span_check = res.mu_hat[0] * basis[0][1] == res.mu_hat[1] * basis[0][0]
        assert span_check


# ---------------------------------------------------------------------------
# convex compactness


def test_compactness_unconstrained_binomial(b1):
    assert check_convex_compactness(b1)


def test_compactness_free_lunch_detected():
    spec = {
        "horizon": 1,
        "dimension": 1,
        "nodes": [
            {"id": "r", "time": 0, "parent": None, "prob": 1, "prices": [1]},
            {"id": "u", "time": 1, "parent": "r", "prob": "1/2", "prices": [2]},
            {"id": "d", "time": 1, "parent": "r", "prob": "1/2", "prices": [1]},
        ],
        "constraints": {"r": {"type": "box", "lower": ["-inf"], "upper": ["inf"]}},
    }
    market = build_market(spec)
    result = check_convex_compactness(market)
    assert result.verdict == "false"
    assert result.escape_direction is not None
    assert result.escape_direction[0][0] > 0


def test_compactness_capped_trend(d1):
    # the cap stops the profitable direction: recession only below zero
    assert check_convex_compactness(d1)


def test_compactness_uncapped_trend(arbitrage_market):
    assert check_convex_compactness(arbitrage_market).verdict == "false"


@pytest.mark.parametrize("fixture", ["b1", "d1", "drift_market", "b1_box",
                                     "b1_pinned"])
def test_proposition_direction_meta(fixture, request):
    # whenever all three conditions certify, compactness holds
    market = request.getfixturevalue(fixture)
    if (check_nonempty(market) and check_projected_closedness(market)
            and check_supermartingale_condition(market).certified):
        assert check_convex_compactness(market)


def test_projected_closedness_unknown_propagates(b1):
    # a constraint set outside the recognized variants leaves the per-node
    # verdict, and therefore the aggregate, at "unknown"
    from condual.convex import ConvexSet
    from condual.market import MarketModel

    class Exotic(ConvexSet):
        dim = 1

        def halfspaces(self):
            return None

        def is_bounded(self):
            return None

    market = MarketModel(b1.tree, b1.prices, ((0, Exotic()),))
    report = check_projected_closedness(market)
    assert report.verdicts["root"][0] == "unknown"
    assert report.overall == "unknown"
    assert not report
