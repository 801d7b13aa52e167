"""Certificates: nonemptiness, closedness, the supermartingale triple,
and convex compactness."""

import os
import random
from fractions import Fraction

import pytest

from condual import conditions, convex
from condual.conditions import (
    SupermartingaleCertificate,
    certificate_inequality_residual,
    check_convex_compactness,
    check_nonempty,
    check_projected_closedness,
    check_supermartingale_condition,
)
from condual.market import PortfolioProcess, build_market, is_admissible, \
    parse_market_file
from condual.randomgen import random_tree_spec

from conftest import ball_floor_spec, binomial_spec, drift_spec, float_copy

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


@pytest.mark.parametrize("floor, witness", [("1/2", (1,)), ("1/4", None)])
def test_nonempty_floor_lp(floor, witness):
    # the box [1, 3] against a down move of -1/2: its center 2 loses 1 and
    # breaches both floors, so the phase-1 LP over the floor rows decides;
    # under floor 1/2 only h = 1 is admissible, under floor 1/4 nothing is
    spec = binomial_spec({"type": "box", "lower": [1], "upper": [3]})
    spec["floor"] = floor
    market = build_market(spec)
    center = PortfolioProcess({0: market.constraint(0).center()})
    assert not is_admissible(market, center)
    report = check_nonempty(market)
    assert report.nonempty is (witness is not None)
    if witness is None:
        assert report.witness is None
    else:
        assert report.witness[0] == witness
        assert is_admissible(market, report.witness)


def test_nonempty_floor_lp_needs_halfspaces():
    # the ball's center breaks the floor, so only the phase-1 LP could
    # decide, and the ball has no rows for it: an error, not "empty" (the
    # zero portfolio is admissible)
    market = build_market(ball_floor_spec())
    assert is_admissible(market, PortfolioProcess({0: (0, 0)}))
    assert not is_admissible(
        market, PortfolioProcess({0: market.constraint(0).center()}))
    with pytest.raises(NotImplementedError, match="halfspace"):
        check_nonempty(market)


def test_projected_closedness_polyhedral(b1, d1):
    for market in (b1, d1):
        report = check_projected_closedness(market)
        assert report
        assert all(v == "true" for v, _ in report.verdicts.values())


def test_projected_closedness_builds_no_projection(b1, d1, monkeypatch):
    # both closedness criteria read the set alone: the projection onto the
    # increments' span is never needed
    def refuse(increments):
        raise AssertionError("a projection was built")
    for module in (convex, conditions):
        monkeypatch.setattr(module, "predictable_range_projection", refuse,
                            raising=False)
    for market in (b1, d1):
        assert check_projected_closedness(market)


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


def test_certificate_on_exact_ball_is_exact():
    # the exact ball [1/4, 3/4] answers its support in Fractions: the
    # reference is its upper end and the compensator vanishes
    market = build_market(drift_spec(
        {"type": "ball", "center": ["1/2"], "radius": "1/4"}))
    cert = check_supermartingale_condition(market)
    assert cert.stage == "reference-compensator"
    (h,), dA = cert.reference[0], cert.compensator["root"]
    assert (h, dA) == (F(3, 4), 0) and type(h) is type(dA) is F


def test_float_twin_certificate_matches_exact():
    # the float max-margin measure meets a zero drift only up to rounding,
    # and a half-line node then reads its support on that face: each float
    # twin keeps the verdict and stage of its exact market
    for seed in range(40):
        spec = random_tree_spec(random.Random(seed))
        exact = check_supermartingale_condition(build_market(spec))
        twin = check_supermartingale_condition(build_market(float_copy(spec)))
        assert (twin.certified, twin.stage) \
            == (exact.certified, exact.stage), seed


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


def test_certificate_of_random24_matches_its_record():
    # random24's zero portfolio is not admissible, and no equivalent
    # martingale measure exists, so the certificate comes from stage (ii):
    # the reference measure, the per-node support argmax as reference and
    # the support-value compensator.  Every field, recorded exactly
    market = parse_market_file(os.path.join(
        os.path.dirname(__file__), "fixtures", "random24.json"))
    cert = check_supermartingale_condition(market)
    assert (cert.certified, cert.stage) == (True, "reference-compensator")
    assert cert.measure.weights == (
        F(1, 108), F(1, 54), F(1, 36), F(1, 9), F(1, 9), F(2, 27), F(1, 27),
        F(1, 9), F(9, 160), F(3, 32), F(3, 80), F(5, 52), F(3, 26), F(1, 26),
        F(1, 32), F(1, 32))
    assert cert.measure.weights == market.tree.leaf_probabilities()
    assert cert.reference.holdings == (
        (0, (F(-2),)), (1, (F(1, 2),)), (2, (F(4, 3),)), (3, (F(0),)),
        (4, (F(-1, 2),)), (5, (F(-1),)), (6, (F(-4),)), (7, (F(3, 2),)),
        (8, (F(-2, 3),)))
    assert cert.compensator == {f"n{i}": 0 for i in range(9)}
    assert cert.drifts == {
        "n0": (F(-4, 3),), "n1": (F(8, 9),), "n2": (F(1, 24),),
        "n3": (F(-1, 12),), "n4": (F(1, 6),), "n5": (F(-2, 9),),
        "n6": (F(-3, 20),), "n7": (F(7, 26),), "n8": (F(0),)}
    assert (cert.failure_node, cert.failure_direction, cert.notes) \
        == (None, None, [])
    assert cert.total_compensator == 0


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
