"""Tree construction, wealth recursion, admissibility, endowment embedding."""

import copy
import glob
import json
import os
import random
from fractions import Fraction

import pytest

from condual.market import (
    PortfolioProcess,
    build_market,
    embed_endowment,
    is_admissible,
    market_to_json,
    parse_market_file,
    validate_market,
    wealth_process,
)
from condual.randomgen import random_market, random_tree_spec
from condual.scalars import SchemaError

from conftest import binomial_spec, deterministic_spec, float_copy

F = Fraction
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_build_binomial(b1):
    assert b1.dim == 1
    assert b1.tree.horizon == 1
    assert len(b1.tree.nodes) == 3
    assert b1.exact
    assert sum(b1.tree.leaf_probabilities()) == 1


def test_build_rejects_bad_probabilities():
    spec = binomial_spec()
    spec["nodes"][1]["prob"] = "2/5"  # sums to 0.9
    with pytest.raises(SchemaError):
        build_market(spec)
    spec = binomial_spec()
    spec["nodes"][1]["prob"] = -0.1
    with pytest.raises(SchemaError):
        build_market(spec)


def test_build_deterministic(d1):
    # the deterministic trend market: a single path, increments +1
    assert d1.tree.leaves == (2,)
    assert d1.increment(1) == (1,)
    assert d1.increment(2) == (1,)


def test_build_rejects_wrong_depth():
    spec = deterministic_spec()
    spec["horizon"] = 3
    with pytest.raises(SchemaError):
        build_market(spec)


def test_build_rejects_missing_constraint():
    spec = binomial_spec()
    spec["constraints"] = {}
    with pytest.raises(SchemaError):
        build_market(spec)


def test_build_rejects_empty_constraint():
    spec = binomial_spec({"type": "box", "lower": [1], "upper": [0]})
    with pytest.raises(SchemaError):
        build_market(spec)


@pytest.mark.parametrize("seed", range(4))
def test_increments_are_built_once_per_market(seed):
    market = random_market(random.Random(seed), dim=1 + seed % 2)
    for n in market.tree.nodes[1:]:
        increment = market.increment(n.index)
        assert market.increment(n.index) is increment
        assert increment == tuple(c - p for c, p in zip(
            market.prices[n.index], market.prices[n.parent]))


def test_wealth_forced_arithmetic(b1):
    H = PortfolioProcess.constant(b1, (F(1, 2),))
    w = wealth_process(b1, H, F(1))
    assert w.leaf_values(b1) == (F(3, 2), F(3, 4))


def test_wealth_zero_portfolio_constant(two_period):
    H = PortfolioProcess.constant(two_period, (0,))
    w = wealth_process(two_period, H, F(7, 3))
    assert all(v == F(7, 3) for v in w.values)


def test_wealth_dimension_mismatch(b1):
    with pytest.raises(ValueError):
        wealth_process(b1, PortfolioProcess.constant(b1, (1, 2)), 0)


@pytest.mark.parametrize("seed", range(6))
def test_wealth_linearity_random_trees(two_period, seed):
    rng = random.Random(seed)

    def rand_portfolio():
        return PortfolioProcess({
            i: (F(rng.randint(-8, 8), rng.randint(1, 4)),)
            for i in two_period.tree.nonleaf})

    H, G = rand_portfolio(), rand_portfolio()
    a = F(rng.randint(-4, 4), rng.randint(1, 3))
    b = F(rng.randint(-4, 4), rng.randint(1, 3))
    x = F(rng.randint(-3, 3))
    combined = wealth_process(two_period, H.combine(G, a, b), x)
    wh = wealth_process(two_period, H, 0)
    wg = wealth_process(two_period, G, 0)
    for i in range(len(two_period.tree.nodes)):
        assert combined.values[i] == x + a * wh.values[i] + b * wg.values[i]


def test_admissible_capped_market(d1):
    assert is_admissible(d1, PortfolioProcess.constant(d1, (1,)))
    report = is_admissible(d1, PortfolioProcess.constant(d1, (2,)))
    assert not report
    assert report.violating_node == "t0"


def test_admissible_singleton(b1_pinned):
    assert is_admissible(b1_pinned, PortfolioProcess.constant(b1_pinned, (1,)))
    assert not is_admissible(b1_pinned, PortfolioProcess.constant(b1_pinned, (0,)))


def test_admissibility_floor():
    spec = binomial_spec()
    spec["floor"] = "1/4"
    market = build_market(spec)
    # wealth from 0 at the down leaf: h * (-1/2) >= -1/4  <=>  h <= 1/2
    assert is_admissible(market, PortfolioProcess.constant(market, (F(1, 2),)))
    report = is_admissible(market, PortfolioProcess.constant(market, (F(3, 4),)))
    assert not report and report.reason.startswith("wealth below")


@pytest.mark.parametrize("seed", range(5))
def test_admissibility_convex_combination(two_period, seed):
    # convexity of the admissible class: mix two admissible portfolios
    rng = random.Random(100 + seed)

    def rand_admissible():
        while True:
            H = PortfolioProcess({
                i: (F(rng.randint(-2, 2)),) for i in two_period.tree.nonleaf})
            if is_admissible(two_period, H):
                return H

    H, G = rand_admissible(), rand_admissible()
    lam = F(rng.randint(0, 10), 10)
    assert is_admissible(two_period, H.combine(G, lam, 1 - lam))


def test_validate_clean(b1):
    assert validate_market(b1) == []


def test_validate_reports_injected_problems(b1):
    # tamper with the built model to exercise the re-checker
    broken = b1.__class__(b1.tree, b1.prices, b1.constraints[:0], b1.floor)
    problems = validate_market(broken)
    assert any("missing constraint" in p for p in problems)


def test_market_json_roundtrip(b1):
    doc = market_to_json(b1)
    again = build_market(doc)
    assert market_to_json(again) == doc


def test_float_mode_twin():
    market = build_market(float_copy(binomial_spec()))
    assert not market.exact
    assert sum(market.tree.leaf_probabilities()) == pytest.approx(1, abs=1e-12)


# ---------------------------------------------------------------------------
# endowment embedding


def test_embed_endowment_binomial(b1):
    # martingale measure: q * 1 + (1-q) * (-1/2) = 0  =>  q = 1/3
    augmented, offset = embed_endowment(
        b1, {"up": F(1), "down": F(0)}, (F(1, 3), F(2, 3)))
    assert offset == F(-1, 3)
    assert augmented.dim == 2
    assert augmented.prices[0] == (F(1), F(1, 3))   # synthetic price at root
    assert augmented.prices[1][1] == 1 and augmented.prices[2][1] == 0
    cset = augmented.constraint(0)
    assert cset.contains((F(5), F(1)))
    assert not cset.contains((F(5), F(0)))


def test_embed_requires_martingale_measure(b1):
    with pytest.raises(ValueError):
        embed_endowment(b1, {"up": F(1), "down": F(0)}, (F(1, 2), F(1, 2)))


def test_embed_requires_equivalence(b1):
    with pytest.raises(ValueError):
        embed_endowment(b1, {"up": F(1), "down": F(0)}, (F(1), F(0)))


def test_embed_refuses_a_measure_of_the_wrong_length():
    # a short measure used to escape as a KeyError from inside the subtree
    # pass; a long one was cut to the leaf count, so that the trailing 0
    # went unseen by the equivalence check
    market = random_market(random.Random(0))
    payoff = {market.tree.nodes[i].node_id: F(1) for i in market.tree.leaves}
    assert len(market.tree.leaves) == 8
    with pytest.raises(ValueError, match="one weight per leaf"):
        embed_endowment(market, payoff, (F(1, 7),) * 7)
    b1 = parse_market_file(os.path.join(FIXTURES, "b1.json"))
    with pytest.raises(ValueError, match="one weight per leaf"):
        embed_endowment(b1, {"up": F(1), "down": F(0)},
                        (F(1, 3), F(2, 3), F(0)))


def test_embed_zero_endowment_zero_prices(b1):
    augmented, offset = embed_endowment(
        b1, {"up": F(0), "down": F(0)}, (F(1, 3), F(2, 3)))
    assert offset == 0
    assert all(p[1] == 0 for p in augmented.prices)


def test_embed_box_constraint_appends_unit():
    spec = binomial_spec({"type": "box", "lower": [-1], "upper": [1]})
    market = build_market(spec)
    augmented, _ = embed_endowment(
        market, {"up": F(2), "down": F(1)}, (F(1, 3), F(2, 3)))
    cset = augmented.constraint(0)
    assert cset.contains((F(1), F(1)))
    assert not cset.contains((F(1), F(1, 2)))
    assert not cset.contains((F(2), F(1)))


@pytest.mark.parametrize("base", [
    {"type": "singleton", "point": [1]},
    {"type": "affine_fixed", "dim": 1, "fixed": {}},
    {"type": "affine_fixed", "dim": 1, "fixed": {"0": "1/2"}},
])
def test_embed_wraps_singleton_and_pinned_sets(base):
    # singletons and pinned sets are boxes, but the embedding keeps them as
    # the base of a cross_fixed set, as it keeps every set but a plain box
    market = build_market(binomial_spec(base))
    augmented, _ = embed_endowment(
        market, {"up": F(2), "down": F(1)}, (F(1, 3), F(2, 3)))
    written = market_to_json(augmented)["constraints"]["root"]
    assert written == {"type": "cross_fixed", "base": base, "fixed": [1]}


def test_embed_endowment_value_matches_direct_objective(b1):
    # two routes to the same number: solve the augmented market, or
    # maximize E[U(w + gains + payoff)] directly by brute force
    import math

    from condual.primal import brute_force_primal, solve_primal
    from condual.utility import LogUtility

    payoff = {"up": F(1), "down": F(0)}
    augmented, offset = embed_endowment(b1, payoff, (F(1, 3), F(2, 3)))
    w = 1.0
    direct = brute_force_primal(
        b1, LogUtility(), w,
        {"points": 41, "rounds": 9, "box": {"root": [(-0.9, 1.9)]},
         "terminal_offset": payoff})
    lifted = solve_primal(augmented, LogUtility(), w - float(offset), tol=1e-10)
    assert lifted.status == "optimal"
    assert math.isclose(lifted.value, direct, abs_tol=1e-6)


def test_validate_reports_wrong_leaf_depth(b1):
    # bypass the constructor guard and hand-build a tree whose leaf sits
    # short of the horizon; the re-checker must name the problem
    from condual.market import EventTree, MarketModel, Node

    nodes = (
        Node(0, "root", 0, None, (1,), F(1)),
        Node(1, "early-leaf", 1, 0, (), F(1)),
    )
    broken = MarketModel(EventTree(nodes, horizon=2),
                         ((F(1),), (F(2),)),
                         ((0, b1.constraint(0)),))
    problems = validate_market(broken)
    assert any("early-leaf" in p and "time" in p for p in problems)


def _reference_accepts(spec):
    """A reference for build_market's verdict on a document whose structure
    is valid: a positive probability at every node, leaves at the horizon
    and no children there, each node's children summing to 1 (exactly when
    they are exact, else within 1e-9), a nonnegative floor, and leaf path
    probabilities summing to 1 (exactly in an exact market, else within
    1e-12)."""
    from condual.scalars import all_exact, parse_number

    nodes = {n["id"]: n for n in spec["nodes"]}
    prob = {nid: parse_number(n["prob"]) for nid, n in nodes.items()}
    kids = {nid: [c for c, n in nodes.items() if n["parent"] == nid]
            for nid in nodes}
    for nid, n in nodes.items():
        below = [prob[c] for c in kids[nid]]
        if prob[nid] <= 0 or (below and n["time"] >= spec["horizon"]):
            return False
        if not below and n["time"] != spec["horizon"]:
            return False
        if below and abs(sum(below) - 1) > (0 if all_exact(below) else 1e-9):
            return False
    floor = spec.get("floor")
    if floor is not None and parse_number(floor) < 0:
        return False
    mass = 0
    for nid in nodes:
        if not kids[nid]:
            p, up = prob[nid], nodes[nid]["parent"]
            while up is not None:
                p, up = p * prob[up], nodes[up]["parent"]
            mass += p
    scalars = list(prob.values()) + [parse_number(v) for n in nodes.values()
                                     for v in n["prices"]]
    if floor is not None:
        scalars.append(parse_number(floor))
    return abs(mass - 1) <= (0 if all_exact(scalars) else 1e-12)


def _edits(spec):
    """The document and copies of it that probe each reference check."""
    first = next(n for n in spec["nodes"] if n["parent"] == "n0")
    sibling = next(n for n in spec["nodes"]
                   if n["parent"] == "n0" and n is not first)

    def edited(change, twin=False):
        doc = float_copy(spec) if twin else copy.deepcopy(spec)
        change(doc, {n["id"]: n for n in doc["nodes"]})
        return doc

    def shift(delta):
        def change(doc, by_id):
            by_id[first["id"]]["prob"] = str(F(first["prob"]) + delta)
            by_id["n0"]["prices"] = [float(F(v))
                                     for v in by_id["n0"]["prices"]]
        return change

    def set_field(nid, key, value):
        return lambda doc, by_id: by_id[nid].__setitem__(key, value)

    def set_top(key, value):
        return lambda doc, by_id: doc.__setitem__(key, value)

    def float_shift(delta):
        def change(doc, by_id):
            by_id[first["id"]]["prob"] += delta
        return change

    def moved_mass(doc, by_id):
        by_id[first["id"]]["prob"] = str(-F(first["prob"]))
        by_id[sibling["id"]]["prob"] = str(F(sibling["prob"])
                                           + 2 * F(first["prob"]))

    yield spec
    yield float_copy(spec)
    # exact children in a float-priced market, off by 1e-13 either way
    yield edited(shift(F(1, 10**13)))
    yield edited(shift(-F(1, 10**13)))
    yield edited(shift(0))
    # float children inside the per-node tolerance, and outside it
    for delta in (1e-13, 1e-11, 1e-10, 1e-8):
        yield edited(float_shift(delta), twin=True)
    yield edited(moved_mass)
    for root_prob in (0, -1, "1/2"):
        yield edited(set_field("n0", "prob", root_prob))
    for floor in ("-1", "0", "1/2"):
        yield edited(set_top("floor", floor))
    yield edited(set_top("horizon", spec["horizon"] + 1))
    if spec["horizon"] > 1:
        yield edited(set_top("horizon", spec["horizon"] - 1))


def _accepts(spec):
    try:
        build_market(spec)
    except SchemaError:
        return False
    return True


def test_build_market_verdicts_match_the_reference_rules():
    # build_market leaves these checks to validate_market
    verdicts = []
    for seed in range(40):
        for doc in _edits(random_tree_spec(random.Random(seed))):
            verdicts.append(_accepts(doc))
            assert verdicts[-1] == _reference_accepts(doc), (seed, doc)
    assert 100 < verdicts.count(True) < len(verdicts) - 100


def test_fixtures_pass_the_document_rules():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        assert _accepts(doc) and _reference_accepts(doc), path


def test_validate_market_holds_exact_children_to_an_exact_sum(b1):
    # a float-priced market whose exact children sum to 1 + 1e-13: refused
    # although the market as a whole is not exact
    from condual.market import EventTree, MarketModel, Node

    up = F(1, 2) + F(1, 10**13)
    nodes = (Node(0, "root", 0, None, (1, 2), F(1)),
             Node(1, "up", 1, 0, (), up), Node(2, "down", 1, 0, (), F(1, 2)))
    market = MarketModel(EventTree(nodes, 1), ((1.0,), (2.0,), (0.5,)),
                         b1.constraints)
    assert not market.exact
    assert any("sum to" in p for p in validate_market(market))
