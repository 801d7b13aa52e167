"""Golden market fixtures used throughout the suite.

All of them are rational-valued so the exact LP mode is exercised by
default; float twins are obtained by json-roundtripping through floats.
"""

import copy
from fractions import Fraction

import pytest

from condual.market import build_market


def binomial_spec(constraint=None):
    """One-period binomial: S0 = 1, up to 2 (dS = +1) w.p. 1/2,
    down to 1/2 (dS = -1/2) w.p. 1/2."""
    constraint = constraint or {"type": "box", "lower": ["-inf"], "upper": ["inf"]}
    return {
        "horizon": 1,
        "dimension": 1,
        "nodes": [
            {"id": "root", "time": 0, "parent": None, "prob": 1, "prices": [1]},
            {"id": "up", "time": 1, "parent": "root", "prob": "1/2", "prices": [2]},
            {"id": "down", "time": 1, "parent": "root", "prob": "1/2",
             "prices": ["1/2"]},
        ],
        "constraints": {"root": constraint},
    }


def short_arbitrage_spec():
    """Binomial market whose increments are both negative, with unbounded
    short selling: riskless gains grow without limit, so every initial
    wealth is viable and the critical wealth is -inf."""
    spec = binomial_spec({"type": "box", "lower": ["-inf"], "upper": [0]})
    spec["nodes"][1]["prices"] = ["1/2"]   # dS = -1/2
    spec["nodes"][2]["prices"] = ["1/4"]   # dS = -3/4
    return spec


def empty_floor_spec():
    """The pinned holding loses 1/2 in the down state; a floor of 1/4 rules
    every portfolio out, so no initial wealth is feasible: critical wealth
    +inf."""
    spec = binomial_spec({"type": "singleton", "point": [1]})
    spec["floor"] = "1/4"
    return spec


def deterministic_spec():
    """Two-period deterministic trend: prices follow the time index and the
    holding is capped at 1 each period."""
    cap = {"type": "box", "lower": ["-inf"], "upper": [1]}
    return {
        "horizon": 2,
        "dimension": 1,
        "nodes": [
            {"id": "t0", "time": 0, "parent": None, "prob": 1, "prices": [0]},
            {"id": "t1", "time": 1, "parent": "t0", "prob": 1, "prices": [1]},
            {"id": "t2", "time": 2, "parent": "t1", "prob": 1, "prices": [2]},
        ],
        "constraints": {"t0": cap, "t1": cap},
    }


def drift_spec(constraint=None):
    """One-period market whose increments are both positive (no martingale
    measure exists); default holding constraint [-1, 1]."""
    constraint = constraint or {"type": "box", "lower": [-1], "upper": [1]}
    return {
        "horizon": 1,
        "dimension": 1,
        "nodes": [
            {"id": "root", "time": 0, "parent": None, "prob": 1, "prices": [1]},
            {"id": "up", "time": 1, "parent": "root", "prob": "1/2", "prices": [2]},
            {"id": "down", "time": 1, "parent": "root", "prob": "1/2",
             "prices": ["3/2"]},
        ],
        "constraints": {"root": constraint},
    }


def two_asset_spec(constraint):
    """One period, two assets: S0 = (1, 1) moves by (1, 0), (0, 1) or
    (-1/2, -1/2), w.p. 1/3 each.  A ball here has no halfspace form."""
    return {
        "horizon": 1,
        "dimension": 2,
        "nodes": [
            {"id": "root", "time": 0, "parent": None, "prob": 1,
             "prices": [1, 1]},
            {"id": "up", "time": 1, "parent": "root", "prob": "1/3",
             "prices": [2, 1]},
            {"id": "mid", "time": 1, "parent": "root", "prob": "1/3",
             "prices": [1, 2]},
            {"id": "down", "time": 1, "parent": "root", "prob": "1/3",
             "prices": ["1/2", "1/2"]},
        ],
        "constraints": {"root": constraint},
    }


def two_period_spec(constraint=None):
    """Recombining-free two-period binary tree with rational data."""
    constraint = constraint or {"type": "box", "lower": [-2], "upper": [2]}
    return {
        "horizon": 2,
        "dimension": 1,
        "nodes": [
            {"id": "r", "time": 0, "parent": None, "prob": 1, "prices": [1]},
            {"id": "u", "time": 1, "parent": "r", "prob": "1/2", "prices": [2]},
            {"id": "d", "time": 1, "parent": "r", "prob": "1/2", "prices": ["1/2"]},
            {"id": "uu", "time": 2, "parent": "u", "prob": "1/3", "prices": [3]},
            {"id": "ud", "time": 2, "parent": "u", "prob": "2/3", "prices": ["3/2"]},
            {"id": "du", "time": 2, "parent": "d", "prob": "1/2", "prices": [1]},
            {"id": "dd", "time": 2, "parent": "d", "prob": "1/2", "prices": ["1/4"]},
        ],
        "constraints": {"default": constraint},
    }


def drifted_binomial_spec(periods, floor=None):
    """Binomial tree over the given number of periods: S_0 = 10, dS = +1 or
    -1/2 w.p. 1/2 each, the box [-2, 2] at every node."""
    nodes = [{"id": "n", "time": 0, "parent": None, "prob": 1,
              "prices": [10]}]
    frontier = [("n", Fraction(10))]
    for t in range(1, periods + 1):
        frontier = [(nid + tag, s + ds) for nid, s in frontier
                    for tag, ds in (("u", 1), ("d", Fraction(-1, 2)))]
        nodes += [{"id": nid, "time": t, "parent": nid[:-1], "prob": "1/2",
                   "prices": [str(s)]} for nid, s in frontier]
    spec = {"horizon": periods, "dimension": 1, "nodes": nodes,
            "constraints": {"default": {"type": "box", "lower": [-2],
                                        "upper": [2]}}}
    if floor is not None:
        spec["floor"] = floor
    return spec


@pytest.fixture
def b1():
    return build_market(binomial_spec())


@pytest.fixture
def b1_pinned():
    return build_market(binomial_spec({"type": "singleton", "point": [1]}))


@pytest.fixture
def b1_box():
    return build_market(binomial_spec({"type": "box", "lower": [-1], "upper": [1]}))


@pytest.fixture
def d1():
    return build_market(deterministic_spec())


@pytest.fixture
def drift_market():
    return build_market(drift_spec())


@pytest.fixture
def arbitrage_market():
    return build_market(drift_spec({"type": "box", "lower": ["-inf"],
                                    "upper": ["inf"]}))


@pytest.fixture
def two_period():
    return build_market(two_period_spec())


def float_copy(spec):
    """Replace rational strings by floats: the float-mode twin of a spec."""
    def conv(v):
        if isinstance(v, str):
            try:
                return float(Fraction(v))
            except ValueError:
                return v
        if isinstance(v, list):
            return [conv(x) for x in v]
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, int) and not isinstance(v, bool):
            return float(v)
        return v

    spec = copy.deepcopy(spec)
    spec["nodes"] = conv(spec["nodes"])
    spec["constraints"] = conv(spec["constraints"])
    spec["horizon"] = int(spec["horizon"])
    spec["dimension"] = int(spec["dimension"])
    return spec
