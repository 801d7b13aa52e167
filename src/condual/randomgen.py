"""Seeded random instances: trees, constraint sets, payoffs, portfolios.

Everything is generated with small rational data by default so the exact LP
mode is exercised; the float twins are just float() images of the same
numbers.  Used by the randomized property suite and by tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .convex import Box, Polyhedron
from .market import MarketModel, PortfolioProcess, build_market
from .scalars import INF, NEG_INF

F = Fraction


def random_tree_spec(rng: random.Random, max_periods=3, max_children=3,
                     dim=1, constraint_palette=("box", "halfline", "pin",
                                                "polyhedron")):
    """Spec dict for a random rational market."""
    horizon = rng.randint(1, max_periods)
    nodes = [{"id": "n0", "time": 0, "parent": None, "prob": 1,
              "prices": [str(_price(rng)) for _ in range(dim)]}]
    frontier = ["n0"]
    counter = 1
    for t in range(1, horizon + 1):
        new_frontier = []
        for parent in frontier:
            k = rng.randint(1, max_children) if t > 1 or max_children == 1 \
                else rng.randint(2, max_children)
            probs = _simplex_rationals(rng, k)
            parent_prices = next(n["prices"] for n in nodes if n["id"] == parent)
            for j in range(k):
                nid = f"n{counter}"
                counter += 1
                prices = [str(F(p) + _increment(rng)) for p in parent_prices]
                nodes.append({"id": nid, "time": t, "parent": parent,
                              "prob": str(probs[j]), "prices": prices})
                new_frontier.append(nid)
        frontier = new_frontier
    constraints = {}
    for n in nodes:
        if n["time"] < horizon:
            constraints[n["id"]] = random_constraint_doc(rng, dim,
                                                         constraint_palette)
    return {"horizon": horizon, "dimension": dim, "nodes": nodes,
            "constraints": constraints}


def _price(rng):
    return F(rng.randint(1, 8), rng.randint(1, 2))


def _increment(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 4))


def _simplex_rationals(rng, k):
    raw = [rng.randint(1, 6) for _ in range(k)]
    total = sum(raw)
    return [F(r, total) for r in raw]


def random_constraint_doc(rng, dim, palette):
    kind = rng.choice(list(palette))
    if kind == "box":
        lower = [str(-F(rng.randint(1, 4))) for _ in range(dim)]
        upper = [str(F(rng.randint(1, 4))) for _ in range(dim)]
        return {"type": "box", "lower": lower, "upper": upper}
    if kind == "halfline":
        return {"type": "box",
                "lower": ["-inf"] * dim,
                "upper": [str(F(rng.randint(1, 3)))] * dim}
    if kind == "pin":
        return {"type": "singleton",
                "point": [str(F(rng.randint(-2, 2), rng.randint(1, 2)))
                          for _ in range(dim)]}
    if kind == "polyhedron":
        # rows around a known interior point keep the set nonempty
        inside = [F(rng.randint(-2, 2), 2) for _ in range(dim)]
        A, b = [], []
        for _ in range(dim + rng.randint(1, 2)):
            row = [F(rng.randint(-3, 3)) for _ in range(dim)]
            if all(v == 0 for v in row):
                row[rng.randrange(dim)] = F(1)
            A.append([str(v) for v in row])
            b.append(str(sum(a * x for a, x in zip(row, inside))
                         + F(rng.randint(1, 4), 2)))
        return {"type": "polyhedron", "A": A, "b": b}
    raise ValueError(f"unknown palette entry {kind!r}")


def random_market(rng, **kwargs) -> MarketModel:
    return build_market(random_tree_spec(rng, **kwargs))


def random_payoff(rng, market, span=4):
    return tuple(F(rng.randint(-2 * span, 2 * span), rng.randint(1, 3))
                 for _ in market.tree.leaves)


def random_admissible_portfolio(rng, market, tries=200):
    """Rejection-sample an admissible portfolio from bounding boxes."""
    from .market import is_admissible

    for _ in range(tries):
        holdings = {}
        for i in market.tree.nonleaf:
            point = []
            for lo, hi in market.constraint(i).bounding_box():
                lo = F(-6) if lo == NEG_INF else lo
                hi = F(6) if hi == INF else hi
                span = hi - lo
                point.append(lo + span * F(rng.randint(0, 16), 16))
            holdings[i] = tuple(point)
        candidate = PortfolioProcess(holdings)
        if is_admissible(market, candidate):
            return candidate
    raise RuntimeError("could not sample an admissible portfolio")


def sample_point(rng, cset):
    """Random member of a box, a half-line box or a polyhedron, rational
    where the set is; the center of any other set."""
    if isinstance(cset, Box):
        out = []
        for lo, hi in zip(cset.lower, cset.upper):
            lo = F(-5) if lo == NEG_INF else lo
            hi = F(5) if hi == INF else hi
            out.append(lo + (hi - lo) * F(rng.randint(0, 12), 12))
        return tuple(out)
    if isinstance(cset, Polyhedron):
        center = cset.center()
        other = cset.support_argmax(
            tuple(F(rng.randint(-3, 3)) for _ in range(cset.dim)))[1]
        if other is None:
            return center
        lam = F(rng.randint(0, 8), 8)
        return tuple((1 - lam) * c + lam * o for c, o in zip(center, other))
    return cset.center()


def random_direction(rng, dim, span=4):
    return tuple(F(rng.randint(-span, span)) for _ in range(dim))
