"""Seeded inputs for the benchmark: market specs and payoffs.

Everything here is plain Python on JSON-style dicts, with its own
``random.Random``; nothing imports condual, so edits to the library
(its ``randomgen`` module included) cannot change what a seed produces.
Exact markets carry ``"p/q"`` strings; a float twin is the same market
with every number written as a float.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F


def rng_for(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so they are stable across processes
    return random.Random(f"condual-bench:{workload}:{seed}")


def rational_text(value) -> str:
    """A rational as text condual parses exactly: "p/q", or "n" if whole."""
    value = F(value)
    return str(value.numerator) if value.denominator == 1 else str(value)


def _inside_hull(vectors) -> bool:
    """True when the origin is strictly inside the triangle of 2-vectors."""
    (a1, a2), (b1, b2), (c1, c2) = vectors
    det = (a1 - c1) * (b2 - c2) - (b1 - c1) * (a2 - c2)
    if det == 0:
        return False
    l1 = ((b2 - c2) * (-c1) + (c1 - b1) * (-c2)) / det
    l2 = ((c2 - a2) * (-c1) + (a1 - c1) * (-c2)) / det
    return l1 > 0 and l2 > 0 and 1 - l1 - l2 > 0


def _increments(rng, dim):
    """Rational price moves of one node's children, with the origin inside
    their hull, so every node has a martingale measure."""
    if dim == 1:
        return [(F(rng.randint(3, 6), 4),), (-F(rng.randint(3, 6), 4),)]
    while True:
        moves = [(F(rng.randint(3, 8), 4), F(rng.randint(-3, 3), 4)),
                 (-F(rng.randint(1, 6), 4), F(rng.randint(2, 7), 4)),
                 (-F(rng.randint(1, 6), 4), -F(rng.randint(2, 7), 4))]
        if _inside_hull(moves):
            return moves


def _probabilities(rng, k):
    raw = [rng.randint(3, 6) for _ in range(k)]
    return [F(r, sum(raw)) for r in raw]


def tree_nodes(rng, dim, horizon):
    """Nodes of a recombination-free tree with dim + 1 children per node."""
    nodes = [{"id": "r", "time": 0, "parent": None, "prob": 1,
              "prices": [F(10)] * dim}]
    frontier = [nodes[0]]
    for t in range(1, horizon + 1):
        nxt = []
        for parent in frontier:
            moves = _increments(rng, dim)
            for k, (move, prob) in enumerate(
                    zip(moves, _probabilities(rng, len(moves)))):
                child = {"id": f"{parent['id']}{k}", "time": t,
                         "parent": parent["id"], "prob": prob,
                         "prices": [p + m for p, m in zip(parent["prices"], move)]}
                nodes.append(child)
                nxt.append(child)
        frontier = nxt
    return nodes


def leaf_ids(nodes):
    parents = {n["parent"] for n in nodes}
    return [n["id"] for n in nodes if n["id"] not in parents]


def market_spec(nodes, dim, horizon, constraints, floor=None, exact=True):
    """JSON market document; ``exact=False`` writes the float twin."""
    num = rational_text if exact else float

    def conv(doc):
        if isinstance(doc, dict):
            return {k: conv(v) for k, v in doc.items()}
        if isinstance(doc, list):
            return [conv(v) for v in doc]
        if isinstance(doc, F):
            return num(doc)
        return doc

    spec = {
        "horizon": horizon, "dimension": dim,
        "nodes": [{"id": n["id"], "time": n["time"], "parent": n["parent"],
                   "prob": num(n["prob"]), "prices": [num(p) for p in n["prices"]]}
                  for n in nodes],
        "constraints": conv(constraints),
    }
    if floor is not None:
        spec["floor"] = num(F(floor))
    return spec


def nonleaf_ids(nodes):
    parents = {n["parent"] for n in nodes}
    return [n["id"] for n in nodes if n["id"] in parents]


# ---------------------------------------------------------------------------
# constraint descriptors (Fractions inside; market_spec converts them)


def box(dim, lo, hi):
    return {"type": "box", "lower": [F(lo)] * dim, "upper": [F(hi)] * dim}


def halfline(rng, dim):
    return {"type": "box", "lower": ["-inf"] * dim,
            "upper": [F(rng.randint(1, 3))] * dim}


def singleton(rng, dim):
    return {"type": "singleton",
            "point": [F(rng.randint(-2, 2), 2) for _ in range(dim)]}


def polyhedron(rng, dim):
    """Bounded polytope around the origin: A h <= b with b > 0."""
    if dim == 1:
        rows = [[F(1)], [F(-1)], [F(rng.randint(1, 3))]]
    else:
        k = rng.randint(4, 6)
        rows = []
        for j in range(k):
            angle = 2 * math.pi * (j + rng.random() * 0.6) / k
            rows.append([F(round(4 * math.cos(angle)), 4),
                         F(round(4 * math.sin(angle)), 4)])
        rows += [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
    b = [F(rng.randint(2, 8), 4) for _ in rows]
    return {"type": "polyhedron", "A": rows, "b": b}


def intersection(rng, dim):
    return {"type": "intersection",
            "members": [box(dim, -F(rng.randint(1, 3)), F(rng.randint(1, 3))),
                        polyhedron(rng, dim)]}


def balanced(rng, kinds, n):
    """n kinds, cycling through ``kinds`` from a seeded start and then
    shuffled: every seed draws each kind about equally often, so the cost
    of a market depends less on the seed."""
    start = rng.randrange(len(kinds))
    out = [kinds[(start + i) % len(kinds)] for i in range(n)]
    rng.shuffle(out)
    return out


PRICING_KINDS = ("box", "halfline", "singleton", "polyhedron")
FLOOR_KINDS = ("polyhedron", "intersection")
PAYOFF_KINDS = ("call", "put", "random")


def constraints(rng, dim, node_ids, kinds):
    """Node id -> constraint descriptor, kinds balanced over the nodes."""
    return {nid: constraint(rng, dim, kind)
            for nid, kind in zip(node_ids, balanced(rng, kinds, len(node_ids)))}


def constraint(rng, dim, kind):
    if kind == "intersection":
        return intersection(rng, dim)
    if kind == "box":
        return box(dim, -F(rng.randint(1, 4)), F(rng.randint(1, 4)))
    if kind == "halfline":
        return halfline(rng, dim)
    if kind == "singleton":
        return singleton(rng, dim)
    return polyhedron(rng, dim)


# ---------------------------------------------------------------------------
# payoffs


def payoffs(rng, nodes, n):
    """n claims, their kinds balanced over ``PAYOFF_KINDS``."""
    return [payoff(rng, nodes, kind) for kind in balanced(rng, PAYOFF_KINDS, n)]


def payoff(rng, nodes, kind):
    """Leaf id -> rational claim: a call or put on the first asset, or a
    random bounded claim."""
    leaves = [n for n in nodes if n["id"] in set(leaf_ids(nodes))]
    strike = F(rng.randint(36, 44), 4)
    out = {}
    for n in leaves:
        s = n["prices"][0]
        if kind == "call":
            out[n["id"]] = max(s - strike, F(0))
        elif kind == "put":
            out[n["id"]] = max(strike - s, F(0))
        else:
            out[n["id"]] = F(rng.randint(0, 12), 4)
    return out
