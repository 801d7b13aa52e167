"""Finite discrete-time market on a rooted event tree.

Nodes carry a time index, a conditional one-step transition probability, and
a vector of risky prices; the numeraire is identically 1 and never stored.
Holdings are chosen at non-leaf nodes and applied over the following period,
so predictability is automatic.  All probabilities are strictly positive:
every candidate pricing measure charged on leaves is then automatically
absolutely continuous, and equivalence just means no zero weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .convex import (AffineFixed, Box, ConvexSet, CrossFixed, set_from_json,
                     set_to_json)
from .scalars import (INF, NEG_INF, SchemaError, all_exact, number_to_json,
                      parse_list, parse_number)


@dataclass(frozen=True)
class Node:
    index: int
    node_id: str
    time: int
    parent: int | None
    children: tuple
    cond_prob: object  # probability of reaching this node from its parent


@dataclass(frozen=True)
class EventTree:
    nodes: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def root(self) -> int:
        return 0

    @property
    def leaves(self):
        return tuple(n.index for n in self.nodes if not n.children)

    @property
    def nonleaf(self):
        return tuple(n.index for n in self.nodes if n.children)

    def path_probability(self, index: int):
        p = self.nodes[index].cond_prob
        node = self.nodes[index]
        while node.parent is not None:
            node = self.nodes[node.parent]
            p = p * node.cond_prob
        return p

    def leaf_probabilities(self):
        """Path probability of each leaf, computed once per tree."""
        probs = self.__dict__.get("_leaf_probabilities")
        if probs is None:
            probs = tuple(self.path_probability(i) for i in self.leaves)
            object.__setattr__(self, "_leaf_probabilities", probs)
        return probs


@dataclass(frozen=True)
class PortfolioProcess:
    """Holdings per non-leaf node index."""

    holdings: tuple  # tuple of (node_index, vector) pairs

    def __post_init__(self):
        pairs = tuple(sorted((int(i), tuple(v))
                             for i, v in dict(self.holdings).items()))
        object.__setattr__(self, "holdings", pairs)
        # kept outside the fields, so equality and hashing ignore it
        object.__setattr__(self, "_by_node", dict(pairs))

    def __getitem__(self, index):
        return self._by_node[index]

    def as_dict(self):
        return dict(self.holdings)

    @classmethod
    def constant(cls, market: "MarketModel", h):
        h = tuple(h) if hasattr(h, "__len__") else (h,)
        return cls({i: h for i in market.tree.nonleaf})

    def combine(self, other: "PortfolioProcess", a=1, b=1):
        mine, theirs = self.as_dict(), other.as_dict()
        if set(mine) != set(theirs):
            raise ValueError("portfolios live on different node sets")
        return PortfolioProcess({
            i: tuple(a * x + b * y for x, y in zip(mine[i], theirs[i]))
            for i in mine
        })


@dataclass(frozen=True)
class WealthProcess:
    values: tuple  # per node index

    def leaf_values(self, market: "MarketModel"):
        return tuple(self.values[i] for i in market.tree.leaves)


@dataclass(frozen=True)
class MarketModel:
    tree: EventTree
    prices: tuple  # per node index, tuple of d risky prices
    constraints: tuple  # pairs (node_index, ConvexSet) for non-leaf nodes
    floor: object = None  # admissibility floor a >= 0, or None (unrestricted)
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(tuple(p) for p in self.prices))
        by_node = dict(self.constraints)
        object.__setattr__(self, "constraints", tuple(sorted(by_node.items())))
        # kept outside the fields, so equality and hashing ignore it
        object.__setattr__(self, "_by_node", by_node)
        object.__setattr__(self, "_increments", {
            n.index: tuple(c - p for c, p in zip(self.prices[n.index],
                                                  self.prices[n.parent]))
            for n in self.tree.nodes if n.parent is not None})
        object.__setattr__(self, "dim", len(self.prices[0]))

    @property
    def exact(self) -> bool:
        """True when every input scalar is rational; computed once per market."""
        exact = self.__dict__.get("_exact")
        if exact is None:
            scalars = [n.cond_prob for n in self.tree.nodes]
            scalars += [v for p in self.prices for v in p]
            if self.floor is not None:
                scalars.append(self.floor)
            exact = all_exact(scalars) and all(s.exact
                                               for _, s in self.constraints)
            object.__setattr__(self, "_exact", exact)
        return exact

    def constraint(self, index: int) -> ConvexSet:
        return self._by_node[index]

    def increment(self, child: int):
        """Price increment along the edge ending at `child`, built once per
        market."""
        return self._increments[child]


def node_directions(market: MarketModel, leaf_weights):
    """(mass, xi) of a leaf measure: the subtree mass of every node, summed
    bottom up, and xi_n = sum over the children c of mass_c dS_c at every
    non-leaf node n, in tree order.  Expected terminal gains are sum_n H(n)
    . xi_n, and xi_n / mass_n is the conditional drift.  Raises ValueError
    unless there is one weight per leaf.
    """
    tree = market.tree
    if len(leaf_weights) != len(tree.leaves):
        raise ValueError("a measure needs one weight per leaf")
    mass = dict(zip(tree.leaves, leaf_weights))
    for i in reversed(tree.nonleaf):  # children carry larger indices
        mass[i] = sum(mass[c] for c in tree.nodes[i].children)
    xi = {i: tuple(sum(mass[c] * market.increment(c)[k]
                       for c in tree.nodes[i].children)
                   for k in range(market.dim))
          for i in tree.nonleaf}
    return mass, xi


# ---------------------------------------------------------------------------
# construction and validation


def build_market(spec: dict) -> MarketModel:
    """Build and validate a market from its JSON-style description.

    Raises SchemaError on structural problems (bad probabilities, missing
    constraints, leaves at the wrong depth, empty constraint sets, ...).
    """
    if not isinstance(spec, dict):
        raise SchemaError("market spec must be an object")
    for key in ("horizon", "dimension", "nodes", "constraints"):
        if key not in spec:
            raise SchemaError(f"missing field {key!r}")
    horizon = spec["horizon"]
    dim = spec["dimension"]
    # type() rather than isinstance(): a boolean is not an integer here
    if type(horizon) is not int or horizon < 1:
        raise SchemaError("horizon must be a positive integer", "horizon")
    if type(dim) is not int or dim < 1:
        raise SchemaError("dimension must be a positive integer", "dimension")

    raw_nodes = parse_list(spec["nodes"], "nodes")
    if not raw_nodes:
        raise SchemaError("empty node list", "nodes")
    by_id = {}
    for k, doc in enumerate(raw_nodes):
        path = f"nodes[{k}]"
        if not isinstance(doc, dict):
            raise SchemaError("a node must be an object", path)
        for fieldname in ("id", "time", "parent", "prob", "prices"):
            if fieldname not in doc:
                raise SchemaError(f"missing field {fieldname!r}", path)
        node_id, parent = doc["id"], doc["parent"]
        if not isinstance(node_id, str):
            raise SchemaError("the id must be a string", path)
        if not (parent is None or isinstance(parent, str)):
            raise SchemaError("the parent must be a node id or null", path)
        if isinstance(doc["time"], bool) \
                or not isinstance(doc["time"], (int, float)):
            raise SchemaError("the time must be a whole number", path)
        if node_id in by_id:
            raise SchemaError(f"duplicate node id {node_id!r}", path)
        prices = [parse_number(v, f"{path}.prices")
                  for v in parse_list(doc["prices"], f"{path}.prices")]
        if len(prices) != dim:
            raise SchemaError(f"expected {dim} prices, got {len(prices)}", path)
        by_id[node_id] = {
            "order": k, "id": node_id, "time": doc["time"], "parent": parent,
            "prob": parse_number(doc["prob"], f"{path}.prob"),
            "prices": tuple(prices),
        }

    roots = [d for d in by_id.values() if d["parent"] is None]
    if len(roots) != 1:
        raise SchemaError("exactly one node must have parent: null", "nodes")
    if roots[0]["time"] != 0:
        raise SchemaError("the root must have time 0", "nodes")

    # breadth-first indexing from the root keeps parents before children
    order = [roots[0]["id"]]
    children_of = {nid: [] for nid in by_id}
    for d in by_id.values():
        if d["parent"] is not None:
            if d["parent"] not in by_id:
                raise SchemaError(f"unknown parent {d['parent']!r}",
                                  f"node {d['id']!r}")
            children_of[d["parent"]].append(d["id"])
    for nid in children_of:
        children_of[nid].sort(key=lambda c: by_id[c]["order"])
    cursor = 0
    while cursor < len(order):
        order.extend(children_of[order[cursor]])
        cursor += 1
    if len(order) != len(by_id):
        raise SchemaError("nodes unreachable from the root", "nodes")

    index_of = {nid: i for i, nid in enumerate(order)}
    nodes = []
    for nid in order:
        d = by_id[nid]
        parent = index_of[d["parent"]] if d["parent"] is not None else None
        if parent is not None and d["time"] != by_id[order[parent]]["time"] + 1:
            raise SchemaError("child time must be parent time + 1",
                              f"node {nid!r}")
        nodes.append(Node(index_of[nid], nid, d["time"], parent,
                          tuple(index_of[c] for c in children_of[nid]),
                          d["prob"]))
    tree = EventTree(tuple(nodes), horizon)

    # a non-leaf node without a set is left for validate_market to name
    raw_constraints = spec["constraints"]
    if not isinstance(raw_constraints, dict):
        raise SchemaError("constraints must be an object", "constraints")
    default_doc = raw_constraints.get("default")
    constraints = {}
    for n in nodes:
        doc = raw_constraints.get(n.node_id, default_doc)
        if n.children and doc is not None:
            constraints[n.index] = set_from_json(
                doc, f"constraints[{n.node_id!r}]")

    floor = spec.get("floor")
    if floor is not None:
        floor = parse_number(floor, "floor")

    market = MarketModel(tree, tuple(by_id[nid]["prices"] for nid in order),
                         tuple(constraints.items()), floor)
    problems = validate_market(market)
    if problems:
        raise SchemaError("; ".join(problems))
    return market


def validate_market(market: MarketModel) -> list[str]:
    """Re-run the invariant checks; an empty list means the model is valid."""
    problems = []
    tree = market.tree
    for n in tree.nodes:
        if n.children:
            probs = [tree.nodes[c].cond_prob for c in n.children]
            total = sum(probs)
            # exact children must sum to 1 exactly, even in a float market
            tol = 0 if all_exact(probs) else 1e-9
            if abs(total - 1) > tol:
                problems.append(
                    f"probabilities at node {n.node_id!r} sum to {total}")
            if any(p <= 0 for p in probs):
                problems.append(f"nonpositive probability below {n.node_id!r}")
        if not n.children and n.time != tree.horizon:
            problems.append(f"leaf {n.node_id!r} sits at time {n.time}, "
                            f"not the horizon {tree.horizon}")
    total = sum(tree.leaf_probabilities())
    tol = 0 if market.exact else 1e-12
    if abs(total - 1) > tol:
        problems.append(f"leaf path probabilities sum to {total}")
    constraint_map = dict(market.constraints)
    for i in tree.nonleaf:
        if i not in constraint_map:
            problems.append(f"missing constraint set at node "
                            f"{tree.nodes[i].node_id!r}")
    for i, cset in market.constraints:
        if len(market.prices[i]) != cset.dim:
            problems.append(f"constraint dimension mismatch at node "
                            f"{tree.nodes[i].node_id!r}")
    if market.floor is not None and market.floor < 0:
        problems.append("negative admissibility floor")
    return problems


# ---------------------------------------------------------------------------
# wealth dynamics and admissibility


def wealth_process(market: MarketModel, portfolio: PortfolioProcess, x) -> WealthProcess:
    """Wealth from initial capital x: child value = parent value + H . dS."""
    holdings = portfolio.as_dict()
    for i, h in holdings.items():
        if len(h) != market.dim:
            raise ValueError(f"holding at node {i} has dimension {len(h)}, "
                             f"market dimension is {market.dim}")
    missing = set(market.tree.nonleaf) - set(holdings)
    if missing:
        raise ValueError(f"portfolio missing holdings at nodes {sorted(missing)}")
    values = [None] * len(market.tree.nodes)
    values[market.tree.root] = x
    for n in market.tree.nodes:
        if n.parent is not None:
            h = holdings[n.parent]
            ds = market.increment(n.index)
            values[n.index] = values[n.parent] + sum(a * b for a, b in zip(h, ds))
    return WealthProcess(tuple(values))


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    violating_node: str | None = None
    reason: str | None = None

    def __bool__(self):
        return self.admissible


def is_admissible(market: MarketModel, portfolio: PortfolioProcess) -> AdmissibilityReport:
    """H is admissible when every holding sits in its constraint set and,
    if a floor is configured, wealth from 0 never drops below -floor."""
    holdings = portfolio.as_dict()
    for i in market.tree.nonleaf:
        if i not in holdings:
            return AdmissibilityReport(False, market.tree.nodes[i].node_id,
                                       "no holding at this node")
        if not market.constraint(i).contains(holdings[i]):
            return AdmissibilityReport(False, market.tree.nodes[i].node_id,
                                       "holding outside its constraint set")
    if market.floor is not None:
        wealth = wealth_process(market, portfolio, 0)
        for n in market.tree.nodes:
            if wealth.values[n.index] < -market.floor:
                return AdmissibilityReport(False, n.node_id,
                                           "wealth below the admissibility floor")
    return AdmissibilityReport(True)


# ---------------------------------------------------------------------------
# endowment embedding


def embed_endowment(market: MarketModel, endowment: dict, measure) -> tuple:
    """Fold a leaf payoff into the market as a synthetic (d+1)-th asset.

    `measure` is a leaf measure with mass 1 that must be equivalent (all
    weights positive) and make the risky prices a martingale; the synthetic
    asset's price at a node is the conditional expected payoff, and every
    constraint set gains a pinned unit holding in the new coordinate.
    Returns (augmented market, offset x = -expected payoff).
    """
    tree = market.tree
    payoff = _leaf_vector(market, endowment)
    if hasattr(measure, "weights"):
        weights = tuple(measure.weights)
    elif isinstance(measure, dict):
        weights = _leaf_vector(market, measure)
    else:
        weights = tuple(measure)
    mass, xi = node_directions(market, weights)
    exact = market.exact and all_exact(weights)
    tol = 0 if exact else 1e-9
    if abs(sum(weights) - 1) > tol:
        raise ValueError("the pricing measure must have total mass 1")
    if any(w <= 0 for w in weights):
        raise ValueError("the pricing measure must be equivalent "
                         "(strictly positive on every leaf)")
    for i in tree.nonleaf:
        if any(abs(v) > tol for v in xi[i]):
            raise ValueError(
                f"the pricing measure is not a martingale measure for the "
                f"risky prices (drift at node {tree.nodes[i].node_id!r})")

    synthetic = dict(zip(tree.leaves, payoff))
    for i in reversed(tree.nonleaf):
        synthetic[i] = sum(mass[c] * synthetic[c]
                           for c in tree.nodes[i].children) / mass[i]

    one = Fraction(1) if exact else 1.0
    new_constraints = {}
    for i, cset in market.constraints:
        # a plain box only: singletons and pinned sets keep their own type
        # under the pinned tail
        if type(cset) is Box and all(lo == NEG_INF and hi == INF
                                     for lo, hi in zip(cset.lower, cset.upper)):
            new_constraints[i] = AffineFixed(market.dim + 1, {market.dim: one})
        elif type(cset) is Box:
            new_constraints[i] = Box(cset.lower + (one,), cset.upper + (one,))
        else:
            new_constraints[i] = CrossFixed(cset, (one,))

    prices = tuple(market.prices[i] + (synthetic[i],)
                   for i in range(len(tree.nodes)))
    augmented = MarketModel(tree, prices, tuple(new_constraints.items()),
                            market.floor)
    offset = -sum(w * f for w, f in zip(weights, payoff))
    return augmented, offset


def _leaf_vector(market: MarketModel, leaf_map: dict):
    """Leaf-id-keyed mapping -> tuple ordered like tree.leaves."""
    tree = market.tree
    out = []
    for i in tree.leaves:
        nid = tree.nodes[i].node_id
        if nid not in leaf_map:
            raise ValueError(f"missing value for leaf {nid!r}")
        out.append(leaf_map[nid])
    return tuple(out)


# ---------------------------------------------------------------------------
# file IO


def parse_market_file(path) -> MarketModel:
    return build_market(_read_market_doc(path))


def _read_market_doc(path):
    """The JSON document of a market file; SchemaError when it cannot be
    read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read market file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"market file is not valid JSON: {exc}") from exc


def market_to_json(market: MarketModel) -> dict:
    tree = market.tree
    nodes = []
    for n in tree.nodes:
        nodes.append({
            "id": n.node_id,
            "time": n.time,
            "parent": tree.nodes[n.parent].node_id if n.parent is not None else None,
            "prob": number_to_json(n.cond_prob),
            "prices": [number_to_json(v) for v in market.prices[n.index]],
        })
    constraints = {tree.nodes[i].node_id: set_to_json(s)
                   for i, s in market.constraints}
    doc = {
        "horizon": tree.horizon,
        "dimension": market.dim,
        "nodes": nodes,
        "constraints": constraints,
    }
    if market.floor is not None:
        doc["floor"] = number_to_json(market.floor)
    return doc
