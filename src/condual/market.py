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

from .convex import ConvexSet, set_from_json, set_to_json
from .scalars import SchemaError, all_exact, number_to_json, parse_number


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

    def path_to_leaf(self, leaf: int):
        """Node indices from the root down to the leaf."""
        chain = [leaf]
        while self.nodes[chain[-1]].parent is not None:
            chain.append(self.nodes[chain[-1]].parent)
        return tuple(reversed(chain))


@dataclass(frozen=True)
class PortfolioProcess:
    """Holdings per non-leaf node index."""

    holdings: tuple  # tuple of (node_index, vector) pairs

    def __post_init__(self):
        pairs = tuple(sorted((int(i), tuple(v))
                             for i, v in dict(self.holdings).items()))
        object.__setattr__(self, "holdings", pairs)

    def __getitem__(self, index):
        return dict(self.holdings)[index]

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
    initial: object
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
        pairs = tuple(sorted(dict(self.constraints).items()))
        object.__setattr__(self, "constraints", pairs)
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
        return dict(self.constraints)[index]

    def increment(self, child: int):
        """Price increment along the edge ending at `child`."""
        parent = self.tree.nodes[child].parent
        return tuple(c - p for c, p in zip(self.prices[child], self.prices[parent]))


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
    if not isinstance(horizon, int) or horizon < 1:
        raise SchemaError("horizon must be a positive integer", "horizon")
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError("dimension must be a positive integer", "dimension")

    raw_nodes = spec["nodes"]
    if not raw_nodes:
        raise SchemaError("empty node list", "nodes")
    by_id = {}
    for k, doc in enumerate(raw_nodes):
        path = f"nodes[{k}]"
        for fieldname in ("id", "time", "parent", "prob", "prices"):
            if fieldname not in doc:
                raise SchemaError(f"missing field {fieldname!r}", path)
        node_id = doc["id"]
        if node_id in by_id:
            raise SchemaError(f"duplicate node id {node_id!r}", path)
        prices = [parse_number(v, f"{path}.prices") for v in doc["prices"]]
        if len(prices) != dim:
            raise SchemaError(f"expected {dim} prices, got {len(prices)}", path)
        by_id[node_id] = {
            "order": k, "id": node_id, "time": doc["time"],
            "parent": doc["parent"],
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
        prob = d["prob"]
        if prob <= 0:
            raise SchemaError("transition probabilities must be positive",
                              f"node {nid!r}")
        nodes.append(Node(index_of[nid], nid, d["time"], parent,
                          tuple(index_of[c] for c in children_of[nid]), prob))
    tree = EventTree(tuple(nodes), horizon)

    for n in nodes:
        if not n.children and n.time != horizon:
            raise SchemaError(f"leaf {n.node_id!r} at time {n.time}, "
                              f"expected horizon {horizon}")
        if n.children and n.time >= horizon:
            raise SchemaError(f"node {n.node_id!r} at the horizon has children")
        if n.children:
            total = sum(nodes[c].cond_prob for c in n.children)
            tol = 0 if all_exact([nodes[c].cond_prob for c in n.children]) else 1e-9
            if abs(total - 1) > tol:
                raise SchemaError(
                    f"child probabilities of {n.node_id!r} sum to {total}, not 1")

    constraints = {}
    raw_constraints = spec["constraints"]
    default_doc = raw_constraints.get("default")
    for n in nodes:
        if not n.children:
            continue
        doc = raw_constraints.get(n.node_id, default_doc)
        if doc is None:
            raise SchemaError(f"no constraint set for non-leaf node {n.node_id!r}",
                              "constraints")
        cset = set_from_json(doc, f"constraints[{n.node_id!r}]")
        if cset.dim != dim:
            raise SchemaError(
                f"constraint of {n.node_id!r} has dimension {cset.dim}, "
                f"market dimension is {dim}")
        constraints[n.index] = cset

    floor = spec.get("floor")
    if floor is not None:
        floor = parse_number(floor, "floor")
        if floor < 0:
            raise SchemaError("the admissibility floor must be nonnegative",
                              "floor")

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
            total = sum(tree.nodes[c].cond_prob for c in n.children)
            tol = 0 if market.exact else 1e-9
            if abs(total - 1) > tol:
                problems.append(
                    f"probabilities at node {n.node_id!r} sum to {total}")
            if any(tree.nodes[c].cond_prob <= 0 for c in n.children):
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
    return WealthProcess(x, tuple(values))


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
    from .convex import AffineFixed, Box, CrossFixed
    from .scalars import INF, NEG_INF
    from .treelp import node_direction, subtree_weights

    tree = market.tree
    leaves = tree.leaves
    payoff = _leaf_vector(market, endowment)
    if hasattr(measure, "weights"):
        weight_list = tuple(measure.weights)
    elif isinstance(measure, dict):
        weight_list = _leaf_vector(market, measure)
    else:
        weight_list = tuple(measure)
    weights = dict(zip(leaves, weight_list))
    measure_exact = all_exact(weight_list)

    if abs(sum(weights.values()) - 1) > (0 if market.exact and measure_exact else 1e-9):
        raise ValueError("the pricing measure must have total mass 1")
    if any(w <= 0 for w in weights.values()):
        raise ValueError("the pricing measure must be equivalent "
                         "(strictly positive on every leaf)")

    subtree_mass = subtree_weights(market, weight_list)
    tol = 0 if market.exact and measure_exact else 1e-9
    for i in tree.nonleaf:
        if any(abs(v) > tol for v in node_direction(market, subtree_mass, i)):
            raise ValueError(
                f"the pricing measure is not a martingale measure for the "
                f"risky prices (drift at node {tree.nodes[i].node_id!r})")

    synthetic = {}
    for i in reversed(range(len(tree.nodes))):
        n = tree.nodes[i]
        if not n.children:
            synthetic[i] = payoff[leaves.index(i)]
        else:
            synthetic[i] = sum(subtree_mass[c] * synthetic[c]
                               for c in n.children) / subtree_mass[i]

    one = Fraction(1) if market.exact and measure_exact else 1.0
    new_constraints = {}
    for i, cset in market.constraints:
        if isinstance(cset, Box) and all(lo == NEG_INF and hi == INF
                                         for lo, hi in zip(cset.lower, cset.upper)):
            new_constraints[i] = AffineFixed(market.dim + 1, {market.dim: one})
        elif isinstance(cset, Box):
            new_constraints[i] = Box(cset.lower + (one,), cset.upper + (one,))
        else:
            new_constraints[i] = CrossFixed(cset, (one,))

    prices = tuple(market.prices[i] + (synthetic[i],)
                   for i in range(len(tree.nodes)))
    augmented = MarketModel(tree, prices, tuple(new_constraints.items()),
                            market.floor)
    offset = -sum(weights[i] * payoff[k] for k, i in enumerate(leaves))
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read market file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"market file is not valid JSON: {exc}") from exc
    return build_market(doc)


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
