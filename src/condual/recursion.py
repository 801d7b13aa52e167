"""Backward induction over the event tree, for markets without a floor.

Without a floor the constraint sets do not couple the nodes, so the least
capital that superhedges a claim f is a dynamic program (Karatzas & Kou
1996; Follmer & Schied, *Stochastic Finance*, ch. 9): V = f on the leaves
and, at a non-leaf node n with children c,

    V_n = min over h in C_n of max over c of (V_c - h . dS_c),

leaving out the children with V_c = -inf (their subtree superhedges from
any capital).  The node problem is a small LP, and its dual is

    V_n = max over pi in the simplex of sum_c pi_c V_c - sigma_n(sum_c pi_c dS_c)

with sigma_n the support function of C_n.  In dimension one C_n is an
interval and both sides have closed forms, read off the set's own support
value and :meth:`~condual.convex.ConvexSet.box`: the dual maximum sits
at a single child, or at two children whose increments have opposite signs,
mixed so that the drift vanishes; the hedge is then the point of C_n
nearest zero at which every child is covered.  In higher dimension one LP
per node gives the hedge, and its row multipliers give the weights pi.

The node hedges stack into a portfolio that superhedges f from V_root, and
the products of the weights along each leaf's path form a leaf measure q
with sum q f - alpha(q) = V_root.  Both are returned, so that each side of
the duality can be reported from its own certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linprog import OPTIMAL, UNBOUNDED, solve_lp
from .market import MarketModel
from .scalars import INF, NEG_INF
from .treelp import tree_lp


@dataclass
class Backward:
    value: object          # least superhedging capital, -inf on a free lunch
    hedge: list | None     # stacked holdings H; None when value is -inf
    weights: tuple | None  # leaf measure q; None when value is -inf


def backward_induction(market: MarketModel, payoff, exact) -> Backward:
    """Superhedging value, hedge and pricing weights of a leaf payoff.

    The market must have no floor and a halfspace form at every node.
    Exact mode computes in Fractions, float mode in floats.
    """
    tree, lp = market.tree, tree_lp(market)
    num = Fraction if exact else float
    nonleaf = tree.nonleaf
    steps = {c: tuple(num(v) for v in market.increment(c))
             for c in range(1, len(tree.nodes))}
    value = [None] * len(tree.nodes)
    for i, f in zip(tree.leaves, payoff):
        value[i] = num(f)
    lines, hedge, weight = {}, {}, {}
    for i in reversed(nonleaf):  # children carry larger indices
        lines[i] = [(c, value[c], steps[c]) for c in tree.nodes[i].children
                    if value[c] != NEG_INF]
        value[i], hedge[i], weight[i] = _node(market, i, lines[i], exact)
    if value[tree.root] == NEG_INF:
        return Backward(NEG_INF, None, None)

    # top down: the capital reaching each node, the hedges of the nodes
    # whose own value is -inf, and the weights along the paths
    capital = {tree.root: value[tree.root]}
    mass = {tree.root: num(1)}
    H = [num(0)] * lp.n_h
    for i in nonleaf:
        h = hedge[i]
        if h is None:
            h = _cover(market, i, lines[i], capital[i], exact)
        H[lp.offsets[i]:lp.offsets[i] + lp.dim] = h
        for c in tree.nodes[i].children:
            capital[c] = capital[i] + sum(a * b for a, b in zip(h, steps[c]))
            mass[c] = mass[i] * weight[i].get(c, 0) if mass[i] else mass[i]
    return Backward(value[tree.root], H, tuple(mass[i] for i in tree.leaves))


def _node(market, i, lines, exact):
    """(V_n, hedge, weights over children) at node i; (-inf, None, None)
    when the node LP is unbounded."""
    num = Fraction if exact else float
    if not lines:
        return NEG_INF, None, None
    if market.dim == 1:
        support = market.constraint(i).support
        best, pi = NEG_INF, None
        for c, v, (s,) in lines:
            sigma = support((s,))
            if sigma != INF and v - sigma > best:
                best, pi = v - sigma, {c: num(1)}
            if s > 0:
                for c2, v2, (s2,) in lines:
                    if s2 < 0:
                        w = s / (s - s2)  # weight on c2; the drift cancels
                        mixed = (1 - w) * v + w * v2
                        if mixed > best:
                            best, pi = mixed, {c: 1 - w, c2: w}
        if pi is None:
            return NEG_INF, None, None
        h = _cover(market, i, lines, best, exact)
    else:
        hs = market.constraint(i).halfspaces()
        A = [(-1,) + tuple(-v for v in s) for _, _, s in lines] \
            + [(0,) + tuple(a) for a in hs[0]]
        b = [-v for _, v, _ in lines] + list(hs[1])
        res = solve_lp([1] + [0] * market.dim, A_ub=A, b_ub=b, exact=exact)
        if res.status == UNBOUNDED:
            return NEG_INF, None, None
        h = tuple(num(v) for v in res.x[1:])
        pi = {c: max(num(lam), num(0))
              for (c, _, _), lam in zip(lines, res.duals)}
    return max(v - sum(a * b for a, b in zip(h, s)) for _, v, s in lines), \
        h, pi


def _cover(market, i, lines, capital, exact):
    """A holding in C_i with capital + h . dS_c >= V_c for every child
    line; in dimension one, the point of the set's interval nearest zero."""
    num = Fraction if exact else float
    if market.dim == 1:
        lo, hi = (v if exact else float(v)
                  for v in market.constraint(i).box()[0])
        for _, v, (s,) in lines:
            if s > 0:
                lo = max(lo, (v - capital) / s)
            elif s < 0:
                hi = min(hi, (v - capital) / s)
        return (min(max(num(0), lo), hi),)
    hs = market.constraint(i).halfspaces()
    A = [tuple(-v for v in s) for _, _, s in lines] + [tuple(a) for a in hs[0]]
    b = [capital - v for _, v, _ in lines] + list(hs[1])
    res = solve_lp([0] * market.dim, A_ub=A, b_ub=b, exact=exact)
    if res.status != OPTIMAL:  # pragma: no cover - the node's value allows it
        raise RuntimeError("no covering hedge at a node")
    return tuple(num(v) for v in res.x)
