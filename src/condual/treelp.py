"""The compiled LP of a market, from which every stacked and lifted LP is built.

Portfolio variables are stacked node by node (tree order of the non-leaf
nodes), ``dim`` entries each, into one vector H of width ``n_h``.
:meth:`TreeLP.rows` gives, for one arithmetic, the rows ``(A, b, L, N, R,
p)``:

* the stacked rows ``A H <= b``: the halfspace rows of every constraint
  set, then, when a floor is set, the floor rows ``-N H <= floor``, so that
  ``A H <= b`` says exactly that H is admissible (``A`` and ``b`` are None
  when some set has no halfspace form);
* the terminal-gain rows ``L`` (one per leaf: the coefficients of
  (H . S)_T) and the node-gain rows ``N`` (one per node, tree order: the
  gains accrued by the time of that node);
* the recession rows ``R``, with ``R H <= 0`` the recession cone of the
  admissible class;
* the leaf probabilities ``p``.

They are read-only numpy arrays: of dtype ``object`` holding the market's
own numbers when exact, of dtype float otherwise.  Each arithmetic's set is
built on its first request, so a float market never builds exact rows.  In
dimension one, each node's constraint set is also kept as an interval
``(lo, hi)`` (``intervals``), read from its halfspace rows in the set's own
arithmetic by :func:`condual.convex.halfspace_interval`, the closed form
from which one-dimensional polyhedra and polyhedral intersections answer
their own nonemptiness, center, bounding box and projection.

The float bounds of the box-shaped sets (in dimension one, every set with a
halfspace form) are stacked into ``box_lo`` and ``box_hi`` (+-inf at the
other nodes), so that :meth:`TreeLP.project` is one clip plus the own
projector of each other node.

:func:`tree_lp` compiles a market's TreeLP once, on first use, and keeps it
on the market.

Four LP shapes are assembled here, once for every caller:
:meth:`TreeLP.worst_leaf` is the max-min LP over the worst leaf (the
feasibility start of the primal, sup essinf, and the superhedging price);
:meth:`TreeLP.epigraph`, of a piecewise-linear utility, gives u(x) with x
fixed and v(y) with x free (its LP duality is u(x) = min_y v(y) + x y).
The measure-side LPs run over the lifted pairs (q, mu) of
:meth:`TreeLP.lifted`, by LP duality: alpha(q) = max {(L^T q) . H : A H <=
b} equals min {b . mu : A^T mu = L^T q, mu >= 0}, so an optimization over q
with alpha in its objective is one LP over (q, mu).  The lifted LPs are
:meth:`TreeLP.lifted_min`, the least linear cost in q plus a multiple of
alpha(q) (inf alpha, the superhedging measure, the dual's minorant bound),
and :meth:`TreeLP.max_margin`, the measure farthest inside the face (the
dual's start, the certificate measures), solved once per TreeLP.  Such
answers of the market alone are kept on the TreeLP by :meth:`TreeLP.kept`,
as :mod:`condual.dual` keeps the superhedge of the zero claim.
"""

from __future__ import annotations

import numpy as np

from .convex import halfspace_interval
from .linprog import OPTIMAL, solve_lp
from .market import MarketModel, PortfolioProcess
from .scalars import INF, NEG_INF

# a max_margin margin at or below this counts as 0: a leaf of no mass
MARGIN_TOL = 1e-10


class TreeLP:
    """Rows of a market's LPs over the stacked holdings; see the module
    docstring.  On a market with a ball constraint, A and b are None and
    the operations that need them raise NotImplementedError; L, N, R and p
    always exist."""

    def __init__(self, market: MarketModel):
        tree, d = market.tree, market.dim
        self.dim = d
        self.offsets = {i: k * d for k, i in enumerate(tree.nonleaf)}
        self.n_h = d * len(self.offsets)
        # what the row builder reads, so that it never needs the market
        self._steps = [(n.index, n.parent, market.increment(n.index))
                       for n in tree.nodes if n.parent is not None]
        self._n_nodes, self._leaves = len(tree.nodes), list(tree.leaves)
        self._floor, self._p = market.floor, tree.leaf_probabilities()
        self._recession = [(i, cset.recession().rows)
                           for i, cset in market.constraints]
        self._halfspaces = []
        self._no_halfspaces = None
        self.intervals = {}
        for i, cset in market.constraints:
            hs = cset.halfspaces()
            if hs is None:
                self._no_halfspaces = (
                    f"constraint at node {tree.nodes[i].node_id!r} has no "
                    f"halfspace form; LP-based operations need polyhedral "
                    f"constraints")
                break
            self._halfspaces.append((i, hs))
            if d == 1:
                self.intervals[i] = halfspace_interval(*hs, cset.exact)
        self.polyhedral = self._no_halfspaces is None
        self._rows = {}
        self._kept = {}
        box = np.tile([[NEG_INF], [INF]], self.n_h)
        self._projectors = []
        for i, cset in market.constraints:
            o, bounds = self.offsets[i], cset.box_bounds()
            if bounds is None:
                self._projectors.append((o, o + d, cset.project))
            else:
                box[:, o:o + d] = bounds
        box.setflags(write=False)
        self.box_lo, self.box_hi = box

    def require_polyhedral(self):
        """Raise NotImplementedError unless every set has a halfspace form."""
        if not self.polyhedral:
            raise NotImplementedError(self._no_halfspaces)

    def rows(self, exact):
        """(A, b, L, N, R, p) in exact (dtype object) or float arithmetic;
        see the module docstring."""
        if exact not in self._rows:
            self._rows[exact] = self._build(object if exact else float)
        return self._rows[exact]

    def _build(self, dtype):
        n_h, d, offsets = self.n_h, self.dim, self.offsets

        def blocks(items):
            out = np.zeros((sum(len(rows) for _, rows in items), n_h), dtype)
            k = 0
            for i, rows in items:
                if rows:
                    out[k:k + len(rows), offsets[i]:offsets[i] + d] = rows
                    k += len(rows)
            return out

        # each node's row is its parent's, plus the parent's block
        N = np.zeros((self._n_nodes, n_h), dtype)
        for i, parent, increment in self._steps:
            N[i] = N[parent]
            N[i, offsets[parent]:offsets[parent] + d] = increment
        L = N[self._leaves]
        floor = -N[:0] if self._floor is None else -N
        R = np.vstack([blocks(self._recession), floor])
        A = b = None
        if self.polyhedral:
            A = np.vstack([blocks([(i, hs[0]) for i, hs in self._halfspaces]),
                           floor])
            b = np.asarray([v for _, hs in self._halfspaces for v in hs[1]]
                           + [self._floor] * len(floor), dtype)
        out = (A, b, L, N, R, np.asarray(self._p, dtype))
        for arr in out:
            if arr is not None:
                arr.setflags(write=False)
        return out

    def project(self, h):
        """Euclidean projection of the float stacked holdings h onto the
        product of the constraint sets."""
        out = np.minimum(np.maximum(h, self.box_lo), self.box_hi)
        for a, b, proj in self._projectors:
            out[a:b] = proj(h[a:b])
        return out

    def worst_leaf(self, exact, shift, cap=None):
        """The max-min LP over the worst leaf: maximize m over (H, m)
        subject to A H <= b, m <= shift_l + (L H)_l on every leaf l, and
        m <= cap when a cap is given.

        ``shift`` is one number or one per leaf.  Returns the
        :class:`~condual.linprog.LPResult` of minimizing -m, over the
        columns (H, m).
        """
        self.require_polyhedral()
        A, b, L = self.rows(exact)[:3]
        n_a, n_l = len(A), len(L)
        A_ub = np.zeros((n_a + n_l + (cap is not None), self.n_h + 1), A.dtype)
        A_ub[:n_a, :-1] = A
        A_ub[n_a:n_a + n_l, :-1] = -L
        A_ub[n_a:, -1] = 1
        b_ub = [b, np.broadcast_to(np.asarray(shift, A.dtype), (n_l,))]
        if cap is not None:
            b_ub.append(np.asarray([cap], A.dtype))
        c = [0] * self.n_h + [-1]
        return solve_lp(c, A_ub=A_ub, b_ub=np.concatenate(b_ub), exact=exact)

    def epigraph(self, lines, edge, x=None, y=None):
        """The float epigraph LP of U(w) = min_k (c_k + s_k w) on w >= edge:
        maximize sum_l p_l t_l - y x over the columns (H, t), and x when x is
        None, subject to t_l <= c_k + s_k (x + (L H)_l) (row k n + l, for
        line k and leaf l of n), then x + (L H)_l >= edge, then A H <= b.
        Its optimum is u(x) for a given x, and v(y) for x free.  Returns the
        LPResult of minimizing the negated objective."""
        self.require_polyhedral()
        A, b, L, _, _, p = self.rows(False)
        n, n_h = len(L), self.n_h
        top = (len(lines) + 1) * n  # first row of A H <= b
        # the domain row is a line of slope 1 and head -edge without t
        slopes = np.array([float(s) for s, _ in lines] + [1.0])
        heads = np.array([float(c) for _, c in lines] + [-float(edge)])
        A_ub = np.zeros((top + len(A), n_h + n + (x is None)))
        A_ub[:top, :n_h] = np.kron(-slopes[:, None], L)
        A_ub[:top - n, n_h:n_h + n] = np.tile(np.eye(n), (len(lines), 1))
        A_ub[:top, n_h + n:] = -np.repeat(slopes, n)[:, None]
        A_ub[top:, :n_h] = A
        shift, price = (0.0, [float(y)]) if x is None else (float(x), [])
        b_ub = np.concatenate([np.repeat(heads + slopes * shift, n), b])
        c = np.concatenate([np.zeros(n_h), -p, price])
        return solve_lp(c, A_ub=A_ub, b_ub=b_ub)

    def lifted(self, exact, multipliers=True):
        """(A_eq, b_eq, nonneg) of the lifted polytope {q >= 0, sum q = 1,
        mu >= 0, A^T mu = L^T q} over the columns (q, mu).

        Without multipliers there are no mu columns, and the rows pin L^T q
        = 0: zero drift at every node.  The rows are an array in the
        arithmetic of :meth:`rows`; the first row is the mass-one row.
        """
        self.require_polyhedral()
        A, _, L = self.rows(exact)[:3]
        A = A if multipliers else A[:0]
        n, n_mu = len(L), len(A)
        rows = np.zeros((1 + self.n_h, n + n_mu), A.dtype)
        rows[0, :n] = 1
        rows[1:, :n] = -L.T
        rows[1:, n:] = A.T
        return rows, [1] + [0] * self.n_h, range(n + n_mu)

    def lifted_min(self, exact, q_cost, mu_cost=1):
        """Minimize q_cost . q + mu_cost (b . mu) over the lifted polytope.

        For fixed q the least b . mu is alpha(q), so the optimum is the
        least q_cost . q + mu_cost alpha(q) over the finite-alpha face.
        Returns the LPResult over the columns (q, mu): infeasible when the
        face is empty, unbounded (for mu_cost > 0) when the admissible class
        is empty and alpha is -inf.
        """
        A_eq, b_eq, nonneg = self.lifted(exact)
        c = list(q_cost) + [mu_cost * v for v in self.rows(exact)[1]]
        if not exact:
            c = [float(v) for v in c]
        return solve_lp(c, A_eq=A_eq, b_eq=b_eq, exact=exact, nonneg=nonneg)

    def max_margin(self, multipliers=True):
        """(q, t): a leaf measure of the lifted polytope maximizing the
        margin t in q >= t p, with t <= 1, by a float LP over the columns
        (q, mu, t); None when that LP has no optimum.  q is a tuple of
        floats; the answer is solved once per ``multipliers`` flag and kept.

        With multipliers q ranges over the finite-alpha face; without them
        it must give zero drift at every node (a martingale measure).  The
        face holds a strictly positive measure exactly when t > 0; a t at or
        below MARGIN_TOL counts as 0.
        """
        return self.kept(("max_margin", multipliers),
                         lambda: self._max_margin(multipliers))

    def _max_margin(self, multipliers):
        A_eq, b_eq, nonneg = self.lifted(False, multipliers)
        A_eq = np.hstack([A_eq, np.zeros((len(A_eq), 1))])
        p = self.rows(False)[5]
        n, width = len(p), A_eq.shape[1]
        A_ub = np.zeros((n + 1, width))
        A_ub[:n, :n] = -np.eye(n)  # q_k >= t p_k
        A_ub[:n, -1] = p
        A_ub[n, -1] = 1.0
        c = np.zeros(width)
        c[-1] = -1.0
        res = solve_lp(c, A_ub=A_ub, b_ub=np.append(np.zeros(n), 1.0),
                       A_eq=A_eq, b_eq=b_eq, nonneg=nonneg)
        if res.status != OPTIMAL:
            return None
        return tuple(res.x[:n]), -res.value

    def kept(self, key, solve):
        """solve(), run on the first request for key and kept: an answer
        that depends on the market alone (the face point, the superhedge of
        the zero claim) never goes stale, since markets are immutable."""
        if key not in self._kept:
            self._kept[key] = solve()
        return self._kept[key]

    def portfolio(self, x) -> PortfolioProcess:
        """The portfolio whose stacked holdings vector is x."""
        return PortfolioProcess({i: tuple(x[o:o + self.dim])
                                 for i, o in self.offsets.items()})


def tree_lp(market: MarketModel) -> TreeLP:
    """The market's TreeLP, compiled on first use and kept on the market
    (markets are immutable, so it never goes stale)."""
    lp = market.__dict__.get("_tree_lp")
    if lp is None:
        lp = TreeLP(market)
        object.__setattr__(market, "_tree_lp", lp)
    return lp


def subtree_weights(market: MarketModel, leaf_weights):
    """Mass of each node's subtree under a leaf-indexed measure."""
    tree = market.tree
    w = dict(zip(tree.leaves, leaf_weights))
    mass = {}
    for i in reversed(range(len(tree.nodes))):
        n = tree.nodes[i]
        mass[i] = w[i] if not n.children else sum(mass[c] for c in n.children)
    return mass


def node_direction(market: MarketModel, mass, node):
    """xi_n: the measure-weighted one-step increment sum at a non-leaf node.

    Expected terminal gains decompose as sum_n H(n) . xi_n, which is what
    makes every measure-side optimization a per-node affair.
    """
    return tuple(
        sum(mass[c] * (market.prices[c][k] - market.prices[node][k])
            for c in market.tree.nodes[node].children)
        for k in range(market.dim)
    )
