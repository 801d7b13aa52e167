"""The compiled LP of a market, from which every stacked and lifted LP is built.

Portfolio variables are stacked node by node (tree order of the non-leaf
nodes), ``dim`` entries each, into one vector H of width ``n_h``.  A
:class:`TreeLP` holds, for one market:

* the stacked rows ``A H <= b``: the halfspace rows of every constraint
  set, then, when a floor is set, the floor rows ``-N H <= floor``, so that
  ``A H <= b`` says exactly that H is admissible;
* the terminal-gain rows ``L`` (one per leaf: the coefficients of
  (H . S)_T) and the node-gain rows ``N`` (one per node, tree order: the
  gains accrued by the time of that node);
* the recession rows ``R``, with ``R H <= 0`` the recession cone of the
  admissible class;
* the leaf probabilities ``p``;
* in dimension one, each node's constraint set as an interval ``(lo, hi)``
  (``intervals``), read from its halfspace rows.

Each item is kept in exact entries (tuples of the market's own numbers) and
as a read-only float array under the same name with an ``_f`` suffix.
:func:`tree_lp` compiles it once per market, on first use, and keeps it on
the market.

The measure side runs through LP duality: alpha(q) = max {(L^T q) . H :
A H <= b} equals min {b . mu : A^T mu = L^T q, mu >= 0}, so an optimization
over q with alpha in its objective is one LP over the lifted pairs (q, mu);
:meth:`TreeLP.lifted` gives that polytope's rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .market import MarketModel, PortfolioProcess
from .scalars import INF, NEG_INF, is_exact


def _frozen(values, *shape):
    arr = np.asarray(values, dtype=float).reshape(shape)
    arr.setflags(write=False)
    return arr


def _polyhedral(k):
    """Attribute k of the stacked rows (A, b, A_f, b_f), which exist only
    when every constraint set has a halfspace form."""

    def get(self):
        if self._stacked is None:
            raise NotImplementedError(self._no_halfspaces)
        return self._stacked[k]

    return property(get)


class TreeLP:
    """Rows of a market's LPs over the stacked holdings; see the module
    docstring.  LP-based operations on markets with a ball constraint raise
    NotImplementedError on reading A or b; L, N, R and p always exist."""

    A = _polyhedral(0)
    b = _polyhedral(1)
    A_f = _polyhedral(2)
    b_f = _polyhedral(3)

    def __init__(self, market: MarketModel):
        tree, d = market.tree, market.dim
        self.dim = d
        self.offsets = {i: k * d for k, i in enumerate(tree.nonleaf)}
        self.n_h = n_h = d * len(self.offsets)

        def block_rows(i, rows):
            out = []
            for row in rows:
                full = [0] * n_h
                full[self.offsets[i]:self.offsets[i] + d] = row
                out.append(tuple(full))
            return out

        node_rows = [[0] * n_h for _ in tree.nodes]
        for n in tree.nodes:
            if n.parent is not None:
                row = node_rows[n.index] = list(node_rows[n.parent])
                off = self.offsets[n.parent]
                for k, ds in enumerate(market.increment(n.index)):
                    row[off + k] += ds
        self.N = tuple(map(tuple, node_rows))
        self.L = tuple(self.N[i] for i in tree.leaves)
        floor_rows = [] if market.floor is None \
            else [tuple(-v for v in row) for row in self.N]

        R = []
        for i, cset in market.constraints:
            R += block_rows(i, cset.recession().rows)
        self.R = tuple(R + floor_rows)

        A, b = [], []
        self._stacked = None
        self.intervals = {}
        for i, cset in market.constraints:
            hs = cset.halfspaces()
            if hs is None:
                self._no_halfspaces = (
                    f"constraint at node {tree.nodes[i].node_id!r} has no "
                    f"halfspace form; LP-based operations need polyhedral "
                    f"constraints")
                break
            A += block_rows(i, hs[0])
            b += hs[1]
            if d == 1:
                self.intervals[i] = _interval(*hs)
        else:
            A, b = tuple(A + floor_rows), tuple(b) + (market.floor,) * len(floor_rows)
            self._stacked = (A, b, _frozen(A, len(A), n_h), _frozen(b, len(b)))

        self.p = tree.leaf_probabilities()
        self.p_f = _frozen(self.p, len(self.p))
        self.L_f = _frozen(self.L, len(self.L), n_h)
        self.N_f = _frozen(self.N, len(self.N), n_h)
        self.R_f = _frozen(self.R, len(self.R), n_h)

    @property
    def polyhedral(self) -> bool:
        """True when every constraint set has a halfspace form."""
        return self._stacked is not None

    def lifted(self, exact, extra=0, multipliers=True):
        """(A_eq, b_eq, nonneg) of the lifted polytope {q >= 0, sum q = 1,
        mu >= 0, A^T mu = L^T q} over the columns (q, mu, extra...).

        The ``extra`` trailing columns are free and absent from these rows;
        the caller's own rows and objective use them.  Without multipliers
        there are no mu columns, and the rows pin L^T q = 0: zero drift at
        every node.  Rows hold exact entries, or a float array when not
        exact; the first row is the mass-one row.
        """
        n, n_h = len(self.p), self.n_h
        A = self.A if multipliers else self.A[:0]
        n_mu = len(A)
        nonneg = range(n + n_mu)
        b_eq = [1] + [0] * n_h
        if exact:
            rows = [[1] * n + [0] * (n_mu + extra)]
            rows += [[-row[j] for row in self.L] + [a[j] for a in A]
                     + [0] * extra for j in range(n_h)]
            return rows, b_eq, nonneg
        rows = np.zeros((1 + n_h, n + n_mu + extra))
        rows[0, :n] = 1.0
        rows[1:, :n] = -self.L_f.T
        if n_mu:
            rows[1:, n:n + n_mu] = self.A_f.T
        return rows, b_eq, nonneg

    def portfolio(self, x) -> PortfolioProcess:
        """The portfolio whose stacked holdings vector is x."""
        return PortfolioProcess({i: tuple(x[o:o + self.dim])
                                 for i, o in self.offsets.items()})


def _interval(A, b):
    """(lo, hi) of the one-dimensional set {h : a h <= b_a for each row a}."""
    lo, hi = NEG_INF, INF
    for (a,), bound in zip(A, b):
        if a == 0:
            continue  # 0 <= bound: the set is nonempty
        end = Fraction(bound) / a if is_exact(bound) and is_exact(a) \
            else bound / a
        if a > 0:
            hi = min(hi, end)
        else:
            lo = max(lo, end)
    return lo, hi


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
