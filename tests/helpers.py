"""Shared test oracles: small exact enumerators independent of the library."""

import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from condual.dual import support_alpha
from condual.linprog import OPTIMAL, solve_lp
from condual.treelp import tree_lp


def frac_nullspace_1d(rows, dim):
    """Directions of the 1-d null space of the given rational rows, or None."""
    mat = [list(map(Fraction, r)) for r in rows]
    # Gauss elimination
    pivots = []
    r = 0
    for col in range(dim):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][col]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(dim) if c not in pivots]
    if len(free) != 1:
        return None
    fc = free[0]
    vec = [Fraction(0)] * dim
    vec[fc] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        vec[col] = -mat[row_idx][fc]
    return vec


def extreme_rays(A, dim):
    """Extreme rays of the pointed cone {h : A h <= 0} by subset enumeration.

    Only valid when the cone is pointed (null(A) = {0}); intended for d <= 4
    oracle duty, not production use.
    """
    rays = set()
    for subset in combinations(range(len(A)), dim - 1):
        vec = frac_nullspace_1d([A[i] for i in subset], dim)
        if vec is None:
            continue
        for cand in (vec, [-v for v in vec]):
            if all(sum(a * x for a, x in zip(row, cand)) <= 0 for row in A):
                rays.add(_primitive(cand))
    return sorted(rays)


def _primitive(vec):
    from math import gcd

    denom = 1
    for v in vec:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(Fraction(0) for _ in vec)
    return tuple(Fraction(v, g) for v in ints)


def cones_equal_lp(rows1, rows2, dim, exact=True):
    """Set equality of {A1 h <= 0} and {A2 h <= 0} via mutual-inclusion LPs."""
    return (_cone_subset(rows1, rows2, dim, exact)
            and _cone_subset(rows2, rows1, dim, exact))


def _cone_subset(rows_small, rows_big, dim, exact):
    for row in rows_big:
        res = solve_lp([-v for v in row],
                       A_ub=[list(r) for r in rows_small] + [list(row)],
                       b_ub=[0] * len(rows_small) + [1], exact=exact)
        if res.status != OPTIMAL or -res.value > 0:
            return False
    return True


def subprocess_env():
    """os.environ with the repository's src directory prepended to
    PYTHONPATH, so a child `python -m condual...` imports this checkout
    whether or not the package is installed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _dot(row, h):
    return sum(a * x for a, x in zip(row, h))


def check_certificates(market, payoff, res):
    """The hedge dominates the payoff from the price and is admissible; the
    witness is a probability measure whose value is the price."""
    A, b, L = tree_lp(market).rows(True)[:3]
    x, H = res.portfolio_x[0], res.portfolio_x[1:]
    assert x == res.price
    assert all(x + _dot(row, H) >= f for row, f in zip(L, payoff))
    assert all(_dot(row, H) <= bound for row, bound in zip(A, b))
    q = res.witness.weights
    assert all(w >= 0 for w in q) and sum(q) == 1
    value = sum(w * f for w, f in zip(q, payoff)) - support_alpha(market, q)
    assert value == res.dual_value == res.price
