"""Linear programming in float or exact-rational mode.

Variables are free unless listed as nonnegative.  Float mode delegates to
scipy's HiGHS backend, which takes the sign restrictions as variable bounds.
Exact mode runs a two-phase full-tableau simplex over
:class:`fractions.Fraction`; problem sizes here are desk scale (tens to
hundreds of variables), so the tableau method is plenty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog as _scipy_linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    x: list | None
    value: object | None  # Fraction or float when optimal

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, exact=False, *,
             nonneg=()):
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, and x_j >= 0
    for every column index j in nonneg; all other columns are free.

    Rows may be sequences or 2-d numpy arrays.
    """
    n = len(c)
    A_ub = [] if A_ub is None else A_ub
    b_ub = [] if b_ub is None else b_ub
    A_eq = [] if A_eq is None else A_eq
    b_eq = [] if b_eq is None else b_eq
    for block in (A_ub, A_eq):
        if any(len(row) != n for row in block):
            raise ValueError("LP row length does not match objective length")
    nonneg = sorted(set(nonneg))
    if nonneg and not 0 <= nonneg[0] <= nonneg[-1] < n:
        raise ValueError("nonnegative column index out of range")
    if exact:
        return _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    return _solve_float(c, A_ub, b_ub, A_eq, b_eq, nonneg)


def _solve_float(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    n = len(c)
    bounds = [(None, None)] * n
    for j in nonneg:
        bounds[j] = (0, None)
    kwargs = dict(
        A_ub=np.asarray(A_ub, dtype=float).reshape(len(A_ub), n)
        if len(A_ub) else None,
        b_ub=np.asarray(b_ub, dtype=float) if len(A_ub) else None,
        A_eq=np.asarray(A_eq, dtype=float).reshape(len(A_eq), n)
        if len(A_eq) else None,
        b_eq=np.asarray(b_eq, dtype=float) if len(A_eq) else None,
        bounds=bounds,
    )
    # degenerate instances occasionally leave a HiGHS backend undecided;
    # walk the ladder, then settle the question in exact arithmetic
    # (floats convert to rationals exactly, so the answer is definitive)
    attempts = [("highs", None), ("highs-ds", None),
                ("highs", {"presolve": False})]
    for method, options in attempts:
        res = _scipy_linprog(np.asarray(c, dtype=float), method=method,
                             options=options, **kwargs)
        if res.status == 0:
            return LPResult(OPTIMAL, list(map(float, res.x)), float(res.fun))
        if res.status == 2:
            return LPResult(INFEASIBLE, None, None)
        if res.status == 3:
            return LPResult(UNBOUNDED, None, None)
    exact = _simplex_exact([Fraction(v) for v in c],
                           _frac_rows(A_ub), [Fraction(v) for v in b_ub],
                           _frac_rows(A_eq), [Fraction(v) for v in b_eq],
                           nonneg)
    if exact.status == OPTIMAL:
        return LPResult(OPTIMAL, [float(v) for v in exact.x],
                        float(exact.value))
    return exact


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    """Two-phase tableau simplex with Bland anti-cycling, all in Fractions.

    Nonnegative columns enter the tableau as they are; free columns are
    split x = u - w; <= rows get slack columns.
    """
    c = [Fraction(v) for v in c]
    A_ub = _frac_rows(A_ub)
    b_ub = [Fraction(v) for v in b_ub]
    A_eq = _frac_rows(A_eq)
    b_eq = [Fraction(v) for v in b_eq]

    n = len(c)
    is_nonneg = set(nonneg)
    free = [j for j in range(n) if j not in is_nonneg]
    m_ub, m_eq = len(A_ub), len(A_eq)
    m = m_ub + m_eq
    n_slack = m_ub
    n_split = n + len(free)
    n_struct = n_split + n_slack  # x (or u), w of the free columns, slacks

    # Rows in standard form A z = b, z >= 0, with b >= 0 after sign flips.
    rows = []
    rhs = []
    for i in range(m_ub):
        row = A_ub[i] + [-A_ub[i][j] for j in free] + [Fraction(0)] * n_slack
        row[n_split + i] = Fraction(1)
        rows.append(row)
        rhs.append(b_ub[i])
    for i in range(m_eq):
        row = A_eq[i] + [-A_eq[i][j] for j in free] + [Fraction(0)] * n_slack
        rows.append(row)
        rhs.append(b_eq[i])
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # Full tableau with one artificial per row (initial basis) and two
    # maintained reduced-cost rows: phase 1 (sum of artificials) and the
    # real objective.  Maintaining the rows makes pricing O(width) instead
    # of an O(m * width) rescan per iteration.
    width = n_struct + m + 1
    zero = Fraction(0)
    tab = []
    for i in range(m):
        row = rows[i] + [zero] * m + [rhs[i]]
        row[n_struct + i] = Fraction(1)
        tab.append(row)
    basis = [n_struct + i for i in range(m)]

    cost2_full = c + [-c[j] for j in free] + [zero] * n_slack + [zero] * m
    # reduced costs under the artificial basis
    red1 = [-sum(tab[i][j] for i in range(m)) for j in range(n_struct)] \
        + [zero] * m + [-sum(rhs)]
    red2 = list(cost2_full) + [zero]

    def pivot(r, col):
        piv = tab[r][col]
        if piv != 1:
            tab[r] = [v / piv for v in tab[r]]
        prow = tab[r]
        for row in tab:
            if row is not prow and row[col] != 0:
                f = row[col]
                for j in range(width):
                    if prow[j] != 0:
                        row[j] -= f * prow[j]
        for red in (red1, red2):
            if red[col] != 0:
                f = red[col]
                for j in range(width):
                    if prow[j] != 0:
                        red[j] -= f * prow[j]
        basis[r] = col

    def run_phase(red, limit):
        iters = 0
        max_iters = 1000 * (m + n_struct + 1)
        while True:
            iters += 1
            if iters > max_iters:
                raise RuntimeError("simplex iteration limit exceeded")
            col = None
            if iters <= 200:  # Dantzig rule, then Bland to rule out cycling
                best = zero
                for j in range(limit):
                    if red[j] < best:
                        best = red[j]
                        col = j
            else:
                for j in range(limit):
                    if red[j] < 0:
                        col = j
                        break
            if col is None:
                return OPTIMAL
            best_key = None
            best_row = None
            for i in range(m):
                a = tab[i][col]
                if a > 0:
                    key = (tab[i][-1] / a, basis[i])
                    if best_key is None or key < best_key:
                        best_key, best_row = key, i
            if best_row is None:
                return UNBOUNDED
            pivot(best_row, col)

    status = run_phase(red1, n_struct + m)
    if status != OPTIMAL:  # pragma: no cover - phase 1 is always bounded
        raise RuntimeError("phase 1 cannot be unbounded")
    if -red1[-1] > 0:  # optimal artificial mass
        return LPResult(INFEASIBLE, None, None)

    # Drive any residual artificial out of the basis or drop its row.
    drop = []
    for i in range(m):
        if basis[i] >= n_struct:
            col = next((j for j in range(n_struct) if tab[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                pivot(i, col)
    for i in sorted(drop, reverse=True):
        del tab[i]
        del basis[i]
    m = len(tab)

    status = run_phase(red2, n_struct)  # artificial columns stay out
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None)

    z = [zero] * n_struct
    for i in range(m):
        if basis[i] < n_struct:
            z[basis[i]] = tab[i][-1]
    x = z[:n]
    for k, j in enumerate(free):
        x[j] -= z[n + k]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(OPTIMAL, x, value)
