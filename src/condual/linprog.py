"""Linear programming in float or exact-rational mode.

Variables are free unless listed as nonnegative.  Float mode runs the HiGHS
solver that scipy vendors (``scipy.optimize._highspy``) through its model
API: one column-wise ``HighsLp`` per call, the sign restrictions as column
bounds, with the options and the post-solve check of
``scipy.optimize.linprog(method="highs")`` but without its per-call Python
overhead.

Exact mode answers from the rational data alone, by one of two routes.  An
LP of fewer than :data:`EXACT_HIGHS_CELLS` cells (rows times columns) runs a
two-phase full-tableau simplex over :class:`fractions.Fraction`.  A larger
one is solved once by HiGHS on the float copy of its data, and that answer
is then certified exactly against the rational data, in the manner of
Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Lett. 35 (2007):

* optimal: x is the vertex read off HiGHS's point.  Its basic columns are
  the free ones and the positive nonnegative ones; its basis rows are the
  equality rows, then the rows with positive multipliers, then the other
  tight rows, as far as they are independent; that square system is solved
  once, by fraction-free Gauss-Jordan in integers
  (:func:`condual.scalars.gauss_jordan`).  The row multipliers are read off
  HiGHS's duals in the same way, as a vertex of the dual LP.  x must be
  exactly feasible, the multipliers exactly dual feasible, and the two
  objectives equal;
* infeasible: an exact Farkas vector, the vertex of one auxiliary HiGHS LP
  read off in the same way;
* unbounded: an exact feasible point and an exact improving ray, likewise.

When a certificate fails, HiGHS is undecided, or the data do not fit in
floats, the tableau answers instead.  ``LPResult.route`` says which route
gave the answer.  Both modes report the multipliers of the inequality rows
with an optimal answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

try:
    import scipy.optimize._highspy._core as _h
except ImportError as exc:  # scipy < 1.15 ships no model API for HiGHS
    raise ImportError("condual needs scipy>=1.15, whose "
                      "scipy.optimize._highspy runs HiGHS") from exc

from .scalars import integer_row, solve_exact

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Exact LPs of at least this many cells (rows times columns) are solved by
# HiGHS and certified.  Measured per LP (best of three) on the exact LPs of
# one pass of the benchmark's pricing and floor workloads (shared two-core
# Xeon, Python 3.11, scipy 1.17): one HiGHS run costs about 1 ms, so the
# certified route takes 1.0-1.4 ms up to 36 cells.  The tableau wins below
# 16 cells (0.4 against 1.4 ms at 3 cells, 0.7 against 1.1 ms at 8, 1.0
# against 1.1 ms at 15) and loses from 16 cells on (1.4 against 1.0 ms at
# 16, 2.9 against 1.3 ms at 33, 8.7 against 2.7 ms at 69, 112 against
# 5.4 ms at 416).  The host drifts by up to a factor of two between
# repeats, but that order held in each of three.
EXACT_HIGHS_CELLS = 16

# HiGHS reads every number of this magnitude or more as infinite
HIGHS_INF = 1e20

# on HiGHS's point, a row whose slack is at most this (relative to 1 + |b|)
# counts as tight, a multiplier above it as positive, and a nonnegative
# column above it as basic
_TIGHT = 1e-7


@dataclass
class LPResult:
    status: str
    x: list | None
    value: object | None  # Fraction or float when optimal
    # when optimal: multipliers lam >= 0 of the A_ub rows, so that
    # c + A_ub^T lam - A_eq^T nu vanishes on the free columns for some nu
    duals: list | None
    # what answered: "highs" (float mode), "certified" (an exact answer
    # read off HiGHS and certified in rationals) or "tableau" (the Fraction
    # simplex, in exact mode or as the last rung of the float ladder)
    route: str

    @property
    def ok(self) -> bool:
        return self.status == OPTIMAL


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, exact=False, *,
             nonneg=()):
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, and x_j >= 0
    for every column index j in nonneg; all other columns are free.

    Rows may be sequences or 2-d numpy arrays.  Malformed input (a row or
    offset block of the wrong length, a nan or infinite entry, a column
    index out of range) raises ValueError naming the block, in both modes.

    In float mode, an LP with a finite entry of magnitude HIGHS_INF (1e20)
    or more, which HiGHS would read as infinite, is solved by the exact
    tableau alone (route "tableau").
    """
    n = len(c)
    A_ub = [] if A_ub is None else A_ub
    b_ub = [] if b_ub is None else b_ub
    A_eq = [] if A_eq is None else A_eq
    b_eq = [] if b_eq is None else b_eq
    for name, rows, rhs in (("ub", A_ub, b_ub), ("eq", A_eq, b_eq)):
        if any(len(row) != n for row in rows):
            raise ValueError(
                f"LP A_{name} row length does not match objective length")
        if len(rhs) != len(rows):
            raise ValueError(f"LP b_{name} has {len(rhs)} entries for "
                             f"{len(rows)} rows of A_{name}")
    for name, block in (("c", c), ("A_ub", A_ub), ("b_ub", b_ub),
                        ("A_eq", A_eq), ("b_eq", b_eq)):
        if not _finite(block):
            raise ValueError(f"LP {name} has a nan or infinite entry")
    nonneg = sorted(set(nonneg))
    if nonneg and not 0 <= nonneg[0] <= nonneg[-1] < n:
        raise ValueError("nonnegative column index out of range")
    if not exact:
        return _solve_float(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    if (len(A_ub) + len(A_eq)) * n >= EXACT_HIGHS_CELLS:
        res = _certified(c, A_ub, b_ub, A_eq, b_eq, nonneg)
        if res is not None:
            return res
    return _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, nonneg)


def _finite(block):
    """False when some float entry of block (a vector or a sequence of rows)
    is nan or infinite; integers and fractions are finite, however large."""
    if isinstance(block, np.ndarray) and block.dtype != object:
        return bool(np.isfinite(block).all())
    for v in block:
        if isinstance(v, (list, tuple, np.ndarray)):
            if not _finite(v):
                return False
        elif isinstance(v, float) and not math.isfinite(v):
            return False
    return True


def _highs(c, A_ub, b_ub, A_eq, b_eq, nonneg, method="highs", options=None):
    """One HiGHS run on the float copy of the LP (raises OverflowError when
    a rational does not fit in a float)."""
    n = len(c)

    def rows(block):
        return np.asarray(block, dtype=float).reshape(len(block), n)

    return _scipy_linprog(np.asarray(c, dtype=float), A_ub=rows(A_ub),
                          b_ub=np.asarray(b_ub, dtype=float), A_eq=rows(A_eq),
                          b_eq=np.asarray(b_eq, dtype=float), nonneg=nonneg,
                          method=method, options=options)


# HiGHS model statuses in scipy.optimize.linprog's codes: 0 optimal, 2
# infeasible, 3 unbounded.  Every other status, kUnboundedOrInfeasible
# among them, reads 4 (undecided), so that the float ladder moves on
_STATUS = {_h.HighsModelStatus.kOptimal: 0,
           _h.HighsModelStatus.kInfeasible: 2,
           _h.HighsModelStatus.kUnbounded: 3}
# the options linprog sets on every run, besides presolve and the solver
_OPTIONS = (("output_flag", False), ("log_to_console", False),
            ("simplex_strategy",
             _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
            ("highs_debug_level", _h.HighsDebugLevel.kHighsDebugLevelNone))
# scipy's post-solve check: an optimal point must meet every bound and row
# to within 10 sqrt(tol) for its default tol = 1e-9
_CHECK_TOL = 10 * math.sqrt(1e-9)


def _scipy_linprog(c, *, A_ub, b_ub, A_eq, b_eq, nonneg, method="highs",
                   options=None):
    """min c @ x subject to A_ub x <= b_ub, A_eq x = b_eq and x_j >= 0 for
    j in nonneg, all float arrays, by one fresh HiGHS solver with the
    options scipy.optimize.linprog sets for ``method`` ("highs" or
    "highs-ds") and ``options`` (None or {"presolve": False}).

    The result holds the fields of linprog's that condual reads:
    ``status`` (0, 2, 3 or 4) and, when 0, ``x``, ``fun``,
    ``ineqlin.residual`` and the ``marginals`` of ``ineqlin``, ``eqlin``
    and ``lower``.  An optimal point that holds a nan or misses a bound or
    row by more than ``_CHECK_TOL`` reads 4, as in linprog.
    """
    n, m_ub = len(c), len(b_ub)
    lower = np.full(n, -np.inf)
    lower[list(nonneg)] = 0.0
    A = np.vstack((A_ub, A_eq)).T  # column j of the LP is row j of A
    nz = A != 0
    lp = _h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(A_ub) + len(A_eq)
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(nz.sum(axis=1))))
    lp.a_matrix_.index_ = np.nonzero(nz)[1]
    lp.a_matrix_.value_ = A[nz]
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(n, np.inf)
    rhs = np.concatenate((b_ub, b_eq))
    lp.row_lower_ = np.concatenate((np.full(m_ub, -np.inf), b_eq))
    lp.row_upper_ = rhs

    highs = _h._Highs()
    for name, value in _OPTIONS:
        highs.setOptionValue(name, value)
    presolve = (options or {}).get("presolve", True)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    if method == "highs-ds":
        highs.setOptionValue("solver", "simplex")
    # a model HiGHS refuses (a matrix entry of 1e21, say) is undecided too,
    # where linprog reports it infeasible
    if highs.passModel(lp) == _h.HighsStatus.kError \
            or highs.run() == _h.HighsStatus.kError:
        return SimpleNamespace(status=4)
    status = _STATUS.get(highs.getModelStatus(), 4)
    if status != 0:
        return SimpleNamespace(status=status)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = rhs - solution.row_value  # b_ub - A_ub x, then b_eq - A_eq x
    fun = highs.getInfo().objective_function_value
    row_dual = np.array(solution.row_dual)
    # a column's dual is its bound multiplier where it sits at its lower
    # bound, and 0 otherwise
    at_lower = np.array(highs.getBasis().col_status, dtype=np.int8) \
        == int(_h.HighsBasisStatus.kLower)
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any() \
            or (x < lower - _CHECK_TOL).any() \
            or (slack[:m_ub] < -_CHECK_TOL).any() \
            or (np.abs(slack[m_ub:]) > _CHECK_TOL).any():
        status = 4
    return SimpleNamespace(
        status=status, x=x, fun=fun,
        ineqlin=SimpleNamespace(residual=slack[:m_ub],
                                marginals=row_dual[:m_ub]),
        eqlin=SimpleNamespace(marginals=row_dual[m_ub:]),
        lower=SimpleNamespace(
            marginals=np.where(at_lower, solution.col_dual, 0.0)))


def _solve_float(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    # degenerate instances occasionally leave a HiGHS backend undecided;
    # walk the ladder, then settle the question in exact arithmetic
    # (floats convert to rationals exactly, so the answer is definitive).
    # An LP holding a number HiGHS reads as infinite skips the ladder
    data = _highs_data(c, A_ub, b_ub, A_eq, b_eq)
    attempts = [("highs", None), ("highs-ds", None),
                ("highs", {"presolve": False})] if data is not None else []
    for method, options in attempts:
        res = _highs(*data, nonneg, method, options)
        if res.status == 0:
            return LPResult(OPTIMAL, list(map(float, res.x)), float(res.fun),
                            [-float(v) for v in res.ineqlin.marginals],
                            "highs")
        if res.status == 2:
            return LPResult(INFEASIBLE, None, None, None, "highs")
        if res.status == 3:
            return LPResult(UNBOUNDED, None, None, None, "highs")
    exact = _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    if exact.status == OPTIMAL:
        return LPResult(OPTIMAL, [float(v) for v in exact.x],
                        float(exact.value), [float(v) for v in exact.duals],
                        "tableau")
    return exact


def _highs_data(*blocks):
    """The blocks as float arrays; None when some entry has magnitude
    HIGHS_INF or more, or does not fit in a float."""
    try:
        data = [np.asarray(block, dtype=float) for block in blocks]
    except OverflowError:
        return None
    if any(np.abs(block).max(initial=0.0) >= HIGHS_INF for block in data):
        return None
    return data


def _certified(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    """The exact answer read off one HiGHS solve and certified in
    rationals; None when HiGHS is undecided, the data overflow a float, or
    the certificate fails."""
    lp = _ExactLP(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    res = lp.highs()
    if res is None:
        return None
    if res.status == 0:
        return lp.optimal(res)
    if res.status == 2:
        # y >= 0 on the A_ub rows with y A = 0 on the free columns,
        # y A >= 0 on the nonnegative ones and y b < 0
        farkas = lp.dual_lp(farkas=True)
        y = farkas.vertex_of(farkas.highs())
        if y is not None and _dot(farkas.c, y) < 0:
            return LPResult(INFEASIBLE, None, None, None, "certified")
    if res.status == 3:
        # a feasible x and a ray d of the recession cone with c d < 0
        ray = lp.ray_lp()
        xd = ray.vertex_of(ray.highs())
        if xd is not None and _dot(lp.c, xd[lp.n:]) < 0:
            return LPResult(UNBOUNDED, None, None, None, "certified")
    return None


class _ExactLP:
    """An LP held three ways: its rational rows G x <= h (the A_ub rows,
    then the A_eq rows with equality), the same rows each scaled by the
    least common multiple of its denominators to integers (``ints``, offset
    last), and the float copy that HiGHS sees (``F``, None when a number
    does not fit in a float)."""

    def __init__(self, c, A_ub, b_ub, A_eq, b_eq, nonneg):
        self.n, self.m_ub = len(c), len(A_ub)
        self.c = [_rational(v) for v in c]
        self.G = [*A_ub, *A_eq]
        self.h = [_rational(v) for v in [*b_ub, *b_eq]]
        self.nonneg = sorted(nonneg)
        self.ints = [integer_row([*row, rhs])
                     for row, rhs in zip(self.G, self.h)]
        try:
            self.F = np.asarray(self.G, float).reshape(len(self.G), self.n)
            self.f, self.cf = np.asarray(self.h, float), np.asarray(c, float)
        except OverflowError:
            self.F = None

    def highs(self):
        """HiGHS's result on the float copy; None when HiGHS is undecided
        or the float copy does not exist."""
        if self.F is None:
            return None
        m = self.m_ub
        res = _highs(self.cf, self.F[:m], self.f[:m], self.F[m:], self.f[m:],
                     self.nonneg)
        return res if res.status in (0, 2, 3) else None

    def vertex_of(self, res):
        """The exact vertex read off HiGHS's optimal result, or None."""
        if res is None or res.status != 0:
            return None
        return self.vertex(res.x, -res.ineqlin.marginals,
                           res.ineqlin.residual)

    def vertex(self, x, lam, slack):
        """The exact point of the basis read off a float point x with
        multipliers lam and slacks of the A_ub rows, if it is feasible;
        None otherwise.

        The basic columns are the free ones and the nonnegative ones above
        _TIGHT; the others are 0.  The basis rows are the equality rows,
        then the A_ub rows with positive multipliers (largest first), then
        the other tight ones (tightest first), as far as they are
        independent on the basic columns.  The basic columns that these
        rows do not pin keep their float value; the pinned ones solve the
        square system of those rows, in integers, by one elimination
        (:func:`condual.scalars.solve_exact`).
        """
        if self.F is None:
            return None
        n, m_ub, m = self.n, self.m_ub, len(self.G)
        x, lam, slack = (np.asarray(v, dtype=float) for v in (x, lam, slack))
        nonneg = set(self.nonneg)
        basic = [j for j in range(n) if j not in nonneg or x[j] > _TIGHT]
        tight = slack <= _TIGHT * (1 + np.abs(self.f[:m_ub]))
        order = list(range(m_ub, m))
        order += sorted((i for i in range(m_ub) if lam[i] > _TIGHT),
                        key=lambda i: -lam[i])
        order += sorted((i for i in range(m_ub)
                         if lam[i] <= _TIGHT and tight[i]),
                        key=lambda i: slack[i])
        S = [order[k] for k in _independent(self.F[np.ix_(order, basic)])]
        P = basic
        if len(S) < len(basic):  # P: the columns of a nonsingular S x P
            P = [basic[k] for k in _independent(self.F[np.ix_(S, basic)].T)]
            if len(P) < len(S):
                return None
        pinned = set(P)
        value = {j: Fraction(float(x[j])) if abs(x[j]) > _TIGHT else 0
                 for j in basic if j not in pinned}
        z = solve_exact([
            [self.ints[i][j] for j in P]
            + [self.ints[i][-1] - sum(self.ints[i][j] * v
                                      for j, v in value.items())]
            for i in S], len(P))
        if z is None:
            return None
        value.update((j, v) for j, (v,) in zip(P, z))
        out = [Fraction(value.get(j, 0)) for j in range(n)]
        return out if self.feasible(out) else None

    def feasible(self, x):
        """Exactly: every row holds at x (a list of Fractions) and x_j >= 0
        on the nonnegative columns."""
        if any(x[j] < 0 for j in self.nonneg):
            return False
        den = math.lcm(*(v.denominator for v in x))
        X = [v.numerator * (den // v.denominator) for v in x]
        for i, row in enumerate(self.ints):
            lhs, rhs = sum(a * v for a, v in zip(row, X) if a), row[-1] * den
            if lhs > rhs or (i >= self.m_ub and lhs != rhs):
                return False
        return True

    def optimal(self, res):
        """The certified optimal LPResult from HiGHS's optimal result, or
        None: an exactly feasible x, and row multipliers exactly feasible
        for the dual LP whose value equals c . x."""
        x = self.vertex_of(res)
        if x is None:
            return None
        nn = self.nonneg
        w = np.concatenate([-res.ineqlin.marginals, -res.eqlin.marginals])
        w = self.dual_lp().vertex(w, res.x[nn], res.lower.marginals[nn])
        value = Fraction(_dot(self.c, x))
        if w is None or value != -_dot(self.h, w):
            return None
        return LPResult(OPTIMAL, x, value, w[:self.m_ub], "certified")

    def dual_lp(self, farkas=False):
        """The dual LP over w, one entry per row (>= 0 on the A_ub rows):
        minimize h . w subject to w G = -c on the free columns and
        -w G <= c on the nonnegative ones (rows in that order).  At its
        optimum -h . w is the LP's value, and w on the A_ub rows are the
        multipliers.

        With farkas, c is replaced by 0 and the row -h . w <= 1 is added:
        the optimum is -1 exactly when the LP is infeasible."""
        n, nn = self.n, self.nonneg
        c = [0] * n if farkas else self.c
        cols = list(zip(*self.G)) or [()] * n
        A_ub = [[-v for v in cols[j]] for j in nn]
        b_ub = [c[j] for j in nn]
        if farkas:
            A_ub.append([-v for v in self.h])
            b_ub.append(1)
        free = [j for j in range(n) if j not in set(nn)]
        return _ExactLP(self.h, A_ub, b_ub, [cols[j] for j in free],
                        [-c[j] for j in free], range(self.m_ub))

    def ray_lp(self):
        """min c . d over (x, d) with x feasible, d in the recession cone and
        c . d >= -1: its optimum is -1 exactly when the LP is unbounded."""
        n, m_ub, nn = self.n, self.m_ub, self.nonneg
        zero = [0] * n

        def pair(rows):
            return ([[*row, *zero] for row in rows]
                    + [[*zero, *row] for row in rows])

        ub, eq = self.G[:m_ub], self.G[m_ub:]
        return _ExactLP(zero + self.c,
                        pair(ub) + [zero + [-v for v in self.c]],
                        self.h[:m_ub] + [0] * m_ub + [1], pair(eq),
                        self.h[m_ub:] + [0] * len(eq),
                        [*nn, *(n + j for j in nn)])


def _rational(v):
    return Fraction(v) if isinstance(v, float) else v


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b) if u and v)


def _independent(M):
    """Indices of a maximal linearly independent subset of the rows of the
    float matrix M, taken greedily in order (Gram-Schmidt, applied
    twice)."""
    k, width = M.shape
    Q = np.zeros((width, width))
    keep = []
    for i in range(k):
        if len(keep) == width:
            break
        norm = np.linalg.norm(M[i])
        if norm == 0:
            continue
        v = M[i] / norm
        q = Q[:len(keep)]
        for _ in range(2):
            v -= q.T @ (q @ v)
        rest = np.linalg.norm(v)
        if rest > 1e-9:
            Q[len(keep)] = v / rest
            keep.append(i)
    return keep


def _frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _simplex_exact(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    """Two-phase tableau simplex with Bland anti-cycling, all in Fractions.

    Nonnegative columns enter the tableau as they are; free columns are
    split x = u - w; <= rows get slack columns.  At the optimum the reduced
    cost of a row's slack column is that row's multiplier.
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
        return LPResult(INFEASIBLE, None, None, None, "tableau")

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
        return LPResult(UNBOUNDED, None, None, None, "tableau")

    z = [zero] * n_struct
    for i in range(m):
        if basis[i] < n_struct:
            z[basis[i]] = tab[i][-1]
    x = z[:n]
    for k, j in enumerate(free):
        x[j] -= z[n + k]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return LPResult(OPTIMAL, x, value, red2[n_split:n_split + m_ub],
                    "tableau")
