"""Linear programming in float or exact-rational mode.

Variables are free unless listed as nonnegative.  Float mode runs the HiGHS
solver that scipy vendors (``scipy.optimize._highspy._core``) through its
model API: one column-wise ``HighsLp`` per call, the sign restrictions as
column bounds, with the options and the post-solve check of
``scipy.optimize.linprog(method="highs")`` but without its per-call Python
overhead.  Every LP runs on one HiGHS solver that the process (each of its
threads) keeps, with its options set once (:func:`_solver`), and the final
basis is read only for the certified route below.  A float LP gets that one
HiGHS run; when HiGHS leaves it undecided, the exact tableau below answers
it.  The extension module is loaded by itself (:func:`_load_highs`):
importing it the ordinary way would first run ``scipy.optimize``'s package
init, whose scipy.linalg, scipy.sparse and optimizers condual never uses,
and which cost every process about 0.5 s and 40 MB at start-up.

Exact mode answers from the rational data alone, by one of two routes.  An
LP of fewer than :data:`EXACT_HIGHS_CELLS` cells (rows times columns) runs a
two-phase full-tableau simplex over :class:`fractions.Fraction`.  A larger
one is solved once by HiGHS on the float copy of its data, and that answer
is then certified exactly against the rational data, in the manner of
Applegate, Cook, Dash & Espinoza, "Exact solutions to linear programming
problems", Oper. Res. Lett. 35 (2007):

* optimal: with the rows written G x <= h (the A_ub rows, then the A_eq
  rows held with equality), HiGHS's final basis names the basic columns B
  and the nonbasic, so tight, rows T.  x is the vertex of that basis: one
  exact solve of G[T, B] x_B = h_T, every other column 0, by fraction-free
  Gauss-Jordan in integers (:func:`condual.scalars.solve_exact`).  The row
  multipliers w solve the transposed system c_B + G[T, B]^T w_T = 0 and
  vanish off T.  x must be exactly feasible, w >= 0 on the inequality
  rows, the reduced costs c + G^T w >= 0 on the nonnegative columns and 0
  on the free ones, and c . x = -h . w;
* infeasible: an exact Farkas vector, the vertex of the final basis of one
  auxiliary HiGHS LP;
* unbounded: an exact feasible point and an exact improving ray, likewise.

When a certificate fails, HiGHS is undecided, or the data do not fit in
floats, the tableau answers instead.  ``LPResult.route`` says which route
gave the answer.  Both modes report the multipliers of the inequality rows
with an optimal answer.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np


def _load_highs(name="scipy.optimize._highspy._core"):
    """scipy's HiGHS extension module, loaded without running the package
    init of ``scipy.optimize``.

    A module already in ``sys.modules`` is reused.  Otherwise the extension
    file is found by the standard import machinery and registered under
    its full name before it runs, so that a later ``import scipy.optimize``
    reuses this module instead of loading a second copy.
    """
    if name in sys.modules:  # loaded already, or None: known to be missing
        module = sys.modules[name]
    else:
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        spec = None
        if scipy is not None:
            spec = importlib.machinery.FileFinder(
                os.path.join(scipy.submodule_search_locations[0], "optimize",
                             "_highspy"),
                (importlib.machinery.ExtensionFileLoader,
                 importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
        module = None
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
    if module is None:  # scipy < 1.15 ships no model API for HiGHS
        raise ImportError("condual needs scipy>=1.15, whose "
                          "scipy.optimize._highspy runs HiGHS", name=name)
    return module


_h = _load_highs()

from .scalars import integer_row, solve_exact  # noqa: E402

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Exact LPs of at least this many cells (rows times columns) are solved by
# HiGHS and certified.  Measured per LP (best of three, kept HiGHS solver)
# on the exact LPs of the benchmark's pricing and floor workloads at seeds
# 1-4 and of the tests (two-core Xeon, Python 3.11, scipy 1.17): one HiGHS
# run costs 0.13-0.2 ms, and the certified route 0.3-0.6 ms up to 45
# cells.  The tableau wins up to 4 cells (0.08 against 0.28 ms at 1 cell,
# 0.22 against 0.34 ms at 4), breaks even at 5 and 6, and loses from 7
# cells on (0.6 against 0.34 ms at 7, 0.74 against 0.44 ms at 12, 0.76
# against 0.44 ms at 15, 1.0 against 0.4 ms at 16, 5.7 against 0.76 ms at
# 88, 52 against 1.4 ms at 416).  The threshold stays at 16 all the same:
# on a degenerate LP the certified route may stop at another optimal
# vertex, or other multipliers, than the tableau, and of the tests' 571
# distinct 15-cell LPs, 152 would change their x or multipliers, among them
# a node of backward induction (whose multipliers are a witness measure),
# Chebyshev centers and support points.
EXACT_HIGHS_CELLS = 16

# HiGHS reads every number of this magnitude or more as infinite
HIGHS_INF = 1e20

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
    # simplex, in exact mode or where HiGHS left a float LP undecided)
    route: str


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
        if not _rows_of_length(rows, n):
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


def _rows_of_length(rows, n):
    """True when every row of rows (a sequence of rows or a 2-d numpy
    array) has n entries; a 2-d array is judged by its shape."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows.shape[1] == n or not len(rows)
    return all(len(row) == n for row in rows)


def _finite(block):
    """False when some float entry of block (a vector or a sequence of rows)
    is nan or infinite; integers and fractions are finite, however large."""
    if isinstance(block, np.ndarray):
        if block.dtype != object:
            return bool(np.isfinite(block).all())
        block = block.ravel()  # one pass over the entries, not one per row
    for v in block:
        if isinstance(v, (list, tuple, np.ndarray)):
            if not _finite(v):
                return False
        elif isinstance(v, float) and not math.isfinite(v):
            return False
    return True


# HiGHS model statuses in scipy.optimize.linprog's codes: 0 optimal, 2
# infeasible, 3 unbounded.  Every other status, kUnboundedOrInfeasible
# among them, reads 4 (undecided), so that the exact tableau answers
_STATUS = {_h.HighsModelStatus.kOptimal: 0,
           _h.HighsModelStatus.kInfeasible: 2,
           _h.HighsModelStatus.kUnbounded: 3}
# the options linprog(method="highs") sets on every run
_OPTIONS = (("output_flag", False), ("log_to_console", False),
            ("simplex_strategy",
             _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
            ("highs_debug_level", _h.HighsDebugLevel.kHighsDebugLevelNone),
            ("presolve", "on"))
# the basis status of a basic column, or of a row whose slack is basic
_BASIC = int(_h.HighsBasisStatus.kBasic)
# scipy's post-solve check: an optimal point must meet every bound and row
# to within 10 sqrt(tol) for its default tol = 1e-9
_CHECK_TOL = 10 * math.sqrt(1e-9)


_kept = threading.local()  # the kept HiGHS solver, see _solver


def _solver():
    """The one HiGHS solver of this process (of this thread, since HiGHS
    runs without the interpreter lock), made with ``_OPTIONS`` on the first
    LP.

    ``passModel`` clears the previous model, solution and basis, so each run
    on the kept solver is the run a fresh solver would make.  The solver is
    kept for the class ``_h._Highs`` in effect: a substituted class gets a
    solver of its own, and the real one a new solver when it comes back.
    """
    highs = getattr(_kept, "highs", None)
    if type(highs) is not _h._Highs:
        highs = _kept.highs = _h._Highs()
        for name, value in _OPTIONS:
            highs.setOptionValue(name, value)
    return highs


def _scipy_linprog(c, *, A_ub, b_ub, A_eq, b_eq, nonneg, basis=True):
    """min c @ x subject to A_ub x <= b_ub, A_eq x = b_eq and x_j >= 0 for
    j in nonneg, all float arrays (the row blocks of shape (rows, len(c))),
    by one run of the kept HiGHS solver (:func:`_solver`) with the options
    scipy.optimize.linprog sets for ``method="highs"``.

    The result holds ``status`` (linprog's 0, 2, 3 or 4) and, when 0,
    linprog's ``x``, ``fun`` and ``ineqlin.marginals``, and, unless
    ``basis`` is false, HiGHS's final basis: ``basis.valid`` and the
    ``basis.col_status`` and ``basis.row_status`` arrays of
    ``HighsBasisStatus`` codes (the A_ub rows, then the A_eq rows).  An
    optimal point that holds a nan or misses a bound or row by more than
    ``_CHECK_TOL`` reads 4, as in linprog.
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

    highs = _solver()
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
    fun = highs.getObjectiveValue()
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any() \
            or (x < lower - _CHECK_TOL).any() \
            or (slack[:m_ub] < -_CHECK_TOL).any() \
            or (np.abs(slack[m_ub:]) > _CHECK_TOL).any():
        status = 4
    res = SimpleNamespace(
        status=status, x=x, fun=fun,
        ineqlin=SimpleNamespace(
            marginals=np.array(solution.row_dual[:m_ub])))
    if basis:
        final = highs.getBasis()
        res.basis = SimpleNamespace(
            valid=final.valid,
            col_status=np.array(final.col_status, dtype=np.int8),
            row_status=np.array(final.row_status, dtype=np.int8))
    return res


def _solve_float(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    """One HiGHS run; when HiGHS is undecided, or the LP holds a number
    HiGHS reads as infinite, the exact tableau settles the question (floats
    convert to rationals exactly, so its answer is definitive)."""
    data = _highs_data(c, A_ub, b_ub, A_eq, b_eq)
    if data is not None:
        res = _scipy_linprog(**data, nonneg=nonneg, basis=False)
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


def _highs_data(c, A_ub, b_ub, A_eq, b_eq):
    """The blocks as float arrays by name, the row blocks of shape (rows,
    len(c)); None when some entry has magnitude HIGHS_INF or more, or does
    not fit in a float."""
    blocks = dict(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq)
    try:
        data = {k: np.asarray(v, dtype=float) for k, v in blocks.items()}
    except OverflowError:
        return None
    if any(np.abs(v).max(initial=0.0) >= HIGHS_INF for v in data.values()):
        return None
    for k in ("A_ub", "A_eq"):
        data[k] = data[k].reshape(len(data[k]), len(c))
    return data


def _certified(c, A_ub, b_ub, A_eq, b_eq, nonneg):
    """The exact answer read off one HiGHS solve and certified in
    rationals; None when HiGHS is undecided, _highs_data refuses the
    data, or the certificate fails."""
    lp = _ExactLP(c, A_ub, b_ub, A_eq, b_eq, nonneg)
    res = lp.highs()
    if res is None:
        return None
    if res.status == 0:
        return lp.optimal(res)
    if res.status == 2:
        # y >= 0 on the A_ub rows with y A = 0 on the free columns,
        # y A >= 0 on the nonnegative ones and y b < 0
        farkas = lp.farkas_lp()
        y = farkas.vertex(farkas.highs())
        if y is not None and _dot(farkas.c, y) < 0:
            return LPResult(INFEASIBLE, None, None, None, "certified")
    if res.status == 3:
        # a feasible x and a ray d of the recession cone with c d < 0
        ray = lp.ray_lp()
        xd = ray.vertex(ray.highs())
        if xd is not None and _dot(lp.c, xd[lp.n:]) < 0:
            return LPResult(UNBOUNDED, None, None, None, "certified")
    return None


class _ExactLP:
    """An LP held three ways: its rational rows G x <= h (the A_ub rows,
    then the A_eq rows with equality), the same rows each scaled by the
    least common multiple of its denominators to integers (``ints``, offset
    last), and the float copy that HiGHS sees (``data``, None where
    _highs_data refuses it)."""

    def __init__(self, c, A_ub, b_ub, A_eq, b_eq, nonneg):
        self.n, self.m_ub = len(c), len(A_ub)
        self.c = [_rational(v) for v in c]
        self.G = [*A_ub, *A_eq]
        self.h = [_rational(v) for v in [*b_ub, *b_eq]]
        self.nonneg = sorted(nonneg)
        self.ints = [integer_row([*row, rhs])
                     for row, rhs in zip(self.G, self.h)]
        self.data = _highs_data(c, A_ub, b_ub, A_eq, b_eq)

    def highs(self):
        """HiGHS's result on the float copy; None when HiGHS is undecided
        or the float copy does not exist."""
        if self.data is None:
            return None
        res = _scipy_linprog(**self.data, nonneg=self.nonneg)
        return res if res.status in (0, 2, 3) else None

    def vertex(self, res):
        """The exact vertex of HiGHS's final basis in an optimal result (res
        may be None): with B its basic columns and T its nonbasic rows, the
        solution of G[T, B] x_B = h_T with every other column 0.  None when
        there is no such basis, G[T, B] is not square and nonsingular, or x
        is infeasible."""
        if res is None or res.status != 0 or not res.basis.valid:
            return None
        B, T = _basis(res)
        if len(B) != len(T):
            return None
        z = solve_exact([[self.ints[i][j] for j in B] + [self.ints[i][-1]]
                         for i in T], len(B))
        if z is None:
            return None
        x = [Fraction(0)] * self.n
        for j, (v,) in zip(B, z):
            x[j] = v
        return x if self.feasible(x) else None

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
        None.  x is the vertex of the final basis (B, T), and the
        multipliers w solve c_B + G[T, B]^T w_T = 0 and vanish off T.
        Certified when w >= 0 on the A_ub rows, the reduced costs
        c + G^T w are >= 0 on the nonnegative columns and 0 on the free
        ones, and c . x = -h . w."""
        x = self.vertex(res)
        if x is None:
            return None
        B, T = _basis(res)
        z = solve_exact([[self.G[i][j] for i in T] + [-self.c[j]]
                         for j in B], len(T))
        if z is None:
            return None
        w = [Fraction(0)] * len(self.G)
        for i, (v,) in zip(T, z):
            w[i] = v
        if any(v < 0 for v in w[:self.m_ub]):
            return None
        basic, nonneg = set(B), set(self.nonneg)
        for j in range(self.n):
            if j not in basic:
                d = self.c[j] + sum(_rational(self.G[i][j]) * w[i]
                                    for i in T if self.G[i][j])
                if d < 0 or (d != 0 and j not in nonneg):
                    return None
        value = Fraction(_dot(self.c, x))
        if value != -_dot(self.h, w):
            return None
        return LPResult(OPTIMAL, x, value, w[:self.m_ub], "certified")

    def farkas_lp(self):
        """The Farkas LP over y, one entry per row (>= 0 on the A_ub rows):
        minimize h . y subject to y G = 0 on the free columns, -y G <= 0 on
        the nonnegative ones and -h . y <= 1.  Its optimum is -1 exactly
        when the LP is infeasible."""
        n, nn = self.n, self.nonneg
        cols = list(zip(*self.G)) or [()] * n
        A_ub = [[-v for v in cols[j]] for j in nn] + [[-v for v in self.h]]
        free = [j for j in range(n) if j not in set(nn)]
        return _ExactLP(self.h, A_ub, [0] * len(nn) + [1],
                        [cols[j] for j in free], [0] * len(free),
                        range(self.m_ub))

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


def _basis(res):
    """The basic columns and the nonbasic rows of HiGHS's final basis."""
    return (np.flatnonzero(res.basis.col_status == _BASIC).tolist(),
            np.flatnonzero(res.basis.row_status != _BASIC).tolist())


def _rational(v):
    return Fraction(v) if isinstance(v, float) else v


def _dot(a, b):
    return sum(u * v for u, v in zip(a, b) if u and v)


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
