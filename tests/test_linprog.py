"""Exact simplex vs scipy cross-checks, the certified exact route, input
validation, the HiGHS model API against scipy.optimize.linprog, and the
loading of the HiGHS extension without scipy.optimize's package init."""

import itertools
import math
import random
import subprocess
import sys
import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from condual import linprog
from condual.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from helpers import subprocess_env


def test_basic_bounded():
    # min -x - y  s.t. x + y <= 1, x <= 3/4, -x <= 0, -y <= 0
    res = solve_lp(
        [Fraction(-1), Fraction(-1)],
        A_ub=[[1, 1], [1, 0], [-1, 0], [0, -1]],
        b_ub=[1, Fraction(3, 4), 0, 0],
        exact=True,
    )
    assert res.status == OPTIMAL
    assert res.value == Fraction(-1)
    assert sum(res.x) == 1


def test_equality_rows():
    # min x + 2y s.t. x + y = 1, x,y >= 0
    res = solve_lp(
        [1, 2],
        A_ub=[[-1, 0], [0, -1]],
        b_ub=[0, 0],
        A_eq=[[1, 1]],
        b_eq=[1],
        exact=True,
    )
    assert res.status == OPTIMAL
    assert res.value == 1
    assert res.x == [1, 0]


def test_unbounded_detected():
    res = solve_lp([-1], A_ub=[[-1]], b_ub=[0], exact=True)
    assert res.status == UNBOUNDED


def test_infeasible_detected():
    res = solve_lp([0, 0], A_ub=[[1, 0], [-1, 0]], b_ub=[-1, -1], exact=True)
    assert res.status == INFEASIBLE


def test_free_variables_negative_solution():
    # min x s.t. x >= -5 (i.e. -x <= 5)
    res = solve_lp([1], A_ub=[[-1]], b_ub=[5], exact=True)
    assert res.status == OPTIMAL
    assert res.x == [-5]


def test_degenerate_no_cycle():
    # Klee-Minty-flavoured degenerate instance; Bland's rule must terminate.
    res = solve_lp(
        [-1, -1, -1],
        A_ub=[[1, 0, 0], [1, 1, 0], [1, 1, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]],
        b_ub=[0, 0, 1, 0, 0, 0],
        exact=True,
    )
    assert res.status == OPTIMAL
    assert res.value == -1


@pytest.mark.parametrize("seed", range(30))
def test_random_agreement_with_scipy(seed):
    lp = _random_ub_lp(seed)
    c, A, b, nonneg = lp["c"], lp["A_ub"], lp["b_ub"], lp["nonneg"]
    n = len(c)
    exact = solve_lp(c, A_ub=A, b_ub=b, exact=True, nonneg=nonneg)
    approx = solve_lp([float(v) for v in c],
                      A_ub=[[float(v) for v in row] for row in A],
                      b_ub=[float(v) for v in b], exact=False, nonneg=nonneg)
    rows = solve_lp(c, A_ub=A + _identity_rows(n, nonneg),
                    b_ub=b + [0] * len(nonneg), exact=True)
    assert exact.status == approx.status == rows.status
    if exact.status == OPTIMAL:
        assert exact.value == rows.value
        assert abs(float(exact.value) - approx.value) < 1e-7
        # exact point is feasible
        for row, bound in zip(A, b):
            assert sum(a * x for a, x in zip(row, exact.x)) <= bound
        assert all(exact.x[j] >= 0 for j in nonneg)
        _check_multipliers(c, A, b, nonneg, exact, 0)
        _check_multipliers(c, A, b, nonneg, approx, 1e-7)
    # the certified route, whatever the size, agrees with the tableau
    _check_exact_answer(lp, _certified(lp))


def _check_multipliers(c, A, b, nonneg, res, tol):
    """KKT for min c x s.t. A x <= b: lam >= 0, c + A^T lam vanishes on the
    free columns and is >= 0 on the nonnegative ones, and b . lam equals
    minus the optimal value."""
    lam = res.duals
    assert len(lam) == len(A) and all(v >= -tol for v in lam)
    for j, cj in enumerate(c):
        reduced = cj + sum(row[j] * v for row, v in zip(A, lam))
        assert reduced >= -tol if j in nonneg else abs(reduced) <= tol
    assert abs(res.value + sum(bi * v for bi, v in zip(b, lam))) <= 100 * tol


def _identity_rows(n, nonneg):
    """x_j >= 0 written as rows -x_j <= 0."""
    return [[-1 if k == j else 0 for k in range(n)] for j in nonneg]


@pytest.mark.parametrize("seed", range(20))
def test_random_agreement_with_equalities(seed):
    lp = _random_eq_lp(seed)
    c, A_ub, b_ub, nonneg = lp["c"], lp["A_ub"], lp["b_ub"], lp["nonneg"]
    A_eq, b_eq = lp["A_eq"], lp["b_eq"]
    n = len(c)
    exact = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, exact=True,
                     nonneg=nonneg)
    approx = solve_lp([float(v) for v in c],
                      A_ub=[[float(v) for v in r] for r in A_ub],
                      b_ub=[float(v) for v in b_ub],
                      A_eq=[[float(v) for v in r] for r in A_eq],
                      b_eq=[float(v) for v in b_eq], exact=False, nonneg=nonneg)
    rows = solve_lp(c, A_ub=A_ub + _identity_rows(n, nonneg),
                    b_ub=b_ub + [0] * len(nonneg), A_eq=A_eq, b_eq=b_eq,
                    exact=True)
    # nonnegativity can cut off every solution of the equality row
    assert exact.status == approx.status == rows.status
    if not nonneg:
        assert exact.status == OPTIMAL
    if exact.status == OPTIMAL:
        assert exact.value == rows.value
        assert abs(float(exact.value) - approx.value) < 1e-7
        assert sum(a * x for a, x in zip(A_eq[0], exact.x)) == b_eq[0]
        for row, bound in zip(A_ub, b_ub):
            assert sum(a * x for a, x in zip(row, exact.x)) <= bound
        assert all(exact.x[j] >= 0 for j in nonneg)
    _check_exact_answer(lp, _certified(lp))


def test_float_solve_settles_undecided_highs_exactly(monkeypatch):
    # when the one HiGHS run stops undecided (status 4), the float solve
    # answers from the exact simplex: the same x, value and multipliers as
    # HiGHS on this nondegenerate LP, as floats
    from types import SimpleNamespace

    from condual import linprog

    lp = dict(c=[-1.0, -2.0, 0.5], A_ub=[[1.0, 1.0, 0.0], [0.1, 0.3, 0.0]],
              b_ub=[4.0, 0.6], A_eq=[[0.0, 1.0, 1.0]], b_eq=[2.5],
              nonneg=(0, 1))
    highs = solve_lp(**lp)
    attempts = []
    monkeypatch.setattr(linprog, "_scipy_linprog", lambda *a, **k: (
        attempts.append("highs") or SimpleNamespace(status=4)))
    settled = solve_lp(**lp)
    assert attempts == ["highs"]
    assert highs.status == settled.status == OPTIMAL
    assert (highs.route, settled.route) == ("highs", "tableau")
    for a, b in ((highs.x, settled.x), (highs.duals, settled.duals),
                 ([highs.value], [settled.value])):
        assert all(type(v) is float for v in b)
        assert np.allclose(a, b, rtol=0, atol=1e-9)
    assert solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, 0.0]).status \
        == INFEASIBLE
    assert solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[0.0]).status == UNBOUNDED


# -- malformed input is rejected the same way in both modes ---------------

MALFORMED = [
    (dict(c=[-1], A_ub=[[1]], b_ub=[1, 2]), "b_ub"),
    (dict(c=[-1], A_ub=[[1], [1]], b_ub=[1]), "b_ub"),
    (dict(c=[1], A_eq=[[1]], b_eq=[]), "b_eq"),
    (dict(c=[-1], A_ub=[[1]], b_ub=[math.nan]), "b_ub"),
    (dict(c=[1], A_eq=[[1]], b_eq=[-math.inf]), "b_eq"),
    (dict(c=[math.nan], A_ub=[[1]], b_ub=[1]), "c"),
    (dict(c=[-1], A_ub=[[math.inf]], b_ub=[1]), "A_ub"),
    (dict(c=[1, 1], A_eq=[[1]], b_eq=[1]), "A_eq"),
]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("lp,block", MALFORMED,
                         ids=[f"{b}-{k}" for k, (_, b) in enumerate(MALFORMED)])
def test_malformed_input_names_its_block(lp, block, exact):
    with pytest.raises(ValueError, match=rf"\b{block}\b"):
        solve_lp(**lp, exact=exact)


# -- the certified route ----------------------------------------------------

def _certified(lp):
    """The certified answer of an exact LP, which must exist."""
    res = linprog._certified(lp["c"], lp.get("A_ub", []), lp.get("b_ub", []),
                             lp.get("A_eq", []), lp.get("b_eq", []),
                             sorted(lp.get("nonneg", ())))
    assert res is not None and res.route == "certified"
    return res


def _tableau(lp):
    return linprog._simplex_exact(
        lp["c"], lp.get("A_ub", []), lp.get("b_ub", []), lp.get("A_eq", []),
        lp.get("b_eq", []), sorted(lp.get("nonneg", ())))


def _check_exact_answer(lp, res):
    """res has the tableau's status and the identical value; when optimal,
    x is exactly feasible and the multipliers certify it (tested with an
    equality row nu, which LPResult does not report, found from them)."""
    ref = _tableau(lp)
    assert res.status == ref.status
    if res.status != OPTIMAL:
        return
    assert res.value == ref.value and type(res.value) is Fraction
    c, x = lp["c"], res.x
    A_ub, b_ub = lp.get("A_ub", []), lp.get("b_ub", [])
    A_eq, b_eq = lp.get("A_eq", []), lp.get("b_eq", [])
    nonneg = set(lp.get("nonneg", ()))
    assert all(type(v) in (int, Fraction) for v in x + res.duals)
    assert sum(ci * xi for ci, xi in zip(c, x)) == res.value
    assert all(_dot(row, x) <= b for row, b in zip(A_ub, b_ub))
    assert all(_dot(row, x) == b for row, b in zip(A_eq, b_eq))
    assert all(x[j] >= 0 for j in nonneg)
    assert len(A_eq) <= 1  # one nu, pinned below
    lam = res.duals
    assert len(lam) == len(A_ub) and all(v >= 0 for v in lam)
    # reduced costs c + A_ub^T lam - nu a_eq: zero on the free columns,
    # >= 0 on the others, with the value -b_ub . lam + nu b_eq
    base = [cj + sum(row[j] * v for row, v in zip(A_ub, lam))
            for j, cj in enumerate(c)]
    a = A_eq[0] if A_eq else [0] * len(c)
    target = res.value + _dot(b_ub, lam)  # = nu b_eq
    pins = [Fraction(base[j]) / a[j] for j in range(len(c))
            if j not in nonneg and a[j]]
    if A_eq and b_eq[0]:
        pins.append(Fraction(target) / b_eq[0])
    nu = pins[0] if pins else Fraction(0)
    assert all(p == nu for p in pins)
    if not (A_eq and b_eq[0]):
        assert target == 0
    for j in range(len(c)):
        reduced = base[j] - nu * a[j]
        assert reduced >= 0 if j in nonneg else reduced == 0, j


def _dot(row, x):
    return sum(a * v for a, v in zip(row, x))


def _random_ub_lp(seed):
    """A small boxed LP with random rows and sign restrictions."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-2, 6)) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    for j in range(n):
        A += [_unit(n, j, -1), _unit(n, j, 1)]
        b += [Fraction(10), Fraction(10)]
    return dict(c=c, A_ub=A, b_ub=b,
                nonneg=[j for j in range(n) if rng.random() < 0.5])


def _random_eq_lp(seed):
    """A small boxed LP with one feasible equality row."""
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 4)
    A_eq = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]]
    x_feas = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    A_ub, b_ub = [], []
    for j in range(n):
        A_ub += [_unit(n, j, -1), _unit(n, j, 1)]
        b_ub += [Fraction(6), Fraction(6)]
    return dict(c=[Fraction(rng.randint(-3, 3)) for _ in range(n)],
                A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[_dot(A_eq[0], x_feas)],
                nonneg=[j for j in range(n) if rng.random() < 0.5])


def _unit(n, j, sign):
    return [Fraction(sign if k == j else 0) for k in range(n)]


def test_certified_degenerate_vertex():
    # 22 rows through the optimum (1/3, 1/3, 1/3) of three columns: far more
    # tight rows than columns, and a multiplier on only some of them
    rows, rhs = [], []
    for a in itertools.product((1, 2, 3), repeat=3):
        if len(set(a)) < 3 or a == (1, 2, 3):
            rows.append(list(a))
            rhs.append(Fraction(sum(a), 3))
    lp = dict(c=[-1, -1, -1], A_ub=rows + [_unit(3, j, -1) for j in range(3)],
              b_ub=rhs + [0, 0, 0])
    res = solve_lp(**lp, exact=True)
    assert res.route == "certified" and res.value == -1
    assert res.x == [Fraction(1, 3)] * 3
    tight = sum(_dot(row, res.x) == b
                for row, b in zip(lp["A_ub"], lp["b_ub"]))
    assert tight > 3
    _check_exact_answer(lp, res)


def test_certified_lineality():
    # 1 <= x0 - x1 <= 20 (the upper row in thirteen scalings) and x2 in no
    # row: the feasible set holds the lines along (1, 1, 0) and (0, 0, 1),
    # so it has no vertex
    lp = dict(c=[1, -1, 0],
              A_ub=[[-1, 1, 0]] + [[k, -k, 0] for k in range(1, 14)],
              b_ub=[-1] + [20 * k for k in range(1, 14)])
    res = solve_lp(**lp, exact=True)
    assert res.route == "certified" and res.value == 1
    _check_exact_answer(lp, res)
    # the same with x1 >= 0: a half-line along (1, 1, 0)
    lp["nonneg"] = [1]
    res = solve_lp(**lp, exact=True)
    assert res.route == "certified" and res.value == 1
    _check_exact_answer(lp, res)


def _box_lp(n, **extra):
    """-1 <= x_j <= 1 for n free columns, plus the given blocks."""
    A_ub = [_unit(n, j, s) for j in range(n) for s in (1, -1)]
    b_ub = [1] * (2 * n)
    A_ub += extra.pop("A_ub", [])
    b_ub += extra.pop("b_ub", [])
    return dict(c=extra.pop("c", [1] * n), A_ub=A_ub, b_ub=b_ub, **extra)


def test_certified_infeasible_by_farkas_vector():
    # sum x >= 3n/2 + 1/3 is out of reach of the box
    for eq in (False, True):
        n = 6
        bound = Fraction(3 * n, 2) + Fraction(1, 3)
        block = dict(A_eq=[[1] * n], b_eq=[bound]) if eq \
            else dict(A_ub=[[-1] * n], b_ub=[-bound])
        lp = _box_lp(n, nonneg=[0, 2], **block)
        res = solve_lp(**lp, exact=True)
        assert (res.status, res.route) == (INFEASIBLE, "certified")
        assert _tableau(lp).status == INFEASIBLE


def test_certified_unbounded_by_ray():
    # drop one upper bound and reward that column
    n = 6
    lp = _box_lp(n, c=[-Fraction(1, 3)] + [1] * (n - 1), nonneg=[3],
                 A_eq=[[0, 1, 1, 0, 0, 0]], b_eq=[Fraction(1, 7)])
    del lp["A_ub"][0], lp["b_ub"][0]
    res = solve_lp(**lp, exact=True)
    assert (res.status, res.route) == (UNBOUNDED, "certified")
    assert _tableau(lp).status == UNBOUNDED


def _exact_lps():
    """Exact LPs above the certification threshold: optimal with an
    equality row, infeasible and unbounded."""
    n = 6
    yield _box_lp(n, c=[Fraction(1, 3), -2, 1, 0, 1, 1], nonneg=[3],
                  A_eq=[[0, 1, 1, 0, 0, 1]], b_eq=[Fraction(1, 7)])
    yield _box_lp(n, A_ub=[[-1] * n], b_ub=[-Fraction(3 * n, 2)])
    lp = _box_lp(n, c=[-1] + [1] * (n - 1))
    del lp["A_ub"][0], lp["b_ub"][0]
    yield lp


# final bases (basic columns, nonbasic rows) of the first of _exact_lps: x0
# alone on the row x1 <= 1 is a singular system, and x3 alone on the row
# -x3 <= 1 is the vertex x3 = -1 of a nonnegative column
CORRUPTED = {"singular-basis": ({0}, {2}), "negative-vertex": ({3}, {7})}


@pytest.mark.parametrize("how", ["perturbed-basis", "wrong-vertex",
                                 INFEASIBLE, UNBOUNDED, *CORRUPTED])
def test_wrong_highs_answer_falls_back_to_tableau(monkeypatch, how):
    # whatever HiGHS says, the exact answer stands: a basis that does not
    # square up or is singular, a vertex off a sign bound, the optimum of
    # the negated objective, or a false status fails its certificate, and
    # the tableau answers
    real = linprog._scipy_linprog

    def wrong(c, **kwargs):
        res = real(c, **kwargs)
        if how == "perturbed-basis":  # one basic column made nonbasic
            if res.status == 0:
                cols = res.basis.col_status
                basic = np.flatnonzero(cols == linprog._BASIC)
                cols[basic[0]] = int(linprog._h.HighsBasisStatus.kLower)
        elif how in CORRUPTED:
            res.basis = _final_basis(*CORRUPTED[how], n=len(c),
                                     m=len(res.basis.row_status)).basis
        elif how == "wrong-vertex":
            res = real(-c, **kwargs)
        else:
            res.status = {INFEASIBLE: 2, UNBOUNDED: 3}[how]
        calls.append(how)
        return res

    for lp in _exact_lps():
        assert (len(lp["A_ub"]) + len(lp.get("A_eq", []))) * len(lp["c"]) \
            >= linprog.EXACT_HIGHS_CELLS
        truth = _tableau(lp).status
        if truth == how or how not in (INFEASIBLE, UNBOUNDED) \
                and truth != OPTIMAL:
            continue
        calls = []
        monkeypatch.setattr(linprog, "_scipy_linprog", wrong)
        res = solve_lp(**lp, exact=True)
        monkeypatch.undo()
        assert calls and res.route == "tableau"
        _check_exact_answer(lp, res)


def _final_basis(basic_cols, tight_rows, n=2, m=2):
    """An optimal HiGHS result whose final basis has the given basic
    columns and nonbasic rows."""
    status = linprog._h.HighsBasisStatus
    cols = [int(status.kBasic if j in basic_cols else status.kLower)
            for j in range(n)]
    rows = [int(status.kUpper if i in tight_rows else status.kBasic)
            for i in range(m)]
    return SimpleNamespace(status=0, basis=SimpleNamespace(
        valid=True, col_status=np.array(cols, dtype=np.int8),
        row_status=np.array(rows, dtype=np.int8)))


def test_certificate_of_a_final_basis():
    # min -x0 - 2 x1 over x >= 0 with x0 + x1 <= 1 (row 0) and
    # x0 - x1 <= 1/2 (row 1): optimal at (0, 1) with multipliers (2, 0)
    lp = linprog._ExactLP([-1, -2], [[1, 1], [1, -1]], [1, Fraction(1, 2)],
                          [], [], [0, 1])
    res = lp.optimal(_final_basis({1}, {0}))
    assert (res.x, res.value, res.duals) == ([0, 1], -2, [2, 0])
    # a feasible vertex whose multiplier leaves x1 a negative reduced cost
    suboptimal = _final_basis({0}, {1})
    assert lp.vertex(suboptimal) == [Fraction(1, 2), 0]
    assert lp.optimal(suboptimal) is None
    # with x0 free (and the LP unbounded) the same basis leaves x0 the
    # nonzero reduced cost 1
    free = linprog._ExactLP([-1, -2], [[1, 1], [1, -1]], [1, Fraction(1, 2)],
                            [], [], [1])
    assert free.vertex(_final_basis({1}, {0})) == [0, 1]
    assert free.optimal(_final_basis({1}, {0})) is None
    # the vertex (1, 0) of row 0 breaks row 1
    assert lp.vertex(_final_basis({0}, {0})) is None
    # two tight rows on one basic column do not square up
    assert lp.vertex(_final_basis({1}, {0, 1})) is None
    assert lp.vertex(SimpleNamespace(**{
        **vars(_final_basis({1}, {0})),
        "basis": SimpleNamespace(valid=False)})) is None


def _klee_minty(n):
    """The Klee-Minty cube: minimize -sum_j 2^(n-j) x_j over x >= 0 with
    sum_{j<i} 2^(i-j+1) x_j + x_i <= 5^i for i = 1..n; optimum -5^n at
    x = 5^n e_n."""
    c = [-2 ** (n - j) for j in range(1, n + 1)]
    A_ub = [[2 ** (i - j + 1) if j < i else int(j == i)
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    return dict(c=c, A_ub=A_ub, b_ub=[5 ** i for i in range(1, n + 1)],
                nonneg=range(n))


def test_tableau_switches_to_blands_rule():
    # on the cube Dantzig's rule takes 2^(n-1) pivots in each phase of the
    # tableau (its phase 1 drives out the artificial of every row): 256 at
    # n = 9, past the 200 after which Bland's rule picks the columns
    res = _tableau(_klee_minty(9))
    assert (res.status, res.value) == (OPTIMAL, -5 ** 9)
    assert res.x == [0] * 8 + [5 ** 9]


def test_tableau_drops_a_redundant_equality_row():
    # the repeated row leaves its artificial basic at 0 after phase 1, in a
    # row with no structural entry: the row is dropped
    lp = dict(c=[1, 2], A_eq=[[1, 1], [1, 1]], b_eq=[1, 1], nonneg=[0, 1])
    res = _tableau(lp)
    assert (res.status, res.x, res.value) == (OPTIMAL, [1, 0], 1)


def test_huge_rationals_fall_back_to_tableau():
    # 10**400 overflows a float but is a finite rational, so HiGHS never
    # sees the LP; 10**-400 only underflows to 0, and the exact check still
    # sees the true bound
    res = solve_lp([1], A_ub=[[-1]], b_ub=[10 ** 400], exact=True)
    assert res.status == OPTIMAL and res.x == [-10 ** 400]
    lp = _box_lp(6, c=[Fraction(10 ** 400), 1, 1, 1, 1, 1])
    res = solve_lp(**lp, exact=True)
    assert res.route == "tableau" and res.value == -10 ** 400 - 5
    lp = _box_lp(6)
    lp["b_ub"][1] = Fraction(1, 10 ** 400)
    res = solve_lp(**lp, exact=True)
    assert res.route == "certified"
    assert res.value == -Fraction(1, 10 ** 400) - 5


def test_routes():
    small = dict(c=[1], A_ub=[[-1]], b_ub=[5])
    assert solve_lp(**small).route == "highs"
    assert solve_lp(**small, exact=True).route == "tableau"
    assert solve_lp(**_box_lp(6), exact=True).route == "certified"
    assert solve_lp(**_box_lp(6)).route == "highs"


def test_worst_leaf_of_floor_market_is_certified():
    from condual.market import build_market
    from condual.treelp import tree_lp

    from conftest import drifted_binomial_spec

    market = build_market(drifted_binomial_spec(3, floor=2))
    assert market.exact
    res = tree_lp(market).worst_leaf(True, 0)
    assert res.route == "certified" and res.status == OPTIMAL


# -- HiGHS through its model API against scipy.optimize.linprog -------------

# the scipy.optimize.linprog method whose one run _scipy_linprog reproduces
RUNGS = ["highs"]


def _random_float_lp(seed):
    """A random float LP with A_ub rows only, A_ub and A_eq rows, or A_eq
    rows only (by seed mod 3).  Some rows are all zero, a random subset of
    the columns is nonnegative, and most A_ub LPs get a box, so that the
    seeds give optimal, infeasible and unbounded LPs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m_ub = 0 if seed % 3 == 2 else int(rng.integers(1, 6))
    m_eq = 0 if seed % 3 == 0 else int(rng.integers(1, 3))
    A_ub = rng.uniform(-2, 2, (m_ub, n)) * (rng.random((m_ub, n)) < 0.8)
    A_ub[rng.random(m_ub) < 0.2] = 0
    b_ub = rng.uniform(-1, 3, m_ub)
    if m_ub and rng.random() < 0.7:
        A_ub = np.vstack((A_ub, np.eye(n), -np.eye(n)))
        b_ub = np.concatenate((b_ub, np.full(2 * n, 5.0)))
    A_eq = rng.uniform(-2, 2, (m_eq, n))
    A_eq[rng.random(m_eq) < 0.2] = 0
    b_eq = A_eq @ rng.uniform(0, 1, n)
    return dict(c=rng.uniform(-1, 1, n), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                b_eq=b_eq, nonneg=[j for j in range(n) if rng.random() < 0.5])


def _both(lp, method):
    """The LP run by linprog._scipy_linprog, and by scipy.optimize.linprog
    called the way condual called it before it ran HiGHS itself."""
    from scipy.optimize import linprog as scipy_linprog

    c, nonneg = lp["c"], lp["nonneg"]
    ours = linprog._scipy_linprog(
        c, A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
        b_eq=lp["b_eq"], nonneg=nonneg)
    bounds = [(0, None) if j in nonneg else (None, None)
              for j in range(len(c))]

    def block(name):
        return lp[name] if len(lp[name]) else None

    ref = scipy_linprog(c, A_ub=block("A_ub"), b_ub=block("b_ub"),
                        A_eq=block("A_eq"), b_eq=block("b_eq"), bounds=bounds,
                        method=method)
    return ours, ref


@pytest.mark.parametrize("method", RUNGS)
def test_model_api_matches_scipy_linprog(method):
    statuses = []
    for seed in range(90):
        ours, ref = _both(_random_float_lp(seed), method)
        assert ours.status == ref.status, seed
        statuses.append(ours.status)
        if ours.status != 0:
            continue
        for a, b in ((ours.x, ref.x), (ours.fun, ref.fun),
                     (ours.ineqlin.marginals, ref.ineqlin.marginals)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12,
                                       err_msg=str(seed))
        # HiGHS's final basis: as many tight rows as basic columns
        basis = ours.basis
        assert basis.valid, seed
        assert np.sum(basis.row_status != linprog._BASIC) \
            == np.sum(basis.col_status == linprog._BASIC), seed
    assert {0, 2, 3} <= set(statuses)


@pytest.mark.parametrize("method", RUNGS)
def test_model_api_verdicts(method):
    # x0 <= -1 and x0 >= 1 contradict each other; nothing bounds x1 from
    # below while the objective rewards decreasing it
    empty = np.zeros((0, 2))
    infeasible = dict(c=np.array([1.0, 1.0]),
                      A_ub=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                      b_ub=np.array([-1.0, -1.0]), A_eq=empty,
                      b_eq=np.zeros(0), nonneg=[1])
    unbounded = dict(c=np.array([0.0, 1.0]), A_ub=np.array([[1.0, 1.0]]),
                     b_ub=np.array([1.0]), A_eq=np.array([[1.0, 0.0]]),
                     b_eq=np.array([0.5]), nonneg=[0])
    for lp, status in ((infeasible, 2), (unbounded, 3)):
        ours, ref = _both(lp, method)
        assert ours.status == ref.status == status


def _edited_solutions(monkeypatch, edit, times):
    """Make linprog's HiGHS pass its first ``times`` solutions through
    ``edit`` (which changes a HighsSolution in place)."""
    real = linprog._h._Highs
    left = [times]

    class Highs:
        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getSolution(self):
            solution = self._highs.getSolution()
            if left[0]:
                left[0] -= 1
                edit(solution)
            return solution

    core = SimpleNamespace(**{**vars(linprog._h), "_Highs": Highs})
    monkeypatch.setattr(linprog, "_h", core)


def _shift_row(i, by):
    def edit(solution):
        values = list(solution.row_value)
        values[i] += by
        solution.row_value = values
    return edit


def _set_x0(value):
    def edit(solution):
        solution.col_value = [value, *solution.col_value[1:]]
    return edit


# max x0 + x1 with x0 + x1 <= 1 (row 0) and x0 = x1 (row 1), both
# nonnegative: optimal at (1/2, 1/2), where row 0 is tight
GUARDED = dict(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
               A_eq=[[1.0, -1.0]], b_eq=[0.0], nonneg=(0, 1))
NEAR = 0.95 * linprog._CHECK_TOL


@pytest.mark.parametrize("edit,status", [
    (_shift_row(0, 1e-3), 4), (_shift_row(1, 1e-3), 4),
    (_shift_row(1, -1e-3), 4), (_set_x0(-1e-3), 4), (_set_x0(math.nan), 4),
    (_shift_row(0, -1e-3), 0), (_shift_row(0, NEAR), 0),
    (_shift_row(1, NEAR), 0), (_shift_row(1, -NEAR), 0), (_set_x0(-NEAR), 0)],
    ids=["ub-row-missed", "eq-row-missed-above", "eq-row-missed-below",
         "bound-missed", "nan", "ub-row-loose", "ub-row-near",
         "eq-row-near-above", "eq-row-near-below", "bound-near"])
def test_post_solve_guard(monkeypatch, edit, status):
    # an optimal HiGHS status stands only for a point without nan that
    # meets every bound and row to within 10 sqrt(1e-9); otherwise the run
    # is undecided and the exact tableau answers
    assert linprog._CHECK_TOL == pytest.approx(3.162e-4, rel=1e-3)
    _edited_solutions(monkeypatch, edit, times=1)
    real, attempts = linprog._scipy_linprog, []

    def recorded(c, **kwargs):
        res = real(c, **kwargs)
        attempts.append(res.status)
        return res

    monkeypatch.setattr(linprog, "_scipy_linprog", recorded)
    res = solve_lp(**GUARDED)
    assert attempts == [status]
    route = "highs" if status == 0 else "tableau"
    assert (res.status, res.route) == (OPTIMAL, route)
    assert res.value == pytest.approx(-1, abs=1e-12)


def test_model_error_is_undecided():
    # HiGHS refuses a matrix entry of 1e21 as a model error, which
    # scipy.optimize.linprog reports as infeasible; here it is undecided,
    # and the exact simplex finds the optimum x = -1e-21
    lp = dict(c=[1.0], A_ub=[[-1e21]], b_ub=[1.0])
    assert linprog._scipy_linprog(
        **{k: np.asarray(v) for k, v in lp.items()}, A_eq=np.zeros((0, 1)),
        b_eq=np.zeros(0), nonneg=[]).status == 4
    res = solve_lp(**lp)
    assert (res.status, res.route, res.x) == (OPTIMAL, "tableau", [-1e-21])


# -- the one HiGHS solver kept for the process -----------------------------

def _status_sequence():
    """HiGHS inputs that change status, each with whether its route reads
    the final basis: float LPs (no basis) and the float copies of exact
    LPs (the certified route, which reads it), optimal, infeasible and
    unbounded, then a model HiGHS refuses, then optimal LPs again, then
    LPs of one shape, unbounded and optimal."""
    float_lps = {}
    for seed in range(90):
        lp = _random_float_lp(seed)
        status = linprog._scipy_linprog(**lp).status
        float_lps.setdefault(status, []).append(lp)
    exact_lps = [linprog._ExactLP(lp["c"], lp["A_ub"], lp["b_ub"],
                                  lp.get("A_eq", []), lp.get("b_eq", []),
                                  lp.get("nonneg", ()))
                 for lp in _exact_lps()]
    refused = dict(c=np.array([1.0]), A_ub=np.array([[-1e21]]),
                   b_ub=np.array([1.0]), A_eq=np.zeros((0, 1)),
                   b_eq=np.zeros(0), nonneg=[])
    seq = []
    for status, lp in zip((0, 2, 3), exact_lps):
        seq += [(float_lps[status][0], False),
                (dict(lp.data, nonneg=lp.nonneg), True)]
    seq.append((refused, False))
    seq += [(float_lps[0][1], False), (seq[1][0], True),
            (dict(exact_lps[0].farkas_lp().data,
                  nonneg=list(range(exact_lps[0].m_ub))), True)]
    # a run of LPs of one shape, which a solver that kept the previous
    # basis would warm start
    rng = np.random.default_rng(5)
    for k in range(8):
        A_ub = rng.uniform(-2, 2, (10, 4))
        A_ub[2:] = np.vstack((np.eye(4), -np.eye(4))) if k % 3 else 0
        b_ub = rng.uniform(-1, 3, 10)
        b_ub[2:] = 5.0
        seq.append((dict(c=rng.uniform(-1, 1, 4), A_ub=A_ub, b_ub=b_ub,
                         A_eq=np.zeros((0, 4)), b_eq=np.zeros(0),
                         nonneg=[0]), True))
    return seq


def _outcome(res, basis):
    """Everything a route reads of a _scipy_linprog result, as bytes."""
    out = [res.status]
    if res.status == 0:
        out += [res.x.tobytes(), np.float64(res.fun).tobytes(),
                res.ineqlin.marginals.tobytes()]
        if basis:
            out += [res.basis.valid, res.basis.col_status.tobytes(),
                    res.basis.row_status.tobytes()]
    return out


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_kept_solver_matches_a_fresh_one(monkeypatch, order):
    # the kept solver answers each LP of a sequence that moves between
    # optimal, infeasible, unbounded and a refused model bit for bit as a
    # fresh HiGHS solver does, whatever came before it
    seq = _status_sequence()
    assert [linprog._scipy_linprog(**lp).status for lp, _ in seq] \
        == [0, 0, 2, 2, 3, 3, 4, 0, 0, 0] + [3, 0, 0] * 2 + [3, 0]
    if order == "reversed":
        seq.reverse()
    kept = [_outcome(linprog._scipy_linprog(**lp, basis=basis), basis)
            for lp, basis in seq]
    fresh = []
    for lp, basis in seq:
        monkeypatch.setattr(linprog._kept, "highs", None)  # a new solver
        fresh.append(_outcome(linprog._scipy_linprog(**lp, basis=basis),
                              basis))
    assert kept == fresh


def test_each_thread_keeps_its_own_solver():
    # HiGHS runs without the interpreter lock, so threads that solve LPs at
    # once each keep a solver: every thread answers every LP as a single
    # thread does
    seq = _status_sequence()
    want = [_outcome(linprog._scipy_linprog(**lp, basis=basis), basis)
            for lp, basis in seq]
    got, interval = [], sys.getswitchinterval()

    def work():
        got.append([[_outcome(linprog._scipy_linprog(**lp, basis=basis), basis)
                     for lp, basis in seq] for _ in range(10)])

    threads = [threading.Thread(target=work) for _ in range(4)]
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want] * 10] * 4


def test_solver_is_made_once_and_basis_read_by_certified_route(monkeypatch):
    # one solver for every LP, its options set once; a float LP reads no
    # final basis, a certified exact LP reads at least one
    real, made, calls = linprog._h._Highs, [], []

    class Highs:
        def __init__(self):
            made.append(1)
            self._highs = real()

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self._highs, name)

    monkeypatch.setattr(linprog, "_h", SimpleNamespace(
        **{**vars(linprog._h), "_Highs": Highs}))
    assert solve_lp(**_box_lp(6)).route == "highs"
    assert solve_lp(**GUARDED).route == "highs"
    assert "getBasis" not in calls and calls.count("run") == 2
    assert solve_lp(**_box_lp(6), exact=True).route == "certified"
    assert calls.count("getBasis") >= 1
    assert made == [1]
    assert calls.count("setOptionValue") == len(linprog._OPTIONS)


def test_number_highs_reads_as_infinite_skips_the_ladder(monkeypatch):
    # HiGHS reads a bound of 1e20 or more as infinite and would call this
    # LP unbounded; x = 1e21 is optimal, and the exact rung alone finds it
    def no_highs(*_, **__):
        raise AssertionError("HiGHS run on an LP it reads as infinite")

    monkeypatch.setattr(linprog, "_scipy_linprog", no_highs)
    res = solve_lp([-1.0], A_ub=[[1.0]], b_ub=[1e21])
    assert (res.status, res.route, res.x) == (OPTIMAL, "tableau", [1e21])


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_entry_highs_reads_as_infinite_is_screened_in_both_modes(monkeypatch,
                                                                 exact):
    # a 4 x 4 LP, large enough for the exact mode's certified HiGHS route,
    # with one entry -10^21 that HiGHS reads as infinite: neither mode runs
    # HiGHS on it, and the tableau answers x0 = 10^21 + 1
    real, runs = linprog._scipy_linprog, []

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linprog, "_scipy_linprog", counted)
    big = -10 ** 21 if exact else -1e21
    A_ub = [[1, big, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    res = solve_lp([-1] * 4, A_ub=A_ub, b_ub=[1] * 4, exact=exact,
                   nonneg=range(4))
    assert runs == []
    assert (res.status, res.route) == (OPTIMAL, "tableau")
    number = (lambda v: v) if exact else float
    assert res.x == [number(v) for v in (10 ** 21 + 1, 1, 1, 1)]
    assert res.value == number(-(10 ** 21 + 4))


def test_missing_highs_model_api_names_the_scipy_floor(monkeypatch):
    import importlib.util
    import sys

    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    spec = importlib.util.spec_from_file_location("linprog_without_highs",
                                                  linprog.__file__)
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this checkout."""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_import_loads_highs_without_scipy_optimize():
    # the extension is loaded by itself: scipy.optimize's package init,
    # with scipy.linalg, scipy.sparse and every optimizer, never runs
    _run_fresh(
        "import sys\n"
        "import condual\n"
        "from condual.linprog import solve_lp\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "res = solve_lp([1.0, 1.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
        "               nonneg=[0, 1])\n"
        "assert (res.status, res.route, res.value) == ('optimal', 'highs', 1.0)\n"
        "assert 'scipy.optimize' not in sys.modules\n")


def test_scipy_optimize_after_condual_reuses_its_highs_module():
    # a later import of scipy.optimize finds the extension condual loaded
    # and runs on that one copy
    _run_fresh(
        "import sys\n"
        "import condual.linprog\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.linprog([1.0, 1.0], A_ub=[[-1.0, -1.0]],\n"
        "                             b_ub=[-1.0], method='highs')\n"
        "assert res.status == 0 and res.fun == 1.0\n"
        "assert sys.modules['scipy.optimize._highspy._core'] \\\n"
        "    is condual.linprog._h\n")


def test_condual_after_scipy_optimize_reuses_its_highs_module():
    _run_fresh(
        "import scipy.optimize._highspy._core as core\n"
        "import condual.linprog\n"
        "from condual.linprog import solve_lp\n"
        "assert condual.linprog._h is core\n"
        "res = solve_lp([1.0], A_ub=[[-1.0]], b_ub=[-2.0])\n"
        "assert (res.status, res.route, res.value) == ('optimal', 'highs', 2.0)\n")
