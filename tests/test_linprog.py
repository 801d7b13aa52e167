"""Exact simplex vs scipy cross-checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from condual.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


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
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 6)
    A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-2, 6)) for _ in range(m)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    # keep things bounded: box the variables
    for j in range(n):
        row_lo = [Fraction(0)] * n
        row_lo[j] = Fraction(-1)
        row_hi = [Fraction(0)] * n
        row_hi[j] = Fraction(1)
        A += [row_lo, row_hi]
        b += [Fraction(10), Fraction(10)]
    nonneg = [j for j in range(n) if rng.random() < 0.5]
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
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 4)
    A_eq = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]]
    x_feas = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    b_eq = [sum(a * x for a, x in zip(A_eq[0], x_feas))]
    A_ub, b_ub = [], []
    for j in range(n):  # box to keep it bounded
        lo = [Fraction(0)] * n
        lo[j] = Fraction(-1)
        hi = [Fraction(0)] * n
        hi[j] = Fraction(1)
        A_ub += [lo, hi]
        b_ub += [Fraction(6), Fraction(6)]
    c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    nonneg = [j for j in range(n) if rng.random() < 0.5]
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


def test_float_solve_settles_undecided_highs_exactly(monkeypatch):
    # when every HiGHS attempt stops undecided (status 4), the float solve
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
        attempts.append(k["method"]) or SimpleNamespace(status=4)))
    settled = solve_lp(**lp)
    assert attempts == ["highs", "highs-ds", "highs"]
    assert highs.status == settled.status == OPTIMAL
    for a, b in ((highs.x, settled.x), (highs.duals, settled.duals),
                 ([highs.value], [settled.value])):
        assert all(type(v) is float for v in b)
        assert np.allclose(a, b, rtol=0, atol=1e-9)
    assert solve_lp([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, 0.0]).status \
        == INFEASIBLE
    assert solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[0.0]).status == UNBOUNDED
