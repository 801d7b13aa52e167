"""The one exact elimination (scalars.gauss_jordan) and the exact solves
built on it, against sympy's rref, inv and pinv as an independent oracle."""

import random
from fractions import Fraction

import sympy

from condual.convex import predictable_range_projection
from condual.scalars import gauss_jordan, integer_row, solve_exact

F = Fraction


def _entry(rng):
    k = rng.random()
    if k < 0.3:
        return 0
    if k < 0.5:
        return rng.randint(-4, 4)
    return F(rng.randint(-12, 12), rng.randint(1, 9))


def _matrices():
    """Seeded random rational matrices of every shape the solves meet:
    square, wide, tall, rank-deficient (a row or column repeated, scaled),
    all-zero and 1x1."""
    rng = random.Random(2011)
    out = [[[F(0)]], [[F(3, 7)]], [[0, 0], [0, 0]], [[0, 0, 0]]]
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = [[_entry(rng) for _ in range(n)] for _ in range(m)]
        kind = rng.random()
        if kind < 0.25 and m > 1:
            M[-1] = [F(-3, 2) * v for v in M[0]]
        elif kind < 0.5 and n > 1:
            for row in M:
                row[-1] = 2 * row[0] - row[1 % n]
        out.append(M)
    return out


MATRICES = _matrices()


def _sym(M):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in map(F, row)] for row in M])


def _frac(x):
    return F(int(x.p), int(x.q))


def test_matrices_cover_every_shape():
    shapes = {(len(M) > len(M[0])) - (len(M) < len(M[0])) for M in MATRICES}
    ranks = [_sym(M).rank() for M in MATRICES]
    assert shapes == {-1, 0, 1}
    assert any(r == 0 for r in ranks)
    assert any(0 < r < min(len(M), len(M[0]))
               for M, r in zip(MATRICES, ranks))
    assert any(len(M) == len(M[0]) == r for M, r in zip(MATRICES, ranks))


def test_reduced_rows_and_pivots_match_rref():
    for M in MATRICES:
        rref, sym_pivots = _sym(M).rref()
        a, pivots = gauss_jordan(M)
        assert pivots == list(sym_pivots), M
        assert all(isinstance(v, int) for row in a for v in row)
        for i, row in enumerate(a):
            if i < len(pivots):
                expected = [_frac(v) for v in rref.row(i)]
                assert [F(v, row[pivots[i]]) for v in row] == expected, M
            else:
                assert not any(row), M


def test_right_hand_sides_ride_along():
    # eliminating on the leading columns only: the pivots are those of the
    # leading block, and the reduced rows span the rows of [M | Y]
    for M in MATRICES:
        augmented = [row + [F(i + 1, j + 2) for j in range(2)]
                     for i, row in enumerate(M)]
        a, pivots = gauss_jordan(augmented, len(M[0]))
        assert pivots == list(_sym(M).rref()[1]), M
        rank = _sym(augmented).rank()
        assert _sym(a).rank() == _sym(a + augmented).rank() == rank, M


def test_inverse_matches_sympy():
    for M in MATRICES:
        n = len(M)
        if n != len(M[0]):
            continue
        system = [list(row) + [int(i == j) for j in range(n)]
                  for i, row in enumerate(M)]
        inverse = solve_exact(system, n)
        if _sym(M).rank() < n:
            assert inverse is None, M
            continue
        assert inverse == [[_frac(v) for v in row]
                           for row in _sym(M).inv().tolist()], M
        assert all(isinstance(v, Fraction) for row in inverse for v in row)


def test_projection_and_basis_match_sympy():
    # the increments are the rows of M: P projects onto their span
    for M in MATRICES:
        B = _sym(M).T
        P = predictable_range_projection(M)
        assert P.matrix == tuple(tuple(_frac(v) for v in row)
                                 for row in (B * B.pinv()).tolist()), M
        assert all(isinstance(v, Fraction) for row in P.matrix for v in row)


def test_integer_row_scales_by_the_least_common_multiple():
    assert integer_row([F(1, 2), F(-2, 3), 4, 0.25]) == [6, -8, 48, 3]
    assert integer_row([0, 0]) == [0, 0]
    assert integer_row([]) == []
