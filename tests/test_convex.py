"""Convex-set primitives: support functions, cones, projections, pinv."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from condual.convex import (
    AffineFixed,
    Ball,
    Box,
    Cone,
    ConvexSet,
    CrossFixed,
    Intersection,
    Polyhedron,
    ProjectionMatrix,
    Singleton,
    _project_onto_halfspaces,
    contains,
    min_norm_solution,
    polar_cone,
    predictable_range_projection,
    projected_set_closed,
    recession_cone,
    set_from_json,
    set_to_json,
    support_function,
)
from condual.linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from condual.scalars import INF, NEG_INF

from helpers import cones_equal_lp, extreme_rays


F = Fraction


def rational_polyhedron(rng, dim, rows):
    """Random nonempty rational polyhedron containing a known point."""
    inside = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)]
    A, b = [], []
    for _ in range(rows):
        row = [F(rng.randint(-4, 4)) for _ in range(dim)]
        if all(v == 0 for v in row):
            row[rng.randrange(dim)] = F(1)
        slack = F(rng.randint(0, 5), rng.randint(1, 2))
        b.append(sum(a * x for a, x in zip(row, inside)) + slack)
        A.append(row)
    return Polyhedron(tuple(map(tuple, A)), tuple(b)), tuple(inside)


# ---------------------------------------------------------------------------
# support functions


def test_support_box_l1():
    box = Box((F(-1), F(-1)), (F(1), F(1)))
    assert support_function(box, (F(3), F(-4))) == 7


def test_support_halfline_unbounded_direction():
    halfline = Box((NEG_INF,), (F(1),))
    assert support_function(halfline, (F(1),)) == 1
    assert support_function(halfline, (F(-1),)) == INF


def test_support_ball_is_scaled_norm():
    ball = Ball((0.0, 0.0, 0.0), 2.5)
    xi = (1.0, 2.0, -2.0)
    assert support_function(ball, xi) == pytest.approx(2.5 * 3.0)


def test_support_affine_fixed():
    # R x {1}: finite only when the free coordinate is absent from xi
    s = AffineFixed(2, {1: F(1)})
    assert support_function(s, (F(0), F(5))) == 5
    assert support_function(s, (F(1), F(0))) == INF


def test_support_cross_fixed_matches_base_plus_fixed():
    base = Box((F(-1),), (F(1),))
    s = CrossFixed(base, (F(1),))
    assert support_function(s, (F(2), F(3))) == 2 + 3
    assert s.contains((F(1), F(1)))
    assert not s.contains((F(0), F(2)))


@pytest.mark.parametrize("seed", range(10))
def test_support_homogeneous_and_subadditive(seed):
    rng = random.Random(seed)
    poly, _ = rational_polyhedron(rng, 2, 4)
    for _ in range(10):
        xi = [F(rng.randint(-3, 3)) for _ in range(2)]
        eta = [F(rng.randint(-3, 3)) for _ in range(2)]
        lam = F(rng.randint(0, 4), rng.randint(1, 3))
        v = support_function(poly, xi)
        v_scaled = support_function(poly, [lam * x for x in xi])
        if v == INF:
            assert v_scaled == INF or lam == 0
        else:
            assert v_scaled == lam * v
        s = support_function(poly, [a + b for a, b in zip(xi, eta)])
        parts = v + support_function(poly, eta)
        assert s <= parts  # inf on the right absorbs


def test_support_finite_iff_direction_in_polar_of_recession():
    rng = random.Random(7)
    for _ in range(20):
        poly, _ = rational_polyhedron(rng, 3, 4)
        polar = polar_cone(recession_cone(poly))
        for _ in range(6):
            xi = [F(rng.randint(-2, 2)) for _ in range(3)]
            finite = support_function(poly, xi) != INF
            assert finite == polar.contains(xi)


# ---------------------------------------------------------------------------
# recession cones


def test_recession_of_compact_box_is_zero():
    assert recession_cone(Box((F(-1), F(-1)), (F(1), F(1)))).is_trivial()


def test_recession_of_halfline():
    cone = recession_cone(Box((NEG_INF,), (F(1),)))
    assert cone.contains((F(-5),))
    assert not cone.contains((F(1),))


@pytest.mark.parametrize("seed", range(8))
def test_recession_matches_membership_sampling(seed):
    # sampling oracle: xi recedes iff inside + t*xi stays inside for large t
    rng = random.Random(100 + seed)
    poly, inside = rational_polyhedron(rng, 2, 4)
    cone = recession_cone(poly)
    for _ in range(12):
        xi = [F(rng.randint(-2, 2)) for _ in range(2)]
        big_t = F(10 ** 7)
        stays = poly.contains([p + big_t * x for p, x in zip(inside, xi)])
        assert cone.contains(xi) == stays


def test_recession_of_affine_fixed_is_free_subspace():
    cone = recession_cone(AffineFixed(3, {2: F(1)}))
    assert cone.contains((F(1), F(-2), F(0)))
    assert not cone.contains((F(0), F(0), F(1)))


# ---------------------------------------------------------------------------
# polar cones


def test_polar_zero_and_full():
    zero = Cone.zero(3)
    full = Cone.full(3)
    assert polar_cone(zero).contains((5, -2, 1))
    polar_full = polar_cone(full)
    assert polar_full.contains((0, 0, 0))
    assert not polar_full.contains((1, 0, 0))


def test_polar_orthant():
    orthant = Cone(2, "halfspace", ((F(-1), F(0)), (F(0), F(-1))))
    polar = polar_cone(orthant)
    assert polar.contains((F(-1), F(-2)))
    assert not polar.contains((F(1), F(0)))


def test_polar_antitone():
    small = Cone(2, "generator", ((F(1), F(0)),))
    large = Cone(2, "generator", ((F(1), F(0)), (F(0), F(1))))
    ps, pl = polar_cone(small), polar_cone(large)
    # polar(large) subset polar(small): check on generators of polar(large)
    for eta in [(F(-1), F(0)), (F(0), F(-1)), (F(-1), F(-1))]:
        if pl.contains(eta):
            assert ps.contains(eta)


@pytest.mark.parametrize("seed", range(25))
def test_polar_polar_roundtrip_exact(seed):
    rng = random.Random(300 + seed)
    dim = rng.randint(2, 4)
    rows = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(dim))
                 for _ in range(rng.randint(dim, dim + 3)))
    cone = Cone(dim, "halfspace", rows).canonical()
    back = polar_cone(polar_cone(cone)).canonical()
    assert back.rows == cone.rows
    assert cones_equal_lp(cone.rows, back.rows, dim)


@pytest.mark.parametrize("seed", range(10))
def test_polar_against_extreme_ray_oracle(seed):
    # build a pointed halfspace cone, enumerate its extreme rays, and verify
    # the polar's generator form agrees with the polar computed from rays
    rng = random.Random(900 + seed)
    dim = rng.randint(2, 3)
    rows = [tuple(F(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(dim + 2)]
    for i in range(dim):  # force pointedness: include orthant-ish rows
        rows.append(tuple(F(-1 if i == j else 0) for j in range(dim)))
    cone = Cone(dim, "halfspace", tuple(rows))
    rays = extreme_rays(list(cone.rows), dim)
    polar = polar_cone(cone)
    for ray in rays:
        # each extreme ray is in the cone, so it pairs nonpositively with
        # every polar element; test on the polar's generators
        assert cone.contains(ray)
        for gen in polar.rows:
            assert sum(a * b for a, b in zip(gen, ray)) <= 0


# ---------------------------------------------------------------------------
# predictable-range projection


def test_projection_rank_one():
    P = predictable_range_projection([(F(1), F(2)), (F(2), F(4))])
    assert P.matrix == ((F(1, 5), F(2, 5)), (F(2, 5), F(4, 5)))
    assert P.rank == 1


def test_projection_full_span_identity():
    P = predictable_range_projection([(1.0, 0.0), (1.0, 1.0)])
    assert np.allclose(P.as_array(), np.eye(2), atol=1e-12)


def test_projection_zero_increments():
    P = predictable_range_projection([(0.0, 0.0)])
    assert np.allclose(P.as_array(), 0.0)


@pytest.mark.parametrize("seed", range(12))
def test_projection_idempotent_symmetric(seed):
    rng = np.random.default_rng(seed)
    incs = rng.normal(size=(rng.integers(1, 4), 3))
    P = predictable_range_projection([tuple(row) for row in incs]).as_array()
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(P, P.T, atol=1e-10)


def test_projection_identifies_equivalent_portfolios():
    incs = [(F(1), F(2))]
    P = predictable_range_projection(incs)
    h1, h2 = (F(3), F(1)), (F(5), F(0))  # same wealth move: dot with (1,2) = 5
    diff = [a - b for a, b in zip(h1, h2)]
    assert P.apply(diff) == (F(0), F(0))


# ---------------------------------------------------------------------------
# projected-set closedness


def test_closedness_polyhedron_and_ball():
    P = predictable_range_projection([(1.0, 0.0)])
    verdict, _ = projected_set_closed(P, Polyhedron(((F(1), F(1)),), (F(1),)))
    assert verdict == "true"
    verdict, _ = projected_set_closed(P, Ball((0.0, 0.0), 1.0))
    assert verdict == "true"


def test_closedness_unknown_for_exotic_variant():
    class Exotic(ConvexSet):
        dim = 2

        def halfspaces(self):
            return None

        def is_bounded(self):
            return None

    P = predictable_range_projection([(1.0, 0.0)])
    verdict, _ = projected_set_closed(P, Exotic())
    assert verdict == "unknown"


# ---------------------------------------------------------------------------
# minimal-norm solutions


def test_min_norm_diagonal():
    assert min_norm_solution([[F(1), F(0)], [F(0), F(0)]], [F(3), F(0)]) == (3, 0)


def test_min_norm_underdetermined():
    assert min_norm_solution([[F(1), F(1)]], [F(2)]) == (1, 1)


@pytest.mark.parametrize("seed", range(15))
def test_min_norm_against_svd_oracle(seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
    t = rng.normal(size=M.shape[0])
    got = np.asarray(min_norm_solution(M.tolist(), t.tolist()))
    u, s, vt = np.linalg.svd(M, full_matrices=False)
    s_inv = np.where(s > 1e-12, 1.0 / np.where(s > 0, s, 1.0), 0.0)
    oracle = vt.T @ (s_inv * (u.T @ t))
    assert np.allclose(got, oracle, atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_min_norm_minimality(seed):
    rng = np.random.default_rng(100 + seed)
    M = rng.normal(size=(3, 4))
    v = rng.normal(size=4)
    x = np.asarray(min_norm_solution(M.tolist(), (M @ v).tolist()))
    assert np.linalg.norm(x) <= np.linalg.norm(v) + 1e-9
    assert np.allclose(M @ x, M @ v, atol=1e-10)


# ---------------------------------------------------------------------------
# membership


def test_contains_box_boundary():
    assert contains(Box((F(-1),), (F(1),)), (F(1),))


def test_contains_exact_rejects_tiny_overshoot():
    halfline = Box((NEG_INF,), (F(1),))
    assert not contains(halfline, (F(1) + F(1, 10 ** 9),))


@pytest.mark.parametrize("seed", range(8))
def test_contains_chebyshev_center(seed):
    rng = random.Random(500 + seed)
    poly, _ = rational_polyhedron(rng, 3, 5)
    assert contains(poly, poly.center())


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        support_function(Box((F(0),), (F(1),)), (1, 2))
    with pytest.raises(ValueError):
        contains(Ball((0.0, 0.0), 1.0), (0.0,))


# ---------------------------------------------------------------------------
# projections onto sets (solver support)


def test_project_box_clip():
    assert tuple(Box((F(-1),), (F(1),)).project(np.array([2.5]))) == (1,)


PROJECTION_SETS = {
    "box": Box((F(-1), F(0)), (F(2), F(1))),
    "half-line": Box((NEG_INF,), (F(1),)),
    "singleton": Singleton((F(1, 3), F(-2))),
    "ball": Ball((0.5, -1.0), 1.5),
    "polyhedron": Polyhedron(((F(1), F(1)), (F(-1), F(0)), (F(0), F(-1))),
                             (F(1), F(0), F(0))),
    "affine_fixed": AffineFixed(3, ((1, F(2)),)),
    "cross_fixed_box": CrossFixed(Box((F(-1),), (F(1),)), (F(1),)),
    "cross_fixed_ball": CrossFixed(Ball((0.0, 0.0), 1.0), (F(1, 2),)),
    "intersection": Intersection((Box((F(-2), F(-2)), (F(2), F(2))),
                                  Polyhedron(((F(1), F(1)),), (F(1),)))),
    "ball_box": Intersection((Ball((0.0, 0.0), 1.5),
                              Box((F(0), F(-2)), (F(2), F(2))))),
}


@pytest.mark.parametrize("name", sorted(PROJECTION_SETS))
def test_projection_contract(name):
    s = PROJECTION_SETS[name]
    rng = np.random.default_rng(7)
    members = [s.project(3 * rng.standard_normal(s.dim)) for _ in range(20)]
    members.append(np.asarray(s.center(), dtype=float))
    for w in members:
        assert contains(s, w, 1e-8)
    for _ in range(30):
        z = 3 * rng.standard_normal(s.dim)
        p = s.project(z)
        assert isinstance(p, np.ndarray) and p.dtype == float
        assert contains(s, p, 1e-8)
        assert np.allclose(s.project(p), p, rtol=0, atol=1e-9)
        # variational inequality: z - P z is normal to the set at P z
        for w in members:
            assert (z - p) @ (w - p) <= 1e-8


def test_projection_solves_center_lp_once(monkeypatch):
    import condual.convex

    poly = PROJECTION_SETS["polyhedron"]
    inter = PROJECTION_SETS["intersection"]
    calls = []
    real = condual.convex.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(condual.convex, "solve_lp", counting)
    rng = np.random.default_rng(3)
    # fresh sets: the shared ones may already hold their float data
    for s in (Polyhedron(poly.A, poly.b), Intersection(inter.members)):
        calls.clear()
        for _ in range(50):
            s.project(3 * rng.standard_normal(s.dim))
        assert len(calls) <= 1


def test_project_polyhedron_kkt():
    rng = random.Random(42)
    for _ in range(10):
        poly, _ = rational_polyhedron(rng, 2, 4)
        A = np.asarray([[float(v) for v in r] for r in poly.A])
        b = np.asarray([float(v) for v in poly.b])
        z = np.asarray([rng.uniform(-6, 6), rng.uniform(-6, 6)])
        x = poly.project(z)
        # feasibility
        assert (A @ x <= b + 1e-8).all()
        # KKT: z - x lies in the cone of active rows (nonneg least squares)
        resid = z - x
        active = [i for i in range(len(b)) if A[i] @ x > b[i] - 1e-7]
        if np.linalg.norm(resid) > 1e-9:
            from scipy.optimize import nnls

            _, err = nnls(A[active].T, resid)
            assert err <= 1e-6


def test_intersection_polyhedral_support():
    s = Intersection((Box((F(-2), F(-2)), (F(2), F(2))),
                      Polyhedron(((F(1), F(1)),), (F(1),))))
    assert support_function(s, (F(1), F(1))) == 1
    assert support_function(s, (F(-1), F(0))) == 2


def test_empty_constructions_rejected():
    with pytest.raises(ValueError):
        Box((F(1),), (F(0),))
    with pytest.raises(ValueError):
        Polyhedron(((F(1),), (F(-1),)), (F(-1), F(-1)))
    with pytest.raises(ValueError):
        Intersection((Singleton((F(0),)), Singleton((F(1),))))


# ---------------------------------------------------------------------------
# one-dimensional polyhedral sets: closed-form intervals


def test_float_interval_keeps_the_lp_verdicts():
    # HiGHS's feasibility tolerance decided these before: kept at 1e-9,
    # refused at 1e-6
    gap = Polyhedron(((1.0,), (-1.0,)), (1.0, -(1 + 1e-9)))
    with pytest.raises(ValueError):
        Polyhedron(((1.0,), (-1.0,)), (1.0, -(1 + 1e-6)))
    kept = Intersection((Polyhedron(((1.0,),), (1.0,)),
                         Polyhedron(((-1.0,),), (-(1 + 1e-9),))))
    with pytest.raises(ValueError):
        Intersection((Polyhedron(((1.0,),), (1.0,)),
                      Polyhedron(((-1.0,),), (-(1 + 1e-6),))))
    assert Polyhedron(((0.0,), (1.0,)), (-1e-9, 1.0)).bounding_box() \
        == [(NEG_INF, 1.0)]
    with pytest.raises(ValueError):
        Polyhedron(((0.0,), (1.0,)), (-1e-6, 1.0))
    # an inverted interval collapses to its midpoint: box, center and
    # projection agree on it
    mid = (1.0 + (1 + 1e-9)) / 2
    for s in (gap, kept):
        assert s.bounding_box() == [(mid, mid)]
        assert s.center() == (mid,)
        for z in (-3.0, mid, 4.0):
            assert s.project(np.array([z])).tolist() == [mid]


def test_exact_interval_has_no_tolerance():
    tiny = F(1, 10 ** 12)
    with pytest.raises(ValueError):
        Polyhedron(((F(1),), (F(-1),)), (F(1), -(1 + tiny)))
    with pytest.raises(ValueError):
        Polyhedron(((F(0),), (F(1),)), (-tiny, F(1)))
    with pytest.raises(ValueError):
        Intersection((Box((F(-1),), (F(1),)),
                      Polyhedron(((F(-1),),), (-(1 + tiny),))))
    point = Polyhedron(((F(3),), (F(-2),)), (F(3) + 3 * tiny, -2 - 2 * tiny))
    assert point.bounding_box() == [(1 + tiny, 1 + tiny)]
    assert point.center() == (1 + tiny,)


def test_one_dimensional_ball_is_an_interval():
    # exact rows for an exact ball, float rows for a float one, none in
    # dimension two; an intersection with such a ball is an interval too
    for ball, ends in ((Ball((F(3),), F(1, 2)), (F(5, 2), F(7, 2))),
                       (Ball((-1.0,), 2.0), (-3.0, 1.0))):
        A, b = ball.halfspaces()
        assert Polyhedron(tuple(A), tuple(b)).bounding_box() == [ends]
        assert all(type(v) is type(ball.radius) for v in b)
        both = Intersection((ball, Box((F(0),), (F(3),))))
        assert both.bounding_box() == [(max(ends[0], 0), min(ends[1], 3))]
        assert both.recession().is_trivial()
    assert Ball((F(0), F(0)), F(1)).halfspaces() is None


def test_exact_is_kept_on_the_set(monkeypatch):
    # sets are immutable, so whether their numbers are rational is read once
    calls = []
    scalars = Box._scalars
    monkeypatch.setattr(Box, "_scalars",
                        lambda self: calls.append(self) or scalars(self))
    box = Box((F(-1), 0.5), (F(1), INF))
    assert [box.exact for _ in range(3)] == [False] * 3
    assert len(calls) == 1
    assert CrossFixed(Box((F(0),), (F(1),)), (F(2),)).exact
    assert not Intersection((Box((F(0),), (F(2),)),
                             Box((0.5,), (1.5,)))).exact


@pytest.mark.parametrize("lo, hi, center", [
    (F(-1, 2), F(1), F(1, 4)),  # narrower than 2: the midpoint
    (F(-5), F(7), F(0)),        # 0 is a center of radius 1
    (F(2), INF, F(3)),          # lo + 1
    (NEG_INF, F(-4), F(-5)),    # hi - 1
    (NEG_INF, INF, F(0)),
])
def test_interval_center(lo, hi, center):
    rows = [((F(1),), hi)] if hi != INF else []
    rows += [((F(-1),), -lo)] if lo != NEG_INF else [((F(0),), F(1))]
    s = Polyhedron(tuple(r for r, _ in rows), tuple(v for _, v in rows))
    assert s.center() == (center,) and s.bounding_box() == [(lo, hi)]


SHAPES = ("half-line", "point", "zero", "interval", "empty")


def random_interval_rows(rng):
    """Rows (a,) and bounds of a random one-dimensional set: one of SHAPES,
    plus up to two rows drawn at random (which may empty it)."""
    def frac():
        return F(rng.randint(-12, 12), rng.randint(1, 4))

    def scale():
        return F(rng.randint(1, 3), rng.randint(1, 2))

    p, q = sorted((frac(), frac()))
    a, c = scale(), scale()
    shape = rng.choice(SHAPES)
    if shape == "half-line":
        rows = [(a, a * p)] if rng.random() < 0.5 else [(-a, -a * p)]
    elif shape == "point":
        rows = [(a, a * p), (-c, -c * p)]
    elif shape == "zero":
        rows = [(F(0), rng.choice((F(0), abs(p), -abs(q) - 1))), (a, a * q)]
    elif shape == "interval":
        rows = [(a, a * q), (-c, -c * p)]
    else:
        rows = [(a, a * p), (-c, -c * (q + 1))]
    rows += [(F(rng.randint(-3, 3)), frac()) for _ in range(rng.randint(0, 2))]
    rng.shuffle(rows)
    return [(a,) for a, _ in rows], [v for _, v in rows]


def lp_differential(make, A, b, exact, rng):
    """Compare the closed-form set make() with LPs on its rows (A, b): the
    verdict, both ends of the bounding box, the center at the Chebyshev
    radius, and the projection; returns whether the set is empty."""
    tol = 0 if exact else 1e-12
    feasible = solve_lp([0], A_ub=A, b_ub=b, exact=exact)
    try:
        s = make()
    except ValueError:
        assert feasible.status == INFEASIBLE
        return True
    assert feasible.status == OPTIMAL
    ((lo, hi),) = s.bounding_box()
    for end, sign in ((lo, 1), (hi, -1)):
        res = solve_lp([sign], A_ub=A, b_ub=b, exact=exact)
        if res.status == UNBOUNDED:
            assert end == -sign * INF
        else:
            assert abs(end - sign * res.value) <= tol * max(1, abs(end))
    cheb = solve_lp([0, -1], A_ub=[(a, abs(a)) for (a,) in A] + [(0, 1)],
                    b_ub=list(b) + [1], exact=exact)
    radius = -cheb.value
    (center,) = s.center()
    assert all(a * center + abs(a) * radius <= bound + (0 if exact else 1e-9)
               for (a,), bound in zip(A, b))
    A_f, b_f = (np.asarray(v, dtype=float) for v in (A, b))
    start = np.asarray(feasible.x, dtype=float)
    for _ in range(5):
        z = np.array([rng.uniform(-15, 15)])
        expected = _project_onto_halfspaces(A_f, b_f, start, z)
        assert np.abs(s.project(z) - expected).max() <= 1e-12
    return False


@pytest.mark.parametrize("exact", [True, False])
def test_polyhedron_interval_against_lps(exact):
    rng = random.Random(1600 + exact)
    num = F if exact else float
    verdicts = []
    for _ in range(150):
        A, b = random_interval_rows(rng)
        A = [(num(a),) for (a,) in A]
        b = [num(v) for v in b]
        verdicts.append(lp_differential(
            lambda: Polyhedron(tuple(A), tuple(b)), A, b, exact, rng))
    assert 20 <= sum(verdicts) <= 130  # both verdicts well represented


@pytest.mark.parametrize("exact", [True, False])
def test_intersection_interval_against_lps(exact):
    rng = random.Random(1700 + exact)
    num = F if exact else float
    verdicts = []
    while len(verdicts) < 100:
        members = []
        for _ in range(rng.randint(1, 3)):
            A, b = random_interval_rows(rng)
            try:
                members.append(Polyhedron(tuple((num(a),) for (a,) in A),
                                          tuple(num(v) for v in b)))
            except ValueError:
                pass
        if rng.random() < 0.5:
            lo, hi = sorted(num(F(rng.randint(-8, 8), 2)) for _ in range(2))
            members.append(Box((lo,), (hi,)))
        if not members:
            continue
        A, b = [], []
        for m in members:
            rows, offsets = m.halfspaces()
            A += [tuple(r) for r in rows]
            b += list(offsets)
        verdicts.append(lp_differential(
            lambda: Intersection(tuple(members)), A, b, exact, rng))
    assert 10 <= sum(verdicts) <= 90


def test_parse_floor_market_solves_no_lp(tmp_path, monkeypatch):
    # a floor-cli-style market: polyhedron and intersection nodes, with a
    # floor; every set is one-dimensional, so parsing it and asking its sets
    # for their centers, boxes and projections take no LP
    import condual.convex
    from condual.market import parse_market_file
    from condual.treelp import tree_lp

    from conftest import float_copy, two_period_spec

    def no_lp(*_, **__):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(condual.convex, "solve_lp", no_lp)
    spec = two_period_spec()
    spec["constraints"] = {
        "r": {"type": "polyhedron", "A": [[1], [-1], [2]],
              "b": ["3/2", 1, "7/4"]},
        "u": {"type": "intersection", "members": [
            {"type": "box", "lower": [-2], "upper": [1]},
            {"type": "polyhedron", "A": [[1], [-1], [3]],
             "b": ["1/2", "5/4", 2]}]},
        "d": {"type": "polyhedron", "A": [[0], [-1]], "b": [0, 2]},
    }
    spec["floor"] = "6"
    twin = float_copy(spec)
    twin["floor"] = 6.0
    for doc in (spec, twin):
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        market = parse_market_file(str(path))
        for i, cset in market.constraints:
            assert cset.contains(cset.center())
            assert cset.box_bounds() is not None
        lp = tree_lp(market)
        h = np.linspace(-3, 3, lp.n_h)
        assert np.array_equal(lp.project(h), np.clip(h, lp.box_lo, lp.box_hi))
        assert lp.intervals == {i: tuple(cset.bounding_box()[0])
                                for i, cset in market.constraints}


# ---------------------------------------------------------------------------
# JSON round trip


@pytest.mark.parametrize("descriptor", [
    {"type": "box", "lower": ["-inf", "-1"], "upper": [1, "1/2"]},
    {"type": "ball", "center": [0, 0], "radius": 1.5},
    {"type": "polyhedron", "A": [[1, 1], [-1, 0]], "b": [1, 0]},
    {"type": "singleton", "point": ["1/3", 2]},
    {"type": "affine_fixed", "dim": 3, "fixed": {"2": 1}},
    {"type": "cross_fixed", "base": {"type": "box", "lower": [-1], "upper": [1]},
     "fixed": [1]},
    {"type": "intersection", "members": [
        {"type": "box", "lower": [-1], "upper": [1]},
        {"type": "polyhedron", "A": [[1]], "b": [0]}]},
])
def test_set_json_roundtrip(descriptor):
    s = set_from_json(descriptor)
    again = set_from_json(set_to_json(s))
    assert set_to_json(again) == set_to_json(s)
