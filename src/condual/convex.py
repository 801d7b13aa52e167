"""Finite-dimensional closed convex sets and cones.

The set variants (boxes, balls, polyhedra, fixed-coordinate products,
singletons, intersections) are exactly the shapes that show up as per-node
holding constraints.  Every variant knows how to answer the handful of
questions the solvers ask: support values in a direction, membership,
recession directions, Euclidean projection, and conversion to halfspace form
where that is possible.

Scalars follow the package-wide convention: Fractions everywhere means exact
answers (support values, recession cones, polars are then exact); any float
degrades the computation to float mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linprog import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from .scalars import INF, NEG_INF, all_exact, gauss_jordan, integer_row, \
    is_exact, solve_exact

_ABS_TOL = 1e-10
# a float set is empty only when it stays empty with every halfspace row
# relaxed by this much: the primal feasibility tolerance of HiGHS, whose LP
# decided emptiness before the closed form did
_FEAS_TOL = 1e-7


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class ConvexSet:
    """Base class; concrete variants are frozen dataclasses below."""

    dim: int

    @property
    def exact(self) -> bool:
        """True when every number of the set is rational; kept on the set."""
        return self._memo("_exact", lambda: all_exact(self._scalars()))

    def _scalars(self):  # pragma: no cover - overridden
        return ()

    # -- queries ---------------------------------------------------------
    def support(self, xi):
        """sup over the set of h . xi, possibly +inf."""
        return self.support_argmax(xi)[0]

    def support_argmax(self, xi):
        """(support value, attaining point or None when the value is +inf)."""
        raise NotImplementedError

    def contains(self, point, tol=_ABS_TOL) -> bool:
        raise NotImplementedError

    def project(self, point):
        """Euclidean projection of a float array onto the set, as a float
        array; float-mode operation.

        Here, the clip to :meth:`box_bounds`; the other variants override
        it.  The float data it needs (bounds, the halfspace rows and a
        feasible start) is built on the first call and kept on the set.  A
        one-dimensional polyhedron or polyhedral intersection is its own
        box, so its projection is this clip and solves no LP; in higher
        dimensions such a set solves its center LP at most once, however
        often it is projected onto.
        """
        lo, hi = self.box_bounds()
        # np.clip's values at half its per-call cost on these short vectors
        return np.minimum(np.maximum(point, lo), hi)

    _own_box = False  # True where the set equals its bounding_box()

    def box_bounds(self):
        """Float rows (lo, hi), +-inf where unbounded, when the set is the
        box they bound, built once; None for any other set."""
        if not self._own_box:
            return None
        return self._memo("_bounds", lambda: np.asarray(
            self.bounding_box(), dtype=float).reshape(-1, 2).T)

    def _memo(self, key, build):
        """self.__dict__[key], set to build() on first use: sets are immutable."""
        value = self.__dict__.get(key)
        if value is None:
            value = build()
            object.__setattr__(self, key, value)
        return value

    def _ends(self):
        """(lo, hi) of a one-dimensional set with a halfspace form, from
        :func:`halfspace_interval` in the set's own arithmetic (None when
        empty), kept on the set; () for any other set."""
        def build():
            hs = self.halfspaces() if self.dim == 1 else None
            return () if hs is None else halfspace_interval(*hs, self.exact)
        return self._memo("_interval", build)

    def center(self):
        """Some canonical member of the set (used as witness/start point)."""
        raise NotImplementedError

    def halfspaces(self):
        """(A, b) with the set equal to {h: A h <= b}, or None (e.g. balls)."""
        return None

    def recession(self) -> "Cone":
        """The recession cone: the homogeneous form of halfspaces()."""
        hs = self.halfspaces()
        if hs is None:
            raise NotImplementedError
        return Cone(self.dim, "halfspace", hs[0])

    def is_bounded(self):
        """True/False, or None when undecidable for this variant."""
        raise NotImplementedError

    def bounding_box(self):
        """Per-coordinate (lo, hi) with +-inf where unbounded."""
        raise NotImplementedError

    def _check_dim(self, vec):
        if len(vec) != self.dim:
            raise ValueError(f"dimension mismatch: set is {self.dim}-dimensional, "
                             f"vector has length {len(vec)}")


@dataclass(frozen=True)
class Box(ConvexSet):
    lower: tuple
    upper: tuple
    _own_box = True

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box bound lengths differ")
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("empty box: a lower bound exceeds its upper bound")

    @property
    def dim(self):
        return len(self.lower)

    def _scalars(self):
        return [v for v in self.lower + self.upper if v not in (INF, NEG_INF)]

    def support_argmax(self, xi):
        self._check_dim(xi)
        total = 0
        point = []
        for x, lo, hi in zip(xi, self.lower, self.upper):
            if x > 0:
                if hi == INF:
                    return INF, None
                total += hi * x
                point.append(hi)
            elif x < 0:
                if lo == NEG_INF:
                    return INF, None
                total += lo * x
                point.append(lo)
            else:
                point.append(_clamp_zero(lo, hi))
        return total, tuple(point)

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        if self.exact and all_exact(point):
            tol = 0
        return all(lo - tol <= x <= hi + tol
                   for x, lo, hi in zip(point, self.lower, self.upper))

    def center(self):
        return tuple(
            (lo + hi) / 2 if lo != NEG_INF and hi != INF else _clamp_zero(lo, hi)
            for lo, hi in zip(self.lower, self.upper)
        )

    def halfspaces(self):
        A, b = [], []
        for i, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if hi != INF:
                A.append(_unit(self.dim, i, 1))
                b.append(hi)
            if lo != NEG_INF:
                A.append(_unit(self.dim, i, -1))
                b.append(-lo)
        return A, b

    def is_bounded(self):
        return all(lo != NEG_INF and hi != INF
                   for lo, hi in zip(self.lower, self.upper))

    def bounding_box(self):
        return list(zip(self.lower, self.upper))


def _clamp_zero(lo, hi):
    zero = 0 if (is_exact(lo) or lo == NEG_INF) and (is_exact(hi) or hi == INF) else 0.0
    return min(max(zero, lo), hi)


def _unit(dim, i, sign):
    row = [0] * dim
    row[i] = sign
    return tuple(row)


def halfspace_interval(A, b, exact):
    """(lo, hi) of the one-dimensional set {h : a h <= b_a for each row
    (a,) of A}, +-inf where unbounded, or None when the set is empty.

    Exact rows are read in Fractions and decided with no tolerance.  Float
    rows are read in floats, and the set is empty only when it stays empty
    with every row relaxed by _FEAS_TOL; a float interval that is empty
    unrelaxed but not relaxed (lo > hi) collapses to its midpoint.
    """
    num, tol = (Fraction, 0) if exact else (float, _FEAS_TOL)
    lo, hi = [NEG_INF, NEG_INF], [INF, INF]  # [bound, relaxed bound]
    for (a,), bound in zip(A, b):
        if a == 0:
            if bound < -tol:
                return None
            continue
        a, bound = num(a), num(bound)
        ends = (bound / a, (bound + tol) / a)
        if a > 0:
            hi = [min(v, e) for v, e in zip(hi, ends)]
        else:
            lo = [max(v, e) for v, e in zip(lo, ends)]
    if lo[1] > hi[1]:
        return None
    if lo[0] > hi[0]:
        mid = (lo[0] + hi[0]) / 2
        return mid, mid
    return lo[0], hi[0]


def _interval_center(lo, hi, exact):
    """The sup-norm Chebyshev center of [lo, hi] with radius capped at 1,
    as the center LP gives it: the point nearest 0 among the centers, so
    the midpoint, lo + 1, hi - 1 or 0."""
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    radius = min(one, (hi - lo) / 2)
    return min(max(zero, lo + radius), hi - radius)


@dataclass(frozen=True)
class Ball(ConvexSet):
    center_point: tuple
    radius: object

    def __post_init__(self):
        object.__setattr__(self, "center_point", tuple(self.center_point))
        if self.radius < 0:
            raise ValueError("ball radius must be nonnegative")

    @property
    def dim(self):
        return len(self.center_point)

    def _scalars(self):
        return self.center_point + (self.radius,)

    def support(self, xi):
        self._check_dim(xi)
        norm = math.sqrt(float(_dot(xi, xi)))
        return float(_dot(self.center_point, xi)) + float(self.radius) * norm

    def support_argmax(self, xi):
        self._check_dim(xi)
        norm = math.sqrt(float(_dot(xi, xi)))
        if norm == 0:
            return 0.0 + float(_dot(self.center_point, xi)), self.center_point
        point = tuple(float(c) + float(self.radius) * float(x) / norm
                      for c, x in zip(self.center_point, xi))
        return self.support(xi), point

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        diff = [x - c for x, c in zip(point, self.center_point)]
        if self.exact and all_exact(point):
            return _dot(diff, diff) <= self.radius * self.radius
        return math.sqrt(float(_dot(diff, diff))) <= float(self.radius) + tol

    def project(self, point):
        c, r = self._memo("_floats", self._build_floats)
        d = point - c
        n = float(np.linalg.norm(d))
        return point if n <= r else c + (r / n) * d

    def _build_floats(self):
        return np.asarray(self.center_point, dtype=float), float(self.radius)

    def center(self):
        return self.center_point

    def halfspaces(self):
        """In dimension one the interval [c - r, c + r], in the ball's own
        arithmetic; None in higher dimensions."""
        if self.dim != 1:
            return None
        (c,), r = self.center_point, self.radius
        return [(1,), (-1,)], [c + r, r - c]

    def recession(self):
        return Cone.zero(self.dim)

    def is_bounded(self):
        return True

    def bounding_box(self):
        return [(c - self.radius, c + self.radius) for c in self.center_point]


@dataclass(frozen=True)
class Singleton(ConvexSet):
    point: tuple
    _own_box = True

    def __post_init__(self):
        object.__setattr__(self, "point", tuple(self.point))

    @property
    def dim(self):
        return len(self.point)

    def _scalars(self):
        return self.point

    def support(self, xi):
        self._check_dim(xi)
        return _dot(self.point, xi)

    def support_argmax(self, xi):
        return self.support(xi), self.point

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        if self.exact and all_exact(point):
            return tuple(point) == self.point
        return all(abs(float(x) - float(p)) <= tol for x, p in zip(point, self.point))

    def center(self):
        return self.point

    def halfspaces(self):
        A, b = [], []
        for i, v in enumerate(self.point):
            A.append(_unit(self.dim, i, 1))
            b.append(v)
            A.append(_unit(self.dim, i, -1))
            b.append(-v)
        return A, b

    def is_bounded(self):
        return True

    def bounding_box(self):
        return [(v, v) for v in self.point]


@dataclass(frozen=True)
class Polyhedron(ConvexSet):
    """{h : A h <= b}; nonemptiness is checked at construction.

    In dimension one the set is the interval of its rows (:meth:`_ends`),
    which answers nonemptiness, the center, the bounding box and the
    projection (a clip) without an LP; in higher dimensions each takes an
    LP, and the projection an active-set loop.
    """

    A: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(tuple(r) for r in self.A))
        object.__setattr__(self, "b", tuple(self.b))
        if len(self.A) != len(self.b):
            raise ValueError("polyhedron row/offset count mismatch")
        widths = {len(r) for r in self.A}
        if len(widths) > 1:
            raise ValueError("polyhedron rows have inconsistent widths")
        if self.A and self._empty():
            raise ValueError("empty polyhedron")

    @property
    def dim(self):
        return len(self.A[0]) if self.A else 0

    @property
    def _own_box(self):
        return self.dim == 1

    def _scalars(self):
        return [v for row in self.A for v in row] + list(self.b)

    def _empty(self):
        if self._own_box:
            return self._ends() is None
        res = solve_lp([0] * self.dim, A_ub=self.A, b_ub=self.b, exact=self.exact)
        return res.status == INFEASIBLE

    def support_argmax(self, xi):
        self._check_dim(xi)
        exact = self.exact and all_exact(xi)
        res = solve_lp([-v for v in xi], A_ub=self.A, b_ub=self.b, exact=exact)
        if res.status == UNBOUNDED:
            return INF, None
        if res.status != OPTIMAL:  # pragma: no cover - nonempty by invariant
            raise RuntimeError("support LP failed on a nonempty polyhedron")
        return -res.value, tuple(res.x)

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        if self.exact and all_exact(point):
            tol = 0
        return all(_dot(row, point) <= bi + tol for row, bi in zip(self.A, self.b))

    def project(self, point):
        if self._own_box:
            return super().project(point)
        A, b, start = self._memo("_floats", self._build_floats)
        return _project_onto_halfspaces(A, b, start, point)

    def _build_floats(self):
        return tuple(np.asarray(v, dtype=float)
                     for v in (self.A, self.b, self.center()))

    def center(self):
        """Chebyshev center under the sup norm, radius capped at 1 (keeps
        rational data rational), found once per polyhedron."""
        return self._memo("_center", self._chebyshev_center)

    def _chebyshev_center(self):
        if self._own_box:
            return (_interval_center(*self._ends(), self.exact),)
        n = self.dim
        c = [0] * n + [-1]
        A_ub = [list(row) + [sum(abs(v) for v in row)] for row in self.A]
        b_ub = list(self.b)
        A_ub.append([0] * n + [1])
        b_ub.append(1)
        res = solve_lp(c, A_ub=A_ub, b_ub=b_ub, exact=self.exact)
        if res.status != OPTIMAL:  # pragma: no cover
            raise RuntimeError("center LP failed")
        return tuple(res.x[:n])

    def halfspaces(self):
        return [list(r) for r in self.A], list(self.b)

    def is_bounded(self):
        return self.recession().is_trivial()

    def bounding_box(self):
        if self._own_box:
            return [self._ends()]
        out = []
        for i in range(self.dim):
            lo = self._extreme(i, -1)
            hi = self._extreme(i, 1)
            out.append((lo, hi))
        return out

    def _extreme(self, i, sign):
        # max of sign*e_i over the set, reported with the original sign
        res = solve_lp(list(_unit(self.dim, i, -sign)),
                       A_ub=self.A, b_ub=self.b, exact=self.exact)
        if res.status == UNBOUNDED:
            return INF if sign > 0 else NEG_INF
        return -res.value if sign > 0 else res.value


@dataclass(frozen=True)
class AffineFixed(ConvexSet):
    """Full space in the free coordinates, pinned values elsewhere."""

    dimension: int
    fixed: tuple  # sorted tuple of (index, value)
    _own_box = True

    def __post_init__(self):
        pairs = tuple(sorted((int(i), v) for i, v in dict(self.fixed).items()))
        object.__setattr__(self, "fixed", pairs)
        for i, _ in pairs:
            if not 0 <= i < self.dimension:
                raise ValueError("fixed index out of range")

    @property
    def dim(self):
        return self.dimension

    def _scalars(self):
        return [v for _, v in self.fixed]

    def _fixed_map(self):
        return dict(self.fixed)

    def support_argmax(self, xi):
        self._check_dim(xi)
        fixed = self._fixed_map()
        total = 0
        point = []
        for i, x in enumerate(xi):
            if i in fixed:
                total += fixed[i] * x
                point.append(fixed[i])
            elif x != 0:
                return INF, None
            else:
                point.append(0)
        return total, tuple(point)

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        if self.exact and all_exact(point):
            tol = 0
        return all(abs(point[i] - v) <= tol for i, v in self.fixed)

    def center(self):
        fixed = self._fixed_map()
        return tuple(fixed.get(i, 0) for i in range(self.dim))

    def halfspaces(self):
        A, b = [], []
        for i, v in self.fixed:
            A.append(_unit(self.dim, i, 1))
            b.append(v)
            A.append(_unit(self.dim, i, -1))
            b.append(-v)
        return A, b

    def is_bounded(self):
        return len(self.fixed) == self.dim

    def bounding_box(self):
        fixed = self._fixed_map()
        return [(fixed[i], fixed[i]) if i in fixed else (NEG_INF, INF)
                for i in range(self.dim)]


@dataclass(frozen=True)
class CrossFixed(ConvexSet):
    """base x {fixed_tail}: the base set in the leading coordinates, a pinned
    vector in the trailing ones.  This is how a constraint set gains the
    mandatory unit holding of a synthetic asset."""

    base: ConvexSet
    fixed_tail: tuple

    def __post_init__(self):
        object.__setattr__(self, "fixed_tail", tuple(self.fixed_tail))

    @property
    def dim(self):
        return self.base.dim + len(self.fixed_tail)

    @property
    def _own_box(self):
        return self.base.box_bounds() is not None

    @property
    def exact(self):
        return self.base.exact and all_exact(self.fixed_tail)

    def _split(self, vec):
        k = self.base.dim
        return tuple(vec[:k]), tuple(vec[k:])

    def support_argmax(self, xi):
        self._check_dim(xi)
        head, tail = self._split(xi)
        val, point = self.base.support_argmax(head)
        if point is None:
            return INF, None
        return val + _dot(self.fixed_tail, tail), point + self.fixed_tail

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        head, tail = self._split(point)
        exact = self.exact and all_exact(point)
        tail_ok = (all(a == b for a, b in zip(tail, self.fixed_tail)) if exact
                   else all(abs(float(a) - float(b)) <= tol
                            for a, b in zip(tail, self.fixed_tail)))
        return tail_ok and self.base.contains(head, tol)

    def project(self, point):
        k, tail = self._memo("_floats", self._build_floats)
        return np.concatenate([self.base.project(point[:k]), tail])

    def _build_floats(self):
        return self.base.dim, np.asarray(self.fixed_tail, dtype=float)

    def center(self):
        return tuple(self.base.center()) + self.fixed_tail

    def halfspaces(self):
        hs = self.base.halfspaces()
        if hs is None:
            return None
        A, b = hs
        k, d = self.base.dim, self.dim
        out_A = [tuple(row) + (0,) * (d - k) for row in A]
        out_b = list(b)
        for j, v in enumerate(self.fixed_tail):
            out_A.append(_unit(d, k + j, 1))
            out_b.append(v)
            out_A.append(_unit(d, k + j, -1))
            out_b.append(-v)
        return out_A, out_b

    def recession(self):
        base_rec = self.base.recession().as_halfspace()
        k, d = self.base.dim, self.dim
        rows = [tuple(row) + (0,) * (d - k) for row in base_rec.rows]
        for j in range(len(self.fixed_tail)):
            rows.append(_unit(d, k + j, 1))
            rows.append(_unit(d, k + j, -1))
        return Cone(d, "halfspace", tuple(rows))

    def is_bounded(self):
        return self.base.is_bounded()

    def bounding_box(self):
        return list(self.base.bounding_box()) + [(v, v) for v in self.fixed_tail]


@dataclass(frozen=True)
class Intersection(ConvexSet):
    """The common points of its members; nonemptiness is checked at
    construction.  A one-dimensional intersection of polyhedral members is
    the interval of their stacked rows, as a one-dimensional
    :class:`Polyhedron` is."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) > 1:
            raise ValueError("intersection members have mismatched dimensions")
        if self.center() is None:
            raise ValueError("empty intersection")

    @property
    def dim(self):
        return self.members[0].dim

    @property
    def exact(self):
        return all(m.exact for m in self.members)

    @property
    def _own_box(self):
        return bool(self._ends())

    def _polyhedral(self):
        rows, offs = [], []
        for m in self.members:
            hs = m.halfspaces()
            if hs is None:
                return None
            rows += [tuple(r) for r in hs[0]]
            offs += list(hs[1])
        return rows, offs

    def _feasible_point(self):
        if self._ends() is None:
            return None  # an empty interval
        if self._own_box:
            return (_interval_center(*self._ends(), self.exact),)
        hs = self._polyhedral()
        if hs is not None:
            res = solve_lp([0] * self.dim, A_ub=hs[0], b_ub=hs[1], exact=self.exact)
            return tuple(res.x) if res.status == OPTIMAL else None
        # mixed ball/polyhedral case: project a ball center onto the rest
        balls = [m for m in self.members if isinstance(m, Ball)]
        others = [m for m in self.members if not isinstance(m, Ball)]
        point = np.asarray(balls[0].center(), dtype=float)
        for _ in range(500):
            for m in others + balls:
                point = m.project(point)
            if all(m.contains(point, 1e-9) for m in self.members):
                return tuple(point.tolist())
        return None

    def support_argmax(self, xi):
        self._check_dim(xi)
        hs = self._polyhedral()
        if hs is None:
            raise NotImplementedError(
                "support of an intersection with non-polyhedral members")
        exact = self.exact and all_exact(xi)
        res = solve_lp([-v for v in xi], A_ub=hs[0], b_ub=hs[1], exact=exact)
        if res.status == UNBOUNDED:
            return INF, None
        return -res.value, tuple(res.x)

    def contains(self, point, tol=_ABS_TOL):
        return all(m.contains(point, tol) for m in self.members)

    def project(self, point):
        if self._own_box:
            return super().project(point)
        A, b, start = self._memo("_floats", self._build_floats)
        if A is not None:
            return _project_onto_halfspaces(A, b, start, point)
        # Dykstra's alternating projections for the mixed case
        x = point
        incs = [np.zeros(self.dim) for _ in self.members]
        for _ in range(2000):
            x_prev = x
            for k, m in enumerate(self.members):
                y = x + incs[k]
                x = m.project(y)
                incs[k] = y - x
            if np.linalg.norm(x - x_prev) < 1e-12:
                break
        return x

    def _build_floats(self):
        hs = self._polyhedral()
        if hs is None:
            return None, None, None
        return tuple(np.asarray(v, dtype=float) for v in (*hs, self.center()))

    def center(self):
        """The member found at construction, where it proves nonemptiness."""
        return self._memo("_center", self._feasible_point)

    def halfspaces(self):
        return self._polyhedral()

    def recession(self):
        # intersection of member recession cones; valid because the members
        # share a common point (checked at construction)
        rows = []
        for m in self.members:
            rows += list(m.recession().as_halfspace().rows)
        return Cone(self.dim, "halfspace", tuple(rows))

    def is_bounded(self):
        if any(m.is_bounded() for m in self.members):
            return True
        if self._polyhedral() is not None:
            return self.recession().is_trivial()
        return None

    def bounding_box(self):
        if self._own_box:
            return [self._ends()]
        boxes = [m.bounding_box() for m in self.members]
        return [(max(b[i][0] for b in boxes), min(b[i][1] for b in boxes))
                for i in range(self.dim)]


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone, as {h : M h <= 0} ("halfspace") or cone{rows}
    ("generator").  The polar swaps the two representations."""

    dim: int
    rep: str
    rows: tuple

    def __post_init__(self):
        if self.rep not in ("halfspace", "generator"):
            raise ValueError(f"unknown cone representation {self.rep!r}")
        rows = tuple(tuple(r) for r in self.rows if any(v != 0 for v in r))
        object.__setattr__(self, "rows", rows)
        for r in rows:
            if len(r) != self.dim:
                raise ValueError("cone row has wrong length")

    @classmethod
    def zero(cls, dim):
        rows = []
        for i in range(dim):
            rows.append(_unit(dim, i, 1))
            rows.append(_unit(dim, i, -1))
        return cls(dim, "halfspace", tuple(rows))

    @classmethod
    def full(cls, dim):
        return cls(dim, "halfspace", ())

    @property
    def exact(self):
        return all_exact([v for r in self.rows for v in r])

    def polar(self) -> "Cone":
        other = "generator" if self.rep == "halfspace" else "halfspace"
        return Cone(self.dim, other, self.rows)

    def as_halfspace(self) -> "Cone":
        if self.rep == "halfspace":
            return self
        raise NotImplementedError(
            "generator-form cones have no direct halfspace conversion here")

    def contains(self, x, tol=_ABS_TOL) -> bool:
        if len(x) != self.dim:
            raise ValueError("dimension mismatch")
        exact = self.exact and all_exact(x)
        if self.rep == "halfspace":
            bound = 0 if exact else tol
            return all(_dot(r, x) <= bound for r in self.rows)
        if not self.rows:
            return (all(v == 0 for v in x) if exact
                    else all(abs(float(v)) <= tol for v in x))
        # x in cone{rows}: solvable nonnegative combination
        k = len(self.rows)
        A_eq = [[self.rows[j][i] for j in range(k)] for i in range(self.dim)]
        res = solve_lp([0] * k, A_eq=A_eq, b_eq=list(x), exact=exact,
                       nonneg=range(k))
        return res.status == OPTIMAL

    def is_trivial(self) -> bool:
        """True when the cone is exactly {0}."""
        if self.rep == "generator":
            return not self.rows  # zero generators were dropped at construction
        tol = 0 if self.exact else 1e-9
        for i in range(self.dim):
            for sign in (1, -1):
                direction = _unit(self.dim, i, sign)
                res = solve_lp([-v for v in direction],
                               A_ub=list(self.rows) + [list(direction)],
                               b_ub=[0] * len(self.rows) + [1], exact=self.exact)
                if res.status != OPTIMAL or -res.value > tol:
                    return False
        return True

    def canonical(self) -> "Cone":
        """Normalize rows, drop duplicates and redundant ones, sort."""
        rows = [_normalize_ray(r) for r in self.rows]
        rows = list(dict.fromkeys(rows))
        keep = list(rows)
        i = 0
        while i < len(keep):
            row = keep[i]
            rest = keep[:i] + keep[i + 1:]
            if self._row_redundant(row, rest):
                keep = rest
            else:
                i += 1
        return Cone(self.dim, self.rep, tuple(sorted(keep)))

    def _row_redundant(self, row, rest):
        exact = self.exact
        tol = 0 if exact else 1e-9
        if self.rep == "generator":
            if not rest:
                return False
            k = len(rest)
            A_eq = [[rest[j][i] for j in range(k)] for i in range(self.dim)]
            res = solve_lp([0] * k, A_eq=A_eq, b_eq=list(row), exact=exact,
                           nonneg=range(k))
            return res.status == OPTIMAL
        # halfspace: row is implied by the others
        res = solve_lp([-v for v in row],
                       A_ub=list(rest) + [list(row)],
                       b_ub=[0] * len(rest) + [1], exact=exact)
        return res.status == OPTIMAL and -res.value <= tol


def _normalize_ray(row):
    """Scale a ray to a canonical representative (primitive integers when
    rational, unit sup-norm when float)."""
    if all_exact(row):
        ints = integer_row(row)
        g = math.gcd(*ints) or 1
        return tuple(Fraction(v // g) for v in ints)
    scale = max(abs(float(v)) for v in row)
    if scale == 0:
        return tuple(0.0 for _ in row)
    return tuple(float(v) / scale for v in row)


def polar_cone(cone: Cone) -> Cone:
    """Polar of a polyhedral cone; swaps halfspace and generator forms."""
    return cone.polar()


def recession_cone(convex_set: ConvexSet) -> Cone:
    """Directions along which the set is unbounded, as a halfspace cone."""
    return convex_set.recession()


def support_function(convex_set: ConvexSet, direction):
    """sup of h . direction over the set; +inf along escaping directions."""
    return convex_set.support(direction)


def contains(convex_set: ConvexSet, point, tol=_ABS_TOL) -> bool:
    return convex_set.contains(point, tol)


# ---------------------------------------------------------------------------
# projections onto price-increment spans


@dataclass(frozen=True)
class ProjectionMatrix:
    matrix: tuple

    def __post_init__(self):
        mat = tuple(tuple(r) for r in self.matrix)
        object.__setattr__(self, "matrix", mat)
        n = len(mat)
        exact = all_exact([v for r in mat for v in r])
        tol = 0 if exact else _ABS_TOL
        for i in range(n):
            if len(mat[i]) != n:
                raise ValueError("projection matrix must be square")
            for j in range(n):
                if abs(mat[i][j] - mat[j][i]) > tol:
                    raise ValueError("projection matrix must be symmetric")
        sq = [[sum(mat[i][k] * mat[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        for i in range(n):
            for j in range(n):
                if abs(sq[i][j] - mat[i][j]) > tol:
                    raise ValueError("projection matrix must be idempotent")

    @property
    def dim(self):
        return len(self.matrix)

    @property
    def exact(self):
        return all_exact([v for r in self.matrix for v in r])

    def apply(self, vec):
        return tuple(_dot(row, vec) for row in self.matrix)

    def as_array(self):
        return np.asarray([[float(v) for v in row] for row in self.matrix])

    @property
    def rank(self):
        return round(sum(float(self.matrix[i][i]) for i in range(self.dim)))


def predictable_range_projection(increments) -> ProjectionMatrix:
    """Orthogonal projection onto span{increments}.

    Exact (rational) when every increment is rational; two holdings produce
    the same one-step wealth moves at a node exactly when their difference is
    killed by this projection.
    """
    increments = [list(v) for v in increments]
    if not increments:
        raise ValueError("need at least one increment")
    d = len(increments[0])
    if all_exact([v for inc in increments for v in inc]):
        # the nonzero reduced rows B span the increments: P = B^T (B B^T)^-1 B
        a, pivots = gauss_jordan(increments)
        B = a[:len(pivots)]
        if not B:
            return ProjectionMatrix(tuple(tuple(Fraction(0) for _ in range(d))
                                          for _ in range(d)))
        X = solve_exact([[_dot(u, v) for v in B] + u for u in B], len(B))
        return ProjectionMatrix(tuple(
            tuple(sum(u[i] * x[j] for u, x in zip(B, X)) for j in range(d))
            for i in range(d)))
    arr = np.asarray([[float(v) for v in inc] for inc in increments], dtype=float).T
    if not arr.any():
        return ProjectionMatrix(tuple(tuple(0.0 for _ in range(d)) for _ in range(d)))
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    rank = int((s > 1e-12 * max(1.0, s[0])).sum())
    basis = u[:, :rank]
    P = basis @ basis.T
    return ProjectionMatrix(tuple(tuple(float(v) for v in row) for row in P))


def projected_set_closed(projection: ProjectionMatrix, convex_set: ConvexSet):
    """Is the image of the set under the projection closed?

    Returns (verdict, reason) with verdict in {"true", "unknown"}; "unknown"
    is reserved for variants with no applicable sufficient criterion, never a
    wrong "true".
    """
    if _certainly_polyhedral(convex_set):
        return "true", "linear image of a polyhedron is a polyhedron"
    if convex_set.is_bounded():
        return "true", "continuous image of a compact set is compact"
    return "unknown", "no sufficient closedness criterion applies"


def _certainly_polyhedral(convex_set) -> bool:
    if isinstance(convex_set, (Box, Polyhedron, Singleton, AffineFixed)):
        return True
    if isinstance(convex_set, CrossFixed):
        return _certainly_polyhedral(convex_set.base)
    if isinstance(convex_set, Intersection):
        return all(_certainly_polyhedral(m) for m in convex_set.members)
    return False


# ---------------------------------------------------------------------------
# minimal-norm solves


def min_norm_solution(M, target):
    """Least-squares solution of M x = target with minimal Euclidean norm.

    Rational inputs give the exact pseudoinverse solution from a rank
    factorization: the nonzero reduced rows R of M (:func:`gauss_jordan`)
    span its row space, so the solution is R^T z, with z the least-squares
    solution of (M R^T) z = target, found from its normal equations.  Float
    inputs go through numpy's lstsq.
    """
    M = [list(r) for r in M]
    target = list(target)
    if M and all_exact([v for r in M for v in r]) and all_exact(target):
        a, pivots = gauss_jordan(M)
        R = a[:len(pivots)]
        if not R:
            return tuple(Fraction(0) for _ in M[0])
        K = [[_dot(row, r) for r in R] for row in M]
        z = solve_exact([[_dot(u, v) for v in zip(*K)] + [_dot(u, target)]
                         for u in zip(*K)], len(R))
        return tuple(sum(r[j] * v for r, (v,) in zip(R, z))
                     for j in range(len(M[0])))
    arr = np.asarray([[float(v) for v in r] for r in M], dtype=float)
    t = np.asarray([float(v) for v in target], dtype=float)
    sol, *_ = np.linalg.lstsq(arr, t, rcond=None)
    return tuple(float(v) for v in sol)


# ---------------------------------------------------------------------------
# polyhedral projection (active set)


def _project_onto_halfspaces(A, b, start, z, tol=1e-11, max_iter=200):
    """Euclidean projection of z onto {x : A x <= b} from a feasible start
    (all float arrays; start is left unchanged)."""
    if A.size == 0:
        return z
    x = start.copy()
    m = len(b)
    work = [i for i in range(m) if A[i] @ x > b[i] - 1e-12]
    for _ in range(max_iter):
        d = z - x
        if work:
            Aw = A[work]
            gram_pinv = np.linalg.pinv(Aw @ Aw.T, rcond=1e-12)
            p = d - Aw.T @ (gram_pinv @ (Aw @ d))
        else:
            p = d
        if np.linalg.norm(p) <= tol:
            if not work:
                return x
            lam = gram_pinv @ (Aw @ d)
            k = int(np.argmin(lam))
            if lam[k] >= -tol:
                return x
            work.pop(k)
            continue
        alpha = 1.0
        blocking = None
        for i in range(m):
            if i in work:
                continue
            ap = A[i] @ p
            if ap > 1e-13:
                limit = (b[i] - A[i] @ x) / ap
                if limit < alpha:
                    alpha = max(limit, 0.0)
                    blocking = i
        x = x + alpha * p
        if blocking is not None:
            work.append(blocking)
    return x  # pragma: no cover - iteration cap; desk problems converge


# ---------------------------------------------------------------------------
# JSON descriptors


def set_from_json(doc, path="constraint"):
    from .scalars import SchemaError, parse_number

    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("constraint descriptor must be an object with a 'type'",
                          path)
    kind = doc["type"]

    def num(v, sub):
        return parse_number(v, f"{path}.{sub}")

    def bound(v, sub):
        if v in ("inf", "Infinity"):
            return INF
        if v in ("-inf", "-Infinity"):
            return NEG_INF
        if v is None:
            raise SchemaError("bounds must be numbers or 'inf'/'-inf'", f"{path}.{sub}")
        return parse_number(v, f"{path}.{sub}")

    try:
        if kind == "box":
            lower = [bound(v, "lower") for v in doc["lower"]]
            upper = [bound(v, "upper") for v in doc["upper"]]
            return Box(tuple(lower), tuple(upper))
        if kind == "ball":
            return Ball(tuple(num(v, "center") for v in doc["center"]),
                        num(doc["radius"], "radius"))
        if kind == "polyhedron":
            A = [tuple(num(v, "A") for v in row) for row in doc["A"]]
            b = [num(v, "b") for v in doc["b"]]
            return Polyhedron(tuple(A), tuple(b))
        if kind == "singleton":
            return Singleton(tuple(num(v, "point") for v in doc["point"]))
        if kind == "affine_fixed":
            fixed = {int(k): num(v, "fixed") for k, v in doc["fixed"].items()}
            return AffineFixed(int(doc["dim"]), tuple(sorted(fixed.items())))
        if kind == "cross_fixed":
            base = set_from_json(doc["base"], f"{path}.base")
            return CrossFixed(base, tuple(num(v, "fixed") for v in doc["fixed"]))
        if kind == "intersection":
            members = tuple(set_from_json(m, f"{path}.members[{i}]")
                            for i, m in enumerate(doc["members"]))
            return Intersection(members)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r}", path) from exc
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc
    raise SchemaError(f"unknown constraint type {kind!r}", path)


def set_to_json(convex_set):
    from .scalars import number_to_json as nj

    if isinstance(convex_set, Box):
        return {"type": "box",
                "lower": [nj(v) for v in convex_set.lower],
                "upper": [nj(v) for v in convex_set.upper]}
    if isinstance(convex_set, Ball):
        return {"type": "ball",
                "center": [nj(v) for v in convex_set.center_point],
                "radius": nj(convex_set.radius)}
    if isinstance(convex_set, Polyhedron):
        return {"type": "polyhedron",
                "A": [[nj(v) for v in row] for row in convex_set.A],
                "b": [nj(v) for v in convex_set.b]}
    if isinstance(convex_set, Singleton):
        return {"type": "singleton", "point": [nj(v) for v in convex_set.point]}
    if isinstance(convex_set, AffineFixed):
        return {"type": "affine_fixed", "dim": convex_set.dim,
                "fixed": {str(i): nj(v) for i, v in convex_set.fixed}}
    if isinstance(convex_set, CrossFixed):
        return {"type": "cross_fixed", "base": set_to_json(convex_set.base),
                "fixed": [nj(v) for v in convex_set.fixed_tail]}
    if isinstance(convex_set, Intersection):
        return {"type": "intersection",
                "members": [set_to_json(m) for m in convex_set.members]}
    raise TypeError(f"cannot serialize {type(convex_set).__name__}")
