"""Finite-dimensional closed convex sets and cones.

The set variants (boxes, balls, polyhedra, fixed-coordinate products,
singletons, intersections) are exactly the shapes that show up as per-node
holding constraints.  Every variant answers the handful of questions the
solvers ask: support values in a direction, membership, recession
directions, Euclidean projection, and conversion to halfspace form where
that is possible.

Each piece of geometry is written once.  :meth:`ConvexSet.box` alone
decides whether a set equals the box of its bounds, and names them.  The
boxes are :class:`Box` (with :class:`Singleton` and :class:`AffineFixed`,
which only set its bounds), a pinned product over a box and, in dimension
one, every set: there a ball, a polyhedron or an intersection is its
interval.  A box takes its support value and its projection (a clip) from
its bounds, in its own arithmetic, on :class:`ConvexSet`, which also
derives from them the halfspace rows, membership, boundedness and bounding
box of the boxes that state none of their own.  Any other set with a
halfspace form takes its support value from one LP over those rows and its
projection from one active-set loop started at its center, both on
:class:`ConvexSet`; an intersection with a ball member keeps only its
Dykstra loop.

Scalars follow the package-wide convention: Fractions everywhere means exact
answers (support values, recession cones, polars are then exact); any float
degrades the computation to float mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        """(support value, attaining point or None when the value is +inf).

        A box answers from its bounds (:meth:`box`), in its own arithmetic:
        the upper bound where xi is positive, the lower where it is
        negative, and the point nearest 0 where it is 0.  Any other set
        solves one LP over the rows of :meth:`halfspaces`, exact when the
        set and xi are; balls and pinned products override it.
        """
        self._check_dim(xi)
        box = self.box()
        if len(box) == self.dim:
            total = 0
            point = []
            for x, (lo, hi) in zip(xi, box):
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
                    total += 0 * x  # keeps the arithmetic of xi
                    point.append(_clamp_zero(lo, hi))
            return total, tuple(point)
        hs = self._halfspace_rows()
        if hs is None:
            raise NotImplementedError(
                f"{type(self).__name__}.support needs a halfspace form")
        A, b = hs
        res = solve_lp([-v for v in xi], A_ub=A, b_ub=b,
                       exact=self.exact and all_exact(xi))
        if res.status == UNBOUNDED:
            return INF, None
        if res.status != OPTIMAL:  # pragma: no cover - nonempty by invariant
            raise RuntimeError("support LP failed on a nonempty set")
        return -res.value, tuple(res.x)

    def contains(self, point, tol=_ABS_TOL) -> bool:
        """Is point in the set, up to tol (with none when the set and the
        point are rational)?  Here, a box's answer: bound by bound."""
        self._check_dim(point)
        if self.exact and all_exact(point):
            tol = 0
        return all(lo - tol <= x <= hi + tol
                   for x, (lo, hi) in zip(point, self.box()))

    def project(self, point):
        """Euclidean projection of a float array onto the set, as a float
        array; float-mode operation.

        Here, the clip to :meth:`box_bounds` for a box, else the active-set
        projection onto the rows of :meth:`halfspaces` from :meth:`center`;
        balls and pinned products override it.  The float data it needs
        (bounds, the halfspace rows and the start) is built on the first
        call and kept on the set.  Every one-dimensional set is a box, so
        its projection is this clip and solves no LP; in higher dimensions
        a polyhedral set solves its center LP at most once, however often
        it is projected onto.
        """
        bounds = self.box_bounds()
        if bounds is not None:
            # np.clip's values at half its per-call cost on short vectors
            return np.minimum(np.maximum(point, bounds[0]), bounds[1])
        A, b, start = self._memo("_floats", lambda: tuple(
            np.asarray(v, dtype=float)
            for v in (*self._halfspace_rows(), self.center())))
        return _project_onto_halfspaces(A, b, start, point)

    def box(self):
        """The bounds ((lo, hi), ...) of the set, +-inf where unbounded, in
        its own arithmetic, when the set equals the box they bound, else ();
        kept on the set.  A set is a box when this has one pair per
        coordinate.  Here, in dimension one, the interval of the rows of
        :meth:`halfspaces` (() when empty), else (): a set that inherits
        this defines halfspaces(), and boxes, balls and pinned products
        override it."""
        def build():
            if self.dim != 1:
                return ()
            ends = halfspace_interval(*self._halfspace_rows(), self.exact)
            return () if ends is None else (ends,)
        return self._memo("_box", build)

    def box_bounds(self):
        """The float view of :meth:`box`: rows (lo, hi), +-inf where
        unbounded, built once; None for a set that is not a box."""
        if len(self.box()) != self.dim:
            return None
        return self._memo("_bounds", lambda: np.asarray(
            self.box(), dtype=float).reshape(-1, 2).T)

    def _memo(self, key, build):
        """self.__dict__[key], set to build() on first use: sets are immutable."""
        value = self.__dict__.get(key)
        if value is None:
            value = build()
            object.__setattr__(self, key, value)
        return value

    def center(self):
        """Some canonical member of the set (used as witness/start point)."""
        raise NotImplementedError

    def halfspaces(self):
        """(A, b) with the set equal to {h: A h <= b}, or None (e.g. balls
        in dimension two and up).  Here, for a box, one row per finite
        bound, coordinate by coordinate, the upper before the lower; None
        for any other set."""
        box = self.box()
        if len(box) != self.dim:
            return None
        A, b = [], []
        for i, (lo, hi) in enumerate(box):
            if hi != INF:
                A.append(_unit(self.dim, i, 1))
                b.append(hi)
            if lo != NEG_INF:
                A.append(_unit(self.dim, i, -1))
                b.append(-lo)
        return A, b

    def _halfspace_rows(self):
        """halfspaces(), built once and kept on the set."""
        return self._memo("_halfspaces", self.halfspaces)

    def recession(self) -> "Cone":
        """The recession cone: the homogeneous form of halfspaces()."""
        hs = self.halfspaces()
        if hs is None:
            raise NotImplementedError
        return Cone(self.dim, "halfspace", hs[0])

    def is_bounded(self):
        """True/False, or None when undecidable for this variant.  Here, a
        box's answer: every bound finite."""
        return all(lo != NEG_INF and hi != INF for lo, hi in self.box())

    def bounding_box(self):
        """Per-coordinate (lo, hi) with +-inf where unbounded.  Here, a
        box's: its bounds."""
        return list(self.box())

    def _check_dim(self, vec):
        if len(vec) != self.dim:
            raise ValueError(f"dimension mismatch: set is {self.dim}-dimensional, "
                             f"vector has length {len(vec)}")


@dataclass(frozen=True)
class Box(ConvexSet):
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("box bound lengths differ")
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError("empty box: a lower bound exceeds its upper bound")
            if lo == INF or hi == NEG_INF:
                raise ValueError("empty box: a lower bound of +inf or an "
                                 "upper bound of -inf admits no point")

    @property
    def dim(self):
        return len(self.lower)

    def _scalars(self):
        return [v for v in self.lower + self.upper if v not in (INF, NEG_INF)]

    def center(self):
        # a pinned coordinate is its own center, in its own arithmetic
        return tuple(
            lo if lo == hi
            else (lo + hi) / 2 if lo != NEG_INF and hi != INF
            else _clamp_zero(lo, hi)
            for lo, hi in zip(self.lower, self.upper)
        )

    def box(self):
        return self._memo("_box", lambda: tuple(zip(self.lower, self.upper)))


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

    def support_argmax(self, xi):
        if self.box():
            return super().support_argmax(xi)
        self._check_dim(xi)
        norm = math.sqrt(float(_dot(xi, xi)))
        value = float(_dot(self.center_point, xi)) + float(self.radius) * norm
        if norm == 0:
            return value, self.center_point
        return value, tuple(float(c) + float(self.radius) * float(x) / norm
                            for c, x in zip(self.center_point, xi))

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        diff = [x - c for x, c in zip(point, self.center_point)]
        if self.exact and all_exact(point):
            return _dot(diff, diff) <= self.radius * self.radius
        return math.sqrt(float(_dot(diff, diff))) <= float(self.radius) + tol

    def project(self, point):
        if self.box():
            return super().project(point)
        c, r = self._memo("_floats", self._build_floats)
        d = point - c
        n = float(np.linalg.norm(d))
        return point if n <= r else c + (r / n) * d

    def _build_floats(self):
        return np.asarray(self.center_point, dtype=float), float(self.radius)

    def center(self):
        return self.center_point

    def box(self):
        """In dimension one the interval [c - r, c + r], in the ball's own
        arithmetic; () in higher dimensions."""
        return self._memo("_box", lambda: tuple(self.bounding_box())
                          if self.dim == 1 else ())

    def recession(self):
        return Cone.zero(self.dim)

    def is_bounded(self):
        return True

    def bounding_box(self):
        return [(c - self.radius, c + self.radius) for c in self.center_point]


# the bounds of a box subclass, derived from its own fields
_DERIVED = dict(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Singleton(Box):
    """The one point ``point``: the box whose bounds both equal it."""

    lower: tuple = field(**_DERIVED)
    upper: tuple = field(**_DERIVED)
    point: tuple

    def __post_init__(self):
        point = tuple(self.point)
        for name in ("point", "lower", "upper"):
            object.__setattr__(self, name, point)


@dataclass(frozen=True)
class Polyhedron(ConvexSet):
    """{h : A h <= b}; nonemptiness is checked at construction.

    In dimension one the set is the interval of its rows (:meth:`box`),
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

    def _scalars(self):
        return [v for row in self.A for v in row] + list(self.b)

    def _empty(self):
        if self.dim == 1:
            return not self.box()
        res = solve_lp([0] * self.dim, A_ub=self.A, b_ub=self.b, exact=self.exact)
        return res.status == INFEASIBLE

    def contains(self, point, tol=_ABS_TOL):
        self._check_dim(point)
        if self.exact and all_exact(point):
            tol = 0
        return all(_dot(row, point) <= bi + tol for row, bi in zip(self.A, self.b))

    def center(self):
        """Chebyshev center under the sup norm, radius capped at 1 (keeps
        rational data rational), found once per polyhedron."""
        return self._memo("_center", self._chebyshev_center)

    def _chebyshev_center(self):
        if self.box():
            return (_interval_center(*self.box()[0], self.exact),)
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
        if self.box():
            return list(self.box())
        return [(-self.support(_unit(self.dim, i, -1)),
                 self.support(_unit(self.dim, i, 1))) for i in range(self.dim)]


@dataclass(frozen=True)
class AffineFixed(Box):
    """Full space in the free coordinates, pinned values elsewhere: the box
    with equal bounds at the pinned coordinates and infinite ones at the
    free coordinates."""

    lower: tuple = field(**_DERIVED)
    upper: tuple = field(**_DERIVED)
    dimension: int
    fixed: tuple  # sorted tuple of (index, value)

    def __post_init__(self):
        pairs = tuple(sorted((int(i), v) for i, v in dict(self.fixed).items()))
        object.__setattr__(self, "fixed", pairs)
        if any(not 0 <= i < self.dimension for i, _ in pairs):
            raise ValueError("fixed index out of range")
        fixed, coords = dict(pairs), range(self.dimension)
        object.__setattr__(self, "lower",
                           tuple(fixed.get(i, NEG_INF) for i in coords))
        object.__setattr__(self, "upper",
                           tuple(fixed.get(i, INF) for i in coords))


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
    def exact(self):
        return self.base.exact and all_exact(self.fixed_tail)

    def box(self):
        """The base's bounds and the pinned values, when the base is a box."""
        def build():
            head = self.base.box()
            if len(head) != self.base.dim:
                return ()
            return head + tuple((v, v) for v in self.fixed_tail)
        return self._memo("_box", build)

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

    def halfspaces(self):
        rows, offs = [], []
        for m in self.members:
            hs = m.halfspaces()
            if hs is None:
                return None
            rows += [tuple(r) for r in hs[0]]
            offs += list(hs[1])
        return rows, offs

    def _feasible_point(self):
        if self.box():
            return (_interval_center(*self.box()[0], self.exact),)
        if self.dim == 1:
            return None  # an empty interval
        hs = self._halfspace_rows()
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

    def contains(self, point, tol=_ABS_TOL):
        return all(m.contains(point, tol) for m in self.members)

    def project(self, point):
        if self._halfspace_rows() is not None:
            return super().project(point)
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

    def center(self):
        """The member found at construction, where it proves nonemptiness."""
        return self._memo("_center", self._feasible_point)

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
        if self.halfspaces() is not None:
            return self.recession().is_trivial()
        return None

    def bounding_box(self):
        if self.box():
            return list(self.box())
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
        return all(_implied(self.rows, _unit(self.dim, i, sign), self.exact)
                   for i in range(self.dim) for sign in (1, -1))

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
        if self.rep == "generator":
            return Cone(self.dim, "generator", rest).contains(row)
        return _implied(rest, row, self.exact)


def _implied(rows, a, exact):
    """True when a . h <= 0 follows from r . h <= 0 for every r in rows:
    the LP max a . h subject to those rows and a . h <= 1 stays at 0."""
    res = solve_lp([-v for v in a], A_ub=list(rows) + [list(a)],
                   b_ub=[0] * len(rows) + [1], exact=exact)
    return res.status == OPTIMAL and -res.value <= (0 if exact else 1e-9)


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


def projected_set_closed(convex_set: ConvexSet):
    """Is the image of the set under every linear map (its node's projection
    among them) closed?

    Returns (verdict, reason) with verdict in {"true", "unknown"}; "unknown"
    is reserved for variants with no applicable sufficient criterion, never a
    wrong "true".  Both criteria (a polyhedron, a compact set) hold for the
    image under every linear map, so the verdict reads the set alone.
    """
    if convex_set.halfspaces() is not None:
        return "true", "linear image of a polyhedron is a polyhedron"
    if convex_set.is_bounded():
        return "true", "continuous image of a compact set is compact"
    return "unknown", "no sufficient closedness criterion applies"


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
    from .scalars import SchemaError, parse_list, parse_number

    if not isinstance(doc, dict) or "type" not in doc:
        raise SchemaError("constraint descriptor must be an object with a 'type'",
                          path)
    kind = doc["type"]

    def each(parse, values, sub):
        where = f"{path}.{sub}"
        return tuple(parse(v, where) for v in parse_list(values, where))

    def bound(v, where):
        if v in ("inf", "Infinity"):
            return INF
        if v in ("-inf", "-Infinity"):
            return NEG_INF
        if v is None:
            raise SchemaError("bounds must be numbers or 'inf'/'-inf'", where)
        return parse_number(v, where)

    try:
        if kind == "box":
            return Box(each(bound, doc["lower"], "lower"),
                       each(bound, doc["upper"], "upper"))
        if kind == "ball":
            return Ball(each(parse_number, doc["center"], "center"),
                        parse_number(doc["radius"], f"{path}.radius"))
        if kind == "polyhedron":
            A = tuple(each(parse_number, row, "A")
                      for row in parse_list(doc["A"], f"{path}.A"))
            return Polyhedron(A, each(parse_number, doc["b"], "b"))
        if kind == "singleton":
            return Singleton(each(parse_number, doc["point"], "point"))
        if kind == "affine_fixed":
            fixed, dim = doc["fixed"], doc["dim"]
            if not isinstance(fixed, dict) or isinstance(dim, bool):
                raise SchemaError("'fixed' must be an object of coordinate "
                                  "-> value and 'dim' an integer", path)
            fixed = {int(k): parse_number(v, f"{path}.fixed")
                     for k, v in fixed.items()}
            return AffineFixed(int(dim), tuple(sorted(fixed.items())))
        if kind == "cross_fixed":
            base = set_from_json(doc["base"], f"{path}.base")
            return CrossFixed(base, each(parse_number, doc["fixed"], "fixed"))
        if kind == "intersection":
            members = tuple(set_from_json(m, f"{path}.members[{i}]")
                            for i, m in enumerate(parse_list(
                                doc["members"], f"{path}.members")))
            return Intersection(members)
    except KeyError as exc:
        raise SchemaError(f"missing field {exc.args[0]!r}", path) from exc
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        # int() of a list, or the set's own refusal
        raise SchemaError(str(exc), path) from exc
    raise SchemaError(f"unknown constraint type {kind!r}", path)


def set_to_json(convex_set):
    from .scalars import number_to_json as nj

    # the box subclasses first
    if isinstance(convex_set, Singleton):
        return {"type": "singleton", "point": [nj(v) for v in convex_set.point]}
    if isinstance(convex_set, AffineFixed):
        return {"type": "affine_fixed", "dim": convex_set.dim,
                "fixed": {str(i): nj(v) for i, v in convex_set.fixed}}
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
    if isinstance(convex_set, CrossFixed):
        return {"type": "cross_fixed", "base": set_to_json(convex_set.base),
                "fixed": [nj(v) for v in convex_set.fixed_tail]}
    if isinstance(convex_set, Intersection):
        return {"type": "intersection",
                "members": [set_to_json(m) for m in convex_set.members]}
    raise TypeError(f"cannot serialize {type(convex_set).__name__}")
