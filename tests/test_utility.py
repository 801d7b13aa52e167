"""Utility families, conjugates, growth checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condual.scalars import INF, NEG_INF
from condual.utility import (
    LogUtility,
    PiecewiseLinearUtility,
    PowerUtility,
    TabulatedUtility,
    check_inada_zero,
    check_rae,
    conjugate,
    eval_utility,
    marginal,
    parse_utility,
)

LOG = LogUtility()
SQRT = PowerUtility(0.5)  # U(x) = 2 sqrt(x)
LINEAR = PiecewiseLinearUtility((0.0,), (1.0,))
KINKED = PiecewiseLinearUtility((0.0, 1.0, 2.0), (3.0, 1.0, 0.0))
TABLE = TabulatedUtility((0.5, 1.0, 2.0, 4.0), (0.0, 0.6, 1.0, 1.2))
STEEP = PiecewiseLinearUtility((0.5, 1.0, 3.0), (math.inf, 2.0, 0.5), 1.0)


def dense_grid(utility, lo=1e-9, hi=50.0, n=400001, knots=()):
    """The points xs of a dense grid and U at each, for the oracle below.

    For piecewise families the exact argmax sits on a knot, so knots are
    appended to the grid; U is still evaluated through the ordinary value
    path, independent of the enumeration the implementation uses.
    """
    xs = np.concatenate([np.linspace(lo, hi, n), np.asarray(knots, dtype=float)])
    return xs, np.array([eval_utility(utility, x) for x in xs])


def grid_conjugate(grid, y):
    """Independent oracle: brute maximum of U(x) - xy over a dense grid."""
    xs, us = grid
    return float((us - xs * y).max())


def test_eval_power_formula():
    assert eval_utility(SQRT, 4.0) == pytest.approx(4.0)


def test_eval_extension_conventions():
    assert eval_utility(LOG, 0.0) == NEG_INF
    for u in (LOG, SQRT, LINEAR, KINKED):
        assert eval_utility(u, -1.0) == NEG_INF


def test_conjugate_log_closed_form():
    # first-order condition x = 1/y, substituted: V(y) = -log y - 1
    assert conjugate(LOG, 1.0) == pytest.approx(-1.0)
    assert conjugate(LOG, 2.0) == pytest.approx(-math.log(2.0) - 1.0)


def test_conjugate_power_and_fenchel_young_equality():
    # FOC x = y^{-2}: V(y) = 1/y for U = 2 sqrt(x)
    assert conjugate(SQRT, 1.0) == pytest.approx(1.0)
    assert eval_utility(SQRT, 1.0) == pytest.approx(conjugate(SQRT, 1.0) + 1.0)


def test_conjugate_piecewise_breakpoint_enumeration():
    # U on the grid does not depend on y: evaluate it once
    grid = dense_grid(KINKED, knots=KINKED.breakpoints)
    for y in (3.5, 4.0, 10.0):
        assert conjugate(KINKED, y) == pytest.approx(0.0)
        assert conjugate(KINKED, y) == pytest.approx(grid_conjugate(grid, y),
                                                     abs=1e-8)
    for y in (0.5, 1.5, 2.5):
        assert conjugate(KINKED, y) == pytest.approx(grid_conjugate(grid, y),
                                                     abs=1e-8)


def test_conjugate_tabulated_matches_dense_grid():
    tab = TabulatedUtility((0.5, 1.0, 2.0, 4.0), (0.0, 0.6, 1.0, 1.2))
    # final extrapolation slope is 0.1, so V is finite only for y >= 0.1
    assert conjugate(tab, 0.05) == INF
    # U on the grid does not depend on y: evaluate it once
    grid = dense_grid(tab, lo=0.0, hi=200.0, n=2000001, knots=tab.grid)
    for y in (0.15, 0.2, 0.7, 2.0):
        oracle = grid_conjugate(grid, y)
        assert conjugate(tab, y) == pytest.approx(oracle, abs=1e-8)


def test_tabulated_is_the_extended_interpolant():
    # segment slopes 1.2, 0.4, 0.1; the first extends down to 0, the last
    # past the final sample
    tab = TabulatedUtility((0.5, 1.0, 2.0, 4.0), (0.0, 0.6, 1.0, 1.2))
    for x, u in ((0.5, 0.0), (1.0, 0.6), (2.0, 1.0), (4.0, 1.2), (1.5, 0.8),
                 (0.25, -0.3), (6.0, 1.4)):
        assert tab(x) == pytest.approx(u, abs=1e-14)
    assert tab(0.0) == pytest.approx(-0.6, abs=1e-14)
    assert tab.marginal(1.0) == pytest.approx((1.2, 0.4), abs=1e-14)
    assert tab.marginal(0.5) == pytest.approx((1.2, 1.2), abs=1e-14)
    assert tab.sup_value() == INF
    assert not tab.inada_zero()


def test_conjugate_unbounded_below_last_slope():
    assert conjugate(LINEAR, 0.5) == INF
    assert conjugate(LINEAR, 1.0) == 0.0


def test_conjugate_at_zero_is_sup():
    assert conjugate(LOG, 0.0) == INF
    assert conjugate(KINKED, 0.0) == 4.0  # sup U = U(2) = 3 + 1


def test_marginal_log():
    assert marginal(LOG, 2.0) == (0.5, 0.5)


def test_marginal_piecewise_breakpoint_two_sided():
    assert KINKED.marginal(1.0) == (3.0, 1.0)
    assert KINKED.marginal(0.5) == (3.0, 3.0)
    assert KINKED.marginal(5.0) == (0.0, 0.0)


def test_inverse_marginal_against_finite_differences():
    # -V'(2), the wealth of marginal utility 2, for the sqrt family:
    # finite-difference oracle at h = 1e-6
    h = 1e-6
    fd = -(conjugate(SQRT, 2.0 + h) - conjugate(SQRT, 2.0 - h)) / (2 * h)
    inverse = -SQRT.conjugate_marginal(2.0)[0]
    assert inverse == pytest.approx(0.25, abs=1e-12)
    assert inverse == pytest.approx(fd, abs=1e-4)


@pytest.mark.parametrize(
    "u", [LOG, PowerUtility(0.2), SQRT, PowerUtility(0.8)],
    ids=["log", "power0.2", "power0.5", "power0.8"])
def test_conjugate_derivatives_on_an_array(u):
    # V' is the scalar conjugate_marginal, and V'' a central difference of
    # V' at h = 1e-6 z, on a log-spaced grid
    z = np.logspace(-3, 3, 61)
    d1, d2 = u.conjugate_derivatives(z)
    assert d1 == pytest.approx([u.conjugate_marginal(v)[0] for v in z],
                               rel=1e-14)
    h = 1e-6 * z
    slope = (u.conjugate_derivatives(z + h)[0]
             - u.conjugate_derivatives(z - h)[0]) / (2 * h)
    assert d2 == pytest.approx(slope, rel=1e-6)


@pytest.mark.parametrize(
    "u", [LOG, PowerUtility(0.2), SQRT, PowerUtility(0.8)],
    ids=["log", "power0.2", "power0.5", "power0.8"])
def test_smooth_formulas_on_an_array(u):
    # on a log-spaced grid, the array U, U', -U'' and V are the scalar
    # API's values and central differences at h = 1e-6 w
    w = np.logspace(-3, 3, 61)
    h = 1e-6 * w
    assert u(w) == pytest.approx([u(v) for v in w], rel=1e-14)
    assert u._du(w) == pytest.approx([marginal(u, v)[1] for v in w], rel=1e-14)
    assert u._du(w) == pytest.approx((u(w + h) - u(w - h)) / (2 * h), rel=1e-6)
    assert -u._d2u(w) == pytest.approx(
        (u._du(w - h) - u._du(w + h)) / (2 * h), rel=1e-6)
    assert u.conjugate(w) == pytest.approx([conjugate(u, v) for v in w],
                                           rel=1e-14)
    assert u._dv(w) == pytest.approx(
        (u.conjugate(w + h) - u.conjugate(w - h)) / (2 * h), rel=1e-6)
    # the extension: U(0) = inf U, -inf below 0; V(0) = sup U, +inf below 0
    # (no warning is raised: log(0) is never evaluated)
    edges = np.asarray([-1.0, 0.0, 1.0])
    assert u(edges).tolist() == [NEG_INF, u.inf_value(), u(1.0)]
    assert u(0.0) == u.inf_value() == (NEG_INF if u is LOG else 0.0)
    assert u.conjugate(edges).tolist() == [INF, u.sup_value(),
                                           conjugate(u, 1.0)]


@pytest.mark.parametrize("u", [KINKED, LINEAR, TABLE, STEEP],
                         ids=["kinked", "linear", "table", "steep"])
def test_piecewise_formulas_on_an_array(u):
    # U and V on an array are the scalar API's, knots and the edges of the
    # domains included, and V's central differences at h = 1e-6 z lie in
    # its (left, right) slope bracket
    x = np.concatenate([np.linspace(-1.0, 6.0, 141), u.breakpoints,
                        [s for s in u.slopes if s != INF]])
    assert u(x).tolist() == pytest.approx([u(v) for v in x], abs=1e-14)
    assert u.conjugate(x).tolist() == pytest.approx(
        [conjugate(u, v) for v in x], abs=1e-14)
    z = np.linspace(0.05, 6.0, 120)
    z = z[np.isfinite(u.conjugate(z * (1 - 1e-6)))]
    h = 1e-6 * z
    slope = (u.conjugate(z + h) - u.conjugate(z - h)) / (2 * h)
    for v, s in zip(z, slope):
        left, right = u.conjugate_marginal(v)
        assert left - 1e-6 <= s <= right + 1e-6
    # V at 0 is sup U; a y within 1e-12 relative below V's edge (the last
    # slope) counts as on it, one further below is outside the domain
    edge = u.slopes[-1]
    y = np.asarray([0.0, edge * (1 - 0.5e-12), edge * (1 - 2e-12)])
    values = u.conjugate(y).tolist()
    assert values[0] == u.sup_value() == conjugate(u, 0.0)
    assert values[1:] == [conjugate(u, v) for v in y[1:]]
    if edge > 0:
        assert math.isfinite(values[1]) and values[2] == INF


# ---------------------------------------------------------------------------
# growth conditions


def test_rae_power_identity():
    report = check_rae(SQRT, 1.0, 2 ** 0.5 + 1e-12, [1.0, 2.0, 7.0, 31.0])
    assert report.holds_on_grid
    assert report.worst_ratio == pytest.approx(2 ** 0.5)


def test_rae_power_sharp_threshold():
    grid = [1.0, 3.0, 10.0]
    assert check_rae(SQRT, 1.0, 2 ** 0.5 + 1e-3, grid).holds_on_grid
    assert not check_rae(SQRT, 1.0, 2 ** 0.5 - 1e-3, grid).holds_on_grid


def test_rae_linear_fails():
    report = check_rae(LINEAR, 1.0, 1.999, [1.0, 5.0])
    assert not report.holds_on_grid
    assert report.worst_ratio == pytest.approx(2.0)


def test_rae_log():
    report = check_rae(LOG, 10.0, 1.5, [10.0, 50.0, 1000.0])
    assert report.holds_on_grid
    assert report.worst_ratio == pytest.approx(math.log(20) / math.log(10))
    assert report.meaningful


def test_rae_meaningful_flag():
    assert not check_rae(LOG, 0.5, 1.5, [10.0]).meaningful


def test_inada():
    assert check_inada_zero(LOG)
    assert check_inada_zero(SQRT)
    assert not check_inada_zero(LINEAR)
    steep = TabulatedUtility((1e-8, 1.0, 2.0), (0.0, 2e6 * 1e0, 2e6 + 1.0))
    assert check_inada_zero(steep)


# ---------------------------------------------------------------------------
# structural properties


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.01, 10.0), y=st.floats(0.01, 10.0))
def test_fenchel_young_inequality(x, y):
    for u in (LOG, SQRT, KINKED):
        lhs = eval_utility(u, x)
        rhs = conjugate(u, y) + x * y
        assert lhs <= rhs + 1e-9


def test_piecewise_first_breakpoint_above_zero():
    # U = -inf on (0, 1), so its extension at 0 is -inf as well
    u = PiecewiseLinearUtility((1, 2), (1, 0.5))
    assert eval_utility(u, 0.0) == eval_utility(u, 0.5) == NEG_INF
    for x in (0.0, 1.0):
        for y in (0.1, 0.5, 1.0, 2.0):
            assert eval_utility(u, x) <= conjugate(u, y) + x * y


@pytest.mark.parametrize("u", [LOG, SQRT])
def test_fenchel_young_equality_at_marginal(u):
    for x in (0.3, 1.0, 2.5, 8.0):
        y = marginal(u, x)[1]
        assert eval_utility(u, x) == pytest.approx(conjugate(u, y) + x * y, abs=1e-8)


@pytest.mark.parametrize("u", [LOG, SQRT, KINKED])
def test_conjugate_nonincreasing_convex(u):
    ys = np.linspace(0.05, 6.0, 80)
    vs = [conjugate(u, y) for y in ys]
    assert all(v2 <= v1 + 1e-10 for v1, v2 in zip(vs, vs[1:]))
    second = [vs[i - 1] - 2 * vs[i] + vs[i + 1] for i in range(1, len(vs) - 1)]
    assert all(s >= -1e-10 for s in second)


@pytest.mark.parametrize("u", [LOG, SQRT, KINKED])
def test_biconjugate_recovers_utility(u):
    # for the kinked family the infimum sits at a slope value, so those
    # points must be on the y-grid for the oracle to be exact
    ys = np.concatenate([np.linspace(1e-4, 400.0, 600001), [0.0, 1.0, 3.0]])
    vs = np.array([conjugate(u, y) for y in ys])  # does not depend on x
    for x in (0.5, 1.0, 1.7, 3.0):
        vals = vs + x * ys
        assert vals.min() == pytest.approx(eval_utility(u, x), abs=1e-6)


def test_conjugate_marginal_bracket_on_kink():
    # V of the kinked family switches active breakpoint at slope values
    left, right = KINKED.conjugate_marginal(1.0)
    assert left <= right
    assert left == -2.0 and right == -1.0


# ---------------------------------------------------------------------------
# descriptors


@pytest.mark.parametrize("doc,kind", [
    ({"family": "log"}, LogUtility),
    ({"family": "power", "p": 0.5}, PowerUtility),
    ({"family": "piecewise", "breakpoints": [0, 1], "slopes": [2, 1]},
     PiecewiseLinearUtility),
    ({"family": "table", "x": [1, 2], "u": [0, 1]}, TabulatedUtility),
])
def test_parse_utility(doc, kind):
    assert isinstance(parse_utility(doc), kind)


def test_parse_utility_rejects_unknown():
    from condual.scalars import SchemaError

    with pytest.raises(SchemaError):
        parse_utility({"family": "exponential"})
    with pytest.raises(SchemaError):
        parse_utility({"family": "power", "p": 2.0})


def test_piecewise_without_finite_piece_is_rejected():
    # U would be -inf everywhere: rejected at construction, not at first use
    from condual.scalars import SchemaError

    for knots, match in (((0,), "second breakpoint"), ((), "at least one")):
        with pytest.raises(ValueError, match=match):
            PiecewiseLinearUtility(knots, (math.inf,) * len(knots))
        with pytest.raises(SchemaError, match=match):
            parse_utility({"family": "piecewise", "breakpoints": list(knots),
                           "slopes": ["inf"] * len(knots)})
    steep = PiecewiseLinearUtility((0.0, 1.0), (math.inf, 1.0))
    assert steep(0.5) == -math.inf and steep(2.0) == 1.0

