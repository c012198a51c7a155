import math

import pytest

from rankmatch.numerics import (MAX_DEPTH, bisect_boundary, golden_minimize, integrate,
                                split_points)


def test_split_points_orders_and_filters():
    assert split_points(0.0, 1.0, (0.5, 2.0, -1.0, 0.25)) == [0.0, 0.25, 0.5, 1.0]
    assert split_points(0.2, 0.3, ()) == [0.2, 0.3]


def test_integrate_polynomial_exact():
    # Simpson is exact through cubics
    assert integrate(lambda x: x ** 3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)
    assert integrate(lambda x: x * x, 0.0, 2.0) == pytest.approx(8.0 / 3.0, abs=1e-12)


def test_integrate_exponential_tolerance():
    val = integrate(math.exp, 0.0, 1.0, tol=1e-12)
    assert val == pytest.approx(math.e - 1.0, abs=1e-11)


def test_integrate_kinked_needs_breakpoint():
    f = lambda x: abs(x - 1.0 / 3.0)  # noqa: E731
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    val = integrate(f, 0.0, 1.0, tol=1e-12, breakpoints=(1.0 / 3.0,))
    assert val == pytest.approx(exact, abs=1e-13)


def test_integrate_signed_and_empty():
    assert integrate(math.sin, 1.0, 1.0) == 0.0
    fwd = integrate(math.sin, 0.0, 2.0)
    assert integrate(math.sin, 2.0, 0.0) == pytest.approx(-fwd, abs=1e-13)


def test_golden_minimize_quadratic():
    x, fx = golden_minimize(lambda t: (t - 0.3) ** 2 + 1.0, 0.0, 1.0, tol=1e-8)
    assert x == pytest.approx(0.3, abs=1e-6)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_minimize_boundary_minimum():
    x, _ = golden_minimize(lambda t: t, 0.0, 1.0, tol=1e-8)
    assert x == pytest.approx(0.0, abs=1e-6)


def test_bisect_boundary_step():
    b = bisect_boundary(lambda x: x < 0.6180339887, 0.0, 1.0, tol=1e-10)
    assert b == pytest.approx(0.6180339887, abs=1e-9)


@pytest.mark.parametrize("tol", [1e-17, 1e-300, 0.0])
def test_bisect_boundary_stops_at_float_spacing(tol):
    # below the spacing of doubles near 0.3 the bracket cannot shrink further
    b = bisect_boundary(lambda x: x < 0.3, 0.0, 1.0, tol=tol)
    assert abs(b - 0.3) <= math.ulp(0.3)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_integrate_stops_on_a_non_finite_integrand(value):
    # a NaN error estimate fails every `<=` test; integrate must still stop
    # after the first split of each panel instead of recursing to MAX_DEPTH
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        if calls > 300:
            raise AssertionError("integrate kept refining a non-finite integrand")
        return value

    assert math.isnan(integrate(f, 0.0, 1.0, breakpoints=(0.25, 0.5)))



# -- frozen oracle: integrate as it was when every panel evaluated both ends


def _frozen_simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _frozen_adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _frozen_simpson(fa, flm, fm, m - a)
    right = _frozen_simpson(fm, frm, fb, b - m)
    err = left + right - whole
    if depth <= 0 or not abs(err) > 15.0 * tol:
        return left + right + err / 15.0
    return (_frozen_adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _frozen_adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def frozen_integrate(f, a, b, tol=1e-10, breakpoints=()):
    if a == b:
        return 0.0
    if b < a:
        return -frozen_integrate(f, b, a, tol, breakpoints)
    pts = split_points(a, b, breakpoints)
    per_panel = tol / (len(pts) - 1)
    total = 0.0
    for lo, hi in zip(pts, pts[1:]):
        fa, fb = f(lo), f(hi)
        m = 0.5 * (lo + hi)
        fm = f(m)
        whole = _frozen_simpson(fa, fm, fb, hi - lo)
        total += _frozen_adaptive(f, lo, hi, fa, fm, fb, whole, per_panel, MAX_DEPTH)
    return total


def _half_exp_curve(x):
    return min(1.0, 0.5 * math.exp(x))


def _step_at_a_third(x):
    # constant on both sides: a dyadic panel that misses 1/3 has zero error,
    # so only the panels holding 1/3 refine, down to MAX_DEPTH
    return 0.0 if x < 1.0 / 3.0 else 1.0


ORACLE_CASES = {
    "exp": (math.exp, 0.0, 1.0, 1e-12, ()),
    "sin": (math.sin, 0.0, 2.0, 1e-10, ()),
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 1e-9, ()),
    "cubic": (lambda x: x ** 3 - x, -0.5, 1.5, 1e-6, (0.0, 1.0)),
    "abs-kink": (lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0, 1e-12, (1.0 / 3.0,)),
    "half-exp-curve": (_half_exp_curve, 0.0, 1.0, 1e-9, (math.log(2.0),)),
    "many-breakpoints": (lambda x: abs(math.sin(8.0 * x)), 0.0, 1.2, 1e-8,
                         (0.75, math.pi / 8.0, 0.75, -1.0, 2.0, math.pi / 4.0)),
    "reversed": (math.exp, 1.0, -0.5, 1e-10, (0.0, 0.5)),
    "reversed-kink": (lambda x: abs(x - 0.3), 0.9, 0.1, 1e-11, (0.3,)),
    "empty": (math.exp, 0.4, 0.4, 1e-10, (0.4,)),
    "max-depth": (_step_at_a_third, 0.0, 1.0, 1e-300, ()),
    "nan": (lambda x: math.nan, 0.0, 1.0, 1e-10, (0.5,)),
    "nan-at-a-point": (lambda x: math.nan if x == 0.5 else x, 0.0, 1.0, 1e-10, ()),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_integrate_matches_the_frozen_oracle_bit_for_bit(case):
    f, a, b, tol, breakpoints = ORACLE_CASES[case]
    assert (integrate(f, a, b, tol=tol, breakpoints=breakpoints).hex()
            == frozen_integrate(f, a, b, tol=tol, breakpoints=breakpoints).hex())


def test_the_max_depth_case_refines_down_to_max_depth():
    points = []

    def f(x):
        points.append(x)
        return _step_at_a_third(x)

    integrate(f, 0.0, 1.0, tol=1e-300)
    # the panel's ends, midpoint and quarter points; then at each of the
    # MAX_DEPTH levels below it, both halves of the one interval holding
    # 1/3 evaluate their own quarter points, until depth 0 stops it
    assert len(points) == 3 + 2 + 4 * MAX_DEPTH


@pytest.mark.parametrize("a, b, breakpoints", [
    (0.0, 1.0, (0.25, 0.5, 0.75)),
    (0.0, 1.0, (0.75, 0.25, 0.25, 2.0, -1.0)),
    (1.0, 0.0, (0.5,)),
])
def test_integrate_evaluates_each_panel_end_once(a, b, breakpoints):
    points = []

    def f(x):
        points.append(x)
        return math.exp(x)

    integrate(f, a, b, tol=1e-3, breakpoints=breakpoints)
    ends = split_points(min(a, b), max(a, b), breakpoints)
    assert [points.count(x) for x in ends] == [1] * len(ends)
