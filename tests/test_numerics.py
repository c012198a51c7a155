import math

import pytest

from rankmatch.numerics import bisect_boundary, golden_minimize, integrate, split_points


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

