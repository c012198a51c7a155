"""Deterministic scalar numerics: quadrature, root finding, line search,
and as_real, the one test of what counts as a number in an input file.

Everything here is pure and reproducible; no global state, no randomness.
The integrators take explicit breakpoint lists so that piecewise integrands
(kinked share curves, step profiles) are never integrated across a kink.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
MAX_DEPTH = 48   # recursion limit of adaptive Simpson per panel


def as_real(value) -> float:
    """float(value) for a real number; TypeError for anything else.

    The input parsers read numbers through this: numeric text such as
    "2.5", bools (a real number to Python) and integers beyond the float
    range are not numbers.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"not a number: {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise TypeError(f"not a float: {value!r}") from None


def split_points(a: float, b: float, breakpoints: Iterable[float]) -> list[float]:
    """Panel endpoints for [a, b]: a, interior breakpoints in order, b."""
    pts = [a]
    for p in sorted(set(breakpoints)):
        if a < p < b:
            pts.append(p)
    pts.append(b)
    return pts


def _adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    flm = f(0.5 * (a + m))
    frm = f(0.5 * (m + b))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    # written so that a NaN error (a NaN or infinite integrand) also stops
    if depth <= 0 or not abs(err) > 15.0 * tol:
        return left + right + err / 15.0
    return (_adaptive(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10, breakpoints: Iterable[float] = ()) -> float:
    """Adaptive Simpson integral of f over [a, b].

    Panels are forced to split at every interior breakpoint, so f only needs
    to be smooth between consecutive breakpoints. Each panel end is
    evaluated once: an interior breakpoint is the end of one panel and the
    start of the next. Accepts a >= b (returns the signed value). Absolute
    error is roughly bounded by tol; each panel stops refining at MAX_DEPTH
    levels.
    """
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol, breakpoints)
    pts = split_points(a, b, breakpoints)
    per_panel = tol / (len(pts) - 1)
    total = 0.0
    fa = f(a)
    for lo, hi in zip(pts, pts[1:]):
        fb = f(hi)
        fm = f(0.5 * (lo + hi))
        total += _adaptive(f, lo, hi, fa, fm, fb, (hi - lo) / 6.0 * (fa + 4.0 * fm + fb),
                           per_panel, MAX_DEPTH)
        fa = fb
    return total


def golden_minimize(f: Callable[[float], float], a: float, b: float,
                    tol: float = 1e-6) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [a, b] -> (argmin, value)."""
    if b < a:
        a, b = b, a
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def bisect_boundary(pred: Callable[[float], bool], lo: float, hi: float,
                    tol: float = 1e-9) -> float:
    """Boundary point of a monotone predicate: pred holds at lo, fails at hi.

    Returns the midpoint of the final bracket; the true flip point lies
    within tol of it provided pred is monotone on [lo, hi]. A tol below the
    float spacing at the boundary stops once the bracket cannot shrink.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
