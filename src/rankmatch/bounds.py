"""Numerical evaluation and minimization of the pair-gain lower bounds.

Two lower-bound surfaces over the (tau, gamma) unit square are provided.
The simple form charges the corner mass plus one share integral per side:

    (1-tau)(1-gamma) + int_0^gamma share(x, tau) dx + int_0^tau share(x, gamma) dx

and is evaluated in closed form from the spec's offer split: each share
integral is t (1 - b(y)) - A(t), with A the antiderivative of a. The
improved form keeps the corner and v-side terms but replaces the u-side
integrand with an inner minimization over a marginal rank theta <= gamma:

    share(x, theta) + int_0^theta share(y, x) dy + int_theta^gamma share(y, tau) dy
      = 1 - a(x) - b(theta) + theta (1 - b(x)) + (gamma - theta)(1 - b(tau)) - A(gamma)

The A(theta) terms cancel, so the inner minimum needs no antiderivative at
its candidates; it is found exactly from a finite candidate set (the
endpoints and the curve kinks), and the outer integral uses adaptive
Simpson quadrature with panels forced apart at curve kinks. improved_bound
sets up b(tau), A(gamma) and the candidates once per point and hands a
nested integrand to integrate; each quadrature point costs one curve
evaluation, which gives both a(x) and b(x), and a fold over the at most
three candidates. minimize_bound scans a coarse grid and polishes with
alternating golden-section line searches, reproducing the worst-case
constants of both built-in curves.
The module also evaluates the threshold-profile integral: a lower bound on
the competitive ratio given explicit beta/theta profiles.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from .gains import GainSpec
from .numerics import as_real, bisect_root, golden_minimize, integrate


# minimize_bound: scan grid size, quadrature tolerances of the scan and the
# polish, and the argument tolerance of the golden-section polish (also
# stationary_tau's)
SCAN_GRID_N = 256
SCAN_TOL = 1e-6
POLISH_TOL = 1e-9
ARG_TOL = 1e-6
HEATMAP_TOL = 1e-8
ROOT_TOL = 1e-10       # solve_curve_equals_two_t
STATIONARY_TOL = 1e-10  # stationary_tau's quadrature
INTEGRAL_TOL = 1e-9    # integral_bound


class ProfileError(ValueError):
    """Invalid threshold profile supplied to the integral evaluator."""


@dataclass(frozen=True)
class BoundPoint:
    """A (tau, gamma) point of a bound surface and the value there."""

    tau: float
    gamma: float
    value: float


def _check_unit_pair(tau: float, gamma: float) -> None:
    if not (0.0 <= tau <= 1.0 and 0.0 <= gamma <= 1.0):
        raise ValueError(f"(tau, gamma) must lie in the unit square: ({tau}, {gamma})")


def simple_bound(spec: GainSpec, tau: float, gamma: float,
                 tol: float = 1e-10) -> float:
    """Corner mass plus one share integral per side.

    The value is exact: int_0^t share(x, y) dx = t (1 - b(y)) - A(t). tol is
    accepted so that every bound_function surface takes the same arguments.
    """
    _check_unit_pair(tau, gamma)
    parts, antideriv = spec.offer_parts_scalar, spec.rank_offer_antideriv
    return ((1.0 - tau) * (1.0 - gamma)
            + (gamma * (1.0 - parts(tau)[1]) - antideriv(gamma))
            + (tau * (1.0 - parts(gamma)[1]) - antideriv(tau)))


def improved_bound(spec: GainSpec, tau: float, gamma: float,
                   tol: float = 1e-9) -> float:
    """Improved lower-bound surface; never below simple_bound.

    The v-side integral is exact. The u-side integrand at x is the minimum
    over theta in [0, gamma] of
    1 - A(gamma) + gamma (1 - b(tau)) - a(x) + theta (b(tau) - b(x)) - b(theta).
    Between curve kinks b is convex (the exp curves) or affine (tables, and
    the constant adversarial b), so the objective is concave in theta there
    and its minimum sits at 0, gamma, or a kink inside (0, gamma). b(tau),
    A(gamma) and the candidates' b values are set up once per point; each
    integrand call evaluates the curve once, through offer_parts_scalar, and
    folds the candidates in order keeping the first minimum. The outer
    integral uses adaptive quadrature, so the absolute error is bounded by
    tol.
    """
    _check_unit_pair(tau, gamma)
    parts = spec.offer_parts_scalar
    b_tau = parts(tau)[1]
    a_gamma = spec.rank_offer_antideriv(gamma)
    const = 1.0 - a_gamma + gamma * (1.0 - b_tau)
    thetas = [0.0, gamma] + [bp for bp in spec.curve_breakpoints if 0.0 < bp < gamma]
    candidates = [(th, parts(th)[1]) for th in thetas]

    def inner(x: float) -> float:
        a_x, b_x = parts(x)
        slope = b_tau - b_x
        low = math.inf
        for th, b_th in candidates:
            v = th * slope - b_th
            if v < low:
                low = v
        return const - a_x + low

    corner = (1.0 - tau) * (1.0 - gamma)
    v_side = (1.0 - tau) * (gamma * (1.0 - b_tau) - a_gamma)
    u_side = integrate(inner, 0.0, tau, tol=tol, breakpoints=spec.curve_breakpoints)
    return corner + v_side + u_side


_BOUNDS: dict[str, Callable[..., float]] = {
    "simple": simple_bound,
    "improved": improved_bound,
}


def bound_function(which: str) -> Callable[..., float]:
    if which not in _BOUNDS:
        raise ValueError(f"which must be one of {sorted(_BOUNDS)}, got {which!r}")
    return _BOUNDS[which]


def _grid_points(grid_n: int) -> list[float]:
    """grid_n evenly spaced points on [0, 1], both endpoints included."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    return [i / (grid_n - 1) for i in range(grid_n)]


def minimize_bound(spec: GainSpec, which: str) -> BoundPoint:
    """Global minimum of a bound surface over the unit square.

    Coarse SCAN_GRID_N x SCAN_GRID_N scan (256 x 256, endpoints included)
    with the surface at quadrature tolerance SCAN_TOL (1e-6), then
    alternating golden-section refinement of each coordinate inside the
    winning cell's neighborhood down to ARG_TOL (1e-6), with the surface at
    POLISH_TOL (1e-9). Deterministic: ties on the scan resolve to the first
    grid point in row-major order.

    Only the value is a stable output; the minimizer need not be unique.
    For simple-exp the simple surface sits at its minimum 5/4 - e^(-1/2)
    along a whole path in (tau, gamma), (0, 1) -> (1/2, 1) -> (1/2, 1/2)
    -> (1, 1/2) -> (1, 0): it equals that value exactly at (1, 0),
    (0.5, 0.5), (0, 1), (0.0109, 1) and (4e-7, 1). The reported tau and
    gamma are one point of that flat valley, and a change of 1e-15 in the
    surface can move them along it.
    """
    f = bound_function(which)
    pts = _grid_points(SCAN_GRID_N)
    best = (math.inf, 0.0, 0.0)
    for t in pts:
        for g in pts:
            val = f(spec, t, g, tol=SCAN_TOL)
            if val < best[0]:
                best = (val, t, g)
    _, tau, gamma = best
    window = 2.0 / (SCAN_GRID_N - 1)
    for _ in range(24):
        new_tau, _ = golden_minimize(
            lambda t: f(spec, t, gamma, tol=POLISH_TOL),
            max(0.0, tau - window), min(1.0, tau + window), tol=ARG_TOL)
        new_gamma, _ = golden_minimize(
            lambda g: f(spec, new_tau, g, tol=POLISH_TOL),
            max(0.0, gamma - window), min(1.0, gamma + window), tol=ARG_TOL)
        moved = max(abs(new_tau - tau), abs(new_gamma - gamma))
        tau, gamma = new_tau, new_gamma
        window = max(4.0 * ARG_TOL, 0.5 * window)
        if moved < ARG_TOL:
            break
    return BoundPoint(tau=tau, gamma=gamma, value=f(spec, tau, gamma, tol=POLISH_TOL))


def heatmap_rows(spec: GainSpec, which: str,
                 grid_n: int) -> list[tuple[float, float, float]]:
    """(tau, gamma, value) rows over a uniform grid, row-major in tau, with
    the surface at quadrature tolerance HEATMAP_TOL."""
    f = bound_function(which)
    pts = _grid_points(grid_n)
    return [(t, g, f(spec, t, g, tol=HEATMAP_TOL)) for t in pts for g in pts]


def solve_curve_equals_two_t(spec: GainSpec) -> float:
    """Root of curve(t) = 2 t in [0, 1] by bracketed bisection.

    For both built-in exp curves the crossing exists and is unique:
    curve(0) > 0 and curve(1) <= 1 < 2.
    """
    return bisect_root(lambda t: float(spec.curve(t)) - 2.0 * t, 0.0, 1.0,
                       tol=ROOT_TOL)


def stationary_tau(spec: GainSpec, gamma: float) -> tuple[float, float]:
    """Interior minimizer of improved_bound along tau at fixed gamma.

    Returns (tau, value) from a golden-section search over [0, 1] down to
    ARG_TOL, with the surface at quadrature tolerance STATIONARY_TOL; the
    slice is unimodal for the built-in curves.
    """
    return golden_minimize(lambda t: improved_bound(spec, t, gamma, tol=STATIONARY_TOL),
                           0.0, 1.0, tol=ARG_TOL)


# -- threshold profiles and the ratio integral ----------------------------


@dataclass(frozen=True)
class Piecewise:
    """Piecewise-constant or piecewise-linear function on [0, 1].

    xs are strictly increasing knots from 0.0 to 1.0. With kind="step" the
    function holds ys[i] on [xs[i], xs[i+1]) (len(ys) == len(xs) - 1, the
    point 1.0 maps to ys[-1]); with kind="linear" it interpolates between
    knot values (len(ys) == len(xs)).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    kind: str = "step"

    def __post_init__(self):
        if self.kind not in ("step", "linear"):
            raise ProfileError(f"unknown piecewise kind {self.kind!r}")
        if not all(math.isfinite(x) for x in self.xs):
            raise ProfileError(f"profile knots must be finite, got {self.xs!r}")
        if len(self.xs) < 2 or self.xs[0] != 0.0 or self.xs[-1] != 1.0:
            raise ProfileError("knots must run from 0.0 to 1.0")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ProfileError("knots must be strictly increasing")
        expect = len(self.xs) - 1 if self.kind == "step" else len(self.xs)
        if len(self.ys) != expect:
            raise ProfileError(f"expected {expect} values for {self.kind} profile")
        if any(not (0.0 <= y <= 1.0) for y in self.ys):
            raise ProfileError("profile values must lie in [0, 1]")

    def __call__(self, t: float) -> float:
        if not (0.0 <= t <= 1.0):
            raise ProfileError(f"argument outside [0, 1]: {t}")
        i = self._segment(t)
        if self.kind == "step":
            return self.ys[i]
        x0, x1 = self.xs[i], self.xs[i + 1]
        y0, y1 = self.ys[i], self.ys[i + 1]
        return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    def _segment(self, t: float) -> int:
        for i in range(len(self.xs) - 1):
            if t < self.xs[i + 1]:
                return i
        return len(self.xs) - 2

    def breaks(self) -> tuple[float, ...]:
        return tuple(x for x in self.xs if 0.0 < x < 1.0)

    def is_non_decreasing(self) -> bool:
        return all(b >= a for a, b in zip(self.ys, self.ys[1:]))

    def upper_inverse(self, x: float) -> float:
        """sup{t : f(t) <= x} for a non-decreasing profile (0.0 if empty)."""
        if self.kind == "step":
            out = 0.0
            for i, y in enumerate(self.ys):
                if y <= x:
                    out = self.xs[i + 1]
                else:
                    break
            return out
        if x >= self.ys[-1]:
            return 1.0
        if x < self.ys[0]:
            return 0.0
        for i in range(len(self.xs) - 2, -1, -1):
            if self.ys[i] <= x:
                y0, y1 = self.ys[i], self.ys[i + 1]
                if y1 <= x:
                    return self.xs[i + 1]
                x0, x1 = self.xs[i], self.xs[i + 1]
                return x0 + (x - y0) * (x1 - x0) / (y1 - y0)
        return 0.0

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "x": list(self.xs), "y": list(self.ys)}


def piecewise_from_json(obj: Mapping) -> Piecewise:
    try:
        knots = obj["x"], obj["y"]
        if not all(isinstance(k, (list, tuple)) for k in knots):
            raise TypeError("profile x and y must be arrays, not strings")
        xs, ys = (tuple(as_real(t) for t in k) for k in knots)
        kind = str(obj.get("kind", "step"))
    except (KeyError, TypeError, ValueError, AttributeError):
        raise ProfileError(f'malformed profile {obj!r}: want {{"kind": ..., '
                           '"x": [numbers], "y": [numbers]}') from None
    return Piecewise(xs=xs, ys=ys, kind=kind)


@dataclass(frozen=True)
class StepProfiles:
    """A (theta, beta) profile pair feeding the ratio integral.

    Pointwise 0 <= beta <= theta <= 1 and beta non-decreasing; checked on
    the union of knots and segment midpoints, which is exact for affine
    pieces.
    """

    theta_fn: Piecewise
    beta_fn: Piecewise

    def __post_init__(self):
        if not self.beta_fn.is_non_decreasing():
            raise ProfileError("beta profile must be non-decreasing")
        knots = sorted(set(self.theta_fn.xs) | set(self.beta_fn.xs))
        probes = list(knots)
        probes += [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
        probes += [min(1.0, k + 1e-12) for k in knots[1:-1]]
        for t in probes:
            th, be = self.theta_fn(t), self.beta_fn(t)
            if not (0.0 <= be <= th + 1e-12 and th <= 1.0):
                raise ProfileError(f"need 0 <= beta <= theta <= 1; at {t}: "
                                   f"beta={be}, theta={th}")

    def to_json_dict(self) -> dict:
        return {"theta": self.theta_fn.to_json_dict(),
                "beta": self.beta_fn.to_json_dict()}


def profiles_from_json(obj: Mapping) -> StepProfiles:
    """Profiles from parsed {"theta": ..., "beta": ...} data."""
    if not isinstance(obj, Mapping):
        raise ProfileError("profiles must be a mapping with theta and beta entries")
    for key in ("theta", "beta"):
        if key not in obj:
            raise ProfileError(f"profiles lack the {key} entry")
    return StepProfiles(theta_fn=piecewise_from_json(obj["theta"]),
                        beta_fn=piecewise_from_json(obj["beta"]))


def integral_bound(spec: GainSpec, profiles: StepProfiles) -> float:
    """Ratio lower bound from explicit threshold profiles.

    Integrates, over the online arrival time, the online side's floor gain
    outside the matched-to band, the full weight of the matched-to band,
    and the offline side's guaranteed gain in the matched-before and
    unmatched-after regions (credited at the inverse-beta marginal rank).
    Conventions: the inverse of beta extends to one at and above
    gamma = beta(1), and a share against a rank-one marginal counts as
    zero, so profiles that never match contribute nothing. The outer
    integral is taken to INTEGRAL_TOL, each inner one to a tenth of it.
    """
    theta_fn, beta_fn = profiles.theta_fn, profiles.beta_fn
    gamma = beta_fn(1.0)

    def u_floor(x: float, t: float) -> float:
        if t >= 1.0:
            return 0.0
        return 1.0 - spec.share_scalar(t, x)

    def v_gain(y_v: float) -> float:
        if y_v >= gamma:
            return 0.0
        b = beta_fn.upper_inverse(y_v)
        if b >= 1.0:
            return 0.0
        return spec.share_scalar(y_v, b)

    v_breaks = set(spec.curve_breakpoints) | {gamma} | set(beta_fn.ys)

    def f(y_u: float) -> float:
        th = theta_fn(y_u)
        be = beta_fn(y_u)
        val = (1.0 - th + be) * u_floor(y_u, th) + (th - be)
        val += integrate(v_gain, 0.0, be, tol=0.1 * INTEGRAL_TOL, breakpoints=v_breaks)
        val += integrate(v_gain, th, 1.0, tol=0.1 * INTEGRAL_TOL, breakpoints=v_breaks)
        return val

    outer_breaks = (set(theta_fn.breaks()) | set(beta_fn.breaks())
                    | set(spec.curve_breakpoints))
    return integrate(f, 0.0, 1.0, tol=INTEGRAL_TOL, breakpoints=outer_breaks)
