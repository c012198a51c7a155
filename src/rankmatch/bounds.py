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
Simpson quadrature with panels forced apart at curve kinks, each panel end
evaluated once. improved_bound sets up b(tau), A(gamma) and the
candidates' b values once per point and hands integrate one integrand;
each quadrature point costs one piece evaluation, which gives both a(x)
and b(x), then the candidates theta = 0 and theta = gamma, folded inline,
and a loop over the kinks below gamma. minimize_bound scans a coarse grid
and polishes with alternating golden-section line searches, reproducing
the worst-case constants of both built-in curves.
Both surfaces hold for weight splits only (GainSpec.weight_split, a + b =
1/2): for any other spec simple_bound and improved_bound, and so
minimize_bound, heatmap_rows and stationary_tau, raise SurfaceDomainError.
The module also evaluates the threshold-profile integral, a ratio lower
bound from explicit beta/theta step profiles, as an exact sum over pieces;
it writes u's floor as a(theta) + b(x), so it takes every spec.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from .gains import GainSpec
from .generators import MAX_CELLS
from .numerics import as_real, bisect_boundary, golden_minimize, integrate


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


class ProfileError(ValueError):
    """Invalid threshold profile supplied to the integral evaluator."""


class SurfaceDomainError(ValueError):
    """A bound surface asked of a spec that is no weight split.

    Both surfaces write u's gain at arrival time x against rank theta as
    share(x, theta) = 1 - a(x) - b(theta), while u's offer, and so its
    gain, is a(theta) + b(x): the two agree only where a + b = 1/2.
    """


@dataclass(frozen=True)
class BoundPoint:
    """A (tau, gamma) point of a bound surface and the value there."""

    tau: float
    gamma: float
    value: float


def _check_surface(spec: GainSpec, tau: float, gamma: float) -> None:
    if not spec.weight_split:
        raise SurfaceDomainError(f"the bound surfaces hold only where a + b = 1/2; "
                                 f"the {spec.kind} spec is no weight split")
    if not (0.0 <= tau <= 1.0 and 0.0 <= gamma <= 1.0):
        raise ValueError(f"(tau, gamma) must lie in the unit square: ({tau}, {gamma})")


def simple_bound(spec: GainSpec, tau: float, gamma: float,
                 tol: float = 1e-10) -> float:
    """Corner mass plus one share integral per side.

    The value is exact: int_0^t share(x, y) dx = t (1 - b(y)) - A(t). tol is
    accepted so that every bound_function surface takes the same arguments.
    A spec that is no weight split raises SurfaceDomainError.
    """
    _check_surface(spec, tau, gamma)
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
    Between curve kinks b is convex (the exp curves) or affine (tables),
    so the objective is concave in theta there and its minimum sits at 0,
    gamma, or a kink inside (0, gamma). b(tau), A(gamma) and the
    candidates' b values are set up once per point; each integrand call
    evaluates one piece, through offer_parts_scalar, and folds theta = 0,
    theta = gamma and then the kinks below gamma in that order, keeping
    the first minimum. The outer integral uses adaptive quadrature, so the
    absolute error is bounded by tol. A spec that is no weight split raises
    SurfaceDomainError.
    """
    _check_surface(spec, tau, gamma)
    parts = spec.offer_parts_scalar
    b_tau = parts(tau)[1]
    a_gamma = spec.rank_offer_antideriv(gamma)
    const = 1.0 - a_gamma + gamma * (1.0 - b_tau)
    b_0 = parts(0.0)[1]
    b_gamma = parts(gamma)[1]
    kinks = [(th, parts(th)[1]) for th in spec.curve_breakpoints if 0.0 < th < gamma]

    def inner(x: float) -> float:
        a_x, b_x = parts(x)
        slope = b_tau - b_x
        # theta = 0, gamma, then the kinks: th * slope - b_th, first minimum kept
        low = 0.0 * slope - b_0
        v = gamma * slope - b_gamma
        if v < low:
            low = v
        for th, b_th in kinks:
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
    POLISH_TOL (1e-9). The scan's point, scored at POLISH_TOL too, is
    reported instead when its value is strictly lower, so a minimum on the
    grid is reported there and not near it. Deterministic: ties on the scan
    resolve to the first grid point in row-major order.

    Only the value is a stable output; the minimizer need not be unique.
    For simple-exp the simple surface sits at its minimum 5/4 - e^(-1/2)
    along a whole path in (tau, gamma), (0, 1) -> (1/2, 1) -> (1/2, 1/2)
    -> (1, 1/2) -> (1, 0). The criterion runs (simple-exp on the simple
    surface, half-exp on the improved one) report the scan's (0, 1), with
    the constant itself as the value.
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
    polished = BoundPoint(tau=tau, gamma=gamma, value=f(spec, tau, gamma, tol=POLISH_TOL))
    _, tau, gamma = best
    scan = BoundPoint(tau=tau, gamma=gamma, value=f(spec, tau, gamma, tol=POLISH_TOL))
    return scan if scan.value < polished.value else polished


def heatmap_rows(spec: GainSpec, which: str,
                 grid_n: int) -> Iterator[tuple[float, float, float]]:
    """(tau, gamma, value) rows over a uniform grid, row-major in tau, with
    the surface at quadrature tolerance HEATMAP_TOL, evaluated as they are
    read. The call itself refuses, before any point is evaluated, a grid of
    more than generators.MAX_CELLS points or of fewer than 2 per side, and
    a spec that is no weight split."""
    if grid_n * grid_n > MAX_CELLS:
        raise ValueError(f"grid_n = {grid_n} makes {grid_n * grid_n} points, "
                         f"more than MAX_CELLS = {MAX_CELLS}")
    f = bound_function(which)
    pts = _grid_points(grid_n)
    _check_surface(spec, 0.0, 0.0)
    return ((t, g, f(spec, t, g, tol=HEATMAP_TOL)) for t in pts for g in pts)


def solve_curve_equals_two_t(spec: GainSpec) -> float:
    """Root of curve(t) = 2 t in [0, 1], where curve(t) > 2 t stops
    holding, by bisection to within ROOT_TOL.

    For both built-in exp curves the crossing exists and is unique:
    curve(0) > 0 and curve(1) <= 1 < 2.
    """
    return bisect_boundary(lambda t: spec.curve_scalar(t) > 2.0 * t, 0.0, 1.0, ROOT_TOL)


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
    """Step function on [0, 1]: ys[i] on [xs[i], xs[i+1]), and ys[-1] at 1.0.

    xs are strictly increasing knots from 0.0 to 1.0; len(ys) == len(xs) - 1.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(x) for x in self.xs):
            raise ProfileError(f"profile knots must be finite, got {self.xs!r}")
        if len(self.xs) < 2 or self.xs[0] != 0.0 or self.xs[-1] != 1.0:
            raise ProfileError("knots must run from 0.0 to 1.0")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise ProfileError("knots must be strictly increasing")
        if len(self.ys) != len(self.xs) - 1:
            raise ProfileError(f"expected {len(self.xs) - 1} values for step profile")
        if any(not (0.0 <= y <= 1.0) for y in self.ys):
            raise ProfileError("profile values must lie in [0, 1]")

    def __call__(self, t: float) -> float:
        if not (0.0 <= t <= 1.0):
            raise ProfileError(f"argument outside [0, 1]: {t}")
        return self.ys[min(bisect_right(self.xs, t), len(self.ys)) - 1]

    def to_json_dict(self) -> dict:
        return {"kind": "step", "x": list(self.xs), "y": list(self.ys)}


def piecewise_from_json(obj: Mapping) -> Piecewise:
    try:
        knots = obj["x"], obj["y"]
        if not all(isinstance(k, (list, tuple)) for k in knots):
            raise TypeError("profile x and y must be arrays, not strings")
        xs, ys = (tuple(as_real(t) for t in k) for k in knots)
        kind = obj.get("kind", "step")
    except (KeyError, TypeError, ValueError, AttributeError):
        raise ProfileError(f'malformed profile {obj!r}: want {{"kind": "step", '
                           '"x": [numbers], "y": [numbers]}') from None
    if kind != "step":
        raise ProfileError(f'unknown profile kind {kind!r}: profiles are "step" only')
    return Piecewise(xs=xs, ys=ys)


@dataclass(frozen=True)
class StepProfiles:
    """A (theta, beta) profile pair feeding the ratio integral.

    Pointwise 0 <= beta <= theta <= 1 and beta non-decreasing. Both are
    step functions, so one check per piece of the merged knots is exact.
    """

    theta_fn: Piecewise
    beta_fn: Piecewise

    def __post_init__(self):
        if any(b < a for a, b in zip(self.beta_fn.ys, self.beta_fn.ys[1:])):
            raise ProfileError("beta profile must be non-decreasing")
        for t in sorted(set(self.theta_fn.xs) | set(self.beta_fn.xs)):
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
    """Ratio lower bound from explicit threshold profiles, in closed form.

    Integrates, over the online arrival time, the online side's floor gain
    outside the matched-to band, the full weight of the matched-to band,
    and the offline side's guaranteed gain in the matched-before and
    unmatched-after regions (credited at the inverse-beta marginal rank).
    Conventions: the inverse of beta extends to one at and above
    gamma = beta(1), and a share against a rank-one marginal counts as
    zero, so profiles that never match contribute nothing.

    On each piece of the merged knots theta and beta are constant, so each
    term is exact through A = int a and B = int b.
    """
    theta_fn, beta_fn = profiles.theta_fn, profiles.beta_fn
    parts, a_int = spec.offer_parts_scalar, spec.rank_offer_antideriv
    b_int = spec.time_offer_antideriv
    # v_integral(t) is v's gain over the offline ranks [0, t]. Below gamma
    # that gain is share(y, x_j) = 1 - a(y) - b(x_j), where beta's upper
    # inverse is the knot x_j on [beta_{j-1}, beta_j) (x_0 = 0 below beta_0)
    inverse = [(lo, hi, 1.0 - parts(x)[1])
               for lo, hi, x in zip((0.0, *beta_fn.ys[:-1]), beta_fn.ys, beta_fn.xs)]

    def v_integral(t: float) -> float:
        total = 0.0
        for lo, hi, kept in inverse:
            hi = min(hi, t)
            if hi > lo:
                total += (hi - lo) * kept - (a_int(hi) - a_int(lo))
        return total

    v_all = v_integral(1.0)
    knots = sorted(set(theta_fn.xs) | set(beta_fn.xs))
    total = 0.0
    for x0, x1 in zip(knots, knots[1:]):
        th, be = theta_fn(x0), beta_fn(x0)
        total += (x1 - x0) * ((th - be) + v_integral(be) + v_all - v_integral(th))
        if th < 1.0:
            total += (1.0 - th + be) * ((x1 - x0) * parts(th)[0]
                                        + b_int(x1) - b_int(x0))
    return total
