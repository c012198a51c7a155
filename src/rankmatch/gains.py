"""Gain-sharing specifications.

A GainSpec decides how a matched edge's weight is split between its two
endpoints as a function of their ranks. Every kind is one additive offer
split: an offline vertex v of rank y_v offers an arrival u of arrival time
y_u the amount

    offer = w_v * (a(y_v) + b(y_u)),    share(x, y) = 1 - a(x) - b(y),

where a is the part set by the offline rank and b the part set by the
arrival time, and share is the fraction the offline endpoint keeps. The
curve kinds are built from a non-decreasing curve c on [0, 1] with
0 <= c <= 1 and c' <= c:

    a(y) = (1 - c(y)) / 2,    b(y) = c(y) / 2,

so that share(x, y) = (c(x) + 1 - c(y)) / 2 and share(x, y) + share(y, x) = 1.
Two closed-form curves are provided ("simple-exp" and "half-exp"), plus
monotone piecewise-linear tables for experimentation. Every curve kind
has c' <= c, enforced at construction: the exp curves meet it analytically
(c' = c below the kink, 0 above it), and a table is refused if a segment
climbs faster than the curve value at its left knot. It gives the share
inequality d share/dy = -c'(y)/2 >= share - 1. The "adversarial"
kind is the static-price baseline

    a(y) = 1 - e^(y-1),    b(y) = 0,

so share(x, y) = e^(x-1) ignores the partner's rank entirely; it is not a
weight split (its two shares do not sum to one). Only this module knows how
a kind turns ranks into offers and shares: GainSpec.offer_parts(y) returns
(a(y), b(y)) for scalars or arrays, offer_parts_scalar(y) the same pair for
scalar hot paths, and share_scalar reads the split from them;
offer_inverse(z, part) inverts a or b, and rank_offer_antideriv(t) and
time_offer_antideriv(t) are the antiderivatives A of a and B of b.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import as_real

SIMPLE_EXP = "simple-exp"
HALF_EXP = "half-exp"
ADVERSARIAL = "adversarial"
TABLE = "table"

LN2 = math.log(2.0)


class GainSpecError(ValueError):
    """Invalid gain specification or out-of-domain evaluation."""


def _check_unit(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or np.any(np.isnan(arr)):
        raise GainSpecError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class GainSpec:
    """Immutable description of one gain-sharing rule.

    kind: one of "simple-exp", "half-exp", "adversarial", "table".
    breakpoints/values: only used by the "table" kind: knot positions
    (must start at 0 and end at 1) and curve values at the knots, with
    linear interpolation in between.
    """

    kind: str
    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in (SIMPLE_EXP, HALF_EXP, ADVERSARIAL, TABLE):
            raise GainSpecError(f"unknown gain spec kind {self.kind!r}")
        if self.kind == TABLE:
            xs, ys = self.breakpoints, self.values
            if len(xs) < 2 or len(xs) != len(ys):
                raise GainSpecError("table needs matching breakpoints/values, >= 2 knots")
            if not all(math.isfinite(x) for x in xs):
                raise GainSpecError(f"table breakpoints must be finite, got {xs!r}")
            if xs[0] != 0.0 or xs[-1] != 1.0:
                raise GainSpecError("table breakpoints must start at 0 and end at 1")
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise GainSpecError("table breakpoints must be strictly increasing")
            _check_unit("table values", ys)
            if any(b < a for a, b in zip(ys, ys[1:])):
                raise GainSpecError("table values must be non-decreasing")
            for (x0, x1, y0, y1) in zip(xs, xs[1:], ys, ys[1:]):
                slope = (y1 - y0) / (x1 - x0)
                # the curve is non-decreasing, so its minimum on the segment is y0
                if slope > y0 + 1e-12:
                    raise GainSpecError(
                        f"table slope {slope:.6g} exceeds curve value {y0:.6g} "
                        f"on [{x0:.6g}, {x1:.6g}]")
        elif self.breakpoints or self.values:
            raise GainSpecError(f"{self.kind} takes no breakpoints/values")

    # -- the one-dimensional curve ------------------------------------

    @cached_property
    def curve_breakpoints(self) -> tuple[float, ...]:
        """Interior kinks of the curve; quadrature must split here."""
        if self.kind == SIMPLE_EXP:
            return (0.5,)
        if self.kind == HALF_EXP:
            return (LN2,)
        if self.kind == TABLE:
            return tuple(x for x in self.breakpoints if 0.0 < x < 1.0)
        return ()

    def curve(self, x):
        """Curve value c(x); accepts scalars or numpy arrays in [0, 1]."""
        _check_unit("curve argument", x)
        if self.kind == SIMPLE_EXP:
            return np.minimum(1.0, np.exp(np.asarray(x, dtype=float) - 0.5))
        if self.kind == HALF_EXP:
            return np.minimum(1.0, 0.5 * np.exp(np.asarray(x, dtype=float)))
        if self.kind == TABLE:
            return np.interp(np.asarray(x, dtype=float), self.breakpoints, self.values)
        raise GainSpecError("the adversarial baseline has no underlying curve")

    def curve_scalar(self, x: float) -> float:
        """curve() for scalar hot paths: plain math, no domain validation.

        The exp curves saturate through a conditional rather than min(): the
        same value, without a builtin call per quadrature point.
        """
        if self.kind == SIMPLE_EXP:
            c = math.exp(x - 0.5)
            return c if c < 1.0 else 1.0
        if self.kind == HALF_EXP:
            c = 0.5 * math.exp(x)
            return c if c < 1.0 else 1.0
        if self.kind == TABLE:
            return float(np.interp(x, self.breakpoints, self.values))
        raise GainSpecError("the adversarial baseline has no underlying curve")

    @cached_property
    def _table_cums(self) -> tuple[float, ...]:
        # exact trapezoid cumulative integral of the table curve at the knots
        cums = [0.0]
        for (x0, x1, y0, y1) in zip(self.breakpoints, self.breakpoints[1:],
                                    self.values, self.values[1:]):
            cums.append(cums[-1] + 0.5 * (y0 + y1) * (x1 - x0))
        return tuple(cums)

    def curve_antideriv(self, t: float) -> float:
        """Exact antiderivative of the curve with value 0 at t = 0."""
        if self.kind == SIMPLE_EXP:
            if t <= 0.5:
                return math.exp(t - 0.5) - math.exp(-0.5)
            return (1.0 - math.exp(-0.5)) + (t - 0.5)
        if self.kind == HALF_EXP:
            if t <= LN2:
                return 0.5 * (math.exp(t) - 1.0)
            return 0.5 + (t - LN2)
        # table: cumulative at the enclosing knot plus a partial trapezoid
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        i = min(max(i, 0), len(self.breakpoints) - 2)
        x0, x1 = self.breakpoints[i], self.breakpoints[i + 1]
        y0, y1 = self.values[i], self.values[i + 1]
        frac = (t - x0) / (x1 - x0)
        yt = y0 + (y1 - y0) * frac
        return self._table_cums[i] + 0.5 * (y0 + yt) * (t - x0)

    # -- the additive offer split -------------------------------------

    def offer_parts(self, y):
        """(a(y), b(y)): the parts of the offer set by the offline rank y
        and by the arrival time y; accepts scalars or numpy arrays in [0, 1]."""
        if self.kind == ADVERSARIAL:
            _check_unit("offer argument", y)
            return 1.0 - np.exp(np.asarray(y, dtype=float) - 1.0), np.zeros(np.shape(y))
        c = self.curve(y)
        return 0.5 * (1.0 - c), 0.5 * c

    def offer_parts_scalar(self, y: float) -> tuple[float, float]:
        """offer_parts() for scalar hot paths: one curve evaluation, plain
        math, no domain validation."""
        if self.kind == ADVERSARIAL:
            return 1.0 - math.exp(y - 1.0), 0.0
        c = self.curve_scalar(y)
        return 0.5 * (1.0 - c), 0.5 * c

    def offer_inverse(self, z, part: int):
        """The y with offer_parts(y)[part] = z: a^-1 for part 0, b^-1 for
        part 1, over scalars or numpy arrays. A value taken on a flat
        stretch of the curve maps onto an end of the stretch. A value that
        no y in [0, 1] gives maps to nan, to a point outside (0, 1), or,
        past the top of an exp curve, onto its kink. The adversarial b is
        constant: nan."""
        z = np.asarray(z, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.kind == ADVERSARIAL:
                return np.full(z.shape, np.nan) if part else 1.0 + np.log(1.0 - z)
            c = 2.0 * z if part else 1.0 - 2.0 * z
            if self.kind == TABLE:
                return np.interp(c, self.values, self.breakpoints)
            log_c = np.log(np.minimum(c, 1.0))
            return log_c + 0.5 if self.kind == SIMPLE_EXP else log_c + LN2

    def rank_offer_antideriv(self, t: float) -> float:
        """Exact antiderivative A of a, the rank part of the offer, with A(0) = 0."""
        if self.kind == ADVERSARIAL:
            return t - math.exp(t - 1.0) + math.exp(-1.0)
        return 0.5 * (t - self.curve_antideriv(t))

    def time_offer_antideriv(self, t: float) -> float:
        """Exact antiderivative B of b, the arrival-time part, with B(0) = 0."""
        if self.kind == ADVERSARIAL:
            return 0.0
        return 0.5 * self.curve_antideriv(t)

    # -- the two-dimensional share ------------------------------------

    def share_scalar(self, x: float, y: float) -> float:
        """Fraction of the matched weight kept by the rank-x endpoint when
        its partner has rank y: plain math, no domain validation."""
        return 1.0 - self.offer_parts_scalar(x)[0] - self.offer_parts_scalar(y)[1]

    # -- serialization --------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == TABLE:
            out["breakpoints"] = list(self.breakpoints)
            out["values"] = list(self.values)
        return out


def simple_exp() -> GainSpec:
    """Curve min(1, e^(x - 1/2)); kink at 1/2."""
    return GainSpec(SIMPLE_EXP)


def half_exp() -> GainSpec:
    """Curve min(1, e^x / 2); kink at ln 2."""
    return GainSpec(HALF_EXP)


def adversarial_baseline() -> GainSpec:
    """Static-price baseline share(x, y) = e^(x-1), independent of y."""
    return GainSpec(ADVERSARIAL)


def piecewise_table(breakpoints, values) -> GainSpec:
    """Monotone piecewise-linear curve from knots, converted to floats."""
    return GainSpec(TABLE, tuple(float(x) for x in breakpoints),
                    tuple(float(v) for v in values))


_NAMED = {SIMPLE_EXP: simple_exp, HALF_EXP: half_exp, ADVERSARIAL: adversarial_baseline}


def _table_knots(obj: Mapping, key: str) -> list[float]:
    knots = obj.get(key, ())
    try:
        if isinstance(knots, (list, tuple)):   # a string is not a list of digits
            return [as_real(x) for x in knots]
    except TypeError:
        pass
    raise GainSpecError(f"table spec {key} must be a list of numbers, got {knots!r}")


def gain_spec_from_json(obj: Mapping) -> GainSpec:
    """Build a GainSpec from parsed {"kind": ...} data (optionally with
    table knots)."""
    if not isinstance(obj, Mapping):
        raise GainSpecError(f'gain spec must be an object {{"kind": ...}}, got {obj!r}')
    kind = obj.get("kind")
    if kind == TABLE:
        return piecewise_table(_table_knots(obj, "breakpoints"),
                               _table_knots(obj, "values"))
    if not isinstance(kind, str) or kind not in _NAMED:
        raise GainSpecError(f"unknown gain spec kind {kind!r}")
    return _NAMED[kind]()


def named_spec(name: str) -> GainSpec:
    """Look up one of the built-in spec names used on the command line."""
    if name not in _NAMED:
        raise GainSpecError(f"unknown gain spec name {name!r}")
    return _NAMED[name]()
