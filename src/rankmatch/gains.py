"""Gain-sharing specifications.

A GainSpec decides how a matched edge's weight is split between its two
endpoints as a function of their ranks. Every kind is one additive offer
split: an offline vertex v of rank y_v offers an arrival u of arrival time
y_u the amount

    offer = w_v * (a(y_v) + b(y_u)),    share(x, y) = 1 - a(x) - b(y),

where share is the fraction the offline endpoint keeps. The curve kinds
("simple-exp", "half-exp" and monotone piecewise-linear tables) take
a = (1 - c) / 2 and b = c / 2 for a non-decreasing curve c on [0, 1] with
0 <= c <= 1 and c' <= c, so share(x, y) + share(y, x) = 1. The
"adversarial" static-price baseline takes a(y) = 1 - e^(y-1) and b = 0:
share(x, y) = e^(x-1) ignores the partner's rank and is no weight split.

Each kind is written once, as the pieces (x0, s, r, p, t) of one function
f, s + r (y - x0) + p e^(y + t) from x0 to the next piece, and a map
a = a0 + a1 f, b = b0 + b1 f. For the curve kinds f is c: an exp curve is
one exp piece and then the constant 1, a table one affine piece per
segment with np.interp's slope. For the adversarial kind f is a, one exp
piece. The rest is generic: a and b by two evaluators (offer_parts_scalar,
the reference, and offer_parts, its values over arrays bit for bit;
curve_scalar is 2 b), A = int a and B = int b from a running total at each
piece start (rank_offer_antideriv, time_offer_antideriv), a^-1 and b^-1
(offer_inverse), the kinks (curve_breakpoints), whether a never rises in
floats (rank_offer_non_increasing), and c' <= c, which gives
d share/dy = -c'(y)/2 >= share - 1: r <= s on every piece, so a table is
refused if a segment climbs faster than its left-knot value.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .numerics import as_array, as_object, as_real, is_object

SIMPLE_EXP = "simple-exp"
HALF_EXP = "half-exp"
ADVERSARIAL = "adversarial"
TABLE = "table"

LN2 = math.log(2.0)

# f's pieces (x0, s, r, p, t) for the closed-form kinds: each is affine
# (p = 0) or s + p e^(y + t) (r = 0), and f increases over the piece starts
_PIECES = {
    SIMPLE_EXP: ((0.0, 0.0, 0.0, 1.0, -0.5), (0.5, 1.0, 0.0, 0.0, 0.0)),
    HALF_EXP: ((0.0, 0.0, 0.0, 0.5, 0.0), (LN2, 1.0, 0.0, 0.0, 0.0)),
    ADVERSARIAL: ((0.0, 1.0, 0.0, -1.0, -1.0),),
}
# ((a0, a1), (b0, b1)), for a = a0 + a1 f and b = b0 + b1 f
_CURVE_SPLIT = ((0.5, -0.5), (0.0, 0.5))
_SPLITS = {ADVERSARIAL: ((0.0, 1.0), (0.0, 0.0))}
# values per math.exp pass of offer_parts: each pass makes one list of
# Python floats, so a chunk bounds that list's memory
EXP_CHUNK = 4096


class GainSpecError(ValueError):
    """Invalid gain specification or out-of-domain evaluation."""


def _check_unit(name: str, value) -> np.ndarray:
    """value as a float array, refused unless every entry lies in [0, 1]."""
    arr = np.asarray(value, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():     # nan fails both
        raise GainSpecError(f"{name} must lie in [0, 1], got {value!r}")
    return arr


def _antiderivative(part: int, doc: str):
    """GainSpec's A (part 0) or B (part 1): one body, no inner call."""
    def antideriv(self, y: float) -> float:
        for row in self._rows:
            if y < row[0]:
                break
        _, x0, s, r, p, t, _, _, _, _, a0, a1, b0, b1, total, q = row
        h = y - x0
        f_int = total + s * h
        if r:
            f_int = f_int + 0.5 * r * h * h
        if p:
            f_int = f_int + p * math.exp(y + t) - q
        return a0 * y + a1 * f_int if part == 0 else b0 * y + b1 * f_int
    antideriv.__doc__ = doc
    return antideriv


def _sign(x: float) -> int:
    return (x > 0.0) - (x < 0.0)


def _rank_offer_falls(spec: GainSpec, a1: float) -> bool:
    """GainSpec.rank_offer_non_increasing from the spec's rows and a = a0 +
    a1 f: a's slope, of the sign of a1 r or a1 p (signs, as a product could
    round to 0), is <= 0 on every piece, and at each piece end but the
    last, a at the float below the end is >= a at the end. a is
    offer_parts_scalar's, in plain floats, so that building a spec runs no
    numpy routine."""
    parts = spec.offer_parts_scalar
    return (all(_sign(a1) * _sign(slope) <= 0
                for _, _, _, r, p, *_ in spec._rows for slope in (r, p))
            and all(parts(math.nextafter(end, -math.inf))[0] >= parts(end)[0]
                    for end, *_ in spec._rows[:-1]))


@dataclass(frozen=True)
class GainSpec:
    """Immutable description of one gain-sharing rule.

    kind: one of "simple-exp", "half-exp", "adversarial", "table".
    breakpoints/values: only used by the "table" kind: knot positions
    (must start at 0 and end at 1) and curve values at the knots, with
    linear interpolation in between.

    Built with the spec, as float tuples: pieces (f's, by increasing x0
    from 0) and curve_breakpoints (where quadrature must split). The
    evaluators' array tables are read-only; numpy unpickles arrays writable,
    so a spec pickles as its three fields and is rebuilt on load.
    weight_split, read off the map from f to a and b, says whether a + b =
    1/2 for every f, so that share(x, y) + share(y, x) = 1: true for the
    curve kinds, false for the adversarial one.

    rank_offer_non_increasing says that a, as evaluated in floats, never
    rises with y on [0, 1], so that on equal weights the highest offer is
    the free neighbour of smallest rank. It is worked out once, at
    construction, in two checks. On every piece a1 and the piece's r (affine) or p (exp)
    differ in sign or one is 0, so a's slope a1 r or a1 p is <= 0: inside
    an affine piece the evaluated a is then monotone, as correctly rounded
    + and * by a fixed constant are; inside an exp piece that relies on
    math.exp being non-decreasing, which IEEE 754 does not promise (a test
    checks it over the built-in pieces' arguments). And at every piece end
    x1 where another piece starts, 1 included, a at the float just below
    x1 is >= a at x1, compared exactly. Every built-in spec passes.
    """

    kind: str
    breakpoints: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in (SIMPLE_EXP, HALF_EXP, ADVERSARIAL, TABLE):
            raise GainSpecError(f"unknown gain spec kind {self.kind!r}")
        xs, ys = self.breakpoints, self.values
        if self.kind == TABLE:
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
            # np.interp's slope per segment, and its last value from 1 on
            pieces = (*((x0, y0, (y1 - y0) / (x1 - x0), 0.0, 0.0)
                        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])),
                      (1.0, ys[-1], 0.0, 0.0, 0.0))
        elif xs or ys:
            raise GainSpecError(f"{self.kind} takes no breakpoints/values")
        else:
            pieces = _PIECES[self.kind]
        # per piece, for the scalar paths: its end, the piece, a's and b's own
        # constant and exp coefficients, the map, and F0 = int_0^x0 f and
        # q = p e^(x0 + t): int_0^y f = F0 + s h + r h^2 / 2 + p e^(y + t) - q;
        # _cols holds the first ten as contiguous arrays, for offer_parts
        split = (a0, a1), (b0, b1) = _SPLITS.get(self.kind, _CURVE_SPLIT)
        rows, total = [], 0.0
        for (x0, s, r, p, t), x1 in zip(pieces, (*(x0 for x0, *_ in pieces[1:]), 1.0)):
            if r > s + 1e-12:      # f is non-decreasing, so s is its minimum
                raise GainSpecError(f"table slope {r:.6g} exceeds curve value {s:.6g} "
                                    f"on [{x0:.6g}, {x1:.6g}]")
            q = p * math.exp(x0 + t)
            rows.append((x1, x0, s, r, p, t, a0 + a1 * s, a1 * p, b0 + b1 * s, b1 * p,
                         a0, a1, b0, b1, total, q))
            h = x1 - x0
            total = total + s * h + 0.5 * r * h * h + p * math.exp(x1 + t) - q
        # offer_inverse inverts an affine piece by np.interp's slope between
        # its ends, an exp one by p's sign and log|p| + t
        _, x0, s, r, p, t, *_ = cols = tuple(map(np.array, list(zip(*rows))[:10]))
        with np.errstate(divide="ignore", invalid="ignore"):
            inverse = (x0, s, np.where(r != 0.0, (np.append(x0[1:], 1.0) - x0) / (
                np.append(s[1:], s[-1]) - s), 0.0), np.sign(p), np.log(np.abs(p)) + t)
        for arr in (*cols, *inverse[2:]):
            arr.setflags(write=False)
        for name, value in (("pieces", pieces), ("_split", split), ("_rows", tuple(rows)),
                            ("weight_split", a0 + b0 == 0.5 and a1 + b1 == 0.0),
                            ("_cols", cols), ("_inverse", inverse),
                            ("curve_breakpoints", tuple(x for x, *_ in pieces if 0 < x < 1))):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "rank_offer_non_increasing", _rank_offer_falls(self, a1))

    def __reduce__(self):
        return GainSpec, (self.kind, self.breakpoints, self.values)

    # -- the curve ----------------------------------------------------

    def curve_scalar(self, x: float) -> float:
        """Curve value c(x) = 2 b(x): plain math, no domain validation."""
        if self.kind == ADVERSARIAL:
            raise GainSpecError("the adversarial baseline has no underlying curve")
        return 2.0 * self.offer_parts_scalar(x)[1]      # b = c / 2

    # -- the additive offer split -------------------------------------

    def offer_parts_scalar(self, y: float) -> tuple[float, float]:
        """offer_parts() for scalar hot paths, no domain validation: an exp
        piece by a's and b's own coefficients, an affine one through f.
        The row's fields are read by index, as unpacking all sixteen costs
        more than the call's arithmetic."""
        for row in self._rows:
            if y < row[0]:
                break
        if row[4]:      # p: sa + pa e, sb + pb e for e = e^(y + t)
            e = math.exp(y + row[5])
            return row[6] + row[7] * e, row[8] + row[9] * e
        if row[3]:      # r: a0 + a1 f, b0 + b1 f for f = s + r (y - x0)
            f = row[2] + row[3] * (y - row[1])
            return row[10] + row[11] * f, row[12] + row[13] * f
        return row[6], row[8]

    def offer_parts(self, y) -> tuple[np.ndarray, np.ndarray]:
        """(a(y), b(y)): the parts of the offer set by the offline rank y
        and by the arrival time y, as float arrays of y's shape; y is a
        scalar or a numpy array in [0, 1]. Bit for bit offer_parts_scalar:
        each value's piece by the scalar y < end rule, affine maps by numpy
        + and * (rounded as Python floats are), and math.exp, EXP_CHUNK
        values at a time, on exp pieces only, as numpy's exp can differ
        from it by an ulp."""
        y = _check_unit("rank or time", y)
        flat = y.ravel()
        ends, x0, s, r, p, t, sa, pa, sb, pb = self._cols
        i = np.searchsorted(ends, flat, "right")
        np.minimum(i, ends.size - 1, out=i)
        (a0, a1), (b0, b1) = self._split
        # in place, as + and * commute exactly: a = a0 + a1 f and b = b0 +
        # b1 f for f = s + r (y - x0)
        a = flat - x0[i]
        a *= r[i]
        a += s[i]
        b = b1 * a
        b += b0
        a *= a1
        a += a0
        for c in range(0, flat.size, EXP_CHUNK):
            at = c + np.flatnonzero(p[i[c:c + EXP_CHUNK]])
            k = i[at]
            e = np.fromiter(map(math.exp, (flat[at] + t[k]).tolist()), float, at.size)
            a[at] = sa[k] + pa[k] * e
            b[at] = sb[k] + pb[k] * e
        return a.reshape(y.shape), b.reshape(y.shape)

    def offer_inverse(self, z, part: int):
        """The y with offer_parts(y)[part] = z (a^-1, b^-1) over scalars or
        arrays. A flat stretch's value maps onto an end of it. A value no y in
        [0, 1] gives maps to nan, outside (0, 1), or, past the top of an exp
        curve, onto its kink. The adversarial b is constant: nan."""
        z = np.asarray(z, dtype=float)
        k0, k1 = self._split[part]
        if not k1:
            return np.full(z.shape, np.nan)
        if not z.size:
            return np.empty(z.shape)
        x0, s, slope, sign, log_p = self._inverse
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (z - k0) / k1
            i = np.clip(np.searchsorted(s, f, "right") - 1, 0, s.size - 1)
            d = f - s[i]
            return np.where(sign[i] != 0.0, np.log(d * sign[i]) - log_p[i],
                            slope[i] * d + x0[i])

    rank_offer_antideriv = _antiderivative(
        0, "Exact antiderivative A of a, the rank part of the offer, with A(0) = 0.")
    time_offer_antideriv = _antiderivative(
        1, "Exact antiderivative B of b, the arrival-time part, with B(0) = 0.")

    def share_scalar(self, x: float, y: float) -> float:
        """Fraction of the matched weight kept by the rank-x endpoint when
        its partner has rank y: plain math, no domain validation."""
        return 1.0 - self.offer_parts_scalar(x)[0] - self.offer_parts_scalar(y)[1]

    def to_json_dict(self) -> dict:
        if self.kind == TABLE:
            return {"kind": TABLE, "breakpoints": list(self.breakpoints),
                    "values": list(self.values)}
        return {"kind": self.kind}


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
        return [as_real(x) for x in as_array(knots)]
    except TypeError:
        raise GainSpecError(f"table spec {key} must be a list of numbers, got {knots!r}") from None


def gain_spec_from_json(obj: Mapping) -> GainSpec:
    """Build a GainSpec from parsed {"kind": ...} data, with breakpoints
    and values for a table; a key the kind does not read is refused."""
    table_keys = ("kind", "breakpoints", "values")
    kind = obj.get("kind") if is_object(obj) else None
    if kind not in (*_NAMED, TABLE):    # refuse a non-object or a stray key, else the kind
        as_object(obj, table_keys, GainSpecError, "a gain spec")
        raise GainSpecError(f"unknown gain spec kind {kind!r}")
    as_object(obj, table_keys if kind == TABLE else ("kind",), GainSpecError, f"a {kind} spec")
    if kind == TABLE:
        return piecewise_table(_table_knots(obj, "breakpoints"),
                               _table_knots(obj, "values"))
    return _NAMED[kind]()


def named_spec(name: str) -> GainSpec:
    """Look up one of the built-in spec names used on the command line."""
    if name not in _NAMED:
        raise GainSpecError(f"unknown gain spec name {name!r}")
    return _NAMED[name]()
