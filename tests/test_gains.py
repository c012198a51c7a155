import json
import math
import pickle

import numpy as np
import pytest

from rankmatch.bounds import improved_bound
from rankmatch.gains import (ADVERSARIAL, EXP_CHUNK, LN2, TABLE, GainSpec, GainSpecError,
                             adversarial_baseline, gain_spec_from_json, half_exp,
                             named_spec, piecewise_table, simple_exp)

ALL_SPLIT_SPECS = [simple_exp(), half_exp(),
                   piecewise_table((0.0, 0.5, 1.0), (0.3, 0.45, 0.6))]


def test_curve_values_simple_exp():
    s = simple_exp()
    assert s.curve_scalar(0.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert s.curve_scalar(0.0) == pytest.approx(0.6065306597126334, abs=1e-15)
    assert s.curve_scalar(0.5) == 1.0
    assert s.curve_scalar(0.75) == 1.0


def test_curve_values_half_exp():
    s = half_exp()
    assert s.curve_scalar(0.0) == 0.5
    assert s.curve_scalar(LN2) == 1.0
    assert s.curve_scalar(0.5) == pytest.approx(0.8243606353500641, abs=1e-15)


def test_share_on_diagonal_is_half():
    for spec in ALL_SPLIT_SPECS:
        for x in (0.0, 0.123, 0.5, LN2, 0.9, 1.0):
            assert spec.share_scalar(x, x) == pytest.approx(0.5, abs=1e-15)


def test_share_example_half_exp():
    assert half_exp().share_scalar(0.0, 1.0) == pytest.approx(0.25, abs=1e-15)


def share_grid(spec, pts):
    """share(x, y) = 1 - a(x) - b(y) from offer_parts, x down the rows and
    y along the columns."""
    a, b = spec.offer_parts(pts)
    return 1.0 - a[:, None] - b[None, :]


def test_share_symmetry_identity_on_grid():
    pts = np.linspace(0.0, 1.0, 200)
    for spec in ALL_SPLIT_SPECS:
        g = share_grid(spec, pts)
        assert np.max(np.abs(g + g.T - 1.0)) <= 1e-15


def test_share_monotone_and_in_range_on_grid():
    pts = np.linspace(0.0, 1.0, 200)
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        g = share_grid(spec, pts)
        assert np.all(g >= 0.0) and np.all(g <= 1.0)
        assert np.all(np.diff(g, axis=0) >= -1e-15)   # non-decreasing in x
        assert np.all(np.diff(g, axis=1) <= 1e-15)    # non-increasing in y


def test_adversarial_ignores_partner_rank():
    s = adversarial_baseline()
    assert s.share_scalar(0.3, 0.1) == s.share_scalar(0.3, 0.9)
    assert s.share_scalar(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # not a weight split: the two endpoints' shares do not sum to one
    assert s.share_scalar(0.3, 0.8) + s.share_scalar(0.8, 0.3) != pytest.approx(1.0)
    with pytest.raises(GainSpecError):
        s.curve_scalar(0.5)


def test_domain_validation():
    s = half_exp()
    with pytest.raises(GainSpecError):
        s.offer_parts(1.5)
    with pytest.raises(GainSpecError):
        s.offer_parts(-0.1)


def curve_of(spec):
    """The curve c = 2 b of a curve kind, over arrays."""
    return lambda y: 2.0 * spec.offer_parts(y)[1]


def test_curve_integral_matches_quadrature():
    # independent oracle: high-resolution midpoint sums; int c = 2 B
    for spec in ALL_SPLIT_SPECS:
        for a, b in [(0.0, 1.0), (0.2, 0.9), (0.45, 0.55)]:
            n = 400_000
            xs = a + (np.arange(n) + 0.5) * (b - a) / n
            mid = float(np.sum(curve_of(spec)(xs))) * (b - a) / n
            exact = 2.0 * (spec.time_offer_antideriv(b) - spec.time_offer_antideriv(a))
            assert exact == pytest.approx(mid, abs=5e-9)


def test_rank_offer_antideriv_matches_quadrature():
    # time_offer_antideriv too: A and B against midpoint sums of a and b
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        n = 400_000
        xs = (np.arange(n) + 0.5) / n * 0.8
        a_mid, b_mid = (float(np.sum(part)) * 0.8 / n for part in spec.offer_parts(xs))
        assert spec.rank_offer_antideriv(0.8) == pytest.approx(a_mid, abs=5e-9)
        assert spec.time_offer_antideriv(0.8) == pytest.approx(b_mid, abs=5e-9)


STEEP = ((0.0, 0.5, 0.55, 1.0), (0.2, 0.2, 0.9, 0.9))


def share_inequality_defect(curve, kinks, rng):
    """Largest (share(x, y) - 1) - d share/dy over a grid of x and random y,
    for share = (c(x) + 1 - c(y)) / 2, with d share/dy = -c'(y) / 2 from a
    one-sided difference that never crosses a kink."""
    h = 1e-7
    ys = rng.uniform(h, 1.0 - h, 400)
    ys = ys[[all(abs(y - k) > 2 * h for k in kinks) for y in ys]]
    dshare_dy = -0.5 * (curve(ys + h) - curve(ys)) / h
    xs = np.linspace(0.0, 1.0, 101)
    share = 0.5 * (curve(xs)[:, None] + 1.0 - curve(ys)[None, :])
    return float(np.max(share - 1.0 - dshare_dy[None, :]))


def slope_valid_table(rng):
    """Random table whose every segment climbs at most its left-knot value,
    some right at that limit; many end below 1."""
    xs = [0.0, *np.sort(rng.uniform(0.0, 1.0, rng.integers(0, 5))).tolist(), 1.0]
    ys = [float(rng.uniform(0.0, 1.0))]
    for x0, x1 in zip(xs, xs[1:]):
        slope = ys[-1] if rng.random() < 0.3 else rng.uniform(0.0, ys[-1])
        ys.append(min(1.0, ys[-1] + slope * (x1 - x0)))
    return GainSpec(TABLE, tuple(xs), tuple(ys))


def test_share_inequality_holds_on_every_accepted_curve():
    rng = np.random.default_rng(15)
    tables = [slope_valid_table(rng) for _ in range(250)]
    assert sum(t.values[-1] < 1.0 for t in tables) >= 50
    for spec in [simple_exp(), half_exp(), *tables]:
        assert share_inequality_defect(curve_of(spec), spec.curve_breakpoints, rng) <= 1e-6
    # the oracle does see a curve that climbs faster than its own value
    def steep(y):
        return np.interp(y, *STEEP)
    assert share_inequality_defect(steep, STEEP[0][1:-1], rng) > 0.1


def test_improved_bound_at_the_corner_is_set_by_the_curve_integral():
    # improved_bound(spec, 0, 1) = 1/2 + (int c - c(0))/2 <= 1 - ln2/2, with
    # equality for half-exp: no curve beats half-exp at this corner
    rng = np.random.default_rng(16)
    closed = [(simple_exp(), math.exp(-0.5), (1.0 - math.exp(-0.5)) + 0.5),
              (half_exp(), 0.5, 0.5 + (1.0 - LN2))]
    for _ in range(250):
        t = slope_valid_table(rng)
        area = sum(0.5 * (y0 + y1) * (x1 - x0) for x0, x1, y0, y1 in
                   zip(t.breakpoints, t.breakpoints[1:], t.values, t.values[1:]))
        closed.append((t, t.values[0], area))
    ceiling = 1.0 - LN2 / 2.0
    for spec, c0, area in closed:
        value = improved_bound(spec, 0.0, 1.0)
        assert value == pytest.approx(0.5 + (area - c0) / 2.0, abs=1e-15)
        assert value <= ceiling + 1e-15
    assert improved_bound(half_exp(), 0.0, 1.0) == pytest.approx(ceiling, abs=1e-15)


def test_table_slope_check_rejects_by_default():
    # every way in refuses the steep table with the same message
    message = r"table slope 14 exceeds curve value 0\.2 on \[0\.5, 0\.55\]"
    with pytest.raises(GainSpecError, match=message):
        piecewise_table(*STEEP)
    with pytest.raises(GainSpecError, match=message):
        GainSpec(TABLE, *STEEP)
    with pytest.raises(GainSpecError, match=message):
        gain_spec_from_json({"kind": "table", "breakpoints": list(STEEP[0]),
                             "values": list(STEEP[1])})


def test_table_slope_is_checked_against_the_left_knot_value():
    # slope 0.5 on [0, 0.5] equals the value 0.5 at its left knot
    assert GainSpec(TABLE, (0.0, 0.5, 1.0), (0.5, 0.75, 1.0)).values == (0.5, 0.75, 1.0)
    # slope 0.6 lies between the values 0.4 and 0.7 at the segment's two ends
    with pytest.raises(GainSpecError,
                       match=r"table slope 0\.6 exceeds curve value 0\.4 on \[0, 0\.5\]"):
        GainSpec(TABLE, (0.0, 0.5, 1.0), (0.4, 0.7, 0.7))


def test_table_validation():
    with pytest.raises(GainSpecError):
        piecewise_table((0.0, 1.0), (0.9, 0.1))          # decreasing
    with pytest.raises(GainSpecError):
        piecewise_table((0.1, 1.0), (0.1, 0.2))          # must start at 0
    with pytest.raises(GainSpecError):
        piecewise_table((0.0, 0.5, 1.0), (0.0, 1.5, 1.0))  # out of range
    with pytest.raises(GainSpecError):
        GainSpec("half-exp", breakpoints=(0.5,))          # extras forbidden


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_breakpoints(bad):
    # NaN passes every ordering comparison, so it needs its own check
    for make in (piecewise_table, lambda xs, ys: GainSpec(TABLE, xs, ys)):
        with pytest.raises(GainSpecError, match="breakpoints must be finite"):
            make((0.0, bad, 1.0), (0.5, 0.5, 1.0))
    with pytest.raises(GainSpecError, match="breakpoints must be finite"):
        gain_spec_from_json({"kind": "table", "breakpoints": [0.0, bad, 1.0],
                             "values": [0.5, 0.5, 1.0]})


def test_json_round_trip():
    for spec in [simple_exp(), half_exp(), adversarial_baseline(),
                 piecewise_table((0.0, 0.4, 1.0), (0.4, 0.5, 0.6))]:
        back = gain_spec_from_json(json.loads(json.dumps(spec.to_json_dict())))
        assert back == spec


def test_named_spec_lookup():
    assert named_spec("half-exp") == half_exp()
    with pytest.raises(GainSpecError):
        named_spec("nope")


def test_scalar_paths_match_array_paths():
    rng = np.random.default_rng(1)
    xs = rng.random(500)
    ys = rng.random(500)
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        if spec.kind != ADVERSARIAL:
            cs = np.array([spec.curve_scalar(float(x)) for x in xs])
            assert np.max(np.abs(cs - curve_of(spec)(xs))) <= 2e-16
        ss = np.array([spec.share_scalar(float(x), float(y))
                       for x, y in zip(xs, ys)])
        a, b = spec.offer_parts(xs)[0], spec.offer_parts(ys)[1]
        assert np.max(np.abs(ss - (1.0 - a - b))) <= 5e-16
        parts = spec.offer_parts(xs)
        parts_scalar = np.array([spec.offer_parts_scalar(float(x)) for x in xs])
        for k in (0, 1):
            assert np.max(np.abs(parts_scalar[:, k] - parts[k])) <= 2e-16


def test_offer_inverse_undoes_offer_parts():
    ys = np.linspace(0.0, 1.0, 257)
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        for part in (0, 1):
            z = spec.offer_parts(ys)[part]
            y = spec.offer_inverse(z, part)
            if spec.kind == ADVERSARIAL and part == 1:
                assert np.all(np.isnan(y))     # b = 0 is constant
                continue
            # on a flat stretch y is an end of it; elsewhere y is ys
            again = spec.offer_parts(np.clip(y, 0.0, 1.0))[part]
            assert np.max(np.abs(again - z)) <= 1e-15
            moving = (np.diff(z, prepend=np.nan) != 0) & (np.diff(z, append=np.nan) != 0)
            assert np.max(np.abs(y - ys)[moving]) <= 1e-13
            # values no rank gives land where a cut changes nothing
            lo, hi = np.min(z), np.max(z)
            for far in spec.offer_inverse(np.array([lo - 0.01, hi + 0.01]), part):
                assert not 0.0 < far < 1.0 or far in spec.curve_breakpoints


def test_offer_inverse_of_no_values_keeps_shape_and_dtype():
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        for part in (0, 1):
            for z in ([], np.zeros((0, 3)), np.zeros((2, 0), dtype=int)):
                y = spec.offer_inverse(z, part)
                assert y.shape == np.shape(z) and y.dtype == np.float64


def test_offer_split_reproduces_unsplit_offers_bit_for_bit():
    # reference: the offers written out per kind, without the a + b split
    rng = np.random.default_rng(2)
    n = 20_000
    w, y_v, y_u = 10.0 * rng.random(n), rng.random(n), rng.random(n)
    for spec in ALL_SPLIT_SPECS + [adversarial_baseline()]:
        if spec.kind != ADVERSARIAL:
            curve = curve_of(spec)
            want = w * 0.5 * (1.0 - curve(y_v) + curve(y_u))
            want_scalar = [wi * 0.5 * (1.0 - spec.curve_scalar(a) + spec.curve_scalar(b))
                           for wi, a, b in zip(w.tolist(), y_v.tolist(), y_u.tolist())]
        else:
            want = w * np.array([1.0 - math.exp(a - 1.0) for a in y_v.tolist()])
            want_scalar = [wi * (1.0 - math.exp(a - 1.0)) for wi, a in
                           zip(w.tolist(), y_v.tolist())]
        got = w * (spec.offer_parts(y_v)[0] + spec.offer_parts(y_u)[1])
        assert np.array_equal(got, want)
        got_scalar = [wi * (spec.offer_parts_scalar(a)[0] + spec.offer_parts_scalar(b)[1])
                      for wi, a, b in zip(w.tolist(), y_v.tolist(), y_u.tolist())]
        assert got_scalar == want_scalar


def unit_grid_with_kinks(spec):
    """A grid on [0, 1] holding 0, 1, every kink and its float neighbours."""
    kinks = [0.5, LN2, *spec.curve_breakpoints]
    ys = [i / 200 for i in range(201)] + kinks
    ys += [math.nextafter(k, 0.0) for k in kinks] + [math.nextafter(k, 1.0) for k in kinks]
    return ys + np.random.default_rng(4).random(200).tolist()


@pytest.mark.parametrize("spec, saturated", [
    (simple_exp(), lambda x: min(1.0, math.exp(x - 0.5))),
    (half_exp(), lambda x: min(1.0, 0.5 * math.exp(x))),
], ids=["simple-exp", "half-exp"])
def test_curve_scalar_is_the_saturated_exp_bit_for_bit(spec, saturated):
    for x in unit_grid_with_kinks(spec):
        assert spec.curve_scalar(x).hex() == saturated(x).hex()


@pytest.mark.parametrize("spec", ALL_SPLIT_SPECS + [adversarial_baseline()],
                         ids=lambda spec: spec.kind)
def test_offer_parts_scalar_is_both_offer_parts_bit_for_bit(spec):
    # reference: a(y) and b(y) written out per kind, each on its own
    if spec.kind == ADVERSARIAL:
        def want(y):
            return 1.0 - math.exp(y - 1.0), 0.0
    else:
        def want(y):
            return 0.5 * (1.0 - spec.curve_scalar(y)), 0.5 * spec.curve_scalar(y)
    for y in unit_grid_with_kinks(spec):
        got = [v.hex() for v in spec.offer_parts_scalar(y)]
        assert got == [v.hex() for v in want(y)]


@pytest.mark.parametrize("spec", ALL_SPLIT_SPECS + [adversarial_baseline()],
                         ids=lambda spec: spec.kind)
def test_offer_parts_exact_is_offer_parts_scalar_bit_for_bit(spec):
    # offer_parts, the exact array evaluator, is offer_parts_scalar value by
    # value: on the grid with its kinks, every table knot and the top float
    # below 1, then random values up to three math.exp chunks, so chunk seams
    # fall inside the array; once flat and once as a 2-D block
    ys = unit_grid_with_kinks(spec) + [*spec.breakpoints, math.nextafter(1.0, 0.0)]
    ys += np.random.default_rng(6).random(3 * EXP_CHUNK - len(ys)).tolist()
    want = [[v.hex() for v in spec.offer_parts_scalar(y)] for y in ys]
    for y in (np.array(ys), np.array(ys).reshape(96, -1)):
        a, b = spec.offer_parts(y)
        assert a.shape == b.shape == y.shape
        assert [[x.hex(), z.hex()] for x, z in zip(a.ravel().tolist(),
                                                   b.ravel().tolist())] == want


@pytest.mark.parametrize("spec", ALL_SPLIT_SPECS + [adversarial_baseline()],
                         ids=lambda spec: spec.kind)
def test_offer_parts_is_both_offer_parts_bit_for_bit(spec):
    # reference: offer_parts_scalar value by value on the grid with its
    # kinks; float arrays of the input's shape for a column, 0-d and
    # np.float64; the [0, 1] domain check on 1.5 and on nan
    ys = np.array(unit_grid_with_kinks(spec))
    for y in (ys, ys.reshape(-1, 1), 0.25, np.float64(LN2)):
        a, b = spec.offer_parts(y)
        assert a.dtype == b.dtype == float
        assert a.shape == b.shape == np.shape(y)
        want = [[v.hex() for v in spec.offer_parts_scalar(x)] for x in np.ravel(y).tolist()]
        assert [[x.hex(), z.hex()] for x, z in zip(a.ravel().tolist(),
                                                   b.ravel().tolist())] == want
    with pytest.raises(GainSpecError):
        spec.offer_parts(np.array([0.5, 1.5]))
    with pytest.raises(GainSpecError):
        spec.offer_parts(math.nan)


def written_out_antiderivs(kind, t):
    """(A(t), B(t)) written out per kind, as the closed forms read."""
    if kind == ADVERSARIAL:
        return t - math.exp(t - 1.0) + math.exp(-1.0), 0.0
    if kind == "simple-exp":
        if t <= 0.5:
            c_int = math.exp(t - 0.5) - math.exp(-0.5)
        else:
            c_int = (1.0 - math.exp(-0.5)) + (t - 0.5)
    elif t <= LN2:
        c_int = 0.5 * (math.exp(t) - 1.0)
    else:
        c_int = 0.5 + (t - LN2)
    return 0.5 * (t - c_int), 0.5 * c_int


def written_out_inverse(kind, z, part):
    """offer_inverse(z, part) written out per kind, as the closed forms read."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == ADVERSARIAL:
            return np.full(z.shape, np.nan) if part else 1.0 + np.log(1.0 - z)
        log_c = np.log(np.minimum(2.0 * z if part else 1.0 - 2.0 * z, 1.0))
        return log_c + 0.5 if kind == "simple-exp" else log_c + LN2


EXP_KINDS = [simple_exp(), half_exp(), adversarial_baseline()]


@pytest.mark.parametrize("spec", EXP_KINDS, ids=lambda spec: spec.kind)
def test_antiderivs_are_the_closed_forms_bit_for_bit(spec):
    for t in unit_grid_with_kinks(spec):
        got = (spec.rank_offer_antideriv(t), spec.time_offer_antideriv(t))
        want = written_out_antiderivs(spec.kind, t)
        assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("spec", EXP_KINDS, ids=lambda spec: spec.kind)
def test_offer_inverse_is_the_closed_form_bit_for_bit(spec):
    # offers taken on the grid, and values no rank gives, on both sides
    ys = np.array(unit_grid_with_kinks(spec))
    stray = np.random.default_rng(5).uniform(-0.3, 1.3, 200)
    for part in (0, 1):
        for z in (spec.offer_parts(ys)[part], stray, 0.2):
            got, want = spec.offer_inverse(z, part), written_out_inverse(spec.kind, z, part)
            assert np.shape(got) == np.shape(want)
            assert ([float(v).hex() for v in np.ravel(got)]
                    == [float(v).hex() for v in np.ravel(want)])


@pytest.mark.parametrize("spec", ALL_SPLIT_SPECS + [adversarial_baseline()],
                         ids=lambda spec: spec.kind)
def test_spec_pickles_with_its_pieces(spec):
    # every path has read the piece data before the round trip
    ys = unit_grid_with_kinks(spec)
    z = np.array([spec.offer_parts_scalar(y)[0] for y in ys])

    def values(s):
        out = [v for y in ys for v in (*s.offer_parts_scalar(y), s.rank_offer_antideriv(y),
                                       s.time_offer_antideriv(y))]
        out += [*s.offer_inverse(z, 0), *s.offer_inverse(0.5 * z, 1),
                *np.ravel(s.offer_parts(ys))]
        return [float(v).hex() for v in out]

    before = values(spec)
    back = pickle.loads(pickle.dumps(spec))
    assert back == spec and hash(back) == hash(spec)
    assert back.pieces == spec.pieces and back.curve_breakpoints == spec.curve_breakpoints
    assert values(back) == before
    # numpy unpickles arrays writable: the spec is rebuilt instead
    assert not any(arr.flags.writeable for arr in (*back._cols, *back._inverse))


@pytest.mark.parametrize("spec", ALL_SPLIT_SPECS + [adversarial_baseline()],
                         ids=lambda spec: spec.kind)
def test_spec_tables_are_read_only(spec):
    # a write would move offer_parts off offer_parts_scalar while the spec
    # still compared equal to an untouched one
    for arr in (*spec._cols, *spec._inverse):
        with pytest.raises(ValueError, match="read-only"):
            arr[-1] = 0.0
    assert spec.offer_parts(0.9) == tuple(map(np.array, spec.offer_parts_scalar(0.9)))
