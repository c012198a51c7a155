import contextlib
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from rankmatch import bounds
from rankmatch.bounds import (Piecewise, ProfileError, StepProfiles,
                              SurfaceDomainError, bound_function, heatmap_rows,
                              improved_bound, integral_bound, minimize_bound,
                              piecewise_from_json, profiles_from_json,
                              simple_bound, solve_curve_equals_two_t,
                              stationary_tau)
from rankmatch.gains import (LN2, GainSpec, adversarial_baseline, half_exp,
                             piecewise_table, simple_exp)
from rankmatch.numerics import golden_minimize, integrate

E_HALF = math.exp(-0.5)
SIMPLE_FLOOR = 1.25 - E_HALF            # 0.6434693402873666
IMPROVED_FLOOR = 1.0 - LN2 / 2.0        # 0.6534264097200273

MILD_TABLE = piecewise_table((0.0, 0.5, 1.0), (0.3, 0.45, 0.6))
STEEP_TABLE = piecewise_table((0.0, 0.3, 0.7, 1.0), (0.4, 0.5, 0.7, 0.9))


def refused_unless_weight_split(spec):
    """The context a surface test runs in: for a spec that is no weight
    split (the adversarial one) the first surface call raises
    SurfaceDomainError, which ends the test."""
    if spec.weight_split:
        return contextlib.nullcontext()
    return pytest.raises(SurfaceDomainError, match="no weight split")


def antideriv(kind, t):
    """Test-local closed-form curve antiderivatives (independent oracle)."""
    if kind == "simple-exp":
        if t <= 0.5:
            return math.exp(t - 0.5) - E_HALF
        return (1.0 - E_HALF) + (t - 0.5)
    if kind == "half-exp":
        if t <= LN2:
            return 0.5 * (math.exp(t) - 1.0)
        return 0.5 + (t - LN2)
    raise AssertionError(kind)


def curve(kind, t):
    if kind == "simple-exp":
        return min(1.0, math.exp(t - 0.5))
    return min(1.0, 0.5 * math.exp(t))


def hand_simple_bound(kind, tau, gamma):
    """Closed-form evaluation of the simple surface (independent oracle)."""
    left = 0.5 * (antideriv(kind, gamma) + gamma * (1.0 - curve(kind, tau)))
    right = 0.5 * (antideriv(kind, tau) + tau * (1.0 - curve(kind, gamma)))
    return (1.0 - tau) * (1.0 - gamma) + left + right


def test_simple_bound_named_values():
    s = simple_exp()
    assert simple_bound(s, 1.0, 0.0) == pytest.approx(SIMPLE_FLOOR, abs=1e-9)
    assert simple_bound(s, 0.5, 0.5) == pytest.approx(SIMPLE_FLOOR, abs=1e-9)
    for spec in (s, half_exp(), MILD_TABLE):
        assert simple_bound(spec, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_simple_exp_simple_surface_is_flat_along_its_valley():
    # the minimizer is not unique: every point of the path
    # (0, 1) -> (1/2, 1) -> (1/2, 1/2) -> (1, 1/2) -> (1, 0) is a minimum
    s = simple_exp()
    valley = [(1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (0.0109, 1.0), (4e-7, 1.0),
              (0.25, 1.0), (0.5, 0.75), (0.75, 0.5), (1.0, 0.25)]
    for tau, gamma in valley:
        assert abs(simple_bound(s, tau, gamma) - SIMPLE_FLOOR) <= 1e-12


def test_simple_bound_matches_closed_form_everywhere():
    rng = np.random.default_rng(30)
    for kind, spec in (("simple-exp", simple_exp()), ("half-exp", half_exp())):
        for _ in range(40):
            tau, gamma = rng.random(), rng.random()
            want = hand_simple_bound(kind, tau, gamma)
            assert simple_bound(spec, tau, gamma) == pytest.approx(want, abs=1e-9)


def test_simple_bound_matches_quadrature_for_every_kind():
    # reference: both share integrals by adaptive quadrature of share_scalar
    rng = np.random.default_rng(34)
    for spec in (simple_exp(), half_exp(), MILD_TABLE):
        share, bps = spec.share_scalar, spec.curve_breakpoints
        for _ in range(20):
            tau, gamma = rng.random(), rng.random()
            left = integrate(lambda x: share(x, tau), 0.0, gamma, tol=1e-14,
                             breakpoints=bps)
            right = integrate(lambda x: share(x, gamma), 0.0, tau, tol=1e-14,
                              breakpoints=bps)
            want = (1.0 - tau) * (1.0 - gamma) + left + right
            assert simple_bound(spec, tau, gamma) == pytest.approx(want, abs=1e-12)


def share_integral(spec, lo, hi, y):
    """Test-local closed-form integral of share(t, y) dt over [lo, hi]."""
    return ((hi - lo) * (1.0 - spec.offer_parts_scalar(y)[1])
            - (spec.rank_offer_antideriv(hi) - spec.rank_offer_antideriv(lo)))


@pytest.mark.parametrize("spec", [simple_exp(), half_exp(), adversarial_baseline(),
                                  MILD_TABLE], ids=lambda spec: spec.kind)
def test_simple_bound_matches_two_share_integrals_bit_for_bit(spec):
    # the corner plus one closed-form share integral per side, summed in order
    pts = [i / 40 for i in range(41)]
    with refused_unless_weight_split(spec):
        for tau in pts:
            for gamma in pts:
                want = ((1.0 - tau) * (1.0 - gamma) + share_integral(spec, 0.0, gamma, tau)
                        + share_integral(spec, 0.0, tau, gamma))
                assert simple_bound(spec, tau, gamma).hex() == want.hex()


def test_surfaces_refuse_the_adversarial_spec():
    # a + b = 1 - e^(y-1) is not 1/2: at (1, 0.955) both surfaces read
    # 1.2206 while a corpus edge there has a pair gain of 0.687
    adv = adversarial_baseline()
    assert not adv.weight_split
    assert all(spec.weight_split for spec in (simple_exp(), half_exp(), MILD_TABLE))
    for refused in (lambda: simple_bound(adv, 1.0, 0.9553532634660223),
                    lambda: improved_bound(adv, 1.0, 0.9553532634660223),
                    lambda: minimize_bound(adv, "simple"),
                    lambda: minimize_bound(adv, "improved"),
                    lambda: heatmap_rows(adv, "improved", 2),
                    lambda: stationary_tau(adv, 0.5)):
        with pytest.raises(SurfaceDomainError, match="adversarial spec is no weight split"):
            refused()
    # the profile integral writes u's floor as a(theta) + b(x): still taken
    always = StepProfiles(theta_fn=Piecewise((0.0, 1.0), (1.0,)),
                          beta_fn=Piecewise((0.0, 1.0), (0.0,)))
    assert integral_bound(adv, always) == 1.0


def test_improved_inner_minimum_matches_dense_theta_grid(monkeypatch):
    # reference: the unregrouped u-side integrand minimized over a theta grid
    # that holds the candidates (0, gamma, the kinks) and 400 points between;
    # the spy captures the integrand improved_bound hands to integrate
    integrands = []

    def spy(f, *args, **kwargs):
        integrands.append(f)
        return integrate(f, *args, **kwargs)

    monkeypatch.setattr(bounds, "integrate", spy)
    rng = np.random.default_rng(36)
    for spec in (simple_exp(), half_exp(), MILD_TABLE):
        for _ in range(25):
            tau, gamma, x = (float(r) for r in rng.random(3))
            thetas = list(np.linspace(0.0, gamma, 401))
            thetas += [bp for bp in spec.curve_breakpoints if bp < gamma]
            dense = min(spec.share_scalar(x, th) + share_integral(spec, 0.0, th, x)
                        + share_integral(spec, th, gamma, tau) for th in thetas)
            improved_bound(spec, tau, gamma)
            assert integrands[-1](x) == pytest.approx(dense, abs=1e-12)


def two_call_improved_bound(spec, tau, gamma, tol):
    """improved_bound with its integrand in the two-call form: a(x) and
    b(x) each from their own curve evaluation, min() over a generator."""
    def a(x):
        return 0.5 * (1.0 - spec.curve_scalar(x))

    def b(x):
        return 0.5 * spec.curve_scalar(x)
    b_tau = b(tau)
    const = 1.0 - spec.rank_offer_antideriv(gamma) + gamma * (1.0 - b_tau)
    thetas = [0.0, gamma] + [bp for bp in spec.curve_breakpoints if 0.0 < bp < gamma]
    candidates = [(th, b(th)) for th in thetas]

    def inner(x):
        slope = b_tau - b(x)
        return const - a(x) + min(th * slope - b_th for th, b_th in candidates)

    corner = (1.0 - tau) * (1.0 - gamma)
    v_side = (1.0 - tau) * share_integral(spec, 0.0, gamma, tau)
    return corner + v_side + integrate(inner, 0.0, tau, tol=tol,
                                       breakpoints=spec.curve_breakpoints)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
@pytest.mark.parametrize("spec", [simple_exp(), half_exp(), adversarial_baseline(),
                                  MILD_TABLE], ids=lambda spec: spec.kind)
def test_improved_bound_matches_two_call_integrand_bit_for_bit(spec, tol):
    pts = [i / 40 for i in range(41)]
    with refused_unless_weight_split(spec):
        for tau in pts:
            for gamma in pts:
                assert (improved_bound(spec, tau, gamma, tol=tol).hex()
                        == two_call_improved_bound(spec, tau, gamma, tol).hex())


@pytest.mark.parametrize("spec, tau, gamma, per_point, fixed", [
    # per call: the parts at tau once, then at 0, gamma and any kink below gamma
    (half_exp(), 0.7, 0.9, 1, 4),
    (half_exp(), 0.7, 0.5, 1, 3),
    (simple_exp(), 0.3, 0.8, 1, 4),
    (MILD_TABLE, 0.9, 0.4, 1, 3),
    (adversarial_baseline(), 0.7, 0.9, 1, 3),     # refused: no weight split
], ids=["half-exp-kink-below-gamma", "half-exp", "simple-exp", "table", "adversarial"])
def test_improved_bound_evaluates_the_curve_once_per_integrand_point(
        monkeypatch, spec, tau, gamma, per_point, fixed):
    # one piece evaluation, one offer_parts_scalar call, per integrand point
    calls = {"parts": 0, "integrand": 0}
    offer_parts_scalar = GainSpec.offer_parts_scalar

    def counted_parts(self, x):
        calls["parts"] += 1
        return offer_parts_scalar(self, x)

    def counted_integrate(f, *args, **kwargs):
        def counted(x):
            calls["integrand"] += 1
            return f(x)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(GainSpec, "offer_parts_scalar", counted_parts)
    monkeypatch.setattr(bounds, "integrate", counted_integrate)
    with refused_unless_weight_split(spec):
        improved_bound(spec, tau, gamma, tol=1e-9)
        assert calls["integrand"] > 0
        assert calls["parts"] == per_point * calls["integrand"] + fixed


def test_improved_bound_named_values():
    h = half_exp()
    assert improved_bound(h, 0.0, 1.0) == pytest.approx(IMPROVED_FLOOR, abs=1e-8)
    # the interior near-minimum along gamma = ln 2
    assert improved_bound(h, 0.5643750273545236, LN2) == pytest.approx(
        0.6556873762468076, abs=1e-8)


def test_improved_never_below_simple():
    rng = np.random.default_rng(31)
    for spec in (simple_exp(), half_exp(), MILD_TABLE):
        for _ in range(100):
            tau, gamma = rng.random(), rng.random()
            imp = improved_bound(spec, tau, gamma, tol=1e-10)
            simp = simple_bound(spec, tau, gamma, tol=1e-10)
            assert imp >= simp - 1e-8


def test_bounds_continuous_under_tiny_perturbations():
    rng = np.random.default_rng(32)
    spec = half_exp()
    for which in ("simple", "improved"):
        f = bound_function(which)
        worst = 0.0
        for _ in range(1000):
            tau = float(rng.uniform(1e-5, 1.0 - 1e-5))
            gamma = float(rng.uniform(1e-5, 1.0 - 1e-5))
            jump = abs(f(spec, tau + 1e-6, gamma, tol=1e-10)
                       - f(spec, tau, gamma, tol=1e-10))
            jump = max(jump, abs(f(spec, tau, gamma + 1e-6, tol=1e-10)
                                 - f(spec, tau, gamma, tol=1e-10)))
            worst = max(worst, jump)
        assert worst <= 1e-4


def test_minimize_simple_exp_simple():
    # the minimum sits on the scan's corner (0, 1); the polish must not
    # report a point near it that scores worse
    point = minimize_bound(simple_exp(), "simple")
    assert point.value == SIMPLE_FLOOR
    assert (point.tau, point.gamma) == (0.0, 1.0)


def test_minimize_half_exp_improved():
    point = minimize_bound(half_exp(), "improved")
    assert point.value == IMPROVED_FLOOR
    assert (point.tau, point.gamma) == (0.0, 1.0)


@pytest.mark.parametrize("which", ["simple", "improved"])
@pytest.mark.parametrize("spec", [simple_exp(), half_exp(), STEEP_TABLE],
                         ids=["simple-exp", "half-exp", "table"])
def test_minimize_is_never_worse_than_a_scan_point(spec, which):
    # (0, 1) is a scan grid point, scored exactly on both surfaces
    point = minimize_bound(spec, which)
    assert point.value <= bound_function(which)(spec, 0.0, 1.0)


def test_minimize_half_exp_simple_polishes_off_the_grid():
    # the minimum (1 - ln 2)^2 + 1/2 at tau = gamma = ln 2 lies between
    # grid points (the scan reads 0.59453 at (0.694, 0.694))
    point = minimize_bound(half_exp(), "simple")
    assert abs(point.value - ((1.0 - LN2) ** 2 + 0.5)) <= 1e-7
    assert point.tau == pytest.approx(LN2, abs=1e-5)


@pytest.mark.parametrize("spec, which", [(simple_exp(), "simple"), (half_exp(), "improved")],
                         ids=["simple-exp-simple", "half-exp-improved"])
def test_minimize_scans_every_grid_point_through_the_surface_table(monkeypatch, spec, which):
    # the benchmark's traced bounds-minimize run counts the surface calls
    # made through _BOUNDS before the first golden_minimize as the scan,
    # and its injected fault rebinds bounds.integrate: the scan makes one
    # call per grid point, and each improved_bound call reaches the
    # module-global integrate exactly once
    calls = {"scan": 0, "polish": 0, "integrate": 0}
    phase = "scan"
    surface = bounds._BOUNDS[which]

    def counted_surface(*args, **kwargs):
        calls[phase] += 1
        return surface(*args, **kwargs)

    def polish(*args, **kwargs):
        nonlocal phase
        phase = "polish"
        return golden_minimize(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return integrate(*args, **kwargs)

    monkeypatch.setitem(bounds._BOUNDS, which, counted_surface)
    monkeypatch.setattr(bounds, "golden_minimize", polish)
    monkeypatch.setattr(bounds, "integrate", counted_integrate)
    minimize_bound(spec, which)
    assert calls["scan"] == bounds.SCAN_GRID_N ** 2
    assert calls["polish"] > 0
    surface_calls = calls["scan"] + calls["polish"]
    assert calls["integrate"] == (surface_calls if which == "improved" else 0)


# sha256 over the .hex() of each value, one per line, row-major in (tau,
# gamma) over the grid i / (n - 1): the values of the scalar quadrature
# that evaluated every panel end twice, which each surface keeps bit for
# bit (the simple surface is closed form and takes any tol)
SURFACE_DIGESTS = {
    ("simple", "simple-exp", 256, "SCAN_TOL"):
        "e75a3698eff080b0b971c4fe9acb74b7e712c568b2467f28d1eefd2d93e56365",
    ("improved", "half-exp", 256, "SCAN_TOL"):
        "5a82e6ea60dfba7be704cd6190633aa175f856b396ea9f7b4f81e9f3f5bcbb7a",
    ("improved", "simple-exp", 33, "POLISH_TOL"):
        "0f91ffd529dfe947c35f081c73d67aa1cf085a860fa35b351120deecfa559333",
    ("improved", "simple-exp", 33, "HEATMAP_TOL"):
        "d9013488c6f25594dde55b7b3296036f4009a50c780bcbdf059270dd6f5ee304",
    ("improved", "simple-exp", 33, "STATIONARY_TOL"):
        "3310cb8a0de3a946b17245781058b0eef60425421f5df8c6732e46c3a5b0dda6",
    ("improved", "half-exp", 33, "POLISH_TOL"):
        "09c7bdb87a12b80c74a5be734b1b63efe8864c14400f46045251bce076c39daf",
    ("improved", "half-exp", 33, "HEATMAP_TOL"):
        "1f9d32ea54b278f9e3385af24563be087e61a69e61ccbd50b3788bfee33d8313",
    ("improved", "half-exp", 33, "STATIONARY_TOL"):
        "3f72731300b73150ee1e60689ad5a55348ca5618591138cdab00a10dd16d63e8",
    ("improved", "table", 33, "POLISH_TOL"):
        "87631552bc5d62b5fe9136564ce5be1aa242231351df0a33934d9160584b05b3",
    ("improved", "table", 33, "HEATMAP_TOL"):
        "7f3623b8b7fbf28dc6dbee328e87b6fdfc39c1e4c122997ad3f5babd4139de74",
    ("improved", "table", 33, "STATIONARY_TOL"):
        "6fe4ffd853d259803656a1b557372558d5909837fd1bc71087f8a1a0fc464e6e",
    ("simple", "simple-exp", 33, "SCAN_TOL"):
        "a707ae0fa9eea8d13227b9133444870f7f870d55521026e3ee931551ca61325a",
    ("simple", "half-exp", 33, "SCAN_TOL"):
        "26018d7b6b7c2e0f4a39c52c2ab28216e9644f5fbba133c47831ab1981c55097",
    ("simple", "table", 33, "SCAN_TOL"):
        "26f4b5bcf556030a24df31c9ca9c84e549e365cf3b6cd3a27739d1f475599679",
}
DIGEST_SPECS = {"simple-exp": simple_exp(), "half-exp": half_exp(), "table": STEEP_TABLE}


@pytest.mark.parametrize("which, spec, grid_n, tol", SURFACE_DIGESTS,
                         ids=str)
def test_surface_grids_keep_their_recorded_bits(which, spec, grid_n, tol):
    f = bound_function(which)
    pts = [i / (grid_n - 1) for i in range(grid_n)]
    digest = hashlib.sha256()
    for tau in pts:
        for gamma in pts:
            value = f(DIGEST_SPECS[spec], tau, gamma, tol=getattr(bounds, tol))
            digest.update(value.hex().encode() + b"\n")
    assert digest.hexdigest() == SURFACE_DIGESTS[which, spec, grid_n, tol]


def test_grid_floor_half_exp_improved():
    # the worst-case claim quantified over the full minimization grid
    rows = heatmap_rows(half_exp(), "improved", grid_n=256)
    low = min(v for _, _, v in rows)
    assert low >= IMPROVED_FLOOR - 1e-6


def test_grid_floor_simple_exp_simple():
    rows = heatmap_rows(simple_exp(), "simple", grid_n=256)
    low = min(v for _, _, v in rows)
    assert low >= SIMPLE_FLOOR - 1e-6


def test_curve_crossing_root():
    t = solve_curve_equals_two_t(half_exp())
    assert t == pytest.approx(0.35740295618138884, abs=1e-9)
    assert half_exp().curve_scalar(t) == pytest.approx(2.0 * t, abs=1e-9)


def test_stationary_tau_along_ln2():
    tau0, value = stationary_tau(half_exp(), LN2)
    assert tau0 == pytest.approx(0.564375, abs=1e-3)
    assert value == pytest.approx(0.6557, abs=5e-4)
    assert value > IMPROVED_FLOOR


def test_bound_function_rejects_unknown():
    with pytest.raises(ValueError, match="which"):
        bound_function("best")
    with pytest.raises(ValueError, match="unit square"):
        simple_bound(half_exp(), 1.2, 0.0)


def test_heatmap_rows_order_and_determinism():
    rows = list(heatmap_rows(half_exp(), "simple", grid_n=5))
    assert len(rows) == 25
    assert rows[0][:2] == (0.0, 0.0)
    assert rows[-1][:2] == (1.0, 1.0)
    assert rows == list(heatmap_rows(half_exp(), "simple", grid_n=5))


def test_heatmap_rows_evaluates_each_point_as_it_is_read(monkeypatch):
    calls = []
    surface = bounds._BOUNDS["improved"]

    def counted(spec, tau, gamma, tol):
        calls.append((tau, gamma))
        return surface(spec, tau, gamma, tol=tol)

    monkeypatch.setitem(bounds._BOUNDS, "improved", counted)
    rows = heatmap_rows(half_exp(), "improved", grid_n=3)
    assert calls == []
    assert next(rows)[:2] == (0.0, 0.0) and calls == [(0.0, 0.0)]
    assert len(list(rows)) == 8 and len(calls) == 9


@pytest.mark.parametrize("grid_n", [-1, 0, 1])
def test_grids_below_two_points_are_rejected(grid_n):
    with pytest.raises(ValueError, match=f"grid_n must be >= 2, got {grid_n}"):
        heatmap_rows(half_exp(), "simple", grid_n)


# -- piecewise profiles and the ratio integral ----------------------------


def test_profiles_json_round_trip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

    def piecewise(data, values, non_decreasing=False):
        inner = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                             exclude_max=True),
                                   max_size=5, unique=True))
        xs = (0.0, *sorted(inner), 1.0)
        ys = data.draw(st.lists(values, min_size=len(xs) - 1, max_size=len(xs) - 1))
        return Piecewise(xs, tuple(sorted(ys) if non_decreasing else ys))

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        beta = piecewise(data, unit, non_decreasing=True)
        # theta at or above beta's maximum stays above beta everywhere
        theta = piecewise(data, st.floats(beta.ys[-1], 1.0))
        profiles = StepProfiles(theta_fn=theta, beta_fn=beta)
        assert profiles_from_json(json.loads(json.dumps(profiles.to_json_dict()))) == profiles

    check()


def test_piecewise_step_eval():
    step = Piecewise((0.0, 0.4, 1.0), (0.2, 0.7))
    assert step(0.0) == 0.2
    assert step(0.39999) == 0.2
    assert step(0.4) == 0.7
    assert step(1.0) == 0.7
    three = Piecewise((0.0, 0.25, 0.5, 1.0), (0.1, 0.3, 0.9))
    assert [three(t) for t in (0.0, 0.25, 0.3, 0.5, 0.99, 1.0)] == [
        0.1, 0.3, 0.3, 0.9, 0.9, 0.9]


def test_piecewise_validation():
    with pytest.raises(ProfileError):
        Piecewise((0.0, 0.9), (0.5,))             # must end at 1
    with pytest.raises(ProfileError):
        Piecewise((0.0, 1.0), (0.5, 0.5))          # step wants len(xs)-1 values
    with pytest.raises(ProfileError):
        Piecewise((0.0, 1.0), (1.5,))              # out of range
    for kind in ("linear", 7):
        with pytest.raises(ProfileError, match=f"unknown profile kind {kind!r}"):
            piecewise_from_json({"kind": kind, "x": [0.0, 1.0], "y": [0.5]})


def test_step_profiles_validation():
    theta = Piecewise((0.0, 1.0), (0.4,))
    beta_bad = Piecewise((0.0, 1.0), (0.6,))
    with pytest.raises(ProfileError, match="beta <= theta"):
        StepProfiles(theta_fn=theta, beta_fn=beta_bad)
    beta_dec = Piecewise((0.0, 0.5, 1.0), (0.3, 0.1))
    with pytest.raises(ProfileError, match="non-decreasing"):
        StepProfiles(theta_fn=Piecewise((0.0, 1.0), (1.0,)), beta_fn=beta_dec)


def test_integral_bound_full_band_is_one():
    prof = StepProfiles(theta_fn=Piecewise((0.0, 1.0), (1.0,)),
                        beta_fn=Piecewise((0.0, 1.0), (0.0,)))
    assert integral_bound(half_exp(), prof) == 1.0


def test_integral_bound_step_profiles_dominate_improved_bound():
    h = half_exp()
    point = minimize_bound(h, "improved")
    t, g = point.tau, point.gamma
    t = min(max(t, 1e-6), 1.0 - 1e-6)
    theta = Piecewise((0.0, t, 1.0), (g, 1.0))
    beta = Piecewise((0.0, t, 1.0), (0.0, g))
    val = integral_bound(h, StepProfiles(theta_fn=theta, beta_fn=beta))
    assert val >= point.value - 1e-6


def test_integral_bound_adversarial_static_marginal():
    # matched below c, unmatched above: reduces to the static-price bound,
    # whose closed form int_0^c e^(y-1) dy + 1 - e^(c-1) = 1 - 1/e for all c
    adv = adversarial_baseline()
    for c in (0.2, 0.5, 0.8):
        theta = Piecewise((0.0, 1.0), (c,))
        beta = Piecewise((0.0, 1.0), (c,))
        val = integral_bound(adv, StepProfiles(theta_fn=theta, beta_fn=beta))
        closed = (math.exp(c - 1.0) - math.exp(-1.0)) + 1.0 - math.exp(c - 1.0)
        assert closed == pytest.approx(1.0 - 1.0 / math.e, abs=1e-15)
        assert val == pytest.approx(1.0 - 1.0 / math.e, abs=1e-15)


def test_integral_bound_step_beta_closed_form():
    """Hand-integrated oracle with a kink-free table curve.

    Curve c(x) = 0.4 + 0.2 x, theta == 1 (so the online floor term is
    zeroed by the rank-one convention), beta = 0 on [0, 1/2) and 1/2 on
    [1/2, 1]. Then gamma = 1/2, the inverse of beta is 1/2 below gamma,
    the offline gain there is share(t, 1/2) = 0.45 + t/10, and

        f(y_u) = 1                                          on [0, 1/2),
        f(y_u) = 1/2 + int_0^{1/2} (0.45 + t/10) dt = 0.7375  on [1/2, 1],

    whose integral over [0, 1] is 139/160.
    """
    spec = piecewise_table((0.0, 1.0), (0.4, 0.6))
    prof = StepProfiles(
        theta_fn=Piecewise((0.0, 1.0), (1.0,)),
        beta_fn=Piecewise((0.0, 0.5, 1.0), (0.0, 0.5)))
    assert integral_bound(spec, prof) == 139.0 / 160.0


def nested_integral(spec, profiles, tol=1e-9):
    """The nested adaptive-quadrature form of integral_bound, with its own
    step inverse of beta: an independent oracle for the closed form. Each
    inner integral is computed once per pair of limits; the outer
    integrand asks for the same ones on every point of a piece."""
    theta_fn, beta_fn = profiles.theta_fn, profiles.beta_fn
    gamma = beta_fn(1.0)

    def upper_inverse(y):
        # sup{t : beta(t) <= y}, 0.0 when beta(0) > y
        out = 0.0
        for x1, b in zip(beta_fn.xs[1:], beta_fn.ys):
            if b > y:
                break
            out = x1
        return out

    def u_floor(x, t):
        return 0.0 if t >= 1.0 else 1.0 - spec.share_scalar(t, x)

    def v_gain(y_v):
        if y_v >= gamma:
            return 0.0
        b = upper_inverse(y_v)
        return 0.0 if b >= 1.0 else spec.share_scalar(y_v, b)

    v_breaks = set(spec.curve_breakpoints) | set(beta_fn.ys)

    @functools.cache
    def v_integral(lo, hi):
        return integrate(v_gain, lo, hi, tol=0.1 * tol, breakpoints=v_breaks)

    def f(y_u):
        th, be = theta_fn(y_u), beta_fn(y_u)
        return ((1.0 - th + be) * u_floor(y_u, th) + (th - be)
                + v_integral(0.0, be) + v_integral(th, 1.0))

    breaks = set(theta_fn.xs) | set(beta_fn.xs) | set(spec.curve_breakpoints)
    return integrate(f, 0.0, 1.0, tol=tol, breakpoints=breaks)


def random_step_profiles(rng):
    """Random admissible profiles: theta and beta on their own knots, beta
    with repeated values and often beta(0) > 0, theta often at one."""
    def knots(n):
        inner = rng.choice(np.arange(1, 20) / 20, n - 1, replace=False)
        return (0.0, *sorted(float(x) for x in inner), 1.0)

    bx = knots(int(rng.integers(1, 7)))
    by = tuple(sorted(float(b) for b in rng.choice([0.0, 0.15, 0.3, 0.3, 0.55, 0.7],
                                                   len(bx) - 1)))
    beta = Piecewise(bx, by)
    tx = knots(int(rng.integers(1, 7)))
    ty = []
    for x1 in tx[1:]:
        low = max(b for x, b in zip(bx, by) if x < x1)   # beta's top on the piece
        ty.append(float(rng.choice([low, 1.0, low + (1.0 - low) * rng.random()])))
    return StepProfiles(theta_fn=Piecewise(tx, tuple(ty)), beta_fn=beta)


@pytest.mark.parametrize("seed, spec", enumerate([
    half_exp(), simple_exp(), adversarial_baseline(),
    piecewise_table((0.0, 0.3, 0.7, 1.0), (0.4, 0.5, 0.7, 0.9))]),
    ids=["half-exp", "simple-exp", "adversarial", "table"])
def test_integral_bound_matches_nested_quadrature(seed, spec):
    rng = np.random.default_rng((11, seed))
    for _ in range(20):
        profiles = random_step_profiles(rng)
        assert integral_bound(spec, profiles) == pytest.approx(
            nested_integral(spec, profiles), abs=1e-8)


def test_profiles_json_round_trip():
    prof = StepProfiles(
        theta_fn=Piecewise((0.0, 0.3, 1.0), (0.5, 1.0)),
        beta_fn=Piecewise((0.0, 0.3, 1.0), (0.0, 0.4)))
    back = profiles_from_json(json.loads(json.dumps(prof.to_json_dict())))
    assert back == prof
    # a profile without a kind is a step profile
    assert piecewise_from_json({"x": [0, 0.5, 1], "y": [0, 0.2]}) == Piecewise(
        (0.0, 0.5, 1.0), (0.0, 0.2))


def test_pair_gain_never_below_minimized_bound():
    # links the simulated per-edge gains to the analytic worst case
    from rankmatch.analysis import pair_gain
    from rankmatch.core import sample_ranks
    from rankmatch.generators import random_instance

    floor = minimize_bound(half_exp(), "improved").value
    rng = np.random.default_rng(33)
    for trial in range(5):
        inst = random_instance(rng, weighted=True)
        base = sample_ranks(inst, (33, trial))
        edges = [(u, v) for u in inst.online_ids for v in inst.neighbors[u]]
        u, v = edges[int(rng.integers(len(edges)))]
        est = pair_gain(inst, half_exp(), base, u, v, grid_n=100)
        assert est.estimate >= floor - 0.01


@pytest.mark.parametrize("spec, floor", [
    (simple_exp(), SIMPLE_FLOOR), (half_exp(), IMPROVED_FLOOR),
    (adversarial_baseline(), 1.0 - math.exp(-1.0)), (STEEP_TABLE, None)],
    ids=["simple-exp", "half-exp", "adversarial", "table"])
def test_two_by_one_instance_attains_the_per_edge_bound(spec, floor):
    # u1 arrives at 0 and takes v first whenever y_u2 > 0, so alpha_u2 = 0
    # and alpha_v = 1 - a(y_v) - b(0): the pair gain of (u2, v) is exactly
    # 1 - A(1) - b(0), at the corner (tau, gamma) = (0, 1) of both surfaces
    from rankmatch.analysis import pair_gain
    from rankmatch.core import RankAssignment, build_instance

    inst = build_instance([("v", 1.0)], [("u1", ["v"]), ("u2", ["v"])])
    base = RankAssignment({"u1": 0.0, "u2": 0.5, "v": 0.5})
    exact = 1.0 - spec.rank_offer_antideriv(1.0) - spec.offer_parts_scalar(0.0)[1]
    est = pair_gain(inst, spec, base, "u2", "v", grid_n=200)
    assert (est.tau, est.gamma) == (0.0, 1.0)
    assert abs(est.estimate - exact) <= 1e-6
    if floor is not None:
        assert exact == floor
    if spec.weight_split:
        # bit for bit on the exp curves; the table's sums round differently
        tol = 2.2e-16 if floor is None else 0.0
        for surface in (simple_bound, improved_bound):
            assert abs(surface(spec, 0.0, 1.0) - exact) <= tol
