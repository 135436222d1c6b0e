import json
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from switchlab.gravity import (
    C_LIGHT,
    EARTH,
    G_NEWTON,
    HBAR,
    BodyConfig,
    ClockModel,
    SwitchGeometry,
    asymmetric_order_threshold,
    grav_switch_resync_purity,
    lapse,
    light_coordinate_time,
    min_tau_for_order,
    order_margin,
    protocol_duration,
    switch_ratio_exact,
    switch_ratio_weak_field,
    _lapse_gap,
)

# Strong-field body (neutron-star scale) for exact-metric ordering tests.
COMPACT = BodyConfig(mass=2.8e30, radius=1.2e4)
# Weak-field but non-terrestrial body: R_S/R = 1e-4 keeps clock phases
# representable while time dilation differences stay O(1e-5).
LAB_BODY = BodyConfig(mass=6.7315195e26, radius=1.0e4)


def test_schwarzschild_radius_earth():
    assert abs(EARTH.schwarzschild_radius - 8.870e-3) < 2e-5


def test_lapse_limits():
    assert abs(lapse(1e6 * EARTH.schwarzschild_radius, EARTH) - 1.0) < 1e-6
    # Earth surface: 1 - lapse ~ R_S / (2 R)
    dev = 1.0 - lapse(EARTH.radius, EARTH)
    assert abs(dev - 6.96e-10) < 5e-13
    body = COMPACT
    assert abs(lapse(2 * body.schwarzschild_radius, body) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        lapse(0.5 * body.schwarzschild_radius, body)


def test_lapse_monotone_in_r():
    rs = np.geomspace(EARTH.radius, 100 * EARTH.radius, 20)
    vals = [lapse(r, EARTH) for r in rs]
    assert np.all(np.diff(vals) > 0)


def test_light_time_flat_limit():
    tiny = BodyConfig(mass=1e-3, radius=1.0)
    t = light_coordinate_time(1.0, 2.0, tiny)
    assert abs(t - 1.0 / C_LIGHT) < 1e-20


def test_light_time_earth_one_meter():
    t = light_coordinate_time(EARTH.radius, EARTH.radius + 1.0, EARTH)
    assert 0.0 < t - 1.0 / C_LIGHT < 1e-17


def test_light_time_closed_form_vs_quadrature():
    # independent oracle: 64-point Gauss-Legendre quadrature of
    # sqrt(-g_rr/g_00) = 1/(1 - R_S/r) on a compact body, where the
    # R_S ln(...) term is about a quarter of the travel time
    r1, r2 = COMPACT.radius, 2.0 * COMPACT.radius
    rs = COMPACT.schwarzschild_radius
    x, w = np.polynomial.legendre.leggauss(64)
    r = 0.5 * (r2 - r1) * x + 0.5 * (r2 + r1)
    oracle = 0.5 * (r2 - r1) * np.sum(w / (1.0 - rs / r)) / C_LIGHT
    got = light_coordinate_time(r1, r2, COMPACT)
    assert abs(got - oracle) / oracle < 1e-12


@pytest.mark.parametrize(
    "mass, r1", [(1e-308, 1e-306), (6.7e-74, 9.951054760619012e-101)], ids=["zero-rs", "rs-just-below-r1"]
)
def test_light_time_is_finite_where_the_log_argument_overflows(mass, r1):
    # (r2 - r1) / (r1 - R_S) is past the float range; R_S ln(...) is not.
    # Under R_S = 0 its product with log1p(inf) would be 0 * inf.
    body = BodyConfig(mass=mass, radius=r1)
    with np.errstate(all="raise"):
        t = light_coordinate_time(r1, 1e200, body)
    assert t == 1e200 / C_LIGHT


def test_light_time_additive_over_segments():
    r1, r2, r3 = COMPACT.radius, 3e4, 8e4
    whole = light_coordinate_time(r1, r3, COMPACT)
    split = light_coordinate_time(r1, r2, COMPACT) + light_coordinate_time(r2, r3, COMPACT)
    assert abs(whole - split) < 1e-12 * whole


def test_min_tau_for_order_threshold():
    body = COMPACT
    r_a, r_b = 3e4, 2e4
    th = min_tau_for_order(r_a, r_b, body)
    assert th > 0
    assert order_margin(1.01 * th, r_a, r_b, body) < 0.0  # A precedes B
    assert order_margin(0.99 * th, r_a, r_b, body) > 0.0  # not ordered yet
    # fixed point: the margin vanishes at the threshold
    assert abs(order_margin(th, r_a, r_b, body)) <= 1e-9 * th


def test_min_tau_for_order_earth_scale():
    # static agents near Earth's surface need of order a year
    th = min_tau_for_order(EARTH.radius + 1e5, EARTH.radius, EARTH)
    assert 1e7 < th < 1e8
    assert order_margin(1.01 * th, EARTH.radius + 1e5, EARTH.radius, EARTH) < 0.0


def test_min_tau_flat_limit_raises():
    body = COMPACT
    with pytest.raises(ValueError):
        min_tau_for_order(2e4, 2e4, body)  # equal dilation, threshold diverges
    with pytest.raises(ValueError):
        min_tau_for_order(2e4, 3e4, body)  # wrong ordering of clock rates


def check_asymmetric_conditions(body, r, h, L, tau_a):
    # substitute back into the two lightcone conditions
    dil = lambda x: lapse(x, body)
    t_far = light_coordinate_time(r + L, r + L + h, body)
    t_near = light_coordinate_time(r, r + h, body)
    tau_bf = dil(r + L + h) * (tau_a / dil(r + L) + t_far)
    tau_b = tau_bf  # photon arrives just in time at B
    tau_af = dil(r) * (tau_b / dil(r + h) + t_near)
    return tau_af <= tau_a * (1 + 1e-12)


def test_asymmetric_order_threshold_conditions():
    body = COMPACT
    r, h, L = 2.0e4, 5.0e3, 1.0e4
    th = asymmetric_order_threshold(r, h, L, body)
    assert th > 0
    assert check_asymmetric_conditions(body, r, h, L, th)
    assert check_asymmetric_conditions(body, r, h, L, 1.5 * th)
    assert not check_asymmetric_conditions(body, r, h, L, 0.5 * th)


def test_asymmetric_threshold_scales_with_length():
    body = COMPACT
    r, h, L = 2.0e4, 5.0e3, 1.0e4
    th = asymmetric_order_threshold(r, h, L, body)
    lam = 10.0
    scaled_body = BodyConfig(mass=lam * body.mass, radius=lam * body.radius)
    th_scaled = asymmetric_order_threshold(lam * r, lam * h, lam * L, scaled_body)
    assert abs(th_scaled - lam * th) < 1e-9 * th_scaled


def test_asymmetric_threshold_degenerate_geometry():
    with pytest.raises(ValueError):
        asymmetric_order_threshold(2.0e4, 5.0e3, 0.0, COMPACT)


# Offsets of clock a above clock b on Earth's surface, and the lengths h, L of
# the asymmetric switch: lab scale to 100 km, where 1 - lapse ratio is 1e-19
# to 1e-11 and cancels in double precision.
ORDER_OFFSETS = [10.0 ** k for k in range(-3, 6)]
SWITCH_LENGTHS = [10.0 ** k for k in range(0, 6)]


def reference(f, *floats, prec=50, **named):
    """f evaluated at `prec` digits on the exact values of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = prec
        return f(*map(Decimal, floats), **{k: Decimal(v) for k, v in named.items()})


def ref_lapse(r, rs):
    return (1 - rs / r).sqrt()


def ref_light_time(r1, r2, rs):
    return ((r2 - r1) + rs * ((r2 - rs) / (r1 - rs)).ln()) / Decimal(C_LIGHT)


def ref_min_tau(r_a, r_b, rs):
    l_a, l_b = ref_lapse(r_a, rs), ref_lapse(r_b, rs)
    return l_b * ref_light_time(r_b, r_a, rs) / (1 - l_b / l_a)


def ref_order_margin(tau, r_a, r_b, rs):
    # b's reading at the photon's arrival less tau, written as the clocks compose it
    return ref_lapse(r_b, rs) * (tau / ref_lapse(r_a, rs) + ref_light_time(r_b, r_a, rs)) - tau


def ref_asymmetric(r, h, L, rs):
    # r + h, r + L and r + L + h are integers below 2^53 on this grid, so the
    # float code forms the same radii exactly
    l = lambda x: ref_lapse(x, rs)
    denom = 1 - l(r + L + h) * l(r) / (l(r + h) * l(r + L))
    far = ref_light_time(r + L, r + L + h, rs)
    near = ref_light_time(r, r + h, rs)
    return l(r) * (l(r + L + h) / l(r + h) * far + near) / denom


def ref_weak_field(r, h, rs):
    # the gravity and curvature terms 2R^2/(R_S h) and 2R/R_S
    return 2 * r * r / (rs * h), 2 * r / rs


def ref_exact(r, h, rs):
    l0, l1 = ref_lapse(r, rs), ref_lapse(r + h, rs)
    return l1 / (l1 - l0)


def ref_deviation(r, h, rs):
    return ref_exact(r, h, rs) / sum(ref_weak_field(r, h, rs)) - 1


def ref_duration(mass, radius, d, h, **window):
    """Every float a grav-duration report prints, from the definitions, and
    the check values by check name; the check window is input, not physics."""
    c = Decimal(C_LIGHT)
    rs = 2 * Decimal(G_NEWTON) * mass / c**2
    exact = ref_exact(radius, h, rs)
    gravity, curvature = ref_weak_field(radius, h, rs)
    dt_r = exact * d / c
    outputs = {
        "body_mass": mass,
        "body_radius": radius,
        "schwarzschild_radius": rs,
        "d": d,
        "h": h,
        "dt_c": d / c,
        "ratio_exact": exact,
        "ratio_weak_field": gravity + curvature,
        "gravity_term": gravity,
        "curvature_term": curvature,
        "dt_r": dt_r,
        "dt_exp_low": dt_r,
        "dt_exp_high": 2 * dt_r,
    }
    checks = {
        "dt_r_in_window": dt_r,
        "weak_field_consistent": abs(ref_deviation(radius, h, rs)),
        "earth_coefficient": exact / c * h,
    }
    return outputs, checks


def ref_order(mass, radius, r_a_offset, r_b_offset, asym_r_offset, asym_h, asym_l):
    """Every float a grav-order report prints, from the definitions."""
    rs = 2 * Decimal(G_NEWTON) * mass / Decimal(C_LIGHT) ** 2
    r_a, r_b = radius + r_a_offset, radius + r_b_offset
    outputs = {
        "r_a": r_a,
        "r_b": r_b,
        "min_tau_threshold": ref_min_tau(r_a, r_b, rs),
        "asymmetric_threshold": ref_asymmetric(radius + asym_r_offset, asym_h, asym_l, rs),
    }
    return outputs, {}


def relative_error(got, want):
    return float(abs(Decimal(got) - want) / abs(want))


@pytest.mark.parametrize("offset", ORDER_OFFSETS)
def test_min_tau_for_order_matches_the_decimal_reference(offset):
    r_a, r_b = EARTH.radius + offset, EARTH.radius
    got = min_tau_for_order(r_a, r_b, EARTH)
    want = reference(ref_min_tau, r_a, r_b, EARTH.schwarzschild_radius)
    assert relative_error(got, want) <= 1e-12


@pytest.mark.parametrize("L", SWITCH_LENGTHS)
@pytest.mark.parametrize("h", SWITCH_LENGTHS)
def test_asymmetric_threshold_matches_the_decimal_reference(h, L):
    r = EARTH.radius
    got = asymmetric_order_threshold(r, h, L, EARTH)
    want = reference(ref_asymmetric, r, h, L, EARTH.schwarzschild_radius)
    assert relative_error(got, want) <= 1e-12


def test_asymmetric_threshold_is_finite_for_huge_lengths():
    # p^2 - q^2 is formed from ratios of radii, so no product of four radii
    # overflows to inf / inf
    th = asymmetric_order_threshold(EARTH.radius, 1e200, 1e200, EARTH)
    assert np.isfinite(th) and th > 0


@pytest.mark.parametrize("offset", [1e-3, 1.0, 100.0, 1e5])
def test_order_margin_sign_brackets_the_threshold(offset):
    # At 3e7 s the margin is ~1e-2 of l_b t_c, down to 3e-14 s, far below the
    # roundoff of a clock reading; its sign must still be right.
    r_a, r_b = EARTH.radius + offset, EARTH.radius
    th = min_tau_for_order(r_a, r_b, EARTH)
    for tau, ordered in ((1.01 * th, True), (0.99 * th, False)):
        got = order_margin(tau, r_a, r_b, EARTH)
        assert (got < 0.0) == ordered
        want = reference(ref_order_margin, tau, r_a, r_b, EARTH.schwarzschild_radius)
        assert relative_error(got, want) <= 1e-12


def test_order_margin_is_the_arrival_time_less_tau():
    # where nothing cancels, the margin is b's reading at the photon's arrival
    # less tau, composed step by step: tau* -> coordinate time, add t_c,
    # convert to b's clock
    tiny = BodyConfig(mass=1e-3, radius=1.0)
    cases = [(tau, 3e4, 2e4, COMPACT) for tau in (0.0, 1e-5, 0.37)] + [(1.0, 1.0, 2.0, tiny)]
    for tau, r_a, r_b, body in cases:
        t_arrive = tau / lapse(r_a, body) + light_coordinate_time(min(r_a, r_b), max(r_a, r_b), body)
        want = lapse(r_b, body) * t_arrive - tau
        assert abs(order_margin(tau, r_a, r_b, body) - want) < 1e-15
    # flat space: the margin is the light travel time 1/c
    assert abs(order_margin(1.0, 1.0, 2.0, tiny) * C_LIGHT - 1.0) < 1e-12
    assert order_margin(0.37, 2e4, 2e4, COMPACT) == 0.0


def test_switch_ratio_exact_earth():
    ratio = switch_ratio_exact(EARTH, 1.0)
    coefficient = ratio / C_LIGHT  # dt_r = coefficient * d
    assert abs(coefficient - 3.05e7) / 3.05e7 < 5e-3
    assert ratio > 0


def test_switch_ratio_decreasing_in_h():
    hs = np.geomspace(1e-2, 1e5, 12)
    vals = [switch_ratio_exact(EARTH, h) for h in hs]
    assert np.all(np.diff(vals) < 0)


def test_switch_ratio_weak_field_terms():
    wf = switch_ratio_weak_field(EARTH, 1.0)
    # gravity term dominates near the surface
    assert wf.gravity_term > 1e5 * wf.curvature_term
    # algebraic identity: (R/R_S)(2R/h + 2) equals the 2 (R/R_S) ((R + h)/h) form
    r, rs = EARTH.radius, EARTH.schwarzschild_radius
    direct = (r / rs) * (2.0 * r / 1.0 + 2.0)
    assert abs(wf.ratio - direct) / direct < 1e-12


@pytest.mark.parametrize(
    "body, h, message",
    [
        (BodyConfig(1e-300, 1.0), 1.0, "weak-field curvature term: its denominator underflows to 0"),
        (BodyConfig(1e-10, 1e300), 1e-300, "weak-field curvature term overflows"),
        (BodyConfig(EARTH.mass, 1e10), 1e-320, "weak-field gravity term: its denominator underflows to 0"),
        (BodyConfig(EARTH.mass, 1e160), 1.0, "weak-field gravity term overflows"),
        (BodyConfig(1e19, 1e300), 1e300, "weak-field ratio overflows"),
    ],
    ids=["rs-underflow", "curvature-overflow", "height-underflow", "gravity-overflow", "ratio-overflow"],
)
def test_weak_field_terms_past_the_float_range_are_named(body, h, message):
    # R_S underflows to 0, or R/R_S, R/h or a term leaves the float range;
    # a bare quotient would raise ZeroDivisionError or give inf.
    with np.errstate(all="raise"), pytest.raises(ValueError, match=f"^{message}$"):
        switch_ratio_weak_field(body, h)


@pytest.mark.parametrize("body", [EARTH, LAB_BODY, BodyConfig(mass=1e-10, radius=1e-15)], ids=["earth", "lab", "small"])
def test_weak_field_deviation_matches_the_decimal_reference(body):
    # exact / weak - 1 cancels ~log10(R/R_S) digits of each ratio; the closed
    # form loses none.
    for h in np.geomspace(1e-3 * body.radius, 1e3 * body.radius, 7):
        got = switch_ratio_weak_field(body, h).deviation
        want = reference(ref_deviation, body.radius, h, body.schwarzschild_radius, prec=100)
        assert relative_error(got, want) <= 1e-14


def test_lapse_gap_is_finite_where_rs_h_and_r_squared_overflow():
    # R_S h and r (r + h) are both past 1e308 here, so their quotient is inf / inf.
    body = BodyConfig(1e300, 1e300)
    got = _lapse_gap(1e300, 1e100, body)
    want = reference(
        lambda r, h, rs: ref_lapse(r + h, rs) - ref_lapse(r, rs), 1e300, 1e100, body.schwarzschild_radius, prec=300
    )
    assert relative_error(got, want) <= 1e-12


def test_switch_ratio_exact_vs_weak_field_sweep():
    # relative deviation bounded by 10 R_S/R across a wide sweep of h
    for body in (EARTH, BodyConfig(mass=1e-10, radius=1e-15)):
        x = body.schwarzschild_radius / body.radius
        for h in np.geomspace(1e-3 * body.radius, 1e3 * body.radius, 13):
            exact = switch_ratio_exact(body, h)
            wf = switch_ratio_weak_field(body, h).ratio
            # 10 R_S/R is the physical bound; a few eps is the measurement floor
            assert abs(exact - wf) / wf < max(10 * x, 5e-15)
            if x <= 1e-8:
                assert abs(exact - wf) / wf < 1e-6


GOLDEN_REPORTS = json.loads((Path(__file__).resolve().parent.parent / "suites" / "golden.expected.json").read_text())
GRAVITY_REPORTS = [r for r in GOLDEN_REPORTS["reports"] if r["scenario"] in ("grav-duration", "grav-order")]


def round12(x):
    return float(f"{x:.12g}")


@pytest.mark.parametrize(
    "report", GRAVITY_REPORTS, ids=[f"{r['scenario']}-{r['inputs']['mass']:g}" for r in GRAVITY_REPORTS]
)
def test_every_printed_gravity_digit_is_right(report):
    # Each float the golden suite prints, outputs and check values alike,
    # is its 100-digit reference rounded to 12 significant digits.
    ref = ref_duration if report["scenario"] == "grav-duration" else ref_order
    outputs, checks = reference(ref, **report["inputs"], prec=100)
    printed = {k: v for k, v in report["outputs"].items() if not isinstance(v, bool)}
    assert printed.keys() == outputs.keys()
    for key, value in printed.items():
        assert value == round12(outputs[key]), key
    for check in report["checks"]:
        if not isinstance(check["actual"], bool):
            assert check["actual"] == round12(checks[check["name"]]), check["name"]


def test_small_mass_limit_curvature_dominates():
    body = BodyConfig(mass=1e-10, radius=1e-15)
    h = 1e-9  # h >> R
    exact = switch_ratio_exact(body, h)
    curvature_only = 2.0 * body.radius / body.schwarzschild_radius
    assert abs(exact - curvature_only) / curvature_only < 1e-3


def test_protocol_duration_earth():
    report = protocol_duration(EARTH, SwitchGeometry(h=1.0, d=0.3e-6))
    assert 8.0 <= report.dt_r <= 10.0
    assert report.dt_exp_low == report.dt_r
    assert abs(report.dt_exp_high - 2 * report.dt_r) < 1e-12
    # Eq-simple cross-check c R^2 d / (G M h)
    simple = C_LIGHT * EARTH.radius ** 2 * 0.3e-6 / (G_NEWTON * EARTH.mass * 1.0)
    assert abs(report.dt_r - simple) / simple < 1e-3


def test_protocol_duration_halves_when_h_doubles():
    a = protocol_duration(EARTH, SwitchGeometry(h=1.0, d=0.3e-6)).dt_r
    b = protocol_duration(EARTH, SwitchGeometry(h=2.0, d=0.3e-6)).dt_r
    assert abs(b - a / 2) / (a / 2) < 1e-3


def test_protocol_duration_small_mass():
    body = BodyConfig(mass=1e-10, radius=1e-15)
    report = protocol_duration(body, SwitchGeometry(h=1e-9, d=1e-15))
    assert 4e-2 <= report.dt_r <= 6e-2


def clock_pair(theta_a, theta_b, t, r_a, r_b, body):
    # energy gaps tuned so the branch phase differences are theta_a, theta_b
    dphi = abs(body.potential(r_a) - body.potential(r_b)) / C_LIGHT ** 2
    return (
        ClockModel(energy_gap=theta_a * HBAR / (t * dphi)),
        ClockModel(energy_gap=theta_b * HBAR / (t * dphi)),
    )


def test_clock_state_t_zero_and_equal_radii():
    # At t = 0, and at equal radii, the clocks read alike in K_AB and K_BA,
    # so the control stays pure before the swap.
    a, b = clock_pair(1.0, 2.0, 1.0, 1.2e4, 1.0e4, LAB_BODY)
    before, after = grav_switch_resync_purity(a, b, 1.2e4, 1.0e4, LAB_BODY, 0.0)
    assert abs(before - 1.0) < 1e-12 and abs(after - 1.0) < 1e-12
    before, after = grav_switch_resync_purity(a, b, 1.1e4, 1.1e4, LAB_BODY, 2.0)
    assert abs(before - 1.0) < 1e-12 and abs(after - 1.0) < 1e-12


def test_joint_state_entangles_control():
    # Unequal radii: the clocks record the configuration, so the control is
    # mixed before the swap.
    a, b = clock_pair(2.0, 2.5, 1.0, 1.2e4, 1.0e4, LAB_BODY)
    before, _ = grav_switch_resync_purity(a, b, 1.2e4, 1.0e4, LAB_BODY, 1.0)
    assert before < 1.0 - 1e-3


def test_resync_purity_returns_to_one():
    a, b = clock_pair(2.0, 1.3, 1.0, 1.2e4, 1.0e4, LAB_BODY)
    before, after = grav_switch_resync_purity(a, b, 1.2e4, 1.0e4, LAB_BODY, 1.0)
    assert before < 1.0 - 1e-6
    assert abs(after - 1.0) < 1e-9


def test_resync_purity_no_internal_dynamics():
    a = ClockModel(energy_gap=0.0)
    b = ClockModel(energy_gap=0.0)
    before, after = grav_switch_resync_purity(a, b, 1.2e4, 1.0e4, LAB_BODY, 5.0)
    assert abs(before - 1.0) < 1e-12
    assert abs(after - 1.0) < 1e-12


def test_resync_purity_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta_a = rng.uniform(0.3 * np.pi, 0.7 * np.pi)
        theta_b = rng.uniform(0.3 * np.pi, 0.7 * np.pi)
        t = rng.uniform(0.5, 2.0)
        r_a = rng.uniform(1.05e4, 2.0e4)
        r_b = 1.0e4
        a, b = clock_pair(theta_a, theta_b, t, r_a, r_b, LAB_BODY)
        before, after = grav_switch_resync_purity(a, b, r_a, r_b, LAB_BODY, t)
        assert abs(after - 1.0) < 1e-9
        assert before < 1.0 - 1e-6


# Finite arguments each public gravity function accepts; every float among
# them is replaced in turn by NaN and by each infinity below.
FLOAT_ARGUMENTS = {
    lapse: dict(r=EARTH.radius, body=EARTH),
    light_coordinate_time: dict(r1=EARTH.radius, r2=EARTH.radius + 1e5, body=EARTH),
    order_margin: dict(tau_star=1.0, r_a=EARTH.radius + 1e5, r_b=EARTH.radius, body=EARTH),
    min_tau_for_order: dict(r_a=EARTH.radius + 1e5, r_b=EARTH.radius, body=EARTH),
    asymmetric_order_threshold: dict(r=EARTH.radius, h=1e5, L=1e5, body=EARTH),
    switch_ratio_exact: dict(body=EARTH, h=1.0),
    switch_ratio_weak_field: dict(body=EARTH, h=1.0),
    grav_switch_resync_purity: dict(
        clock_a=ClockModel(1e-20),
        clock_b=ClockModel(1e-20),
        r_a=EARTH.radius + 1e5,
        r_b=EARTH.radius,
        body=EARTH,
        t=1.0,
    ),
}
KINDS = {
    "r": "radius", "r1": "radius", "r2": "radius", "r_a": "radius", "r_b": "radius",
    "h": "height", "L": "length", "t": "time", "tau_star": "proper time",
}
FLOAT_CASES = [(fn, name) for fn, args in FLOAT_ARGUMENTS.items() for name, value in args.items() if type(value) is float]


def test_float_argument_table_holds_accepted_arguments():
    # Each function gives a finite value at its table's arguments, so each
    # refusal below is due to the one argument replaced.
    assert len(FLOAT_CASES) == 16
    for fn, args in FLOAT_ARGUMENTS.items():
        result = fn(**args)
        values = result if isinstance(result, tuple) else [getattr(result, "ratio", result)]
        assert np.isfinite(values).all(), fn.__name__


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn, name", FLOAT_CASES, ids=[f"{fn.__name__}-{name}" for fn, name in FLOAT_CASES])
def test_non_finite_argument_is_named(fn, name, bad):
    # NaN passes some of the length comparisons and fails others; an infinite
    # radius would give the lapse 1 and a light time inf. Each is refused by name.
    with pytest.raises(ValueError, match=f"^{KINDS[name]} {name} is not finite$"):
        fn(**{**FLOAT_ARGUMENTS[fn], name: bad})
