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
    arrival_proper_time,
    asymmetric_order_threshold,
    grav_switch_clock_state,
    grav_switch_joint_state,
    grav_switch_resync_purity,
    lapse,
    light_coordinate_time,
    min_tau_for_order,
    protocol_duration,
    switch_ratio_exact,
    switch_ratio_weak_field,
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


def test_light_time_additive_over_segments():
    r1, r2, r3 = COMPACT.radius, 3e4, 8e4
    whole = light_coordinate_time(r1, r3, COMPACT)
    split = light_coordinate_time(r1, r2, COMPACT) + light_coordinate_time(r2, r3, COMPACT)
    assert abs(whole - split) < 1e-12 * whole


def test_arrival_proper_time_equal_radii_and_flat():
    body = COMPACT
    r = 2.5e4
    t_c = 0.0
    got = arrival_proper_time(1.0, r, r, body)
    # r_a = r_b: tau* plus nothing to travel (t_c = 0 handled by degenerate span)
    assert abs(got - 1.0) < 1e-12
    tiny = BodyConfig(mass=1e-3, radius=1.0)
    got = arrival_proper_time(1.0, 1.0, 2.0, tiny)
    assert abs(got - (1.0 + 1.0 / C_LIGHT)) < 1e-15


def test_arrival_proper_time_composition_oracle():
    body = COMPACT
    r_a, r_b = 3e4, 2e4
    tau_star = 0.37
    # step-by-step: tau* -> coordinate time, add t_c, convert to b's clock
    t_emit = tau_star / lapse(r_a, body)
    t_arrive = t_emit + light_coordinate_time(r_b, r_a, body)
    want = lapse(r_b, body) * t_arrive
    got = arrival_proper_time(tau_star, r_a, r_b, body)
    assert abs(got - want) < 1e-12


def test_min_tau_for_order_threshold():
    body = COMPACT
    r_a, r_b = 3e4, 2e4
    th = min_tau_for_order(r_a, r_b, body)
    assert th > 0
    above = 1.01 * th
    below = 0.99 * th
    assert arrival_proper_time(above, r_a, r_b, body) < above  # A precedes B
    assert arrival_proper_time(below, r_a, r_b, body) > below  # not ordered yet
    # fixed point: equality at the threshold
    assert abs(arrival_proper_time(th, r_a, r_b, body) - th) < 1e-9 * th


def test_min_tau_for_order_earth_scale():
    # static agents near Earth's surface need of order a year
    th = min_tau_for_order(EARTH.radius + 1e5, EARTH.radius, EARTH)
    assert 1e7 < th < 1e8
    above = 1.01 * th
    assert arrival_proper_time(above, EARTH.radius + 1e5, EARTH.radius, EARTH) < above


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
    # algebraic identity: (R/R_S)(2R/h + 2) equals the g / R_0101 form
    r, rs = EARTH.radius, EARTH.schwarzschild_radius
    direct = (r / rs) * (2.0 * r / 1.0 + 2.0)
    assert abs(wf.ratio - direct) / direct < 1e-12


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
    a, b = clock_pair(1.0, 2.0, 1.0, 1.2e4, 1.0e4, LAB_BODY)
    s0 = grav_switch_clock_state(a, b, 1.2e4, 1.0e4, LAB_BODY, 0.0, "K_AB")
    plus = np.array([1, 1]) / np.sqrt(2)
    assert np.abs(s0 - np.kron(plus, plus)).max() < 1e-12
    s_ab = grav_switch_clock_state(a, b, 1.1e4, 1.1e4, LAB_BODY, 2.0, "K_AB")
    s_ba = grav_switch_clock_state(a, b, 1.1e4, 1.1e4, LAB_BODY, 2.0, "K_BA")
    assert np.abs(s_ab - s_ba).max() < 1e-12


def test_joint_state_entangles_control():
    from switchlab.linalg import partial_trace

    a, b = clock_pair(2.0, 2.5, 1.0, 1.2e4, 1.0e4, LAB_BODY)
    joint = grav_switch_joint_state(a, b, 1.2e4, 1.0e4, LAB_BODY, 1.0)
    rho = np.outer(joint, joint.conj())
    rho_c = partial_trace(rho, (2, 4), keep=(0,))
    purity = np.trace(rho_c @ rho_c).real
    assert purity < 1.0 - 1e-3


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
