from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab.agents import (
    DIMS,
    HBAR,
    AgentAmplitudes,
    ModelState,
    TriggerParams,
    apply_agent_a_then_b,
    apply_agent_b_then_a,
    crossing_rotation_angle,
    max_isometry_deviation,
    postselect,
    run_switch_model,
)

# Level indices as in switchlab.agents: A_j at index j, B_j at index j-1.
A3, A5 = 3, 5
B3, B5 = 2, 4

E = {i: np.eye(5)[i - 1] for i in range(1, 6)}  # target basis vectors


def generic_amps(rng, phases=False):
    def mod():
        return np.sqrt(rng.uniform(0.1, 0.9))

    def ph():
        return rng.uniform(0, 2 * np.pi) if phases else 0.0

    return AgentAmplitudes(
        c_1a=mod() * np.exp(1j * ph()),
        c_4a=mod() * np.exp(1j * ph()),
        c_1b=mod() * np.exp(1j * ph()),
        c_2b=mod() * np.exp(1j * ph()),
        f_ba=mod() * np.exp(1j * ph()),
        f_ab=mod() * np.exp(1j * ph()),
        delta_a=tuple(ph() for _ in range(5)),
        delta_b=tuple(ph() for _ in range(5)),
        gamma_ba=ph(),
        gamma_ab=ph(),
    )


def test_ideal_a_then_b_full_absorption():
    out = apply_agent_a_then_b(AgentAmplitudes(), E[1])
    expected = np.zeros(DIMS, dtype=complex)
    expected[3, 4, 2, 0, 0] = 1.0  # |A_3>|B_5>|e_3>, no heralds
    assert np.abs(out.tensor - expected).max() < 1e-12


def test_no_coupling_input_decays_to_psi00():
    out = apply_agent_a_then_b(AgentAmplitudes(), E[3])
    expected = np.zeros(DIMS, dtype=complex)
    expected[5, 4, 2, 1, 1] = 1.0  # agents decayed, target unchanged, both heralds
    assert np.abs(out.tensor - expected).max() < 1e-12


def test_ideal_b_then_a_full_absorption():
    out = apply_agent_b_then_a(AgentAmplitudes(), E[1])
    expected = np.zeros(DIMS, dtype=complex)
    expected[5, 2, 4, 0, 0] = 1.0  # |A_5>|B_3>|e_5>
    assert np.abs(out.tensor - expected).max() < 1e-12


def test_b_then_a_on_e4_only_a_scatters():
    out = apply_agent_b_then_a(AgentAmplitudes(), E[4])
    expected = np.zeros(DIMS, dtype=complex)
    expected[5, 4, 4, 0, 1] = 1.0  # e_5 out, B heralded
    assert np.abs(out.tensor - expected).max() < 1e-12


def test_branch_amplitudes_match_term_by_term():
    # amplitude oracle: coefficients of the four-branch expansion
    rng = np.random.default_rng(0)
    amps = generic_amps(rng)
    alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    alpha /= np.linalg.norm(alpha)
    out = apply_agent_a_then_b(amps, alpha).tensor
    c1a, c4a = amps.c_a(1), amps.c_a(4)
    c1b, c2b = amps.c_b(1), amps.c_b(2)
    d = amps.d_a
    db = amps.d_b
    assert abs(out[3, 4, 2, 0, 0] - alpha[0] * c1a * amps.f_ba) < 1e-12
    assert abs(out[3, 4, 1, 0, 1] - alpha[0] * c1a * amps.g_ba) < 1e-12
    assert abs(out[5, 2, 3, 1, 0] - alpha[0] * d(1) * c1b) < 1e-12
    assert abs(out[5, 4, 2, 1, 0] - alpha[1] * d(2) * c2b) < 1e-12
    assert abs(out[5, 4, 4, 0, 1] - alpha[3] * c4a * db(5)) < 1e-12
    for i in range(5):
        assert abs(out[5, 4, i, 1, 1] - alpha[i] * d(i + 1) * db(i + 1)) < 1e-12


@pytest.mark.parametrize("order", [apply_agent_a_then_b, apply_agent_b_then_a])
def test_unitarity_for_arbitrary_amplitudes(order):
    rng = np.random.default_rng(1)
    for _ in range(25):
        amps = generic_amps(rng, phases=True)
        alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        alpha /= np.linalg.norm(alpha)
        out = order(amps, alpha)
        assert abs(np.linalg.norm(out.tensor) - 1.0) < 1e-9
        # ... and for every input at once: the order's V^dagger V is 1.
        v = amps.isometries[(apply_agent_a_then_b, apply_agent_b_then_a).index(order)]
        v = v.reshape(-1, 5)
        assert np.abs(v.conj().T @ v - np.eye(5)).max() <= 1e-15


def test_isometries_are_built_once_and_read_only():
    amps = generic_amps(np.random.default_rng(6), phases=True)
    assert amps.isometries is amps.isometries
    for v in amps.isometries:
        with pytest.raises(ValueError, match="read-only"):
            v[1, 0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            v.flags.writeable = True


def test_rejects_vanishing_or_nan_states():
    with pytest.raises(ValueError, match="must not all vanish"):
        apply_agent_a_then_b(AgentAmplitudes(), np.zeros(5))
    with pytest.raises(ValueError, match="must not all vanish"):
        apply_agent_a_then_b(AgentAmplitudes(), [np.nan, 1, 0, 0, 0])
    nan_state = np.zeros(DIMS, dtype=complex)
    nan_state[1, 0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        ModelState(nan_state)
    with pytest.raises(ValueError, match="exceeds one"):
        AgentAmplitudes(c_1a=np.nan)


def test_modulus_in_the_slack_above_one_scatters_finitely():
    # |c| = 1 + 1e-13 is within MODULUS_TOL; its complement clamps to 0
    # instead of the square root of a negative number.
    amps = AgentAmplitudes(c_1a=1 + 1e-13)
    assert amps.d_a(1) == 0
    out = apply_agent_a_then_b(amps, E[1]).tensor
    assert np.isfinite(out).all()
    assert abs(np.linalg.norm(out) - 1.0) < 1e-9
    # A then B sends e_1 out with weight |c_1a|^2 = 1 + 2e-13, which the
    # isometry check reads; B then A absorbs e_1 in B and stays exact.
    assert max_isometry_deviation(amps) == pytest.approx(2e-13, rel=1e-3)


def test_postselect_ideal_run():
    out = apply_agent_a_then_b(AgentAmplitudes(), E[1])
    selected, prob = postselect(out, 3)
    assert abs(prob - 1.0) < 1e-12
    assert abs(selected.tensor[3, 4, 2, 0, 0] - 1.0) < 1e-12


def test_postselect_orthogonal_input():
    out = apply_agent_a_then_b(AgentAmplitudes(), E[3])
    selected, prob = postselect(out, 3)
    assert selected is None and prob == 0.0


def test_postselect_completeness():
    rng = np.random.default_rng(2)
    amps = generic_amps(rng, phases=True)
    alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    alpha /= np.linalg.norm(alpha)
    out = apply_agent_a_then_b(amps, alpha)
    total = sum(postselect(out, zeta)[1] for zeta in range(4))
    assert abs(total - 1.0) < 1e-9


def test_phase_covariance():
    # free phases shift branch phases but never branch probabilities
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    alpha /= np.linalg.norm(alpha)
    base = generic_amps(rng)
    shifted = AgentAmplitudes(
        c_1a=base.c_1a,
        c_4a=base.c_4a,
        c_1b=base.c_1b,
        c_2b=base.c_2b,
        f_ba=base.f_ba,
        f_ab=base.f_ab,
        delta_a=tuple(0.7 for _ in range(5)),
        delta_b=tuple(-0.4 for _ in range(5)),
        gamma_ba=1.1,
        gamma_ab=0.2,
    )
    out0 = apply_agent_a_then_b(base, alpha).tensor
    out1 = apply_agent_a_then_b(shifted, alpha).tensor
    assert np.abs(np.abs(out0) - np.abs(out1)).max() < 1e-12


def test_run_switch_model_e1_superposes_orders():
    for sign in (+1, -1):
        result = run_switch_model(AgentAmplitudes(), E[1], zeta=3, sign=sign)
        expected = (E[3] + sign * E[5]) / np.sqrt(2.0)
        assert result.target is not None
        assert np.abs(result.target - expected).max() < 1e-9
        assert abs(result.probability - 0.5) < 1e-12


def test_run_switch_model_e4_is_trivial():
    result = run_switch_model(AgentAmplitudes(), E[4], zeta=2, sign=+1)
    assert np.abs(result.target - E[5]).max() < 1e-9
    assert abs(result.probability - 1.0) < 1e-12


def test_run_switch_model_trivial_when_alpha1_zero():
    # both orders act identically on inputs without an e_1 component
    rng = np.random.default_rng(4)
    amps = generic_amps(rng)
    alpha = np.array([0.0, 0.6, 0.0, 0.8, 0.0], dtype=complex)
    ba = apply_agent_a_then_b(amps, alpha).tensor
    ab = apply_agent_b_then_a(amps, alpha).tensor
    assert np.abs(ba - ab).max() < 1e-12


def test_zeta3_state_independent_of_other_components():
    rng = np.random.default_rng(5)
    amps = generic_amps(rng)
    res1 = run_switch_model(amps, E[1], zeta=3, sign=+1)
    mixed = np.array([0.5, 0.4, 0.3, 0.5, 0.4], dtype=complex)
    res2 = run_switch_model(amps, mixed, zeta=3, sign=+1)
    overlap = abs(np.vdot(res1.residual.reshape(-1), res2.residual.reshape(-1)))
    assert abs(overlap - 1.0) < 1e-9


@pytest.mark.parametrize("sign", [+1, -1])
def test_run_switch_model_single_surviving_order(sign):
    # f_ab = 0.6 under zeta = 1 keeps only B then A (the A-herald branch
    # c_1b g_ab |e_4>); f_ba = 0.6 under zeta = 2 keeps only A then B
    # (c_1a g_ba |e_2>). The measured sign reaches the target only when the
    # surviving order is the one it multiplies.
    only_ba = run_switch_model(AgentAmplitudes(f_ab=0.6), E[1], zeta=1, sign=sign)
    assert only_ba.target is not None
    assert np.abs(only_ba.target - sign * E[4]).max() < 1e-12
    assert abs(only_ba.probability - 0.16) < 1e-12
    only_ab = run_switch_model(AgentAmplitudes(f_ba=0.6), E[1], zeta=2, sign=sign)
    assert only_ab.target is not None
    assert np.abs(only_ab.target - E[2]).max() < 1e-12
    assert abs(only_ab.probability - 0.16) < 1e-12


def test_run_switch_model_without_a_product_branch_has_no_target():
    # With every modulus 0.6, e1 + e4 under zeta = 2 leaves each order branch
    # entangled across the agents | target cut (Schmidt values 0.3, 0.24).
    amps = AgentAmplitudes(*(0.6,) * 6)
    result = run_switch_model(amps, E[1] + E[4], zeta=2, sign=+1)
    assert result.target is None
    assert abs(np.linalg.norm(result.residual) - 1.0) < 1e-12
    for apply in (apply_agent_a_then_b, apply_agent_b_then_a):
        branch = apply(amps, E[1] + E[4]).tensor[:, :, :, 0, 1]
        assert np.linalg.svd(branch.reshape(30, 5), compute_uv=False)[1] > 0.1


def test_run_switch_model_zero_probability_paths():
    with pytest.raises(ValueError):
        run_switch_model(AgentAmplitudes(), E[3], zeta=3, sign=+1)
    with pytest.raises(ValueError):
        # identical branches cancel under the minus outcome
        run_switch_model(AgentAmplitudes(), E[4], zeta=2, sign=-1)


def test_trigger_params_basic():
    p = TriggerParams(1.0, 1e-6, 1e-21, 1e-25)
    assert abs(p.omega - np.pi / 2) < 1e-15
    assert abs(p.period - 4.0) < 1e-12
    want_amp = 2 * 1e-6 * 1e-21 / (np.pi * HBAR * p.omega)
    assert abs(p.amplitude - want_amp) < 1e-6 * want_amp


def test_trigger_regime_flags():
    good = TriggerParams(1.0, 1e-6, 1e-30, 1e-20)
    assert good.regime_ok
    # the crossing window is narrow on the scale of the quarter period
    assert good.crossing_window < 0.01 * good.tau_star
    # width comparable to sigma breaks the localization condition
    bad = TriggerParams(1.0, 1e-6, 1e-21, 1e-25)
    assert not bad.regime_flags["width_over_sigma"]
    assert not bad.regime_ok


def test_trigger_regime_quotients_past_the_float_range_pass_their_thresholds():
    # width / sigma is past 1e308 and energy / potential overflows: both flags
    # hold, as the exact quotients' would, with numpy raising on overflow.
    with np.errstate(over="raise"):
        flags = TriggerParams(1.0, 5.4e267, 1.9e-277, 4.4e210).regime_flags
    assert flags == {"amplitude_over_width": False, "width_over_sigma": True, "energy_over_potential": True}


def test_crossing_rotation_angle_is_quarter_turn():
    p = TriggerParams(1.0, 1e-6, 1e-30, 1e-20)
    assert abs(crossing_rotation_angle(p) - np.pi / 2) < 1e-12
    p2 = TriggerParams(0.35, 2e-6, 5e-29, 3e-19)
    assert abs(crossing_rotation_angle(p2) - np.pi / 2) < 1e-12


@pytest.mark.parametrize("field", range(4))
@pytest.mark.parametrize("value", [0.0, -1e-20, np.nan])
def test_trigger_params_built_directly_must_be_positive(field, value):
    # tau*, Delta, V0 and m, each in turn, set to a non-positive or NaN value.
    args = [1.0, 1e-6, 1e-30, 1e-20]
    args[field] = value
    with pytest.raises(ValueError, match="must be positive"):
        TriggerParams(*args)


@pytest.mark.parametrize("derived", ["omega", "amplitude"])
def test_trigger_params_derive_omega_and_amplitude(derived):
    # Neither can be given, so neither can disagree with tau*, Delta and V0.
    with pytest.raises(TypeError):
        TriggerParams(1.0, 1e-6, 1e-30, 1e-20, **{derived: 1.0})


@pytest.mark.parametrize("amplitude", [0.0, -1.0, np.nan])
def test_trigger_params_check_a_given_amplitude(amplitude):
    # The amplitude is derived, so its range check is reached through a
    # subclass that gives one in place of 2 Delta V0 / (pi hbar omega).
    def given(a):
        return type("GivenAmplitude", (TriggerParams,), {"amplitude": property(lambda self: a)})

    args = (1.0, 1e-6, 1e-30, 1e-20)
    assert given(1.0)(*args).amplitude == 1.0
    with pytest.raises(ValueError, match="trigger amplitude is not positive and finite"):
        given(amplitude)(*args)


def test_crossing_angle_linear_in_potential():
    # Doubling V0 with the crossing window held fixed doubles the angle; a
    # stand-in holds the window, since TriggerParams derives it from V0.
    p = TriggerParams(1.0, 1e-6, 1e-30, 1e-20)
    bumped = SimpleNamespace(potential=2 * p.potential, crossing_window=p.crossing_window)
    assert abs(crossing_rotation_angle(bumped) - 2 * crossing_rotation_angle(p)) < 1e-12


def test_rotation_takes_a0_to_a1():
    p = TriggerParams(1.0, 1e-6, 1e-30, 1e-20)
    theta = crossing_rotation_angle(p)
    # 2x2 matrix exponential oracle: exp(-i theta s_x) = cos t - i sin t s_x
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * sx
    rotated = u @ np.array([1, 0], dtype=complex)
    fidelity = abs(np.vdot(np.array([0, 1]), rotated))
    assert abs(fidelity - 1.0) < 1e-12


# Reference: the two orders written out as explicit branch tables, target
# index i -> [(amplitude, A level, B level, outgoing target, det A, det B)].
def reference_a_then_b(amps, i):
    if i == 0:  # e_1
        return [
            (amps.c_a(1) * amps.f_ba, A3, B5, 2, 0, 0),
            (amps.c_a(1) * amps.g_ba, A3, B5, 1, 0, 1),
            (amps.d_a(1) * amps.c_b(1), A5, B3, 3, 1, 0),
            (amps.d_a(1) * amps.d_b(1), A5, B5, 0, 1, 1),
        ]
    if i == 1:  # e_2
        return [
            (amps.d_a(2) * amps.c_b(2), A5, B5, 2, 1, 0),
            (amps.d_a(2) * amps.d_b(2), A5, B5, 1, 1, 1),
        ]
    if i == 3:  # e_4
        return [
            (amps.c_a(4) * amps.d_b(5), A5, B5, 4, 0, 1),
            (amps.d_a(4) * amps.d_b(4), A5, B5, 3, 1, 1),
        ]
    # e_3, e_5 couple to nothing
    j = i + 1
    return [(amps.d_a(j) * amps.d_b(j), A5, B5, i, 1, 1)]


def reference_b_then_a(amps, i):
    if i == 0:  # e_1
        return [
            (amps.c_b(1) * amps.f_ab, A5, B3, 4, 0, 0),
            (amps.c_b(1) * amps.g_ab, A5, B3, 3, 1, 0),
            (amps.d_b(1) * amps.c_a(1), A3, B5, 1, 0, 1),
            (amps.d_b(1) * amps.d_a(1), A5, B5, 0, 1, 1),
        ]
    if i == 1:  # e_2
        return [
            (amps.c_b(2) * amps.d_a(3), A5, B5, 2, 1, 0),
            (amps.d_b(2) * amps.d_a(2), A5, B5, 1, 1, 1),
        ]
    if i == 3:  # e_4
        return [
            (amps.d_b(4) * amps.c_a(4), A5, B5, 4, 0, 1),
            (amps.d_b(4) * amps.d_a(4), A5, B5, 3, 1, 1),
        ]
    j = i + 1
    return [(amps.d_b(j) * amps.d_a(j), A5, B5, i, 1, 1)]


def reference_apply(branches, amps, alpha):
    alpha = np.asarray(alpha, dtype=complex)
    alpha = alpha / np.linalg.norm(alpha)
    out = np.zeros(DIMS, dtype=complex)
    for i in range(5):
        if alpha[i] == 0:
            continue
        for amp, a_lvl, b_lvl, e_out, det_a, det_b in branches(amps, i):
            out[a_lvl, b_lvl, e_out, det_a, det_b] += alpha[i] * amp
    return out


def assert_same_bits(actual, expected):
    # Equal float64 components, signs of zeros included.
    actual, expected = actual.view(np.float64), expected.view(np.float64)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


PHASES = st.floats(-2 * np.pi, 2 * np.pi)
MODULI = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
AMPLITUDES = MODULI | st.builds(lambda m, p: m * np.exp(1j * p), MODULI, PHASES)
TARGET_COMPONENTS = st.sampled_from([0j, -0j, 1 + 0j]) | st.complex_numbers(
    max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=300, deadline=None)
@given(
    c=st.tuples(*[AMPLITUDES] * 6),
    deltas=st.tuples(*[PHASES] * 10),
    gammas=st.tuples(PHASES, PHASES),
    alpha=st.lists(TARGET_COMPONENTS, min_size=5, max_size=5).filter(
        lambda a: np.linalg.norm(a) > 1e-3
    ),
)
def test_both_orders_equal_the_branch_tables_bit_for_bit(c, deltas, gammas, alpha):
    amps = AgentAmplitudes(*c, deltas[:5], deltas[5:], *gammas)
    for order, table in (
        (apply_agent_a_then_b, reference_a_then_b),
        (apply_agent_b_then_a, reference_b_then_a),
    ):
        assert_same_bits(order(amps, alpha).tensor, reference_apply(table, amps, alpha))


def test_crossing_rotation_angle_leaves_the_regime_to_its_caller():
    # Out of regime, the angle is still V0 epsilon / hbar, with no warning;
    # the CLI reports the regime as a check.
    bad = TriggerParams(1.0, 1e-6, 1e-21, 1e-25)
    assert not bad.regime_ok
    assert abs(crossing_rotation_angle(bad) - np.pi / 2) < 1e-12
