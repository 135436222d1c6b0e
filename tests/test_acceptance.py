"""Acceptance gate: every headline number at its stated tolerance.

Each criterion is one test that prints its own pass/fail line (visible under
pytest -s or on failure).
"""

import io
import contextlib
from pathlib import Path

import numpy as np

from switchlab import agents, gravity, order, process
from switchlab.linalg import ID2, PAULI_Z, hermitian_eigen, kron
from switchlab.ops import (
    apply_choi,
    apply_operation,
    choi_of_operation,
    kraus_from_choi,
    rand_cptp,
    rand_density,
    rand_instrument,
    rand_operation,
    rand_unitary,
    stinespring_dilation,
)

GOLDEN_SUITE = Path(__file__).resolve().parent.parent / "suites" / "golden.json"
SQRT2 = np.sqrt(2.0)


def _report(num, description, ok):
    print(f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_ocb_violation():
    got = order.success_probability(process.ocb_process(), order.ocb_strategy())
    ok = abs(got - (2.0 + SQRT2) / 4.0) <= 1e-9
    _report(1, f"OCB success probability = (2+sqrt2)/4 (got {got:.12f})", ok)


def test_criterion_02_causal_bound():
    rng = np.random.default_rng(1)
    strategy = order.ocb_strategy()
    worst = 0.0
    for _ in range(200):
        w_ba = process.channel_process(
            rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng))
        )
        w_ab = process.channel_process_reverse(
            rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng))
        )
        mixed = process.causal_mixture(w_ab, w_ba, float(rng.uniform()))
        worst = max(worst, order.success_probability(mixed, strategy))
    ok = worst <= 0.75 + 1e-9
    _report(2, f"200 causally separable processes stay below 3/4 (max {worst:.12f})", ok)


def test_criterion_03_reduced_matrices():
    w = process.ocb_process()
    s = order.ocb_strategy()
    dev = 0.0
    for a in range(2):
        want = kron(0.5 * (ID2 + (-1) ** a / SQRT2 * PAULI_Z), ID2)
        dev = max(dev, np.abs(order.bob_reduced_matrix(w, s, a) - want).max())
    for b in range(2):
        want = kron(0.5 * (ID2 + (-1) ** b / SQRT2 * PAULI_Z), ID2)
        dev = max(dev, np.abs(order.alice_reduced_matrix(w, s, b) - want).max())
    ok = dev <= 1e-9
    _report(3, f"reduced matrices match their closed forms (max dev {dev:.2e})", ok)


def test_criterion_04_switch_contraction_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        psi = rand_unitary(2, rng)[:, 0]
        spec = order.SwitchSpec(target_state=psi)
        vec = order.switch_process_vector(spec)
        ua, ub = rand_unitary(2, rng), rand_unitary(2, rng)
        contracted = order.contract_switch_vector(vec, ua, ub)
        closed_form = (
            np.kron(ub @ ua @ psi, [1, 0]) + np.kron(ua @ ub @ psi, [0, 1])
        ) / SQRT2
        supermap = order.switch_supermap_state(ua, ub, spec)
        f1 = abs(np.vdot(contracted, closed_form)) ** 2
        f2 = abs(np.vdot(contracted, supermap)) ** 2
        worst = max(worst, abs(f1 - 1.0), abs(f2 - 1.0))
    ok = worst <= 1e-9
    _report(4, f"switch vector contraction = closed form = supermap (dev {worst:.2e})", ok)


def test_criterion_05_chsh_temporal_order():
    up = np.array([1, 0], dtype=complex)
    plus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, +1)
    minus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, -1)
    dev = max(
        abs(order.chsh_value(plus) + 2 * SQRT2),
        abs(order.chsh_value(minus) - 2 * SQRT2),
    )
    rng = np.random.default_rng(5)
    worst_sep = max(
        abs(order.chsh_value(np.kron(rand_unitary(2, rng)[:, 0], rand_unitary(2, rng)[:, 0])))
        for _ in range(100)
    )
    ok = dev <= 1e-9 and worst_sep <= 2.0 + 1e-9
    _report(5, f"CHSH on psi-/psi+ hits +-2sqrt2; separable max {worst_sep:.6f}", ok)


def test_criterion_06_channel_process_equivalence():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        channel = rand_cptp(2, 2, 2, rng)
        rho_b = rand_density(2, rng)
        w = process.channel_process(rho_b, choi_of_operation(channel))
        alice = rand_instrument(2, 2, 2, rng)
        bob = rand_instrument(2, 2, 2, rng)
        for m_op in alice:
            for n_op in bob:
                got = process.probability(
                    w, choi_of_operation(m_op), choi_of_operation(n_op)
                )
                direct = np.trace(
                    apply_operation(m_op, apply_operation(channel, apply_operation(n_op, rho_b)))
                ).real
                worst = max(worst, abs(got - direct))
    ok = worst <= 1e-9
    _report(6, f"channel process = sequential composition over 50 draws (dev {worst:.2e})", ok)


def test_criterion_07_round_trips():
    rng = np.random.default_rng(7)
    worst = 0.0
    ranks_ok = True
    for i in range(100):
        d_in = int(rng.choice([2, 3]))
        d_out = int(rng.choice([2, 3]))
        k = int(rng.integers(-(-d_in // d_out), d_in * d_out + 1))
        op = rand_cptp(d_in, d_out, k, rng) if i % 2 else rand_operation(d_in, d_out, k, rng)
        choi = choi_of_operation(op)
        rebuilt = kraus_from_choi(choi)
        w, _ = hermitian_eigen(choi.matrix)
        ranks_ok = ranks_ok and len(rebuilt.kraus) == int(np.sum(w > 1e-9))
        dil = stinespring_dilation(op)
        rho = rand_density(d_in, rng)
        reference = apply_operation(op, rho)
        worst = max(
            worst,
            np.abs(apply_operation(rebuilt, rho) - reference).max(),
            np.abs(apply_choi(choi, rho) - reference).max(),
            np.abs(dil.apply(rho) - reference).max(),
        )
    ok = worst <= 1e-9 and ranks_ok
    _report(7, f"Choi/Kraus/Stinespring round trips over 100 ops (dev {worst:.2e})", ok)


def test_criterion_08_ocb_validity():
    w = process.ocb_process()
    vals, _ = hermitian_eigen(w.matrix)
    trace = np.trace(w.matrix).real
    report = process.validate_process(w, 500, np.random.default_rng(8))
    ok = (
        vals[0] >= -1e-9
        and abs(trace - 4.0) <= 1e-9
        and report.max_norm_deviation < 1e-8
    )
    _report(
        8,
        f"OCB process valid: eig floor {vals[0]:.2e}, trace {trace:.9f}, "
        f"normalization dev {report.max_norm_deviation:.2e}",
        ok,
    )


def test_criterion_09_earth_timing():
    rep = gravity.protocol_duration(gravity.EARTH, gravity.SwitchGeometry(h=1.0, d=0.3e-6))
    coefficient = rep.ratio / gravity.C_LIGHT  # dt_exp ~ coefficient * d / h with h = 1
    ok = 8.0 <= rep.dt_r <= 10.0 and abs(coefficient - 3.0e7) / 3.0e7 <= 0.05
    _report(9, f"Earth run: dt_r = {rep.dt_r:.3f} s, coefficient {coefficient:.3e}", ok)


def test_criterion_10_small_mass_timing():
    body = gravity.BodyConfig(mass=1e-10, radius=1e-15)
    rep = gravity.protocol_duration(body, gravity.SwitchGeometry(h=1e-9, d=1e-15))
    ok = 4e-2 <= rep.dt_r <= 6e-2
    _report(10, f"small-mass run: dt_r = {rep.dt_r:.4f} s in [0.04, 0.06]", ok)


def test_criterion_11_exact_vs_weak_field():
    worst = 0.0
    for scale in (1e-8, 1e-9, 1e-12):
        radius = 1.0
        mass = scale * radius * gravity.C_LIGHT ** 2 / (2 * gravity.G_NEWTON)
        body = gravity.BodyConfig(mass=mass, radius=radius)
        for h in np.geomspace(1e-3, 1e3, 13):
            exact = gravity.switch_ratio_exact(body, h)
            weak = gravity.switch_ratio_weak_field(body, h).ratio
            worst = max(worst, abs(exact - weak) / weak)
    ok = worst <= 1e-6
    _report(11, f"exact vs weak-field ratio across h sweep (rel dev {worst:.2e})", ok)


def test_criterion_12_clock_resynchronization():
    rng = np.random.default_rng(12)
    body = gravity.BodyConfig(mass=6.7315195e26, radius=1.0e4)
    worst_after = 0.0
    best_before = 0.0
    for _ in range(100):
        t = rng.uniform(0.5, 2.0)
        r_a = rng.uniform(1.05e4, 2.0e4)
        r_b = 1.0e4
        dphi = abs(body.potential(r_a) - body.potential(r_b)) / gravity.C_LIGHT ** 2
        gap_a = rng.uniform(0.3 * np.pi, 0.7 * np.pi) * gravity.HBAR / (t * dphi)
        gap_b = rng.uniform(0.3 * np.pi, 0.7 * np.pi) * gravity.HBAR / (t * dphi)
        before, after = gravity.grav_switch_resync_purity(
            gravity.ClockModel(gap_a), gravity.ClockModel(gap_b), r_a, r_b, body, t
        )
        worst_after = max(worst_after, abs(after - 1.0))
        best_before = max(best_before, before)
    ok = worst_after <= 1e-9 and best_before < 1.0 - 1e-6
    _report(
        12,
        f"resync purity: after dev {worst_after:.2e}, before max {best_before:.6f}",
        ok,
    )


def test_criterion_13_trigger():
    p = agents.TriggerParams(1.0, 1e-6, 1e-30, 1e-20)
    angle = agents.crossing_rotation_angle(p)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    u = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * sx
    fidelity = abs(np.vdot(np.array([0, 1]), u @ np.array([1, 0], dtype=complex)))
    ok = abs(angle - np.pi / 2) <= 1e-12 and abs(fidelity - 1.0) <= 1e-12
    _report(13, f"trigger angle {angle:.15f}, |<A1|rotated>| = {fidelity:.15f}", ok)


def test_criterion_14_agent_model():
    amps = agents.AgentAmplitudes()
    e = np.eye(5)
    dev = 0.0
    for sign in (+1, -1):
        res = agents.run_switch_model(amps, e[0], zeta=3, sign=sign)
        expected = (e[2] + sign * e[4]) / SQRT2
        dev = max(dev, np.abs(res.target - expected).max())
    res_e4 = agents.run_switch_model(amps, e[3], zeta=2, sign=+1)
    dev = max(dev, np.abs(res_e4.target - e[4]).max())
    rng = np.random.default_rng(14)
    alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    alpha /= np.linalg.norm(alpha)
    full = agents.apply_agent_a_then_b(amps, alpha)
    total = sum(agents.postselect(full, zeta)[1] for zeta in range(4))
    ok = dev <= 1e-9 and abs(total - 1.0) <= 1e-9
    _report(14, f"agent switch outputs (dev {dev:.2e}), postselect total {total:.12f}", ok)


def test_criterion_15_cli_determinism():
    from switchlab import cli

    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["suite", "--config", str(GOLDEN_SUITE)])
        assert code == 0
        outputs.append(buf.getvalue().encode("utf-8"))
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(15, f"golden suite byte-identical across runs ({len(outputs[0])} bytes)", ok)
