"""Few-level agent model for the switch operations, plus the oscillator
trigger.

Agent A has six levels A_0..A_5 and absorbs target photons e_1 (-> emits e_2,
lands in A_3) or e_4 (-> e_5, lands in A_5); agent B has five levels B_1..B_5
and absorbs e_1 (-> e_4, lands in B_3) or e_2 (-> e_3, lands in B_5). An agent
that does not absorb decays to its ground level and emits a herald photon
(e_6 for A, e_7 for B) recorded by a detector flag qubit. Postselections
zeta = 0..3 select the detector patterns (both heralds, only e_6, only e_7,
none).

State layout: (A levels 6) x (B levels 5) x (target e_1..e_5) x (det A 2)
x (det B 2).
"""

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .gravity import HBAR
from .linalg import DEFAULT_TOL, MODULUS_TOL, ROUNDOFF_TOL, ZERO_PROB_TOL, _frozen, _identity, close, require_finite

__all__ = [
    "DIMS",
    "AgentAmplitudes",
    "ModelState",
    "apply_agent_a_then_b",
    "apply_agent_b_then_a",
    "max_isometry_deviation",
    "postselect",
    "run_switch_model",
    "SwitchModelResult",
    "TriggerParams",
    "crossing_rotation_angle",
    "trigger_scenario",
    "agent_switch_scenario",
]

DIMS = (6, 5, 5, 2, 2)

# level indices: A_j at index j; B_j and e_j at index j-1
A3, A5 = 3, 5
B3, B5 = 2, 4


def _phase(angle):
    return complex(np.exp(1j * angle))


def _complement(amp):
    # sqrt(1 - |amp|^2), zero for a modulus in the MODULUS_TOL slack above one.
    return np.sqrt(max(1.0 - abs(amp) ** 2, 0.0))


@dataclass(frozen=True)
class AgentAmplitudes:
    """Absorption and double-scattering amplitudes with their free phases.

    Per channel |c|^2 + |d|^2 = 1 and |f|^2 + |g|^2 = 1; the non-absorption
    amplitudes d and g carry free phases (delta, gamma) and default to the
    positive root.
    """

    c_1a: complex = 1.0
    c_4a: complex = 1.0
    c_1b: complex = 1.0
    c_2b: complex = 1.0
    f_ba: complex = 1.0
    f_ab: complex = 1.0
    delta_a: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)  # delta_iA, i = 1..5
    delta_b: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)
    gamma_ba: float = 0.0
    gamma_ab: float = 0.0

    def __post_init__(self):
        # NaN fails the modulus check below and passes the length check, so
        # each amplitude and phase is named first.
        require_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        for name in ("c_1a", "c_4a", "c_1b", "c_2b", "f_ba", "f_ab"):
            if not abs(getattr(self, name)) <= 1.0 + MODULUS_TOL:
                raise ValueError(f"|{name}| exceeds one")
        if len(self.delta_a) != 5 or len(self.delta_b) != 5:
            raise ValueError("need one free phase per photon channel")

    def c_a(self, i):
        return {1: complex(self.c_1a), 4: complex(self.c_4a)}.get(i, 0.0)

    def c_b(self, i):
        return {1: complex(self.c_1b), 2: complex(self.c_2b)}.get(i, 0.0)

    def d_a(self, i):
        return _phase(self.delta_a[i - 1]) * _complement(self.c_a(i))

    def d_b(self, i):
        return _phase(self.delta_b[i - 1]) * _complement(self.c_b(i))

    @property
    def g_ba(self):
        return _phase(self.gamma_ba) * _complement(self.f_ba)

    @property
    def g_ab(self):
        return _phase(self.gamma_ab) * _complement(self.f_ab)

    @cached_property
    def isometries(self):
        """(V_AB, V_BA), each order's read-only DIMS + (5,) isometry."""
        return _isometry("a", self), _isometry("b", self)


@dataclass(frozen=True)
class ModelState:
    """Normalized amplitude tensor over agents (x) target (x) detectors."""

    tensor: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        if t.shape != DIMS:
            raise ValueError(f"state tensor must have shape {DIMS}")
        if not close(np.linalg.norm(t), 1.0):
            raise ValueError("state tensor is not normalized")
        object.__setattr__(self, "tensor", t)


# Per agent: its ground level and the target photons it absorbs
# (index -> emitted photon index, landing level).
_RULES = {"a": (A5, {0: (1, A3), 3: (4, A5)}), "b": (B5, {0: (3, B3), 1: (2, B5)})}


def _scatter(agent, amps, e, emitted):
    """Agent meets photon e: [(amplitude, level, herald, outgoing photon)].

    It absorbs and re-emits with amplitude c, or f for a photon the other
    agent emitted; otherwise (d, or g) the photon passes unchanged while the
    agent decays to ground and fires its herald.
    """
    ground, absorbs = _RULES[agent]
    c, d = (amps.c_a, amps.d_a) if agent == "a" else (amps.c_b, amps.d_b)
    if e not in absorbs:
        return [(d(e + 1), ground, 1, e)]
    if emitted:
        absorb, passing = (amps.f_ab, amps.g_ab) if agent == "a" else (amps.f_ba, amps.g_ba)
    else:
        absorb, passing = c(e + 1), d(e + 1)
    e_out, level = absorbs[e]
    return [(absorb, level, 0, e_out), (passing, ground, 1, e)]


def _isometry(first, amps):
    # Column i: photon e_{i+1}, agents ready in A_1, B_1 and detectors silent,
    # meets the `first` agent, then whatever leaves meets the other.
    second, step = ("b", 1) if first == "a" else ("a", -1)
    v = np.zeros(DIMS + (5,), dtype=complex)
    for i in range(5):
        for amp_1, *agent_1, e_1 in _scatter(first, amps, i, False):
            for amp_2, *agent_2, e_2 in _scatter(second, amps, e_1, e_1 != i):
                (level_a, herald_a), (level_b, herald_b) = (agent_1, agent_2)[::step]
                v[level_a, level_b, e_2, herald_a, herald_b, i] += amp_1 * amp_2
    return _frozen(v)


def _apply(v, alpha):
    alpha = np.asarray(alpha, dtype=complex)
    require_finite(alpha=alpha)
    if alpha.shape != (5,):
        raise ValueError("target amplitudes must be a 5-vector")
    norm = np.linalg.norm(alpha)
    if not norm > ZERO_PROB_TOL:
        raise ValueError("target amplitudes must not all vanish")
    # Plain einsum keeps the per-photon sum's bits, where V @ alpha does not.
    return ModelState(np.einsum("...i,i->...", v, alpha / norm))


def apply_agent_a_then_b(amps, alpha):
    """Order A then B on the target sum_i alpha_i |e_i> (normalized), agents
    ready and detectors silent: the four-branch outcome of the A < B path."""
    return _apply(amps.isometries[0], alpha)


def apply_agent_b_then_a(amps, alpha):
    """Order B then A: the same scattering rules, met in the other order."""
    return _apply(amps.isometries[1], alpha)


def max_isometry_deviation(amps):
    """Largest |V^dagger V - 1| over both orders: herald completeness, exactly."""
    columns = [v.reshape(-1, 5) for v in amps.isometries]
    return max(float(np.abs(v.conj().T @ v - _identity(5)).max()) for v in columns)


_DETECTOR_PATTERN = {0: (1, 1), 1: (1, 0), 2: (0, 1), 3: (0, 0)}


def _detector_pattern(zeta):
    if zeta not in _DETECTOR_PATTERN:
        raise ValueError("zeta must be 0, 1, 2 or 3")
    return _DETECTOR_PATTERN[zeta]


def postselect(state, zeta):
    """Project a ModelState onto the herald pattern zeta; returns
    (state, probability), with state None on a zero-probability pattern."""
    det_a, det_b = _detector_pattern(zeta)
    projected = np.zeros(DIMS, dtype=complex)
    projected[:, :, :, det_a, det_b] = state.tensor[:, :, :, det_a, det_b]
    prob = float(np.linalg.norm(projected) ** 2)
    if prob < ZERO_PROB_TOL:
        return None, 0.0
    return ModelState(projected / np.sqrt(prob)), prob


@dataclass(frozen=True)
class SwitchModelResult:
    """Outcome of one postselected, diagonal-measured run of the switch.

    `residual` lives on agents (x) target (shape 6 x 5 x 5); `target` is the
    extracted pure target state when each order branch factorizes over the
    agent levels, else None.
    """

    residual: np.ndarray
    probability: float
    target: np.ndarray = None


def _agent_target_split(branch):
    # branch: (6, 5, 5) tensor; if it is a product across the (agents |
    # target) cut, return (unit agent pattern, target carrying the weight).
    # The pattern phase is canonicalized on its largest component so that
    # diagonal measurement bases are well defined.
    flat = branch.reshape(30, 5)
    u, s, vh = np.linalg.svd(flat)
    if s[0] < DEFAULT_TOL or (s.size > 1 and s[1] > DEFAULT_TOL * max(1.0, s[0])):
        return None
    pattern = u[:, 0]
    pivot = pattern[np.argmax(np.abs(pattern))]
    phase = pivot / abs(pivot)
    pattern = pattern / phase
    target = phase * s[0] * vh[0]
    return pattern.reshape(6, 5), target


def run_switch_model(amps, target_in, zeta, sign):
    """Run both orders in superposition (path amplitudes 1/sqrt 2 each),
    postselect the heralds on zeta, then measure the order register in the
    diagonal basis with the given sign.

    The path register and, when each branch carries a single agent pattern,
    the agent levels are measured together, so for such inputs the returned
    `target` realizes the superposition-of-orders state.
    """
    require_finite(target_in=target_in)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    path_amp = 1 / np.sqrt(2.0)
    det_a, det_b = _detector_pattern(zeta)
    branch_ba = path_amp * apply_agent_a_then_b(amps, target_in).tensor[:, :, :, det_a, det_b]
    branch_ab = path_amp * apply_agent_b_then_a(amps, target_in).tensor[:, :, :, det_a, det_b]
    post_prob = float(np.linalg.norm(branch_ba) ** 2 + np.linalg.norm(branch_ab) ** 2)
    if post_prob < ZERO_PROB_TOL:
        raise ValueError(f"postselection zeta={zeta} has zero probability for this input")

    residual = branch_ba + sign * branch_ab
    res_norm = np.linalg.norm(residual)
    if res_norm < ZERO_PROB_TOL:
        raise ValueError("diagonal measurement outcome has zero probability")
    probability = float(res_norm ** 2 / 2.0)  # path-diagonal outcome weight

    # A vanished order gives a zero target on a zero pattern, orthogonal to
    # every pattern, so one path serves one or two surviving orders.
    vanished = (np.zeros((6, 5)), np.zeros(5))
    split_ba, split_ab = (
        _agent_target_split(b) if np.linalg.norm(b) > ZERO_PROB_TOL else vanished
        for b in (branch_ba, branch_ab)
    )
    combo = target = None
    if split_ba is not None and split_ab is not None:
        (pat_ba, t_ba), (pat_ab, t_ab) = split_ba, split_ab
        overlap = np.vdot(pat_ba, pat_ab)
        if abs(overlap) < DEFAULT_TOL:
            # orthogonal agent patterns: measure them alongside the path
            combo = t_ba + sign * t_ab
        elif abs(abs(overlap) - 1.0) < DEFAULT_TOL:
            # common pattern up to phase: the path measurement disentangles
            combo = t_ba + sign * overlap * t_ab
    if combo is not None and np.linalg.norm(combo) > DEFAULT_TOL:
        target = combo / np.linalg.norm(combo)
    return SwitchModelResult(residual / res_norm, probability, target)


@dataclass(frozen=True)
class TriggerParams:
    """Oscillator trigger set by its alarm time tau*, interaction width Delta,
    potential V0 and mass m. It derives omega = pi / (2 tau*), so the period
    is 4 tau*, the coherent amplitude A = 2 Delta V0 / (pi hbar omega) and the
    wavepacket width sigma = sqrt(hbar / m omega).
    """

    tau_star: float
    interaction_width: float  # Delta (m)
    potential: float  # V0 (J)
    mass: float

    def __post_init__(self):
        # Each field, then each quantity derived from them, which can under-
        # or overflow, or raise on the way, while the fields are in range.
        # The comparisons are false for NaN, so NaN is refused by name too.
        for name in ("tau_star", "interaction_width", "potential", "mass", "omega", "amplitude", "sigma",
                     "crossing_window", "energy"):
            try:
                ok = 0.0 < getattr(self, name) < np.inf
            except ArithmeticError:
                ok = False
            if not ok:
                raise ValueError(f"trigger {name} is not positive and finite")

    @property
    def omega(self):
        return np.pi / (2.0 * self.tau_star)

    @property
    def amplitude(self):
        return 2.0 * self.interaction_width * self.potential / (np.pi * HBAR * self.omega)

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    @property
    def sigma(self):
        return np.sqrt(HBAR / (self.mass * self.omega))

    @property
    def crossing_window(self):
        # epsilon = Delta / (omega A), the crossing time of the interaction zone
        return self.interaction_width / (self.omega * self.amplitude)

    @property
    def energy(self):
        # m omega^2 A^2 / 2, the oscillator's energy that the regime compares with V0
        return 0.5 * self.mass * self.omega ** 2 * self.amplitude ** 2

    @property
    def regime_flags(self):
        # Quotients of Python floats: one that overflows is inf, which passes
        # its threshold as the exact quotient does, where numpy's sigma would
        # raise FloatingPointError under the CLI's errstate.
        return {
            "amplitude_over_width": self.amplitude / self.interaction_width >= 10.0,
            "width_over_sigma": self.interaction_width / float(self.sigma) >= 10.0,
            "energy_over_potential": self.energy / self.potential >= 100.0,
        }

    @property
    def regime_ok(self):
        return all(self.regime_flags.values())


def crossing_rotation_angle(p):
    """Rotation angle V0 epsilon / hbar picked up while the wavepacket crosses
    the interaction zone; pi/2 up to roundoff, because A is derived to give it.
    The model holds only where `p.regime_ok` is true."""
    return p.potential * p.crossing_window / HBAR


# The scenarios of this module's headline numbers. Each takes its parameters
# and a seeded generator, and returns its outputs and its checks, each check a
# (name, expected, actual, tolerance) tuple.


def trigger_scenario(params, rng):
    """The trigger set by `tau_star`, `width`, `potential` and `mass`: its
    rotation angle checked at pi/2, its period at 4 tau*, the rotated idle
    level's overlap with A_1 at one, and the model's regime."""
    p = TriggerParams(params["tau_star"], params["width"], params["potential"], params["mass"])
    angle = crossing_rotation_angle(p)
    fidelity = abs(np.sin(angle))  # |<A1| exp(-i angle sigma_x) |A0>|
    outputs = {
        "omega": p.omega,
        "period": p.period,
        "amplitude": p.amplitude,
        "sigma": p.sigma,
        "crossing_window": p.crossing_window,
        "rotation_angle": angle,
        "regime_ok": p.regime_ok,
        "rotated_fidelity_with_A1": fidelity,
    }
    checks = (
        ("rotation_angle_is_pi_over_2", float(np.pi / 2), angle, ROUNDOFF_TOL),
        ("period_is_4_tau_star", 4.0 * p.tau_star, p.period, ROUNDOFF_TOL),
        ("rotation_lands_on_A1", 1.0, fidelity, ROUNDOFF_TOL),
        ("regime_ok", True, p.regime_ok, 0),
    )
    return outputs, checks


def agent_switch_scenario(params, rng):
    """The switch model at the default amplitudes: photon e_1 postselected on
    no herald lands on (e_3 +- e_5)/sqrt 2, e_4 with only B's herald passes
    to e_5, a random target's four herald probabilities sum to one, and both
    orders are isometries."""
    amps = AgentAmplitudes()
    e = np.eye(5)  # e[i] is the target photon e_{i+1}
    fid = {}
    for sign in (+1, -1):
        result = run_switch_model(amps, e[0], zeta=3, sign=sign)
        fid[sign] = abs(np.vdot((e[2] + sign * e[4]) / np.sqrt(2.0), result.target)) ** 2
    res_e4 = run_switch_model(amps, e[3], zeta=2, sign=+1)
    fid_e4 = abs(np.vdot(e[4], res_e4.target)) ** 2
    rng_alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rng_alpha /= np.linalg.norm(rng_alpha)
    full = apply_agent_a_then_b(amps, rng_alpha)
    total = sum(postselect(full, zeta)[1] for zeta in range(4))
    isometry_dev = max_isometry_deviation(amps)
    outputs = {
        "e1_plus_fidelity": fid[+1],
        "e1_minus_fidelity": fid[-1],
        "e4_fidelity": fid_e4,
        "postselection_total": total,
        "max_isometry_deviation": isometry_dev,
    }
    checks = (
        ("e1_plus_target", 1.0, fid[+1], DEFAULT_TOL),
        ("e1_minus_target", 1.0, fid[-1], DEFAULT_TOL),
        ("e4_trivial_switch", 1.0, fid_e4, DEFAULT_TOL),
        ("postselection_completeness", 1.0, total, DEFAULT_TOL),
        ("orders_are_isometries", 0.0, isometry_dev, ROUNDOFF_TOL),
    )
    return outputs, checks
