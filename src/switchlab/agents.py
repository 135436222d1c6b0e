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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .gravity import HBAR

__all__ = [
    "DIMS",
    "AgentAmplitudes",
    "ModelState",
    "apply_agent_a_then_b",
    "apply_agent_b_then_a",
    "postselect",
    "run_switch_model",
    "SwitchModelResult",
    "TriggerParams",
    "trigger_params",
    "crossing_rotation_angle",
    "trigger_timeline",
    "TriggerPoint",
]

DIMS = (6, 5, 5, 2, 2)

# level indices: A_j at index j; B_j and e_j at index j-1
A3, A5 = 3, 5
B3, B5 = 2, 4


def _phase(angle):
    return complex(np.exp(1j * angle))


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
        for name in ("c_1a", "c_4a", "c_1b", "c_2b", "f_ba", "f_ab"):
            if abs(getattr(self, name)) > 1.0 + 1e-12:
                raise ValueError(f"|{name}| exceeds one")
        if len(self.delta_a) != 5 or len(self.delta_b) != 5:
            raise ValueError("need one free phase per photon channel")

    def c_a(self, i):
        return {1: complex(self.c_1a), 4: complex(self.c_4a)}.get(i, 0.0)

    def c_b(self, i):
        return {1: complex(self.c_1b), 2: complex(self.c_2b)}.get(i, 0.0)

    def d_a(self, i):
        return _phase(self.delta_a[i - 1]) * np.sqrt(1.0 - abs(self.c_a(i)) ** 2)

    def d_b(self, i):
        return _phase(self.delta_b[i - 1]) * np.sqrt(1.0 - abs(self.c_b(i)) ** 2)

    @property
    def g_ba(self):
        return _phase(self.gamma_ba) * np.sqrt(1.0 - abs(self.f_ba) ** 2)

    @property
    def g_ab(self):
        return _phase(self.gamma_ab) * np.sqrt(1.0 - abs(self.f_ab) ** 2)


@dataclass(frozen=True)
class ModelState:
    """Normalized amplitude tensor over agents (x) target (x) detectors."""

    tensor: np.ndarray = field(default=None)

    def __post_init__(self):
        t = np.asarray(self.tensor, dtype=complex)
        if t.shape != DIMS:
            raise ValueError(f"state tensor must have shape {DIMS}")
        if abs(np.linalg.norm(t) - 1.0) > 1e-9:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "tensor", t)

    @classmethod
    def from_target(cls, alpha):
        """Initial state: agents ready in A_1, B_1, detectors silent, target
        in sum_i alpha_i |e_i>."""
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.shape != (5,):
            raise ValueError("target amplitudes must be a 5-vector")
        t = np.zeros(DIMS, dtype=complex)
        t[1, 0, :, 0, 0] = alpha / np.linalg.norm(alpha)
        return cls(t)

    def target_amplitudes(self):
        return self.tensor[1, 0, :, 0, 0]


def _require_ready_support(state):
    t = state.tensor
    mask = np.zeros(DIMS, dtype=bool)
    mask[1, 0, :, 0, 0] = True
    if np.abs(t[~mask]).max() > 1e-12:
        raise ValueError("input must have agents in A_1, B_1 with silent detectors")
    return t[1, 0, :, 0, 0]


# Branch tables: target index i -> list of
# (amplitude factory, A level, B level, outgoing target index, det A, det B).
def _branches_a_then_b(amps, i):
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


def _branches_b_then_a(amps, i):
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


def _apply(branches, amps, state):
    alpha = _require_ready_support(state)
    out = np.zeros(DIMS, dtype=complex)
    for i in range(5):
        if alpha[i] == 0:
            continue
        for amp, a_lvl, b_lvl, e_out, det_a, det_b in branches(amps, i):
            out[a_lvl, b_lvl, e_out, det_a, det_b] += alpha[i] * amp
    return ModelState(out)


def apply_agent_a_then_b(amps, state):
    """Order A then B: the four-branch scattering outcome of the A < B path."""
    return _apply(_branches_a_then_b, amps, state)


def apply_agent_b_then_a(amps, state):
    """Order B then A, the mirrored branch structure of the B < A path."""
    return _apply(_branches_b_then_a, amps, state)


_DETECTOR_PATTERN = {0: (1, 1), 1: (1, 0), 2: (0, 1), 3: (0, 0)}


def _detector_pattern(zeta):
    if zeta not in _DETECTOR_PATTERN:
        raise ValueError("zeta must be 0, 1, 2 or 3")
    return _DETECTOR_PATTERN[zeta]


def postselect(state, zeta):
    """Project onto the herald pattern zeta; returns (state, probability),
    with state None on a zero-probability pattern."""
    det_a, det_b = _detector_pattern(zeta)
    t = np.asarray(state.tensor if isinstance(state, ModelState) else state, dtype=complex)
    projected = np.zeros(DIMS, dtype=complex)
    projected[:, :, :, det_a, det_b] = t[:, :, :, det_a, det_b]
    prob = float(np.linalg.norm(projected) ** 2)
    if prob < 1e-12:
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


def _agent_target_split(branch, tol=1e-9):
    # branch: (6, 5, 5) tensor; if it is a product across the (agents |
    # target) cut, return (unit agent pattern, target carrying the weight).
    # The pattern phase is canonicalized on its largest component so that
    # diagonal measurement bases are well defined.
    flat = branch.reshape(30, 5)
    u, s, vh = np.linalg.svd(flat)
    if s[0] < tol or (s.size > 1 and s[1] > tol * max(1.0, s[0])):
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
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    path_amp = 1 / np.sqrt(2.0)
    state_in = ModelState.from_target(target_in)
    det_a, det_b = _detector_pattern(zeta)
    branch_ba = path_amp * apply_agent_a_then_b(amps, state_in).tensor[:, :, :, det_a, det_b]
    branch_ab = path_amp * apply_agent_b_then_a(amps, state_in).tensor[:, :, :, det_a, det_b]
    post_prob = float(np.linalg.norm(branch_ba) ** 2 + np.linalg.norm(branch_ab) ** 2)
    if post_prob < 1e-12:
        raise ValueError(f"postselection zeta={zeta} has zero probability for this input")

    residual = branch_ba + sign * branch_ab
    res_norm = np.linalg.norm(residual)
    if res_norm < 1e-12:
        raise ValueError("diagonal measurement outcome has zero probability")
    probability = float(res_norm ** 2 / 2.0)  # path-diagonal outcome weight

    target = None
    n_ba = np.linalg.norm(branch_ba)
    n_ab = np.linalg.norm(branch_ab)
    split_ba = _agent_target_split(branch_ba) if n_ba > 1e-12 else None
    split_ab = _agent_target_split(branch_ab) if n_ab > 1e-12 else None
    combo = None
    if split_ba is not None and split_ab is not None:
        pat_ba, t_ba = split_ba
        pat_ab, t_ab = split_ab
        overlap = np.vdot(pat_ba, pat_ab)
        if abs(overlap) < 1e-9:
            # orthogonal agent patterns: measure them alongside the path
            combo = t_ba + sign * t_ab
        elif abs(abs(overlap) - 1.0) < 1e-9:
            # common pattern up to phase: the path measurement disentangles
            combo = t_ba + sign * overlap * t_ab
    elif split_ba is not None and n_ab <= 1e-12:
        combo = split_ba[1]
    elif split_ab is not None and n_ba <= 1e-12:
        combo = sign * split_ab[1]
    if combo is not None and np.linalg.norm(combo) > 1e-9:
        target = combo / np.linalg.norm(combo)
    return SwitchModelResult(residual / res_norm, probability, target)


@dataclass(frozen=True)
class TriggerParams:
    """Oscillator trigger: period 4 tau*, coherent amplitude A = 2 Delta V0 /
    (pi hbar omega), wavepacket width sigma = sqrt(hbar / m omega).

    `amplitude` defaults to the value fixed by the other parameters; passing
    it explicitly decouples it (useful to probe the angle's linearity in V0).
    """

    omega: float
    tau_star: float
    interaction_width: float  # Delta (m)
    potential: float  # V0 (J)
    mass: float
    amplitude: float = None

    def __post_init__(self):
        if self.amplitude is None:
            a = 2.0 * self.interaction_width * self.potential / (np.pi * HBAR * self.omega)
            object.__setattr__(self, "amplitude", a)

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
    def regime_flags(self):
        energy = 0.5 * self.mass * self.omega ** 2 * self.amplitude ** 2
        return {
            "amplitude_over_width": self.amplitude / self.interaction_width >= 10.0,
            "width_over_sigma": self.interaction_width / self.sigma >= 10.0,
            "energy_over_potential": energy / self.potential >= 100.0,
        }

    @property
    def regime_ok(self):
        return all(self.regime_flags.values())


def trigger_params(tau_star, interaction_width, potential, mass):
    """Build trigger parameters from the alarm time: omega = pi / (2 tau*)."""
    if min(tau_star, interaction_width, potential, mass) <= 0:
        raise ValueError("trigger parameters must be positive")
    omega = np.pi / (2.0 * tau_star)
    return TriggerParams(omega, tau_star, interaction_width, potential, mass)


def crossing_rotation_angle(p):
    """Rotation angle V0 epsilon / hbar picked up while the wavepacket crosses
    the interaction zone; pi/2 exactly for constructor-built parameters."""
    if not p.regime_ok:
        warnings.warn("trigger outside its validity regime; rotation angle unreliable")
    return p.potential * p.crossing_window / HBAR


@dataclass(frozen=True)
class TriggerPoint:
    mean_position: float
    level: str  # "A0", "rotating" or "A1"


def trigger_timeline(p, tau):
    """Mean oscillator position and agent level along one quarter period."""
    if not 0.0 <= tau <= p.tau_star:
        raise ValueError("tau must lie in [0, tau*]")
    mean = p.amplitude * np.cos(p.omega * tau)
    if tau >= p.tau_star:
        level = "A1"
    elif tau >= p.tau_star - p.crossing_window:
        level = "rotating"
    else:
        level = "A0"
    return TriggerPoint(mean, level)
