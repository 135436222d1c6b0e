"""Schwarzschild timing for the gravitational quantum switch.

Static observers around a spherical mass, light travel in coordinate time,
proper-time thresholds that order operational events, the switch feasibility
condition with its weak-field expansion, and a minimal two-level clock model
exhibiting the entanglement/resynchronization cycle.

Radial coordinates are those of a distant observer; all quantities SI.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import partial_trace

__all__ = [
    "C_LIGHT",
    "G_NEWTON",
    "HBAR",
    "BodyConfig",
    "EARTH",
    "lapse",
    "light_coordinate_time",
    "arrival_proper_time",
    "min_tau_for_order",
    "asymmetric_order_threshold",
    "switch_ratio_exact",
    "switch_ratio_weak_field",
    "WeakFieldRatio",
    "SwitchGeometry",
    "protocol_duration",
    "ProtocolDuration",
    "ClockModel",
    "grav_switch_clock_state",
    "grav_switch_joint_state",
    "grav_switch_resync_purity",
]

C_LIGHT = 2.99792458e8  # m/s
G_NEWTON = 6.67430e-11  # m^3 kg^-1 s^-2
HBAR = 1.054571817e-34  # J s

WEAK_FIELD_MAX = 1e-3


@dataclass(frozen=True)
class BodyConfig:
    """Central mass parameters. Radii used with it must exceed R_S."""

    mass: float
    radius: float

    def __post_init__(self):
        if self.mass <= 0 or self.radius <= 0:
            raise ValueError("mass and radius must be positive")
        if self.radius <= self.schwarzschild_radius:
            raise ValueError("body radius lies inside its Schwarzschild radius")

    @property
    def schwarzschild_radius(self):
        return 2.0 * G_NEWTON * self.mass / C_LIGHT ** 2

    def potential(self, r):
        return -G_NEWTON * self.mass / r

    def require_weak_field(self):
        if self.schwarzschild_radius / self.radius >= WEAK_FIELD_MAX:
            raise ValueError("weak-field approximation invalid for this body")


EARTH = BodyConfig(mass=5.9722e24, radius=6.371e6)


def lapse(r, body):
    """d tau / dt = sqrt(1 - R_S/r) of a static Schwarzschild observer."""
    rs = body.schwarzschild_radius
    if r <= rs:
        raise ValueError("no static observer at or below the Schwarzschild radius")
    return float(np.sqrt(1.0 - rs / r))


def light_coordinate_time(r1, r2, body):
    """Coordinate time for a radial photon from r1 to r2:
    t_c = (1/c)[(r2 - r1) + R_S ln((r2 - R_S)/(r1 - R_S))], the closed form of
    (1/c) integral dr / (1 - R_S/r).
    """
    if not r1 < r2:
        raise ValueError("need r1 < r2")
    rs = body.schwarzschild_radius
    if r1 <= rs:
        raise ValueError("emission point inside the Schwarzschild radius")
    return ((r2 - r1) + rs * np.log((r2 - rs) / (r1 - rs))) / C_LIGHT


def _tc_between(r_a, r_b, body):
    if r_a == r_b:
        return 0.0
    lo, hi = min(r_a, r_b), max(r_a, r_b)
    return light_coordinate_time(lo, hi, body)


def arrival_proper_time(tau_star, r_a, r_b, body):
    """Proper time shown by b's clock when a photon emitted by a at proper
    time tau_star arrives: tau_bf = lapse(r_b) (tau*/lapse(r_a) + t_c)."""
    t_c = _tc_between(r_a, r_b, body)
    dil_a = lapse(r_a, body)
    dil_b = lapse(r_b, body)
    return dil_b * (tau_star / dil_a + t_c)


def min_tau_for_order(r_a, r_b, body):
    """Threshold proper time tau* above which event A = (a's clock reads tau*)
    enters the past lightcone of B = (b's clock reads tau*).

    The threshold is the fixed point of :func:`arrival_proper_time`, so it
    requires b's clock to run slower than a's (r_b < r_a for a single body).
    """
    dil_a = lapse(r_a, body)
    dil_b = lapse(r_b, body)
    denom = 1.0 - dil_b / dil_a
    if denom <= 0.0:
        raise ValueError("no ordering threshold: b's clock does not run slower than a's")
    t_c = _tc_between(r_a, r_b, body)
    return dil_b * t_c / denom


def asymmetric_order_threshold(r, h, L, body):
    """Threshold for tau_a* in the two-configuration switch with the mass
    shifted by L: choosing tau_a* at or above it (with tau_b* set to the
    photon arrival time) gives A < B in one configuration and B < A in the
    other.
    """
    if min(r, h, L) <= 0.0:
        raise ValueError("geometry lengths must be positive")
    dil_r = lapse(r, body)
    dil_rh = lapse(r + h, body)
    dil_rl = lapse(r + L, body)
    dil_rlh = lapse(r + L + h, body)
    denom = 1.0 - (dil_rlh * dil_r) / (dil_rh * dil_rl)
    if denom <= 0.0:
        raise ValueError("degenerate geometry: configurations cannot order oppositely")
    t_far = light_coordinate_time(r + L, r + L + h, body)
    t_near = light_coordinate_time(r, r + h, body)
    return dil_r * ((dil_rlh / dil_rh) * t_far + t_near) / denom


def switch_ratio_exact(body, h):
    """Exact Delta t_r / Delta t_c of the switch condition:
    sqrt(1 - R_S/(R+h)) / (sqrt(1 - R_S/(R+h)) - sqrt(1 - R_S/R)).

    Evaluated in the algebraically identical form with the difference of
    square roots rationalized, which survives R_S/R down to 1e-37.
    """
    if h <= 0.0:
        raise ValueError("height must be positive")
    rs = body.schwarzschild_radius
    r = body.radius
    x_surface = rs / r
    x_top = rs / (r + h)
    s_top = np.sqrt(1.0 - x_top)
    s_surface = np.sqrt(1.0 - x_surface)
    # x_surface - x_top without cancellation
    dx = rs * h / (r * (r + h))
    return float(s_top * (s_top + s_surface) / dx)


@dataclass(frozen=True)
class WeakFieldRatio:
    ratio: float
    gravity_term: float
    curvature_term: float


def switch_ratio_weak_field(body, h):
    """Weak-field Delta t_r / Delta t_c = c^2/(g h) - (c^2/2) R_0101 / g^2,
    with g = GM/R^2 and the curvature component R_0101 = -c^2 R_S / R^3."""
    body.require_weak_field()
    if h <= 0.0:
        raise ValueError("height must be positive")
    r = body.radius
    g = G_NEWTON * body.mass / r ** 2
    r0101 = -C_LIGHT ** 2 * body.schwarzschild_radius / r ** 3
    gravity_term = C_LIGHT ** 2 / (g * h)
    curvature_term = -0.5 * C_LIGHT ** 2 * r0101 / g ** 2
    return WeakFieldRatio(gravity_term + curvature_term, gravity_term, curvature_term)


@dataclass(frozen=True)
class SwitchGeometry:
    """Protocol geometry: height h of the upper points and horizontal
    separation d of the two paths, crossed by a photon target."""

    h: float
    d: float

    def __post_init__(self):
        if self.h <= 0 or self.d <= 0:
            raise ValueError("geometry lengths must be positive")

    @property
    def crossing_time(self):
        return self.d / C_LIGHT


@dataclass(frozen=True)
class ProtocolDuration:
    dt_r: float
    dt_exp_low: float
    dt_exp_high: float
    ratio: float
    dt_c: float


def protocol_duration(body, geom):
    """Required Delta t_r and the bracket [Delta t_r, 2 Delta t_r] for the
    total duration, which the split between travel and wait phases spans."""
    ratio = switch_ratio_exact(body, geom.h)
    dt_c = geom.crossing_time
    dt_r = ratio * dt_c
    return ProtocolDuration(dt_r, dt_r, 2.0 * dt_r, ratio, dt_c)


@dataclass(frozen=True)
class ClockModel:
    """Two-level internal clock with a single energy gap (J)."""

    energy_gap: float

    def __post_init__(self):
        if self.energy_gap < 0:
            raise ValueError("energy gap must be nonnegative")

    def state(self, tau):
        phase = -self.energy_gap * tau / HBAR
        return np.array([1.0, np.exp(1j * phase)], dtype=complex) / np.sqrt(2.0)


def _proper_time(r, body, t):
    # weak-field tau(r, t) = t (1 + Phi(r)/c^2)
    return t * (1.0 + body.potential(r) / C_LIGHT ** 2)


def grav_switch_clock_state(clock_a, clock_b, r_a, r_b, body, t, config):
    """Joint internal state of the two clocks after coordinate time t in one
    mass configuration. In K_AB clock a sits at r_a and clock b at r_b; K_BA
    swaps the positions (the mass moved, distances exchange)."""
    body.require_weak_field()
    if t < 0:
        raise ValueError("time must be nonnegative")
    if config == "K_AB":
        pos_a, pos_b = r_a, r_b
    elif config == "K_BA":
        pos_a, pos_b = r_b, r_a
    else:
        raise ValueError("config must be 'K_AB' or 'K_BA'")
    state_a = clock_a.state(_proper_time(pos_a, body, t))
    state_b = clock_b.state(_proper_time(pos_b, body, t))
    return np.kron(state_a, state_b)


def grav_switch_joint_state(clock_a, clock_b, r_a, r_b, body, t):
    """(control (x) clock_a (x) clock_b) state for the mass prepared in the
    even superposition of the two configurations."""
    branch_ab = grav_switch_clock_state(clock_a, clock_b, r_a, r_b, body, t, "K_AB")
    branch_ba = grav_switch_clock_state(clock_a, clock_b, r_a, r_b, body, t, "K_BA")
    return (np.kron([1, 0], branch_ab) + np.kron([0, 1], branch_ba)) / np.sqrt(2.0)


def _control_purity(joint):
    rho = np.outer(joint, joint.conj())
    rho_c = partial_trace(rho, (2, 4), keep=(0,))
    return float(np.trace(rho_c @ rho_c).real)


def grav_switch_resync_purity(clock_a, clock_b, r_a, r_b, body, t):
    """Purity of the reduced mass-configuration state before and after the
    configuration swap of equal duration t.

    The swap makes both branches accumulate the same total phase per clock,
    so the after-value returns to one.
    """
    before = _control_purity(grav_switch_joint_state(clock_a, clock_b, r_a, r_b, body, t))

    tau_total_a = _proper_time(r_a, body, t) + _proper_time(r_b, body, t)
    tau_total_b = _proper_time(r_b, body, t) + _proper_time(r_a, body, t)
    branch_ab = np.kron(clock_a.state(tau_total_a), clock_b.state(tau_total_b))
    branch_ba = np.kron(clock_a.state(tau_total_b), clock_b.state(tau_total_a))
    joint_after = (np.kron([1, 0], branch_ab) + np.kron([0, 1], branch_ba)) / np.sqrt(2.0)
    after = _control_purity(joint_after)
    return before, after
