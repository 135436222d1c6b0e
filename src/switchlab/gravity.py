"""Schwarzschild timing for the gravitational quantum switch.

Static observers around a spherical mass, light travel in coordinate time,
proper-time thresholds that order operational events, the switch feasibility
condition with its weak-field expansion, and a minimal two-level clock model
exhibiting the entanglement/resynchronization cycle.

Radial coordinates are those of a distant observer; all quantities SI.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import APPROX_REL_TOL, ESTIMATE_REL_TOL, ID2, kron

__all__ = [
    "C_LIGHT",
    "G_NEWTON",
    "HBAR",
    "BodyConfig",
    "EARTH",
    "lapse",
    "light_coordinate_time",
    "order_margin",
    "min_tau_for_order",
    "asymmetric_order_threshold",
    "switch_ratio_exact",
    "switch_ratio_weak_field",
    "WeakFieldRatio",
    "SwitchGeometry",
    "protocol_duration",
    "ProtocolDuration",
    "ClockModel",
    "grav_switch_resync_purity",
    "grav_duration_scenario",
    "grav_order_scenario",
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
        # `0 < x < inf` is false for NaN, so NaN is rejected too.
        for name in ("mass", "radius"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"body {name} is not positive and finite")
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

# What each float argument of the functions below measures, as
# :func:`_require_finite` names it.
_KINDS = {
    "r": "radius", "r1": "radius", "r2": "radius", "r_a": "radius", "r_b": "radius",
    "h": "height", "L": "length", "t": "time", "tau_star": "proper time",
}


def _require_finite(**arguments):
    """Raise ValueError naming the first argument that is NaN or infinite, as
    "radius r_a is not finite". The checks that follow it compare lengths,
    which NaN passes or fails without naming its cause."""
    for name, value in arguments.items():
        if not math.isfinite(value):
            raise ValueError(f"{_KINDS[name]} {name} is not finite")


def lapse(r, body):
    """d tau / dt = sqrt(1 - R_S/r) of a static Schwarzschild observer."""
    _require_finite(r=r)
    rs = body.schwarzschild_radius
    if r <= rs:
        raise ValueError("no static observer at or below the Schwarzschild radius")
    return float(np.sqrt(1.0 - rs / r))


def light_coordinate_time(r1, r2, body):
    """Coordinate time for a radial photon from r1 to r2:
    t_c = (1/c)[(r2 - r1) + R_S ln((r2 - R_S)/(r1 - R_S))], the closed form of
    (1/c) integral dr / (1 - R_S/r).
    """
    _require_finite(r1=r1, r2=r2)
    if not r1 < r2:
        raise ValueError("need r1 < r2")
    rs = body.schwarzschild_radius
    if r1 <= rs:
        raise ValueError("emission point inside the Schwarzschild radius")
    x = (r2 - r1) / (r1 - rs)
    # Where x overflows, log1p(x) is log(x) to within 1/x.
    log_term = np.log1p(x) if x < np.inf else np.log(r2 - r1) - np.log(r1 - rs)
    return ((r2 - r1) + rs * log_term) / C_LIGHT


def _lapse_gap(r, h, body):
    """lapse(r + h) - lapse(r), rationalized as (R_S/r) (h/(r + h)) /
    (lapse(r + h) + lapse(r)) so that lapses within 1e-9 of one do not cancel.
    For h > 0 both ratios of lengths lie below one, so the gap leaves the
    float range only where its value does. Raises ValueError when h is
    nonzero but the gap underflows to 0, as it does when R_S/r or h/(r + h)
    underflows: ratios and thresholds divide by it."""
    lapse_sum = lapse(r + h, body) + lapse(r, body)  # rejects r <= R_S before r divides
    gap = body.schwarzschild_radius / r * (h / (r + h)) / lapse_sum
    if gap == 0.0 and h != 0.0:
        raise ValueError("lapse gap between the two radii underflows to 0")
    return gap


def _ratio(num, den, what):
    """num / den as a float. Raises ValueError naming `what` when den has
    underflowed to 0 or the quotient overflows, where the division would
    raise ZeroDivisionError or FloatingPointError, or give inf."""
    num, den = float(num), float(den)
    if den == 0.0:
        raise ValueError(f"{what}: its denominator underflows to 0")
    ratio = num / den
    if not np.isfinite(ratio):
        raise ValueError(f"{what} overflows")
    return ratio


def order_margin(tau_star, r_a, r_b, body):
    """lapse(r_b) (tau*/lapse(r_a) + t_c) - tau*, b's clock reading when a photon
    sent at a's reading tau* arrives less tau*, formed without subtracting two
    clock readings: lapse(r_b) t_c - tau* (lapse(r_a) - lapse(r_b)) / lapse(r_a).
    Negative when event A = (a's clock reads tau*) lies in the past lightcone
    of B = (b's clock reads tau*)."""
    _require_finite(tau_star=tau_star, r_a=r_a, r_b=r_b)
    t_c = 0.0 if r_a == r_b else light_coordinate_time(min(r_a, r_b), max(r_a, r_b), body)
    return lapse(r_b, body) * t_c - tau_star * _lapse_gap(r_b, r_a - r_b, body) / lapse(r_a, body)


def min_tau_for_order(r_a, r_b, body):
    """Threshold proper time tau* above which event A = (a's clock reads tau*)
    enters the past lightcone of B = (b's clock reads tau*): the zero of
    :func:`order_margin`. It needs b's clock to run slower than a's (r_b < r_a)."""
    _require_finite(r_a=r_a, r_b=r_b)
    if not r_b < r_a:
        raise ValueError("no ordering threshold: b's clock does not run slower than a's")
    t_c = light_coordinate_time(r_b, r_a, body)
    return _ratio(
        lapse(r_a, body) * lapse(r_b, body) * t_c, _lapse_gap(r_b, r_a - r_b, body), "threshold proper time"
    )


def asymmetric_order_threshold(r, h, L, body):
    """Threshold for tau_a* in the two-configuration switch with the mass
    shifted by L: choosing tau_a* at or above it (with tau_b* set to the
    photon arrival time) gives A < B in one configuration and B < A in the
    other. Raises ValueError when h vanishes beside r or r + L in floating
    point, where a light time would run between equal radii.
    """
    _require_finite(r=r, h=h, L=L)
    if min(r, h, L) <= 0.0:
        raise ValueError("geometry lengths must be positive")
    for base in (r, r + L):
        if base + h == base:
            raise ValueError(f"asymmetric threshold: height h = {h:g} vanishes beside the radius {base:g}")
    rs = body.schwarzschild_radius
    dil_r, dil_rh = lapse(r, body), lapse(r + h, body)
    dil_rl, dil_rlh = lapse(r + L, body), lapse(r + L + h, body)
    p, q = dil_rh * dil_rl, dil_rlh * dil_r
    # 1 - q/p = (p^2 - q^2) / (p (p + q)), with p^2 - q^2 > 0 in closed form,
    # R_S h L (2r + L + h - R_S) / (r (r+h) (r+L) (r+L+h)), as ratios that cannot overflow
    p2_minus_q2 = rs / r * (h / (r + h)) * (L / (r + L)) * ((2.0 * r + L + h - rs) / (r + L + h))
    t_far = light_coordinate_time(r + L, r + L + h, body)
    t_near = light_coordinate_time(r, r + h, body)
    return _ratio(dil_r * ((dil_rlh / dil_rh) * t_far + t_near) * p * (p + q), p2_minus_q2, "asymmetric threshold")


def switch_ratio_exact(body, h):
    """Exact Delta t_r / Delta t_c = lapse(R+h) / (lapse(R+h) - lapse(R)) of
    the switch condition; :func:`_lapse_gap` keeps it to R_S/R down to 1e-37."""
    _require_finite(h=h)
    if h <= 0.0:
        raise ValueError("height must be positive")
    r = body.radius
    return _ratio(lapse(r + h, body), _lapse_gap(r, h, body), "switch ratio")


@dataclass(frozen=True)
class WeakFieldRatio:
    ratio: float
    gravity_term: float
    curvature_term: float
    deviation: float  # switch_ratio_exact / ratio - 1


def switch_ratio_weak_field(body, h):
    """Weak-field Delta t_r / Delta t_c = 2R^2/(R_S h) + 2R/R_S: the gravity
    term c^2/(g h) and the curvature term -(c^2/2) R_0101/g^2, with
    g = (c^2/2) R_S/R^2 and R_0101 = -c^2 R_S/R^3. They are formed as
    2 (R/R_S) and that times R/h, their sum as 2 (R/R_S) times (R + h)/h;
    each raises ValueError by name where its value leaves the float range.

    `deviation` = switch_ratio_exact / ratio - 1 = L1 (L1 + L0)/2 - 1
    = -(a + (a + b - ab)/(1 + L0 L1))/2, with L0 = lapse(R), L1 = lapse(R + h),
    a = R_S/(R + h) and b = R_S/R, so that nothing cancels."""
    _require_finite(h=h)
    body.require_weak_field()
    if h <= 0.0:
        raise ValueError("height must be positive")
    r, rs = body.radius, body.schwarzschild_radius
    curvature_term = _ratio(2.0 * r, rs, "weak-field curvature term")
    gravity_term = _ratio(curvature_term, h / r, "weak-field gravity term")
    ratio = _ratio(curvature_term, h / (r + h), "weak-field ratio")
    a, b = rs / (r + h), rs / r
    deviation = -0.5 * (a + (a + b - a * b) / (1.0 + lapse(r, body) * lapse(r + h, body)))
    return WeakFieldRatio(ratio, gravity_term, curvature_term, deviation)


@dataclass(frozen=True)
class SwitchGeometry:
    """Protocol geometry: height h of the upper points and horizontal
    separation d of the two paths, crossed by a photon target."""

    h: float
    d: float

    def __post_init__(self):
        for name in ("h", "d"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"geometry {name} is not positive and finite")

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
        if not 0.0 <= self.energy_gap < np.inf:
            raise ValueError("clock energy_gap is not nonnegative and finite")

    def state(self, tau):
        phase = -self.energy_gap * tau / HBAR
        return np.array([1.0, np.exp(1j * phase)], dtype=complex) / np.sqrt(2.0)


def _proper_time(r, body, t):
    # weak-field tau(r, t) = t (1 + Phi(r)/c^2)
    return t * (1.0 + body.potential(r) / C_LIGHT ** 2)


def _configuration_times(r_a, r_b, body, t):
    """Proper times (tau_a, tau_b) the two clocks read after coordinate time
    t in K_AB, where clock a sits at r_a and clock b at r_b, and in K_BA,
    which swaps the positions (the mass moved, distances exchange)."""
    body.require_weak_field()
    if t < 0:
        raise ValueError("time must be nonnegative")
    tau_a, tau_b = _proper_time(r_a, body, t), _proper_time(r_b, body, t)
    return (tau_a, tau_b), (tau_b, tau_a)


def _clock_ket(clock_a, clock_b, taus):
    # clock_a (x) clock_b as a column ket, the clocks reading taus = (tau_a, tau_b)
    return kron(clock_a.state(taus[0])[:, None], clock_b.state(taus[1])[:, None])


def _joint_state(clock_a, clock_b, taus_ab, taus_ba):
    """(control (x) clock_a (x) clock_b) state for the mass in the even
    superposition of K_AB, where the clocks read taus_ab, and K_BA, where they
    read taus_ba."""
    branch_ab = kron(ID2[:, :1], _clock_ket(clock_a, clock_b, taus_ab))
    branch_ba = kron(ID2[:, 1:], _clock_ket(clock_a, clock_b, taus_ba))
    return (branch_ab + branch_ba)[:, 0] / np.sqrt(2.0)


def _control_purity(joint):
    j = joint.reshape(2, 4)  # the control's state is J J^dag
    rho_c = j @ j.conj().T
    return float(np.trace(rho_c @ rho_c).real)


def grav_switch_resync_purity(clock_a, clock_b, r_a, r_b, body, t):
    """Purity of the reduced mass-configuration state before and after the
    configuration swap of equal duration t.

    The swap makes both branches accumulate the same total phase per clock,
    so the after-value returns to one.
    """
    _require_finite(r_a=r_a, r_b=r_b, t=t)
    taus_ab, taus_ba = _configuration_times(r_a, r_b, body, t)
    before = _control_purity(_joint_state(clock_a, clock_b, taus_ab, taus_ba))
    # after the swap each branch has also spent t in the other configuration
    totals_ab = (taus_ab[0] + taus_ba[0], taus_ab[1] + taus_ba[1])
    totals_ba = (taus_ba[0] + taus_ab[0], taus_ba[1] + taus_ab[1])
    after = _control_purity(_joint_state(clock_a, clock_b, totals_ab, totals_ba))
    return before, after


# The scenarios of this module's headline numbers. Each takes its parameters
# and a seeded generator, and returns its outputs and its checks, each check a
# (name, expected, actual, tolerance) tuple.


def grav_duration_scenario(params, rng):
    """The switch duration Delta t_r for a body (`mass`, `radius`) and a
    geometry (`h`, `d`), checked inside [window_low, window_high], with the
    weak-field ratio checked against the exact one. For Earth it also checks
    the coefficient of Delta t_r ~ 3e7 (d/h) s."""
    lo, hi = params["window_low"], params["window_high"]
    if not lo < hi:
        raise ValueError(f"window_low must be below window_high, got {lo} and {hi}")
    body = BodyConfig(mass=params["mass"], radius=params["radius"])
    geom = SwitchGeometry(h=params["h"], d=params["d"])
    report = protocol_duration(body, geom)
    wf = switch_ratio_weak_field(body, geom.h)
    outputs = {
        "body_mass": body.mass,
        "body_radius": body.radius,
        "schwarzschild_radius": body.schwarzschild_radius,
        "d": geom.d,
        "h": geom.h,
        "dt_c": report.dt_c,
        "ratio_exact": report.ratio,
        "ratio_weak_field": wf.ratio,
        "gravity_term": wf.gravity_term,
        "curvature_term": wf.curvature_term,
        "dt_r": report.dt_r,
        "dt_exp_low": report.dt_exp_low,
        "dt_exp_high": report.dt_exp_high,
    }
    checks = (
        ("dt_r_in_window", 0.5 * (lo + hi), report.dt_r, 0.5 * (hi - lo)),
        ("weak_field_consistent", 0.0, abs(wf.deviation), APPROX_REL_TOL),
    )
    if body == EARTH:
        # dt_r = (ratio / c) d, with ratio / c ~ 3e7 / h s/m near Earth's surface
        coefficient = report.ratio / C_LIGHT * geom.h
        checks += (("earth_coefficient", 3.0e7, coefficient, ESTIMATE_REL_TOL * 3.0e7),)
    return outputs, checks


def grav_order_scenario(params, rng):
    """The threshold tau* for clocks at `r_a_offset` and `r_b_offset` above
    the body's surface, with the event order checked at 1.01 tau* (A precedes
    B) and 0.99 tau* (it does not), and the asymmetric-switch threshold at
    (`asym_r_offset`, `asym_h`, `asym_l`)."""
    body = BodyConfig(mass=params["mass"], radius=params["radius"])
    r_a = body.radius + params["r_a_offset"]
    r_b = body.radius + params["r_b_offset"]
    threshold = min_tau_for_order(r_a, r_b, body)
    # Python bools: a check subtracts its expected from its actual value,
    # which np.bool_ does not allow.
    orders_above = bool(order_margin(1.01 * threshold, r_a, r_b, body) < 0.0)
    orders_below = bool(order_margin(0.99 * threshold, r_a, r_b, body) < 0.0)
    asym = asymmetric_order_threshold(body.radius + params["asym_r_offset"], params["asym_h"], params["asym_l"], body)
    outputs = {
        "r_a": r_a,
        "r_b": r_b,
        "min_tau_threshold": threshold,
        "orders_above_threshold": orders_above,
        "orders_below_threshold": orders_below,
        "asymmetric_threshold": asym,
    }
    checks = (
        ("event_a_precedes_b_above_threshold", True, orders_above, 0),
        ("no_order_below_threshold", False, orders_below, 0),
    )
    return outputs, checks
