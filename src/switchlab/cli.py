"""Batch front-end: named scenarios reproducing the headline numbers, with
machine-readable pass/fail reports.

Every number in a report comes from a library call; this module only
dispatches, formats (12 significant digits) and aggregates. Reports are
byte-identical across runs for a fixed configuration and seed.
"""

import argparse
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from . import agents, gravity, order, process
from .linalg import APPROX_REL_TOL, DEFAULT_TOL, ESTIMATE_REL_TOL, NORMALIZATION_TOL, ROUNDOFF_TOL

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

SQRT2 = float(np.sqrt(2.0))

# Largest accepted loop count (`pairs`, `samples`): a run must end in a report.
MAX_COUNT = 10**6


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    params: dict = field(default_factory=dict)
    seed: int = 0


def _round12(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    return x


def _check(name, expected, actual, tolerance):
    ok = bool(abs(actual - expected) <= tolerance)
    return {
        "name": name,
        "expected": _round12(expected),
        "actual": _round12(actual),
        "tolerance": _round12(tolerance),
        "pass": ok,
    }


def _bool_check(name, expected, actual):
    return {
        "name": name,
        "expected": bool(expected),
        "actual": bool(actual),
        "tolerance": 0,
        "pass": bool(expected) == bool(actual),
    }


def _scenario_ocb_game(params, rng):
    w = process.ocb_process()
    strategy = order.ocb_strategy()
    p_alice, p_bob = order.branch_probabilities(w, strategy)
    success = order.success_probability(w, strategy)
    outputs = {
        "success_probability": success,
        "p_alice_guesses_b": p_alice,
        "p_bob_guesses_a": p_bob,
        "causal_bound": 0.75,
    }
    checks = [
        _check("success_equals_(2+sqrt2)/4", (2.0 + SQRT2) / 4.0, success, DEFAULT_TOL),
        _check("alice_branch_value", (2.0 + SQRT2) / 4.0, p_alice, DEFAULT_TOL),
        _check("bob_branch_value", (2.0 + SQRT2) / 4.0, p_bob, DEFAULT_TOL),
    ]
    return outputs, checks


def _scenario_switch_contract(params, rng):
    pairs = params["pairs"]
    worst = order.max_contraction_deviation(pairs, rng)
    outputs = {"pairs": pairs, "max_fidelity_deviation": worst}
    checks = [_check("contraction_equals_supermap", 0.0, worst, DEFAULT_TOL)]
    return outputs, checks


def _scenario_chsh_temporal(params, rng):
    up = np.array([1, 0], dtype=complex)
    state_plus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, +1)
    state_minus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, -1)
    chsh_plus = order.chsh_value(state_plus)
    chsh_minus = order.chsh_value(state_minus)
    worst_sep = order.max_separable_chsh(params["samples"], rng)
    outputs = {
        "chsh_plus_state": chsh_plus,
        "chsh_minus_state": chsh_minus,
        "max_separable_chsh": worst_sep,
    }
    checks = [
        _check("plus_state_reaches_-2sqrt2", -2.0 * SQRT2, chsh_plus, DEFAULT_TOL),
        _check("minus_state_reaches_+2sqrt2", 2.0 * SQRT2, chsh_minus, DEFAULT_TOL),
        _check("separable_within_classical_bound", 0.0, max(0.0, worst_sep - 2.0), DEFAULT_TOL),
    ]
    return outputs, checks


def _scenario_validate_process(params, rng):
    samples = params["samples"]
    w = process.ocb_process()
    report = process.validate_process(w, samples, rng)
    outputs = {
        "samples": samples,
        "trace": report.trace,
        "max_norm_deviation": report.max_norm_deviation,
    }
    checks = [
        _check("trace_equals_4", 4.0, report.trace, DEFAULT_TOL),
        _check("normalization_deviation", 0.0, report.max_norm_deviation, NORMALIZATION_TOL),
    ]
    return outputs, checks


def _scenario_grav_duration(params, rng):
    lo, hi = params["window_low"], params["window_high"]
    if not lo < hi:
        raise ValueError(f"window_low must be below window_high, got {lo} and {hi}")
    body = gravity.BodyConfig(mass=params["mass"], radius=params["radius"])
    geom = gravity.SwitchGeometry(h=params["h"], d=params["d"])
    report = gravity.protocol_duration(body, geom)
    wf = gravity.switch_ratio_weak_field(body, geom.h)
    coefficient = report.ratio / gravity.C_LIGHT  # dt_r = coefficient * d
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
    checks = [
        _check("dt_r_in_window", 0.5 * (lo + hi), report.dt_r, 0.5 * (hi - lo)),
        _check(
            "weak_field_consistent",
            0.0,
            abs(wf.deviation),
            APPROX_REL_TOL,
        ),
    ]
    if body == gravity.EARTH:
        # coefficient of dt_exp ~ 3e7 (d/h) s near Earth's surface
        window = ESTIMATE_REL_TOL * 3.0e7
        checks.append(_check("earth_coefficient", 3.0e7, coefficient * geom.h, window))
    return outputs, checks


def _scenario_grav_order(params, rng):
    body = gravity.BodyConfig(mass=params["mass"], radius=params["radius"])
    r_a = body.radius + params["r_a_offset"]
    r_b = body.radius + params["r_b_offset"]
    threshold = gravity.min_tau_for_order(r_a, r_b, body)
    above = 1.01 * threshold
    below = 0.99 * threshold
    orders_above = gravity.order_margin(above, r_a, r_b, body) < 0.0
    orders_below = gravity.order_margin(below, r_a, r_b, body) < 0.0
    asym = gravity.asymmetric_order_threshold(
        body.radius + params["asym_r_offset"], params["asym_h"], params["asym_l"], body
    )
    outputs = {
        "r_a": r_a,
        "r_b": r_b,
        "min_tau_threshold": threshold,
        "orders_above_threshold": orders_above,
        "orders_below_threshold": orders_below,
        "asymmetric_threshold": asym,
    }
    checks = [
        _bool_check("event_a_precedes_b_above_threshold", True, orders_above),
        _bool_check("no_order_below_threshold", False, orders_below),
    ]
    return outputs, checks


def _scenario_trigger(params, rng):
    p = agents.TriggerParams(params["tau_star"], params["width"], params["potential"], params["mass"])
    angle = agents.crossing_rotation_angle(p)
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
    checks = [
        _check("rotation_angle_is_pi_over_2", float(np.pi / 2), angle, ROUNDOFF_TOL),
        _check("period_is_4_tau_star", 4.0 * params["tau_star"], p.period, ROUNDOFF_TOL),
        _check("rotation_lands_on_A1", 1.0, fidelity, ROUNDOFF_TOL),
        _bool_check("regime_ok", True, p.regime_ok),
    ]
    return outputs, checks


def _scenario_agent_switch(params, rng):
    amps = agents.AgentAmplitudes()
    e1 = np.eye(5)[0]
    e4 = np.eye(5)[3]
    expected = {
        +1: (np.eye(5)[2] + np.eye(5)[4]) / SQRT2,
        -1: (np.eye(5)[2] - np.eye(5)[4]) / SQRT2,
    }
    fid = {}
    for sign in (+1, -1):
        result = agents.run_switch_model(amps, e1, zeta=3, sign=sign)
        fid[sign] = abs(np.vdot(expected[sign], result.target)) ** 2
    res_e4 = agents.run_switch_model(amps, e4, zeta=2, sign=+1)
    fid_e4 = abs(np.vdot(np.eye(5)[4], res_e4.target)) ** 2
    rng_alpha = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    rng_alpha /= np.linalg.norm(rng_alpha)
    full = agents.apply_agent_a_then_b(amps, rng_alpha)
    total = sum(agents.postselect(full, zeta)[1] for zeta in range(4))
    isometry_dev = agents.max_isometry_deviation(amps)
    outputs = {
        "e1_plus_fidelity": fid[+1],
        "e1_minus_fidelity": fid[-1],
        "e4_fidelity": fid_e4,
        "postselection_total": total,
        "max_isometry_deviation": isometry_dev,
    }
    checks = [
        _check("e1_plus_target", 1.0, fid[+1], DEFAULT_TOL),
        _check("e1_minus_target", 1.0, fid[-1], DEFAULT_TOL),
        _check("e4_trivial_switch", 1.0, fid_e4, DEFAULT_TOL),
        _check("postselection_completeness", 1.0, total, DEFAULT_TOL),
        _check("orders_are_isometries", 0.0, isometry_dev, ROUNDOFF_TOL),
    ]
    return outputs, checks


SCENARIOS = {
    "ocb-game": ({}, _scenario_ocb_game),
    "switch-contract": ({"pairs": 50}, _scenario_switch_contract),
    "chsh-temporal": ({"samples": 50}, _scenario_chsh_temporal),
    "validate-process": ({"samples": 500}, _scenario_validate_process),
    "grav-duration": (
        {
            "mass": gravity.EARTH.mass,
            "radius": gravity.EARTH.radius,
            "d": 3e-7,
            "h": 1.0,
            "window_low": 8.0,
            "window_high": 10.0,
        },
        _scenario_grav_duration,
    ),
    "grav-order": (
        {
            "mass": gravity.EARTH.mass,
            "radius": gravity.EARTH.radius,
            "r_a_offset": 1e5,
            "r_b_offset": 0.0,
            "asym_r_offset": 0.0,
            "asym_h": 1e5,
            "asym_l": 1e5,
        },
        _scenario_grav_order,
    ),
    "trigger": (
        {"tau_star": 1.0, "width": 1e-6, "potential": 1e-30, "mass": 1e-20},
        _scenario_trigger,
    ),
    "agent-switch": ({}, _scenario_agent_switch),
}


def _coerce_param(scenario, key, raw, default):
    """One scenario parameter, typed by its default: an int default is a loop
    count, a whole number in [1, MAX_COUNT]; a float default is a finite
    real. The value is a number (not a bool) or a string that parses as one."""
    where = f"{scenario}: parameter '{key}'"
    if isinstance(raw, bool) or not isinstance(raw, (numbers.Real, str)):
        raise ValueError(f"{where} must be a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    except ValueError:
        raise ValueError(f"{where} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where} must be finite, got {raw}")
    if isinstance(default, float):
        return value
    # A fractional loop count would be truncated, one below one would make
    # the scenario's checks pass vacuously, and one above MAX_COUNT would
    # keep the run from finishing.
    if not value.is_integer():
        raise ValueError(f"{where} must be a whole number, got {raw}")
    if not 1 <= value <= MAX_COUNT:
        raise ValueError(f"{where} must be between 1 and {MAX_COUNT}, got {raw}")
    return int(value)


def _scenario_params(config):
    """The scenario's parameters: its defaults, overridden by the config's
    values, each coerced by :func:`_coerce_param`, once the scenario and the
    seed are known to be valid."""
    if config.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{config.scenario}'")
    if config.seed < 0:
        raise ValueError(f"{config.scenario}: seed must be a non-negative integer, got {config.seed}")
    defaults, _ = SCENARIOS[config.scenario]
    unknown = set(config.params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {config.scenario}: {sorted(unknown)}")
    return {
        key: _coerce_param(config.scenario, key, config.params.get(key, default), default)
        for key, default in defaults.items()
    }


def _require_finite(outputs, checks):
    """Raise ValueError naming the first output or check value that is a
    non-finite float: Python float arithmetic overflows to inf without the
    error that np.errstate raises for numpy's."""
    named = [(("output", key), value) for key, value in outputs.items()]
    named += [(("check", c["name"], key), c[key]) for c in checks for key in ("expected", "actual", "tolerance")]
    for what, value in named:
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(" ".join(what) + " is not finite")


def run_scenario(config):
    """Run one scenario and return its report dictionary."""
    params = _scenario_params(config)
    runner = SCENARIOS[config.scenario][1]
    rng = np.random.default_rng(int(config.seed))
    # An overflow, division by zero or NaN is a usage error, not a warning
    # beside a report that may pass vacuously.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            outputs, checks = runner(params, rng)
        _require_finite(outputs, checks)
    except ArithmeticError as exc:
        raise ValueError(f"{config.scenario}: {type(exc).__name__}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{config.scenario}: {exc}") from exc
    report = {
        "scenario": config.scenario,
        "seed": int(config.seed),
        "inputs": {k: _round12(v) for k, v in params.items()},
        "outputs": {k: _round12(v) for k, v in outputs.items()},
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return report


def run_suite(configs):
    """Run a sequence of scenario configs and aggregate pass/fail. Every
    entry's parameters and seed are checked before the first entry runs."""
    configs = list(configs)
    if not configs:
        raise ValueError("suite is empty")
    for step in (_scenario_params, run_scenario):
        results = []
        for i, config in enumerate(configs):
            try:
                results.append(step(config))
            except ValueError as exc:
                raise ValueError(f"suite entry {i}: {exc}") from exc
    return {"reports": results, "pass": all(r["pass"] for r in results)}


def render_report(report):
    # allow_nan=False: NaN/Infinity tokens are not JSON, so refuse them.
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _parse_param(text):
    if "=" not in text:
        raise ValueError(f"parameter '{text}' is not of the form key=value")
    return tuple(text.split("=", 1))


def _configs_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("suite config must be a JSON list of scenario objects")
    configs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"suite entry {i} is not a JSON object")
        scenario = entry.get("scenario")
        params = entry.get("params", {})
        seed = entry.get("seed", 0)
        if not isinstance(scenario, str):
            raise ValueError(f"suite entry {i} needs a string 'scenario'")
        if not isinstance(params, dict):
            raise ValueError(f"suite entry {i}: 'params' is not a JSON object")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"suite entry {i}: 'seed' is not an integer")
        configs.append(ScenarioConfig(scenario=scenario, params=params, seed=seed))
    return configs


def _emit(text, out_path):
    # The file first: if it cannot be written, the run is a usage error and
    # stdout stays empty.
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _list_text():
    listing = {
        name: {"params": {k: _round12(v) for k, v in defaults.items()}}
        for name, (defaults, _) in SCENARIOS.items()
    }
    return json.dumps({"scenarios": listing}, indent=2) + "\n"


class _Parser(argparse.ArgumentParser):
    # A malformed command line raises, so main reports it as one JSON error
    # line, not argparse's usage text. Subcommand parsers share the class.
    def error(self, message):
        raise ValueError(message)


@functools.lru_cache(maxsize=None)
def _parser():
    # Built once; each parse makes a fresh namespace, and `append` copies its default.
    parser = _Parser(prog="switchlab", description=__doc__)
    parser.add_argument("--list", action="store_true", help="enumerate scenarios and parameters")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run a single scenario")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--param", action="append", default=[], metavar="K=V")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default=None)
    suite_p = sub.add_parser("suite", help="run a suite from a JSON config file")
    suite_p.add_argument("--config", required=True)
    suite_p.add_argument("--out", default=None)
    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        if args.list:
            sys.stdout.write(_list_text())
            return EXIT_OK
        if args.command is None:
            raise ValueError("a command is required: run or suite")
        if args.command == "run":
            params = dict(_parse_param(p) for p in args.param)
            report = run_scenario(ScenarioConfig(args.scenario, params, args.seed))
            _emit(render_report(report), args.out)
            return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED
        configs = _configs_from_file(args.config)
        suite = run_suite(configs)
        _emit(render_report(suite), args.out)
        return EXIT_OK if suite["pass"] else EXIT_CHECK_FAILED
    except (ValueError, OSError, KeyError) as exc:
        error = {"error": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
