"""Batch front-end: named scenarios reproducing the headline numbers, with
machine-readable pass/fail reports.

Every number in a report comes from a library call; this module only
dispatches, formats (12 significant digits) and aggregates. Reports are
byte-identical across runs for a fixed configuration and seed.
"""

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import agents, gravity, linalg, order, process
from .ops import rand_unitary

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
    success = 0.5 * (p_alice + p_bob)
    outputs = {
        "success_probability": success,
        "p_alice_guesses_b": p_alice,
        "p_bob_guesses_a": p_bob,
        "causal_bound": 0.75,
    }
    checks = [
        _check("success_equals_(2+sqrt2)/4", (2.0 + SQRT2) / 4.0, success, 1e-9),
        _check("alice_branch_value", (2.0 + SQRT2) / 4.0, p_alice, 1e-9),
        _check("bob_branch_value", (2.0 + SQRT2) / 4.0, p_bob, 1e-9),
    ]
    return outputs, checks


def _count(params, key):
    # A fractional loop count would be truncated, one below one would make
    # the scenario's checks pass vacuously, and one above MAX_COUNT would
    # keep the run from finishing.
    raw = params[key]
    n = int(raw)
    if isinstance(raw, float) and raw != n:
        raise ValueError(f"{key} must be a whole number, got {raw}")
    if not 1 <= n <= MAX_COUNT:
        raise ValueError(f"{key} must be between 1 and {MAX_COUNT}, got {raw}")
    return n


def _scenario_switch_contract(params, rng):
    pairs = _count(params, "pairs")
    worst = 0.0
    for _ in range(pairs):
        psi = rand_unitary(2, rng)[:, 0]
        spec = order.SwitchSpec(target_state=psi)
        vec = order.switch_process_vector(spec)
        ua, ub = rand_unitary(2, rng), rand_unitary(2, rng)
        contracted = order.contract_switch_vector(vec, ua, ub)
        supermap = order.switch_supermap_state(ua, ub, spec)
        fidelity = abs(np.vdot(contracted, supermap)) ** 2
        worst = max(worst, abs(fidelity - 1.0))
    outputs = {"pairs": pairs, "max_fidelity_deviation": worst}
    checks = [_check("contraction_equals_supermap", 0.0, worst, 1e-9)]
    return outputs, checks


def _scenario_chsh_temporal(params, rng):
    up = np.array([1, 0], dtype=complex)
    state_plus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, +1)
    state_minus = order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, up, up, -1)
    chsh_plus = order.chsh_value(state_plus)
    chsh_minus = order.chsh_value(state_minus)
    samples = _count(params, "samples")
    worst_sep = 0.0
    for _ in range(samples):
        a = rand_unitary(2, rng)[:, 0]
        b = rand_unitary(2, rng)[:, 0]
        worst_sep = max(worst_sep, abs(order.chsh_value(np.kron(a, b))))
    outputs = {
        "chsh_plus_state": chsh_plus,
        "chsh_minus_state": chsh_minus,
        "max_separable_chsh": worst_sep,
    }
    checks = [
        _check("plus_state_reaches_-2sqrt2", -2.0 * SQRT2, chsh_plus, 1e-9),
        _check("minus_state_reaches_+2sqrt2", 2.0 * SQRT2, chsh_minus, 1e-9),
        _check("separable_within_classical_bound", 0.0, max(0.0, worst_sep - 2.0), 1e-9),
    ]
    return outputs, checks


def _scenario_validate_process(params, rng):
    samples = _count(params, "samples")
    w = process.ocb_process()
    report = process.validate_process(w, samples, rng)
    trace = float(np.trace(w.matrix).real)
    outputs = {
        "samples": samples,
        "psd": report.psd,
        "trace": trace,
        "max_norm_deviation": report.max_norm_deviation,
    }
    checks = [
        _bool_check("psd", True, report.psd),
        _check("trace_equals_4", 4.0, trace, 1e-9),
        _check("normalization_deviation", 0.0, report.max_norm_deviation, 1e-8),
    ]
    return outputs, checks


def _resolve_body(params):
    if params["body"] == "earth":
        return gravity.EARTH
    if params["body"] == "custom":
        return gravity.BodyConfig(mass=float(params["mass"]), radius=float(params["radius"]))
    raise ValueError("body must be 'earth' or 'custom'")


def _scenario_grav_duration(params, rng):
    lo, hi = float(params["window_low"]), float(params["window_high"])
    if not lo < hi:
        raise ValueError(f"window_low must be below window_high, got {lo} and {hi}")
    body = _resolve_body(params)
    geom = gravity.SwitchGeometry(h=float(params["h"]), d=float(params["d"]))
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
            abs(report.ratio - wf.ratio) / wf.ratio,
            1e-3,
        ),
    ]
    if params["body"] == "earth":
        # coefficient of dt_exp ~ 3e7 (d/h) s near Earth's surface
        checks.append(_check("earth_coefficient", 3.0e7, coefficient * geom.h, 0.05 * 3.0e7))
    return outputs, checks


def _scenario_grav_order(params, rng):
    body = _resolve_body(params)
    r_a = body.radius + float(params["r_a_offset"])
    r_b = body.radius + float(params["r_b_offset"])
    threshold = gravity.min_tau_for_order(r_a, r_b, body)
    above = 1.01 * threshold
    below = 0.99 * threshold
    orders_above = gravity.arrival_proper_time(above, r_a, r_b, body) < above
    orders_below = gravity.arrival_proper_time(below, r_a, r_b, body) < below
    asym = gravity.asymmetric_order_threshold(
        body.radius + float(params["asym_r_offset"]),
        float(params["asym_h"]),
        float(params["asym_l"]),
        body,
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
    p = agents.trigger_params(
        float(params["tau_star"]),
        float(params["width"]),
        float(params["potential"]),
        float(params["mass"]),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        angle = agents.crossing_rotation_angle(p)
    u = np.cos(angle) * np.eye(2) - 1j * np.sin(angle) * linalg.PAULI_X
    fidelity = abs(np.vdot(np.array([0, 1]), u @ np.array([1, 0], dtype=complex)))
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
        _check("rotation_angle_is_pi_over_2", float(np.pi / 2), angle, 1e-12),
        _check("period_is_4_tau_star", 4.0 * float(params["tau_star"]), p.period, 1e-12),
        _check("rotation_lands_on_A1", 1.0, fidelity, 1e-12),
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
    full = agents.apply_agent_a_then_b(amps, agents.ModelState.from_target(rng_alpha))
    total = sum(agents.postselect(full, zeta)[1] for zeta in range(4))
    outputs = {
        "e1_plus_fidelity": fid[+1],
        "e1_minus_fidelity": fid[-1],
        "e4_fidelity": fid_e4,
        "postselection_total": total,
    }
    checks = [
        _check("e1_plus_target", 1.0, fid[+1], 1e-9),
        _check("e1_minus_target", 1.0, fid[-1], 1e-9),
        _check("e4_trivial_switch", 1.0, fid_e4, 1e-9),
        _check("postselection_completeness", 1.0, total, 1e-9),
    ]
    return outputs, checks


SCENARIOS = {
    "ocb-game": ({}, _scenario_ocb_game),
    "switch-contract": ({"pairs": 50}, _scenario_switch_contract),
    "chsh-temporal": ({"samples": 50}, _scenario_chsh_temporal),
    "validate-process": ({"samples": 500}, _scenario_validate_process),
    "grav-duration": (
        {
            "body": "earth",
            "mass": 0.0,
            "radius": 0.0,
            "d": 3e-7,
            "h": 1.0,
            "window_low": 8.0,
            "window_high": 10.0,
        },
        _scenario_grav_duration,
    ),
    "grav-order": (
        {
            "body": "earth",
            "mass": 0.0,
            "radius": 0.0,
            "r_a_offset": 1e5,
            "r_b_offset": 0.0,
            "asym_r_offset": 0.0,
            "asym_h": 1e5,
            "asym_l": 1e5,
        },
        _scenario_grav_order,
    ),
    "trigger": (
        {"tau_star": 1.0, "width": 1e-6, "potential": 1e-21, "mass": 1e-25},
        _scenario_trigger,
    ),
    "agent-switch": ({}, _scenario_agent_switch),
}


def run_scenario(config):
    """Run one scenario and return its report dictionary."""
    if config.scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario '{config.scenario}'")
    defaults, runner = SCENARIOS[config.scenario]
    unknown = set(config.params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameters for {config.scenario}: {sorted(unknown)}")
    params = {**defaults, **config.params}
    rng = np.random.default_rng(int(config.seed))
    # An overflow, division by zero or NaN is a usage error, not a warning
    # beside a report that may pass vacuously.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        outputs, checks = runner(params, rng)
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
    """Run a sequence of scenario configs and aggregate pass/fail."""
    configs = list(configs)
    if not configs:
        raise ValueError("suite is empty")
    reports = [run_scenario(c) for c in configs]
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}


def render_report(report):
    # allow_nan=False: NaN/Infinity tokens are not JSON, so refuse them.
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _parse_param(text):
    if "=" not in text:
        raise ValueError(f"parameter '{text}' is not of the form key=value")
    key, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            value = cast(raw)
        except ValueError:
            continue
        if not math.isfinite(value):
            raise ValueError(f"parameter '{key}' must be finite, got {raw}")
        return key, value
    return key, raw


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
        for key, value in params.items():
            if not isinstance(value, (str, int, float)):
                raise ValueError(f"suite entry {i}: parameter '{key}' is not a number or string")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"suite entry {i}: 'seed' is not an integer")
        configs.append(ScenarioConfig(scenario=scenario, params=params, seed=seed))
    return configs


def _emit(text, out_path):
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _list_text():
    listing = {
        name: {"params": {k: _round12(v) for k, v in defaults.items()}}
        for name, (defaults, _) in SCENARIOS.items()
    }
    return json.dumps({"scenarios": listing}, indent=2) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(prog="switchlab", description=__doc__)
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

    args = parser.parse_args(argv)
    if args.list:
        sys.stdout.write(_list_text())
        return EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "run":
            params = dict(_parse_param(p) for p in args.param)
            report = run_scenario(ScenarioConfig(args.scenario, params, args.seed))
            _emit(render_report(report), args.out)
            return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED
        configs = _configs_from_file(args.config)
        suite = run_suite(configs)
        _emit(render_report(suite), args.out)
        return EXIT_OK if suite["pass"] else EXIT_CHECK_FAILED
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        error = {"error": str(exc)}
        sys.stderr.write(json.dumps(error) + "\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
