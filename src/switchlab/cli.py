"""Batch front-end: named scenarios reproducing the headline numbers, with
machine-readable pass/fail reports.

Each scenario is one library function beside the physics it checks
(``order.ocb_game_scenario``, ``gravity.grav_duration_scenario``, ...),
which returns its outputs and its (name, expected, actual, tolerance)
checks. Every number in a report comes from that call; this module only
coerces parameters, dispatches, rounds (12 significant digits), refuses
non-finite values and aggregates. Reports are byte-identical across runs for
a fixed configuration and seed.
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

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

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
    # A scenario's (name, expected, actual, tolerance) tuple as its report
    # entry: the three numbers rounded, and the pass flag set on the unrounded ones.
    ok = bool(abs(actual - expected) <= tolerance)
    return {
        "name": name,
        "expected": _round12(expected),
        "actual": _round12(actual),
        "tolerance": _round12(tolerance),
        "pass": ok,
    }


# Scenario name -> (parameter defaults, the library function that runs it).
SCENARIOS = {
    "ocb-game": ({}, order.ocb_game_scenario),
    "switch-contract": ({"pairs": 50}, order.switch_contract_scenario),
    "chsh-temporal": ({"samples": 50}, order.chsh_temporal_scenario),
    "validate-process": ({"samples": 500}, process.validate_process_scenario),
    "grav-duration": (
        {
            "mass": gravity.EARTH.mass,
            "radius": gravity.EARTH.radius,
            "d": 3e-7,
            "h": 1.0,
            "window_low": 8.0,
            "window_high": 10.0,
        },
        gravity.grav_duration_scenario,
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
        gravity.grav_order_scenario,
    ),
    "trigger": (
        {"tau_star": 1.0, "width": 1e-6, "potential": 1e-30, "mass": 1e-20},
        agents.trigger_scenario,
    ),
    "agent-switch": ({}, agents.agent_switch_scenario),
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


def _checked_params(config):
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
    params = _checked_params(config)
    runner = SCENARIOS[config.scenario][1]
    rng = np.random.default_rng(int(config.seed))
    # An overflow, division by zero or NaN is a usage error, not a warning
    # beside a report that may pass vacuously.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            outputs, checks = runner(params, rng)
            checks = [_check(*check) for check in checks]
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
    for step in (_checked_params, run_scenario):
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
