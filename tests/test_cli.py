import contextlib
import io
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import agents
from switchlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    MAX_COUNT,
    SCENARIOS,
    ScenarioConfig,
    main,
    render_report,
    run_scenario,
    run_suite,
    _coerce_param,
    _round12,
)

GOLDEN = Path(__file__).resolve().parent.parent / "suites" / "golden.json"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_usage_error(argv):
    """Run the CLI expecting exit 2: nothing on stdout, one JSON error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    return json.loads(err.getvalue())["error"]


def test_every_scenario_passes_with_defaults():
    for name in SCENARIOS:
        report = run_scenario(ScenarioConfig(name, seed=0))
        assert report["pass"], (name, report["checks"])
        for check in report["checks"]:
            assert {"name", "expected", "actual", "tolerance", "pass"} <= set(check)


def test_unknown_scenario_and_params_rejected():
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig("no-such-thing"))
    with pytest.raises(ValueError):
        run_scenario(ScenarioConfig("trigger", params={"bogus": 1}))


def test_run_scenario_deterministic_for_fixed_seed():
    a = run_scenario(ScenarioConfig("switch-contract", params={"pairs": 10}, seed=7))
    b = run_scenario(ScenarioConfig("switch-contract", params={"pairs": 10}, seed=7))
    assert json.dumps(a) == json.dumps(b)


def test_run_suite_aggregates():
    suite = run_suite([ScenarioConfig("ocb-game"), ScenarioConfig("trigger")])
    assert suite["pass"]
    assert len(suite["reports"]) == 2
    with pytest.raises(ValueError):
        run_suite([])


def test_cli_run_exit_codes(tmp_path):
    code, out = run_cli(["run", "--scenario", "ocb-game"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"]
    # tightening a window until it fails must flip the exit code
    code, out = run_cli(
        ["run", "--scenario", "grav-duration", "--param", "window_low=9.9", "--param", "window_high=10.0"]
    )
    assert code == EXIT_CHECK_FAILED
    assert not json.loads(out)["pass"]


def test_cli_usage_errors():
    code, _ = run_cli(["run", "--scenario", "nope"])
    assert code == EXIT_USAGE
    code, _ = run_cli(["suite", "--config", "/does/not/exist.json"])
    assert code == EXIT_USAGE


# name -> (argv, a fragment of its error) for command lines that exit 2 with
# nothing on stdout: an --out that cannot be written (the report is not
# printed either), and command lines that argparse refuses. CI runs each
# through the installed console script as well.
MISSING_OUT = str(GOLDEN.parent / "no-such-dir" / "report.json")
USAGE_ERRORS = {
    "run-out-missing-dir": (["run", "--scenario", "ocb-game", "--out", MISSING_OUT], MISSING_OUT),
    "run-out-is-a-directory": (["run", "--scenario", "ocb-game", "--out", str(GOLDEN.parent)], str(GOLDEN.parent)),
    "suite-out-missing-dir": (["suite", "--config", str(GOLDEN), "--out", MISSING_OUT], MISSING_OUT),
    "suite-out-is-a-directory": (["suite", "--config", str(GOLDEN), "--out", str(GOLDEN.parent)], str(GOLDEN.parent)),
    "seed-not-an-int": (["run", "--scenario", "ocb-game", "--seed", "abc"], "--seed"),
    "run-without-scenario": (["run"], "--scenario"),
    "unknown-option": (["--bogus"], "--bogus"),
    "no-command": ([], "a command is required"),
}


@pytest.mark.parametrize("argv, fragment", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_cli_usage_errors_are_one_json_line(argv, fragment):
    assert fragment in run_cli_usage_error(argv)


def test_cli_calls_share_no_parser_state():
    # main builds its parser once: nothing one call parses may reach the
    # next. A --param must not stay in the default, a command or --list must
    # not carry over, and a usage error after a good call exits 2 as usual.
    defaults = render_report(run_scenario(ScenarioConfig("grav-order")))
    code, out = run_cli(["run", "--scenario", "grav-order", "--param", "r_a_offset=1"])
    assert code == EXIT_OK and out != defaults
    assert run_cli(["run", "--scenario", "grav-order"]) == (EXIT_OK, defaults)
    assert "a command is required" in run_cli_usage_error([])
    assert "--scenario" in run_cli_usage_error(["run"])
    assert run_cli(["--list"])[0] == EXIT_OK
    assert run_cli(["run", "--scenario", "grav-order"]) == (EXIT_OK, defaults)


def test_cli_suite_golden_and_out_file(tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run_cli(["suite", "--config", str(GOLDEN), "--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_text() == out
    suite = json.loads(out)
    assert suite["pass"]
    assert len(suite["reports"]) == 9


def test_cli_small_mass_params():
    code, out = run_cli(
        [
            "run",
            "--scenario",
            "grav-duration",
            "--param",
            "mass=1e-10",
            "--param",
            "radius=1e-15",
            "--param",
            "d=1e-15",
            "--param",
            "h=1e-9",
            "--param",
            "window_low=0.04",
            "--param",
            "window_high=0.06",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"]
    assert 0.04 <= report["outputs"]["dt_r"] <= 0.06


@pytest.mark.parametrize(
    "params",
    [["r_a_offset=1"], ["r_a_offset=1e-3"], ["asym_h=1", "asym_l=1"]],
    ids=["one-metre-offset", "millimetre-offset", "one-metre-switch"],
)
def test_cli_grav_order_passes_at_lab_scale(params):
    # Lapses within 1e-13 of each other: the thresholds and the order checks
    # must not be lost to cancellation.
    argv = ["run", "--scenario", "grav-order"]
    for param in params:
        argv += ["--param", param]
    code, out = run_cli(argv)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pass"]
    assert report["outputs"]["orders_above_threshold"] and not report["outputs"]["orders_below_threshold"]


def test_cli_list():
    code, out = run_cli(["--list"])
    assert code == EXIT_OK
    listing = json.loads(out)
    assert set(listing["scenarios"]) == set(SCENARIOS)


@pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
def test_cli_rejects_non_finite_param(raw):
    message = run_cli_usage_error(["run", "--scenario", "grav-duration", "--param", f"d={raw}"])
    assert "finite" in message


def test_render_report_refuses_non_finite(tmp_path):
    with pytest.raises(ValueError):
        render_report({"x": float("nan")})
    # a suite file can still carry NaN (Python's json accepts the token);
    # the renderer turns it into a usage error instead of invalid JSON
    config = tmp_path / "nan.json"
    config.write_text('[{"scenario": "grav-duration", "params": {"d": NaN}}]')
    run_cli_usage_error(["suite", "--config", str(config)])


@pytest.mark.parametrize(
    "suite",
    [
        "[1, 2]",
        '[{"scenario": "trigger", "params": [1]}]',
        '[{"scenario": ["trigger"]}]',
        '[{"scenario": "trigger", "seed": [0]}]',
        '[{"scenario": "switch-contract", "params": {"pairs": [1]}}]',
    ],
    ids=["entry-not-object", "params-not-object", "scenario-not-string", "seed-not-int", "param-not-scalar"],
)
def test_cli_rejects_malformed_suite_entries(tmp_path, suite):
    config = tmp_path / "suite.json"
    config.write_text(suite)
    assert "suite entry 0" in run_cli_usage_error(["suite", "--config", str(config)])


@pytest.mark.parametrize(
    "scenario, param",
    [("switch-contract", "pairs"), ("chsh-temporal", "samples"), ("validate-process", "samples")],
)
def test_cli_rejects_counts_below_one(scenario, param):
    for value in (0, -3):
        run_cli_usage_error(["run", "--scenario", scenario, "--param", f"{param}={value}"])


@pytest.mark.parametrize(
    "scenario, param", [("switch-contract", "pairs"), ("validate-process", "samples")]
)
def test_cli_rejects_fractional_counts(scenario, param):
    error = run_cli_usage_error(["run", "--scenario", scenario, "--param", f"{param}=2.5"])
    assert "whole number" in error


@pytest.mark.parametrize(
    "scenario, param, value",
    [
        ("switch-contract", "pairs", "1e12"),
        ("validate-process", "samples", "1e30"),
        ("chsh-temporal", "samples", str(MAX_COUNT + 1)),
    ],
)
def test_cli_rejects_counts_above_the_limit(scenario, param, value):
    error = run_cli_usage_error(["run", "--scenario", scenario, "--param", f"{param}={value}"])
    assert f"between 1 and {MAX_COUNT}" in error


def test_count_accepts_the_limit():
    assert _coerce_param("chsh-temporal", "samples", MAX_COUNT, 50) == MAX_COUNT
    assert _coerce_param("chsh-temporal", "samples", float(MAX_COUNT), 50) == MAX_COUNT


@pytest.mark.parametrize("low, high", [(10, 8), (9, 9)])
def test_cli_rejects_reversed_check_windows(low, high):
    error = run_cli_usage_error(
        ["run", "--scenario", "grav-duration", "--param", f"window_low={low}", "--param", f"window_high={high}"]
    )
    assert "window_low must be below window_high" in error


# (scenario, params, quantity) runs that fail numerically on finite input;
# the error names the scenario and the quantity. CI runs each through the
# installed console script as well.
NUMERIC_FAILURES = {
    "sigma-underflow": ("trigger", ["mass=1e300"], "sigma"),
    "energy-overflow": ("trigger", ["tau_star=1e-300"], "energy"),
    "huge-body": ("grav-duration", ["mass=1e300", "radius=1e300"], "lapse gap"),
    "huge-geometry": ("grav-duration", ["h=1e308", "d=1e308"], "dt_r"),
    "huge-distance": ("grav-duration", ["h=1", "d=1e308"], "dt_r"),
    "tiny-mass": ("grav-duration", ["mass=1e-300"], "lapse gap"),
    "tiny-mass-order": ("grav-order", ["mass=1e-300"], "lapse gap"),
    "tiny-height": ("grav-duration", ["h=1e-320"], "lapse gap"),
    "switch-ratio-overflow": ("grav-duration", ["mass=1e19", "radius=1e300", "h=1e300"], "switch ratio"),
    "threshold-overflow": ("grav-order", ["mass=1e-200", "r_a_offset=1.5e200"], "threshold proper time"),
    "asymmetric-underflow": ("grav-order", ["asym_l=1e-308", "asym_r_offset=1e-200"], "asymmetric threshold"),
}
# A numeric failure names its quantity, never only the exception class.
EXCEPTION_CLASSES = ("ZeroDivisionError", "FloatingPointError", "OverflowError")


@pytest.mark.parametrize("scenario, params, quantity", list(NUMERIC_FAILURES.values()), ids=list(NUMERIC_FAILURES))
def test_cli_numeric_failures_are_usage_errors(scenario, params, quantity):
    # A numeric warning would print a line to stderr ahead of the JSON
    # error; raised as an exception here, it escapes main and fails the test.
    argv = ["run", "--scenario", scenario]
    for param in params:
        argv += ["--param", param]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        error = run_cli_usage_error(argv)
    assert scenario in error and quantity in error
    assert not any(name in error for name in EXCEPTION_CLASSES)


@pytest.mark.parametrize("case", ["huge-body", "tiny-mass", "tiny-mass-order", "tiny-height"])
def test_cli_lapse_gap_underflow_is_one_named_json_line(case):
    # (R_S/r) (h/(r + h)) is 0 once R_S/r or h/(r + h) underflows, or their
    # product does; the duration and the threshold divide by it.
    scenario, params, _ = NUMERIC_FAILURES[case]
    argv = ["run", "--scenario", scenario]
    for param in params:
        argv += ["--param", param]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_USAGE and out.getvalue() == ""
    assert err.getvalue() == f'{{"error": "{scenario}: lapse gap between the two radii underflows to 0"}}\n'


# Inputs at which products of lengths such as R^2, R^3, R_S h or r (r + h)
# leave the float range, though no printed value does: formed as ratios of
# lengths, each gives a finite report. At these durations grav-duration fails
# its default window and exits 1.
FINITE_EXTREMES = {
    "curvature-underflow": ("grav-duration", ["radius=1e100"], EXIT_CHECK_FAILED),
    "curvature-overflow": ("grav-duration", ["radius=1e150"], EXIT_CHECK_FAILED),
    "tiny-radius": ("grav-duration", ["radius=1e-124", "mass=1e-162"], EXIT_CHECK_FAILED),
    "tinier-radius": ("grav-duration", ["radius=1e-176", "mass=1e-237"], EXIT_CHECK_FAILED),
    "lapse-denominator-underflow": ("grav-duration", ["mass=1e-257", "radius=1e-219", "h=1e-160"], EXIT_CHECK_FAILED),
    "lapse-denominator-underflow-order": ("grav-order", ["mass=1e-240", "radius=1e-200", "r_a_offset=1e-200"], EXIT_OK),
    "huge-body-height": ("grav-duration", ["mass=1e300", "radius=1e300", "h=1e100"], EXIT_CHECK_FAILED),
}


@pytest.mark.parametrize("scenario, params, code", list(FINITE_EXTREMES.values()), ids=list(FINITE_EXTREMES))
def test_cli_gravity_extremes_give_finite_reports(scenario, params, code):
    argv = ["run", "--scenario", scenario]
    for param in params:
        argv += ["--param", param]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out = run_cli(argv)
    assert got == code
    report = json.loads(out, parse_constant=_refuse_constant)
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ([] if code == EXIT_OK else ["dt_r_in_window"])


@pytest.mark.parametrize(
    "params, what",
    [
        (["h=1", "d=1e308"], "output dt_r"),
        (["h=1", "d=5e307"], "output dt_r"),
        (["window_low=-1e308", "window_high=1e308"], "check dt_r_in_window tolerance"),
    ],
    ids=["distance", "half-distance", "window"],
)
def test_cli_non_finite_report_values_are_named(params, what):
    # Python floats overflow to inf without raising; the report names the value.
    argv = ["run", "--scenario", "grav-duration"]
    for param in params:
        argv += ["--param", param]
    assert run_cli_usage_error(argv) == f"grav-duration: {what} is not finite"


@pytest.mark.parametrize("value", ["1e-200", "1e200"], ids=["underflow", "overflow"])
def test_cli_trigger_amplitude_out_of_range_is_a_named_usage_error(value):
    # Each field is positive and finite; the amplitude 2 Delta V0 / (pi hbar omega) is not.
    argv = ["run", "--scenario", "trigger", "--param", f"width={value}", "--param", f"potential={value}"]
    error = run_cli_usage_error(argv)
    assert "trigger" in error and "amplitude" in error


@pytest.mark.parametrize(
    "param, quantity",
    [("tau_star=1e-300", "energy"), ("tau_star=1e300", "amplitude"), ("mass=1e300", "sigma")],
    ids=["energy-overflow", "amplitude-division-underflow", "sigma-underflow"],
)
def test_cli_trigger_derived_quantity_out_of_range_is_named(param, quantity):
    # m omega^2 A^2 / 2 overflows, pi hbar omega underflows to 0, hbar / m omega underflows to 0.
    error = run_cli_usage_error(["run", "--scenario", "trigger", "--param", param])
    assert error.startswith("trigger: ") and f"{quantity} is not positive and finite" in error


def test_cli_trigger_regime_quotient_past_the_float_range_gives_a_finite_report():
    # width / sigma is past 1e308: its flag holds, as the exact quotient's would.
    argv = ["run", "--scenario", "trigger", "--param", "width=5.4e267", "--param", "potential=1.9e-277"]
    code, out = run_cli(argv + ["--param", "mass=4.4e210"])
    report = json.loads(out, parse_constant=_refuse_constant)
    assert code == EXIT_CHECK_FAILED and report["outputs"]["regime_ok"] is False


def test_cli_custom_body_is_set_by_mass_and_radius():
    # A mass alone keeps Earth's radius and must be the mass computed with.
    code, out = run_cli(["run", "--scenario", "grav-duration", "--param", "mass=5"])
    assert code == EXIT_CHECK_FAILED
    report = json.loads(out)
    assert report["inputs"]["mass"] == report["outputs"]["body_mass"] == 5.0
    assert "earth_coefficient" not in [c["name"] for c in report["checks"]]
    code, out = run_cli(["run", "--scenario", "grav-duration"])
    assert "earth_coefficient" in [c["name"] for c in json.loads(out)["checks"]]


@pytest.mark.parametrize(
    "scenario, params, key",
    [
        ("switch-contract", '{"pairs": true}', "pairs"),
        ("grav-duration", '{"h": true}', "h"),
        ("grav-duration", '{"d": 1e400}', "d"),
    ],
)
def test_cli_suite_rejects_bool_and_overflowing_values(tmp_path, scenario, params, key):
    config = tmp_path / "suite.json"
    config.write_text(f'[{{"scenario": "ocb-game"}}, {{"scenario": "{scenario}", "params": {params}}}]')
    error = run_cli_usage_error(["suite", "--config", str(config)])
    assert error.startswith(f"suite entry 1: {scenario}: parameter '{key}'")


def test_cli_suite_checks_every_entry_before_running_any(tmp_path, monkeypatch):
    calls = []
    defaults, runner = SCENARIOS["validate-process"]

    def recording_runner(params, rng):
        calls.append(params)
        return runner(params, rng)

    monkeypatch.setitem(SCENARIOS, "validate-process", (defaults, recording_runner))
    config = tmp_path / "suite.json"
    config.write_text(
        '[{"scenario": "validate-process", "params": {"samples": 20000}},'
        ' {"scenario": "switch-contract", "params": {"pairs": true}}]'
    )
    error = run_cli_usage_error(["suite", "--config", str(config)])
    assert error.startswith("suite entry 1: switch-contract: parameter 'pairs'")
    assert calls == []
    config.write_text('[{"scenario": "validate-process", "params": {"samples": 2}}]')
    assert run_cli(["suite", "--config", str(config)])[0] == EXIT_OK
    assert calls == [{"samples": 2}]


def test_cli_rejects_non_numeric_param():
    error = run_cli_usage_error(["run", "--scenario", "grav-duration", "--param", "h=abc"])
    assert error == "grav-duration: parameter 'h' must be a number, got 'abc'"


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# The scenarios that take parameters, each with its defaults.
PARAMETRIZED = [(name, defaults) for name, (defaults, _) in SCENARIOS.items() if defaults]

# A drawn value is the pair (text after "key=" on the command line, JSON text
# in a suite file).
INVALID_VALUES = [
    st.sampled_from([("True", "true"), ("False", "false")]),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "1e400"]).map(lambda t: (t, json.dumps(t))),
    st.sampled_from([("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"), ("1e400", "1e400")]),
    st.text(max_size=8).filter(_not_a_number).map(lambda t: (t, json.dumps(t))),
]
INVALID_COUNTS = [
    strategy.map(lambda v: (repr(v), json.dumps(v)))
    for strategy in (
        st.floats(0.01, 100.0).filter(lambda x: not x.is_integer()),
        st.integers(-5, 0),
        st.just(MAX_COUNT + 1),
    )
]


def _invalid_texts(default):
    return st.one_of(INVALID_VALUES + INVALID_COUNTS if isinstance(default, int) else INVALID_VALUES)


def _valid_texts(default):
    if isinstance(default, int):
        # small counts, so that every example ends quickly
        numbers = st.integers(1, 64).flatmap(lambda n: st.sampled_from([str(n), f"{n}.0"]))
    else:
        numbers = st.floats(0.5, 2.0).map(lambda f: repr(default * f))
    return numbers.flatmap(lambda t: st.sampled_from([(t, t), (t, json.dumps(t))]))


def _refuse_constant(token):
    raise AssertionError(f"report holds {token}")


def _report_or_named_error(argv, scenario, key):
    """Run the CLI; return the report, or None after checking the error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        message = json.loads(err.getvalue())["error"]
        assert scenario in message and key in message.replace(scenario, ""), message
        return None
    assert code in (EXIT_OK, EXIT_CHECK_FAILED) and err.getvalue() == ""
    return json.loads(out.getvalue(), parse_constant=_refuse_constant)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_param_value_gives_a_finite_report_or_a_named_error(tmp_path_factory, data):
    scenario, defaults = data.draw(st.sampled_from(PARAMETRIZED))
    key = data.draw(st.sampled_from(sorted(defaults)))
    default = defaults[key]
    config = tmp_path_factory.getbasetemp() / "one-param-suite.json"
    for invalid in (True, False):
        cli_text, json_text = data.draw(_invalid_texts(default) if invalid else _valid_texts(default))
        config.write_text(f'[{{"scenario": "{scenario}", "params": {{"{key}": {json_text}}}}}]')
        argv = ["run", "--scenario", scenario, "--param", f"{key}={cli_text}"]
        run = _report_or_named_error(argv, scenario, key)
        suite = _report_or_named_error(["suite", "--config", str(config)], scenario, key)
        assert (run is None) == (suite is None)
        if invalid:
            assert run is None
        if run is not None:
            coerced = int(float(cli_text)) if isinstance(default, int) else _round12(float(cli_text))
            assert run["inputs"][key] == coerced
            assert suite["reports"][0]["inputs"][key] == coerced


# Per scenario with float parameters, their names.
FLOAT_PARAMS = [
    (name, sorted(key for key, default in defaults.items() if isinstance(default, float)))
    for name, defaults in PARAMETRIZED
]
FLOAT_PARAMS = [(name, keys) for name, keys in FLOAT_PARAMS if keys]
# 0, or either sign of a magnitude log-uniform on 1e-308 ... 1e308.
ANY_MAGNITUDE = st.one_of(
    st.just(0.0),
    st.builds(lambda exponent, sign: sign * 10.0 ** exponent, st.floats(-308.0, 308.0), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_float_params_at_every_magnitude_give_a_finite_report_or_a_named_error(data):
    scenario, keys = data.draw(st.sampled_from(FLOAT_PARAMS))
    argv = ["run", "--scenario", scenario]
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        argv += ["--param", f"{key}={data.draw(ANY_MAGNITUDE)!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        error = json.loads(err.getvalue())["error"]
        assert error.startswith(f"{scenario}: ")
        assert not any(name in error for name in EXCEPTION_CLASSES), error
    else:
        assert code in (EXIT_OK, EXIT_CHECK_FAILED) and err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_refuse_constant)


def test_cli_trigger_outside_its_regime_fails_its_check():
    code, out = run_cli(["run", "--scenario", "trigger", "--param", "potential=1e-21", "--param", "mass=1e-25"])
    assert code == EXIT_CHECK_FAILED
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == ["regime_ok"]


def test_cli_trigger_angle_off_pi_over_2_fails_its_check(monkeypatch):
    # 1e-10 rad off pi/2 leaves |<A1|rotated>| at 1.0 in float64, so the angle
    # check, held to roundoff, is the only one that sees it.
    exact = agents.crossing_rotation_angle
    monkeypatch.setattr(agents, "crossing_rotation_angle", lambda p: exact(p) + 1e-10)
    code, out = run_cli(["run", "--scenario", "trigger"])
    assert code == EXIT_CHECK_FAILED
    assert [c["name"] for c in json.loads(out)["checks"] if not c["pass"]] == ["rotation_angle_is_pi_over_2"]


def test_cli_run_rejects_a_negative_seed():
    error = run_cli_usage_error(["run", "--scenario", "ocb-game", "--seed", "-1"])
    assert error == "ocb-game: seed must be a non-negative integer, got -1"


def test_cli_suite_rejects_a_negative_seed_before_any_entry_runs(tmp_path):
    config = tmp_path / "suite.json"
    config.write_text('[{"scenario": "trigger"}, {"scenario": "ocb-game", "seed": -5}]')
    error = run_cli_usage_error(["suite", "--config", str(config)])
    assert error == "suite entry 1: ocb-game: seed must be a non-negative integer, got -5"
