import contextlib
import io
import json
from pathlib import Path

import pytest

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
    _count,
)

GOLDEN = Path(__file__).resolve().parent.parent / "suites" / "golden.json"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cli_usage_error(argv):
    """Run the CLI expecting exit 2: nothing on stdout, one JSON error on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_USAGE
    assert out.getvalue() == ""
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


def test_cli_suite_golden_and_out_file(tmp_path):
    out_file = tmp_path / "report.json"
    code, out = run_cli(["suite", "--config", str(GOLDEN), "--out", str(out_file)])
    assert code == EXIT_OK
    assert out_file.read_text() == out
    suite = json.loads(out)
    assert suite["pass"]
    assert len(suite["reports"]) == 8


def test_cli_small_mass_params():
    code, out = run_cli(
        [
            "run",
            "--scenario",
            "grav-duration",
            "--param",
            "body=custom",
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
    assert _count({"samples": MAX_COUNT}, "samples") == MAX_COUNT
    assert _count({"samples": float(MAX_COUNT)}, "samples") == MAX_COUNT
