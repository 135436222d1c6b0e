"""Report bytes pinned: the golden suite against its committed stdout, and
every scenario at seeds 11-13 against a sha256 fingerprint.

A change that moves a report on purpose regenerates both references in the
same diff: `switchlab suite --config suites/golden.json >
suites/golden.expected.json`, and the digests below from a failing run's
message.
"""

import contextlib
import hashlib
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from switchlab.cli import EXIT_OK, SCENARIOS, main
from switchlab.gravity import HBAR
from switchlab.linalg import APPROX_REL_TOL, DEFAULT_TOL, ESTIMATE_REL_TOL, NORMALIZATION_TOL, ROUNDOFF_TOL

SUITES = Path(__file__).resolve().parent.parent / "suites"

# Fields that hold only roundoff (worst deviations near 1e-15), with the
# check actuals that repeat them.
ROUNDOFF = (
    "/outputs/max_fidelity_deviation",
    "/outputs/max_norm_deviation",
    "/checks/contraction_equals_supermap/actual",
    "/checks/normalization_deviation/actual",
)

SEEDS = (11, 12, 13)
SEEDED_SHA256 = "8fb0e3e038f696c7401b6b158efbec649a568e5cb54baf09b84f501347e07fff"
# Per report, the first 16 hex digits of the sha256 of its non-roundoff
# fields, so that a mismatch says which reports moved and how.
SEEDED_HEADLINES = {
    "ocb-game@11": "63052c471d827a16",
    "switch-contract@11": "4b1d41dbd35f783d",
    "chsh-temporal@11": "c4d0841a498fdcd9",
    "validate-process@11": "0a84db48d5df1aee",
    "grav-duration@11": "add8a7b0357a8256",
    "grav-order@11": "bbb9b55af7be47c7",
    "trigger@11": "6b9967acac698858",
    "agent-switch@11": "4cec4c31b56cb820",
    "ocb-game@12": "a3bd4f6f8d14cf06",
    "switch-contract@12": "59028747b2550542",
    "chsh-temporal@12": "547c607a6965b610",
    "validate-process@12": "eb8f94d8434212f4",
    "grav-duration@12": "e9659e50334e8234",
    "grav-order@12": "82009a17a6d67b8c",
    "trigger@12": "20c6184dce23f4b4",
    "agent-switch@12": "21896dbcffe0e475",
    "ocb-game@13": "394ad6652628ff92",
    "switch-contract@13": "f06c392a0b6ed598",
    "chsh-temporal@13": "f68dff9d3d23ccee",
    "validate-process@13": "a63084e9b29822e1",
    "grav-duration@13": "c51b0dc276a2b434",
    "grav-order@13": "29c3aee1cea6ced5",
    "trigger@13": "f0ecd7c54d999ed2",
    "agent-switch@13": "101fc475ce292741",
}


def _suite_stdout(config):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["suite", "--config", str(config)])
    assert code == EXIT_OK
    return buf.getvalue()


def _leaves(report):
    tag = f"{report['scenario']}@{report['seed']}"
    leaves = {f"{tag}/pass": report["pass"]}
    for section in ("inputs", "outputs"):
        for key, value in report[section].items():
            leaves[f"{tag}/{section}/{key}"] = value
    for check in report["checks"]:
        for key in ("expected", "actual", "tolerance", "pass"):
            leaves[f"{tag}/checks/{check['name']}/{key}"] = check[key]
    return leaves


def _suite_leaves(suite):
    leaves = {"pass": suite["pass"]}
    for report in suite["reports"]:
        leaves.update(_leaves(report))
    return leaves


def _kind(moved):
    if not moved:
        return "no value moved (key order or formatting changed)"
    if all(path.endswith(ROUNDOFF) for path in moved):
        return "only roundoff fields moved"
    return "a headline value moved"


def _describe_moves(expected, actual):
    want, got = _suite_leaves(expected), _suite_leaves(actual)
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    return f"{_kind(moved)}: {moved}"


def _headline_digest(report):
    kept = {k: v for k, v in _leaves(report).items() if not k.endswith(ROUNDOFF)}
    return hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()[:16]


def _describe_seeded_moves(suite):
    digests = {f"{r['scenario']}@{r['seed']}": _headline_digest(r) for r in suite["reports"]}
    moved = sorted(t for t in digests.keys() | SEEDED_HEADLINES.keys()
                   if digests.get(t) != SEEDED_HEADLINES.get(t))
    if not moved:
        return f"only roundoff fields moved ({', '.join(ROUNDOFF)}) or the formatting changed"
    return f"headline values moved in {moved}; digests now {digests}"


def test_golden_suite_is_byte_identical():
    expected = (SUITES / "golden.expected.json").read_text(encoding="utf-8")
    out = _suite_stdout(SUITES / "golden.json")
    assert out == expected, _describe_moves(json.loads(expected), json.loads(out))


def test_seeded_all_scenario_suite_fingerprint(tmp_path):
    config = tmp_path / "seeds.json"
    config.write_text(json.dumps([{"scenario": s, "seed": seed} for seed in SEEDS for s in SCENARIOS]))
    out = _suite_stdout(config)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == SEEDED_SHA256, f"sha256 now {digest}: {_describe_seeded_moves(json.loads(out))}"


# Checks whose expected value is 0 by design: a deviation or an excess over a
# bound that vanishes exactly, held to an absolute tolerance.
EXPECTED_ZERO = {
    "contraction_equals_supermap",
    "separable_within_classical_bound",
    "normalization_deviation",
    "orders_are_isometries",
    "weak_field_consistent",
}


def test_no_golden_check_passes_vacuously():
    # A tolerance at least |expected| would pass a check whose actual is 0,
    # and an infinite one would pass any actual.
    suite = json.loads(_suite_stdout(SUITES / "golden.json"))
    numeric = [c for r in suite["reports"] for c in r["checks"] if not isinstance(c["expected"], bool)]
    assert {c["name"] for c in numeric if c["expected"] == 0} == EXPECTED_ZERO
    for check in numeric:
        assert math.isfinite(check["tolerance"]), check
        if check["name"] not in EXPECTED_ZERO:
            assert check["tolerance"] < abs(check["expected"]), check


# Each golden check's tolerance: a named constant of switchlab.linalg, or 0
# for a yes/no check. The golden bytes alone would let a regeneration carry a
# widened tolerance in.
TOLERANCES = {
    "success_equals_(2+sqrt2)/4": DEFAULT_TOL,
    "alice_branch_value": DEFAULT_TOL,
    "bob_branch_value": DEFAULT_TOL,
    "contraction_equals_supermap": DEFAULT_TOL,
    "plus_state_reaches_-2sqrt2": DEFAULT_TOL,
    "minus_state_reaches_+2sqrt2": DEFAULT_TOL,
    "separable_within_classical_bound": DEFAULT_TOL,
    "trace_equals_4": DEFAULT_TOL,
    "normalization_deviation": NORMALIZATION_TOL,
    "weak_field_consistent": APPROX_REL_TOL,
    "event_a_precedes_b_above_threshold": 0,
    "no_order_below_threshold": 0,
    "rotation_angle_is_pi_over_2": ROUNDOFF_TOL,
    "period_is_4_tau_star": ROUNDOFF_TOL,
    "rotation_lands_on_A1": ROUNDOFF_TOL,
    "regime_ok": 0,
    "e1_plus_target": DEFAULT_TOL,
    "e1_minus_target": DEFAULT_TOL,
    "e4_trivial_switch": DEFAULT_TOL,
    "postselection_completeness": DEFAULT_TOL,
    "orders_are_isometries": ROUNDOFF_TOL,
}
# Checks held to a window derived from the report's inputs and the expected
# value instead.
WINDOWS = {
    "dt_r_in_window": lambda inputs, expected: 0.5 * (inputs["window_high"] - inputs["window_low"]),
    "earth_coefficient": lambda inputs, expected: ESTIMATE_REL_TOL * expected,
}


def test_every_golden_check_keeps_its_named_tolerance():
    suite = json.loads(_suite_stdout(SUITES / "golden.json"))
    seen = set()
    for report in suite["reports"]:
        for check in report["checks"]:
            name = check["name"]
            seen.add(name)
            if name in WINDOWS:
                want = WINDOWS[name](report["inputs"], check["expected"])
            else:
                assert name in TOLERANCES, f"{report['scenario']} check {name} is not in the table"
                want = TOLERANCES[name]
            # The report prints 12 significant digits.
            assert check["tolerance"] == float(f"{want:.12g}"), (report["scenario"], check)
    assert seen == TOLERANCES.keys() | WINDOWS.keys()


# Exact references for the printed digits that gravity's own test does not
# cover, each evaluated at 60 digits with the standard library only. A printed
# float is its reference rounded to 12 significant digits.
PREC = 60


def _round12(x):
    return float(f"{x:.12g}")


def _golden_report(scenario):
    suite = json.loads(_suite_stdout(SUITES / "golden.json"))
    return next(r for r in suite["reports"] if r["scenario"] == scenario)


def _printed(report, skip=()):
    """{name: value} of every float the report prints, outputs and check
    values alike, less the keys in `skip` and the ROUNDOFF fields."""
    printed = {k: v for k, v in report["outputs"].items() if isinstance(v, float)}
    for check in report["checks"]:
        if isinstance(check["actual"], float):
            printed[f"{check['name']}/expected"] = check["expected"]
            printed[f"{check['name']}/actual"] = check["actual"]
    roundoff = {path.removeprefix("/outputs/").removeprefix("/checks/") for path in ROUNDOFF}
    return {k: v for k, v in printed.items() if k not in roundoff and k not in skip}


def _surd(a, b):
    """a + b sqrt(2), for Fractions a and b, at PREC digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator * Decimal(2).sqrt()


# (2 + sqrt 2) / 4, 3/4, +-2 sqrt 2 and 0 as the pairs (a, b) of a + b sqrt 2 in Q(sqrt 2).
OCB_VALUE = (Fraction(1, 2), Fraction(1, 4))
CAUSAL_BOUND = (Fraction(3, 4), Fraction(0))
CHSH_PLUS, CHSH_MINUS = (Fraction(0), Fraction(-2)), (Fraction(0), Fraction(2))
ZERO = (Fraction(0), Fraction(0))
EXACT = {
    "ocb-game": {
        "success_probability": OCB_VALUE,
        "p_alice_guesses_b": OCB_VALUE,
        "p_bob_guesses_a": OCB_VALUE,
        "causal_bound": CAUSAL_BOUND,
        **{f"{name}/{key}": OCB_VALUE
           for name in ("success_equals_(2+sqrt2)/4", "alice_branch_value", "bob_branch_value")
           for key in ("expected", "actual")},
    },
    "chsh-temporal": {
        "chsh_plus_state": CHSH_PLUS,
        "chsh_minus_state": CHSH_MINUS,
        "plus_state_reaches_-2sqrt2/expected": CHSH_PLUS,
        "plus_state_reaches_-2sqrt2/actual": CHSH_PLUS,
        "minus_state_reaches_+2sqrt2/expected": CHSH_MINUS,
        "minus_state_reaches_+2sqrt2/actual": CHSH_MINUS,
        "separable_within_classical_bound/expected": ZERO,
        "separable_within_classical_bound/actual": ZERO,
    },
}


def test_every_printed_ocb_and_chsh_digit_is_exact():
    # max_separable_chsh is the largest |CHSH| of random separable states.
    for scenario, references in EXACT.items():
        printed = _printed(_golden_report(scenario), skip=("max_separable_chsh",))
        assert printed.keys() == references.keys(), scenario
        for key, value in printed.items():
            assert value == _round12(_surd(*references[key])), (scenario, key)


# The printed floats that are exact by construction, as literals.
LITERAL = {
    "validate-process": {
        "trace": 4.0,
        "trace_equals_4/expected": 4.0,
        "trace_equals_4/actual": 4.0,
        "normalization_deviation/expected": 0.0,
    },
    "switch-contract": {"contraction_equals_supermap/expected": 0.0},
    "agent-switch": {
        **{f"{name}_fidelity": 1.0 for name in ("e1_plus", "e1_minus", "e4")},
        "postselection_total": 1.0,
        **{f"{name}/{key}": 1.0
           for name in ("e1_plus_target", "e1_minus_target", "e4_trivial_switch", "postselection_completeness")
           for key in ("expected", "actual")},
        "max_isometry_deviation": 0.0,
        "orders_are_isometries/expected": 0.0,
        "orders_are_isometries/actual": 0.0,
    },
}


def test_every_printed_literal_is_exact():
    for scenario, references in LITERAL.items():
        assert _printed(_golden_report(scenario)) == references, scenario


# test_gravity.py::test_every_printed_gravity_digit_is_right holds these to a
# 100-digit reference.
GRAVITY_SCENARIOS = {"grav-duration", "grav-order"}


def test_every_golden_scenario_has_a_reference_table():
    # A scenario added to the golden suite, or one that starts to print a
    # float, must come with the exact values of what it prints.
    suite = json.loads(_suite_stdout(SUITES / "golden.json"))
    printing = {r["scenario"] for r in suite["reports"] if _printed(r)}
    assert printing <= EXACT.keys() | LITERAL.keys() | GRAVITY_SCENARIOS | {"trigger"}


def _arctan_inverse(x):
    """arctan(1/x) = sum_k (-1)^k / ((2k + 1) x^(2k + 1)) for an integer
    x > 1, summed until a term no longer moves the sum."""
    total, power, k = Decimal(0), Decimal(1) / x, 0
    while True:
        term = power / (2 * k + 1)
        new = total - term if k % 2 else total + term
        if new == total:
            return total
        total, power, k = new, power / (x * x), k + 1


def _machin_pi():
    """pi = 16 arctan(1/5) - 4 arctan(1/239), at the context's precision."""
    return 16 * _arctan_inverse(5) - 4 * _arctan_inverse(239)


def _trigger_reference(tau_star, width, potential, mass):
    """The trigger's printed values on the exact values of its float inputs,
    with pi from Machin's formula."""
    with localcontext() as ctx:
        ctx.prec = PREC
        tau, delta, v0, m, hbar = (Decimal(x) for x in (tau_star, width, potential, mass, HBAR))
        pi = _machin_pi()
        omega = pi / (2 * tau)
        amplitude = 2 * delta * v0 / (pi * hbar * omega)
        window = delta / (omega * amplitude)
        angle = v0 * window / hbar
        return {
            "omega": omega,
            "period": 2 * pi / omega,
            "amplitude": amplitude,
            "sigma": (hbar / (m * omega)).sqrt(),
            "crossing_window": window,
            "rotation_angle": angle,
            # |sin(pi/2)|: the angle is pi/2 in exact arithmetic.
            "rotated_fidelity_with_A1": Decimal(1),
            "rotation_angle_is_pi_over_2/expected": pi / 2,
            "rotation_angle_is_pi_over_2/actual": angle,
            "period_is_4_tau_star/expected": 4 * tau,
            "period_is_4_tau_star/actual": 2 * pi / omega,
            "rotation_lands_on_A1/expected": Decimal(1),
            "rotation_lands_on_A1/actual": Decimal(1),
        }


def test_every_printed_trigger_digit_is_right():
    report = _golden_report("trigger")
    references = _trigger_reference(**report["inputs"])
    printed = _printed(report)
    assert printed.keys() == references.keys()
    for key, value in printed.items():
        assert value == _round12(references[key]), key


def test_machin_pi_is_pi():
    with localcontext() as ctx:
        ctx.prec = PREC
        pi = _machin_pi()
    assert str(pi)[:52] == "3.14159265358979323846264338327950288419716939937510"
