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
from pathlib import Path

from switchlab.cli import EXIT_OK, SCENARIOS, main

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
