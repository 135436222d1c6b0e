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
SEEDED_SHA256 = "34980e8a302ad73971b1799b8ced5d48ace7ba3a615208e041aee5ccbaf2b7f7"
# Per report, the first 16 hex digits of the sha256 of its non-roundoff
# fields, so that a mismatch says which reports moved and how.
SEEDED_HEADLINES = {
    "ocb-game@11": "63052c471d827a16",
    "switch-contract@11": "4b1d41dbd35f783d",
    "chsh-temporal@11": "c4d0841a498fdcd9",
    "validate-process@11": "a4dcdad9255803ff",
    "grav-duration@11": "0e3e255aa9dd6c97",
    "grav-order@11": "26d4f3fcd042f227",
    "trigger@11": "b2237b182980633c",
    "agent-switch@11": "4cd7e7bd449af0fc",
    "ocb-game@12": "a3bd4f6f8d14cf06",
    "switch-contract@12": "59028747b2550542",
    "chsh-temporal@12": "547c607a6965b610",
    "validate-process@12": "acacaa12003860a5",
    "grav-duration@12": "9fcd09df154ff1c0",
    "grav-order@12": "fb6182020f1109b3",
    "trigger@12": "47f2daac455dd46c",
    "agent-switch@12": "4aabd79e58886d63",
    "ocb-game@13": "394ad6652628ff92",
    "switch-contract@13": "f06c392a0b6ed598",
    "chsh-temporal@13": "f68dff9d3d23ccee",
    "validate-process@13": "e903f08e88db9c79",
    "grav-duration@13": "2b826a7fef409c36",
    "grav-order@13": "69c4032c1a8f968d",
    "trigger@13": "20a8d7aa637658c1",
    "agent-switch@13": "bf93190a59fb2841",
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
