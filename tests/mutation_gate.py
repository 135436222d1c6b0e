"""Mutation gate: the tests must fail on every single-line physics defect in
MUTANTS, even with the tests that compare golden bytes left out.

A change that regenerates the golden report on purpose could write a defect
made in the same diff into the new expected bytes. Each mutant here is such a
defect; the gate checks that some other test still catches it.

Run from anywhere, with the test dependencies installed:

    python tests/mutation_gate.py

It copies the package, the tests and their suites to a temporary directory,
checks that the unmutated copy passes, then applies one mutant at a time and
runs ``pytest -x`` on the copy. It exits 0 when every mutant fails the tests
and 1 naming the survivors. Uses the standard library and pytest only.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The tests a regenerated golden file would follow.
DESELECTED = (
    "tests/test_golden.py::test_golden_suite_is_byte_identical",
    "tests/test_golden.py::test_seeded_all_scenario_suite_fingerprint",
    "tests/test_linalg.py::test_passing_checks_make_no_eigendecomposition",
)

# (name, file under src/switchlab, line as written, defective line)
MUTANTS = (
    (
        "the sampled checks keep only the last block's worst",
        "process.py",
        "worst = max(worst, block(min(_BLOCK, count - start)))",
        "worst = block(min(_BLOCK, count - start))",
    ),
    (
        "max_separable_chsh takes each block's min",
        "order.py",
        "return float(np.abs(chsh_value(kron(a[..., :1], b[..., :1])[..., 0])).max())",
        "return float(np.abs(chsh_value(kron(a[..., :1], b[..., :1])[..., 0])).min())",
    ),
    (
        "switch contraction overlap left unsquared",
        "order.py",
        "return float(np.abs(np.abs(overlaps) ** 2 - 1.0).max())",
        "return float(np.abs(np.abs(overlaps) - 1.0).max())",
    ),
    (
        "trigger angle tolerance widened to 1",
        "agents.py",
        '("rotation_angle_is_pi_over_2", float(np.pi / 2), angle, ROUNDOFF_TOL),',
        '("rotation_angle_is_pi_over_2", float(np.pi / 2), angle, 1.0),',
    ),
    (
        "CHSH sign of E(1,0) flipped",
        "order.py",
        "values = e00 + e01 + e10 - e11",
        "values = e00 + e01 - e10 - e11",
    ),
    (
        "causal mixture of w1 with itself",
        "process.py",
        "matrix=_frozen(q * w1.matrix + (1.0 - q) * w2.matrix))",
        "matrix=_frozen(q * w1.matrix + (1.0 - q) * w1.matrix))",
    ),
    (
        "one-way process with the channel's Choi untransposed",
        "process.py",
        "w = kron(rho, channel_choi.matrix.T, _identity(d_out))",
        "w = kron(rho, channel_choi.matrix, _identity(d_out))",
    ),
    (
        "Choi matrix of a Kraus family left untransposed",
        "ops.py",
        "return m.swapaxes(-1, -2)",
        "return m",
    ),
    (
        "kraus_from_choi decomposes the Choi matrix untransposed",
        "ops.py",
        "w, v = hermitian_eigen(choi.matrix.T)",
        "w, v = hermitian_eigen(choi.matrix)",
    ),
    (
        "apply_choi drops its closing transpose",
        "ops.py",
        'return np.einsum("im,maib->ab", rho, t).T',
        'return np.einsum("im,maib->ab", rho, t)',
    ),
    (
        "apply_operation drops the dagger",
        "ops.py",
        "return (op.kraus @ rho @ dagger(op.kraus)).sum(axis=0)",
        "return (op.kraus @ rho @ op.kraus).sum(axis=0)",
    ),
    (
        "kraus_from_choi drops its swapaxes",
        "ops.py",
        "kraus = (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, choi.d_in, choi.d_out).swapaxes(-1, -2)",
        "kraus = (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, choi.d_in, choi.d_out)",
    ),
    (
        "Stinespring isometry reshaped without swapaxes(0, 1)",
        "ops.py",
        "v = padded[:k].swapaxes(0, 1).reshape(dim, d_sys)",
        "v = padded[:k].reshape(dim, d_sys)",
    ),
    (
        "StinespringDilation.apply reads U[:, :d_in]",
        "ops.py",
        "v = self.unitary[:, :: self.env_dim][:, : self.d_in]",
        "v = self.unitary[:, : self.d_in]",
    ),
    (
        "imaginary-part tolerance of the probability rule widened",
        "process.py",
        "if not np.abs(val.imag).max() <= DEFAULT_TOL:",
        "if not np.abs(val.imag).max() <= 1e-6:",
    ),
    (
        "run_switch_model drops the path-diagonal / 2",
        "agents.py",
        "probability = float(res_norm ** 2 / 2.0)",
        "probability = float(res_norm ** 2)",
    ),
    (
        "second agent treats an emitted photon as a fresh one",
        "agents.py",
        "for amp_2, *agent_2, e_2 in _scatter(second, amps, e_1, e_1 != i):",
        "for amp_2, *agent_2, e_2 in _scatter(second, amps, e_1, False):",
    ),
    (
        "lapse gap with h / r for h / (r + h)",
        "gravity.py",
        "gap = body.schwarzschild_radius / r * (h / (r + h)) / lapse_sum",
        "gap = body.schwarzschild_radius / r * (h / r) / lapse_sum",
    ),
    (
        "light travel time with the log term's sign flipped",
        "gravity.py",
        "return ((r2 - r1) + rs * log_term) / C_LIGHT",
        "return ((r2 - r1) - rs * log_term) / C_LIGHT",
    ),
    (
        "weak-field deviation with the sign of ab flipped",
        "gravity.py",
        "deviation = -0.5 * (a + (a + b - a * b) / (1.0 + lapse(r, body) * lapse(r + h, body)))",
        "deviation = -0.5 * (a + (a + b + a * b) / (1.0 + lapse(r, body) * lapse(r + h, body)))",
    ),
    (
        "OCB success tolerance widened to 0.5",
        "order.py",
        '("success_equals_(2+sqrt2)/4", _OCB_GAME_VALUE, success, DEFAULT_TOL),',
        '("success_equals_(2+sqrt2)/4", _OCB_GAME_VALUE, success, 0.5),',
    ),
    (
        "agent-switch e1_plus_target tolerance widened to 0.5",
        "agents.py",
        '("e1_plus_target", 1.0, fid[+1], DEFAULT_TOL),',
        '("e1_plus_target", 1.0, fid[+1], 0.5),',
    ),
)


def _copy_tree(dest):
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests", "suites"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree):
    """Run pytest -x on `tree`; returns (passed, seconds, first failure)."""
    # -B: a mutant and its restored line can share a size and an mtime second,
    # so a cached bytecode file could outlive the mutant.
    argv = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += [f"--deselect={test}" for test in DESELECTED]
    start = time.perf_counter()
    # pyproject.toml puts the copy's src/ first on sys.path.
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = done.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED", "ERROR"))), "")
    return done.returncode == 0, seconds, first or (lines[-1] if lines else "")


def main():
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        passed, seconds, first = _pytest(tree)
        if not passed:
            print(f"the unmutated copy fails ({seconds:.1f} s): {first}")
            return 1
        print(f"unmutated copy passes ({seconds:.1f} s)")
        survivors = []
        for name, file, old, new in MUTANTS:
            path = tree / "src" / "switchlab" / file
            source = path.read_text(encoding="utf-8")
            if source.count(old) != 1:
                print(f"{name}: {file} does not hold its line exactly once")
                return 1
            path.write_text(source.replace(old, new), encoding="utf-8")
            try:
                passed, seconds, first = _pytest(tree)
            finally:
                path.write_text(source, encoding="utf-8")
            if passed:
                survivors.append(name)
                print(f"SURVIVED  {name} ({seconds:.1f} s)")
            else:
                print(f"killed    {name} ({seconds:.1f} s): {first}")
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {survivors}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
