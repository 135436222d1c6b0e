import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchlab import cli, linalg, order
from switchlab.linalg import (
    DEFAULT_TOL,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    close,
    dagger,
    hermitian_eigen,
    is_psd,
    is_unitary,
    kron,
    partial_trace,
    require_psd,
    trace_and_replace,
)
from switchlab.ops import (
    Operation,
    _require_trace_nonincreasing,
    choi_of_operation,
    rand_cptp,
    rand_density,
    rand_unitary,
)
from switchlab.process import causal_mixture, channel_process, channel_process_reverse

SUITES = Path(__file__).resolve().parent.parent / "suites"

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def rand_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_kron_identities():
    assert np.abs(kron(ID2, ID2) - np.eye(4)).max() == 0
    assert np.abs(kron(PAULI_Z, PAULI_Z) - np.diag([1, -1, -1, 1])).max() == 0


def test_kron_index_formula_oracle():
    # a[i,j] * b[k,l] must land at [i*2+k, j*2+l]
    a, b = PAULI_Z, PAULI_X
    got = kron(a, b)
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
    assert np.abs(got - expected).max() == 0


def hypothesis_matrix(draw, complex_entries):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    size = rows * cols * (2 if complex_entries else 1)
    entries = st.floats(-1e3, 1e3, allow_subnormal=False)
    values = np.array(draw(st.lists(entries, min_size=size, max_size=size)))
    if complex_entries:
        values = values[0::2] + 1j * values[1::2]
    return values.reshape(rows, cols)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), factors=st.integers(1, 3), complex_entries=st.booleans())
def test_kron_equals_numpy_kron_bit_for_bit(data, factors, complex_entries):
    # Rectangular real or complex factors up to 4x4, signed zeros included.
    matrices = [hypothesis_matrix(data.draw, complex_entries) for _ in range(factors)]
    want = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        want = np.kron(want, np.asarray(m, dtype=complex))
    got = kron(*matrices)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got.view(np.float64)), np.signbit(want.view(np.float64)))


def test_kron_of_broadcasting_stacks_equals_numpy_kron_per_member():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 3, 2, 2)) + 1j * rng.standard_normal((5, 3, 2, 2))
    b = rng.standard_normal((3, 4, 3)) + 1j * rng.standard_normal((3, 4, 3))
    got = kron(a, b)
    assert got.shape == (5, 3, 8, 6)
    for i, j in np.ndindex(5, 3):
        assert np.array_equal(got[i, j], np.kron(a[i, j], b[j]))


def test_trace_and_replace_is_idempotent_and_checks_its_factor():
    rng = np.random.default_rng(18)
    dims = (2, 3, 3, 2)
    m = rand_hermitian(36, rng)
    for factor in range(4):
        once = trace_and_replace(m, dims, factor)
        assert np.abs(trace_and_replace(once, dims, factor) - once).max() < 1e-14
    for factor in (-1, 4):
        with pytest.raises(ValueError, match=f"factor {factor} out of range for 4 factors"):
            trace_and_replace(m, dims, factor)
    with pytest.raises(ValueError, match="does not match dims"):
        trace_and_replace(m, (2, 2, 2, 2), 0)


def test_kron_associativity_and_trace_product():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_partial_trace_bell_state():
    rho = np.outer(BELL, BELL.conj())
    marg = partial_trace(rho, (2, 2), keep=(0,))
    assert np.abs(marg - ID2 / 2).max() < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a = rand_hermitian(2, rng)
    b = rand_hermitian(3, rng)
    got = partial_trace(kron(a, b), (2, 3), keep=(0,))
    assert np.abs(got - a * np.trace(b)).max() < 1e-12


def brute_force_partial_trace(m, dims, keep):
    # Independent oracle: explicit loop over all basis multi-indices.
    k = len(dims)
    traced = [i for i in range(k) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    t = np.asarray(m).reshape(tuple(dims) * 2)
    for row in np.ndindex(*[dims[i] for i in keep]) if keep else [()]:
        for col in np.ndindex(*[dims[i] for i in keep]) if keep else [()]:
            acc = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]) if traced else [()]:
                idx_row = [0] * k
                idx_col = [0] * k
                for pos, i in enumerate(keep):
                    idx_row[i] = row[pos]
                    idx_col[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_row[i] = tr[pos]
                    idx_col[i] = tr[pos]
                acc += t[tuple(idx_row) + tuple(idx_col)]
            r = int(np.ravel_multi_index(row, [dims[i] for i in keep])) if keep else 0
            c = int(np.ravel_multi_index(col, [dims[i] for i in keep])) if keep else 0
            out[r, c] = acc
    return out


def test_partial_trace_vs_brute_force_three_factors():
    rng = np.random.default_rng(3)
    dims = (2, 3, 2)
    m = rand_hermitian(12, rng)
    for keep in [(0,), (1,), (2,), (0, 2), (0, 1, 2), ()]:
        got = partial_trace(m, dims, keep)
        want = brute_force_partial_trace(m, dims, keep)
        assert np.abs(got - want).max() < 1e-12
    # tracing every factor reduces to the scalar trace
    assert abs(partial_trace(m, dims, ())[0, 0] - np.trace(m)) < 1e-12


def test_hermitian_eigen_pauli_spectra():
    w, _ = hermitian_eigen(PAULI_Z)
    assert np.abs(w - np.array([-1.0, 1.0])).max() < 1e-12
    w, v = hermitian_eigen(PAULI_X)
    assert np.abs(w - np.array([-1.0, 1.0])).max() < 1e-12
    minus, plus = v[:, 0], v[:, 1]
    for vec, val in ((minus, -1.0), (plus, 1.0)):
        assert np.abs(PAULI_X @ vec - val * vec).max() < 1e-9


@pytest.mark.parametrize("n", [2, 5, 16, 64])
def test_hermitian_eigen_reconstruction(n):
    rng = np.random.default_rng(n)
    h = rand_hermitian(n, rng)
    w, v = hermitian_eigen(h)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-9
    assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-9


def test_hermitian_eigen_accepts_roundoff_asymmetry():
    # 1e-12 anti-Hermitian noise is below the Hermiticity tolerance, so it is
    # accepted, and the decomposition is of the Hermitian part. Reading one
    # triangle unsymmetrized would leave an error of the noise size, ~3e-12.
    rng = np.random.default_rng(8)
    h = rand_hermitian(8, rng)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    noisy = h + 1e-12 * (g - g.conj().T)
    w, v = hermitian_eigen(noisy)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-9


def test_hermitian_eigen_degenerate_spectrum():
    w, v = hermitian_eigen(np.eye(5, dtype=complex) * 2.0)
    assert np.abs(w - 2.0).max() < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12


def test_hermitian_eigen_one_by_one():
    w, v = hermitian_eigen(np.array([[3.5]], dtype=complex))
    assert w.shape == (1,) and v.shape == (1, 1)
    assert w[0] == 3.5 and abs(v[0, 0]) == 1.0


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_psd():
    assert is_psd(np.eye(4))
    assert not is_psd(PAULI_Z)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert is_psd(kron(rho, rho))


def test_require_psd():
    require_psd(np.eye(4), "identity")
    with pytest.raises(ValueError, match=r"Z is not PSD \(min eigenvalue -1\.000e\+00\)"):
        require_psd(PAULI_Z, "Z")
    with pytest.raises(ValueError):
        require_psd(np.array([[0, 1], [0, 0]], dtype=complex), "nilpotent")


def test_hermitian_eigen_and_is_psd_on_a_stack_match_per_matrix_calls():
    rng = np.random.default_rng(21)
    stack = np.array([rand_hermitian(5, rng) for _ in range(4)])
    stack[0] = stack[0] @ stack[0]  # one PSD member among indefinite ones
    w, v = hermitian_eigen(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for i, m in enumerate(stack):
        w_i, v_i = hermitian_eigen(m)
        assert np.abs(w[i] - w_i).max() < 1e-12
        assert np.abs(v[i] @ np.diag(w[i]) @ v[i].conj().T - m).max() < 1e-9
    psd_stack = np.array([m @ m.conj().T for m in stack])
    for members in (stack, psd_stack, stack[:1]):
        assert is_psd(members) == all(is_psd(m) for m in members)
    assert not is_psd(stack) and is_psd(psd_stack) and is_psd(stack[:1])


def test_require_psd_on_a_stack_names_the_lowest_eigenvalue():
    stack = np.array([np.eye(2), np.diag([1.0, -0.25]), np.eye(2)], dtype=complex)
    require_psd(stack[[0, 2]], "pair")
    with pytest.raises(ValueError, match=r"stack is not PSD \(min eigenvalue -2\.500e-01\)"):
        require_psd(stack, "stack")


def test_hermitian_eigen_rejects_a_stack_with_one_non_hermitian_member():
    stack = np.array([np.eye(2), PAULI_X, np.array([[0, 1], [0, 0]])], dtype=complex)
    hermitian_eigen(stack[:2])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigen(stack)
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(stack)


def test_is_unitary_on_a_stack_checks_every_member():
    assert is_unitary(np.stack([np.eye(2)] * 3))
    pair = rand_unitary(2, np.random.default_rng(22), (2,))
    assert pair.shape == (2, 2, 2) and is_unitary(pair)
    stack = np.array([np.eye(2), PAULI_Y, 1.01 * PAULI_Z, PAULI_X], dtype=complex)
    assert is_unitary(stack[[0, 1, 3]]) and not is_unitary(stack)
    assert not is_unitary(np.ones((2, 3)) / np.sqrt(2))
    assert not is_unitary(np.ones((4, 2, 3)))


def with_spectrum(eigenvalues, rng):
    # U diag(eigenvalues) U^dag for Haar-ish U, one per leading index.
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    u = rand_unitary(eigenvalues.shape[-1], rng, eigenvalues.shape[:-1])
    return (u * eigenvalues[..., None, :]) @ dagger(u)


# Each member's lowest eigenvalue: of order one, or within a few tolerances
# of -tol. The other eigenvalues lie in [0, 1].
LOWEST = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-4.0 * DEFAULT_TOL, 2.0 * DEFAULT_TOL),
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 16]),
    shape=st.sampled_from([(), (1,), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_is_psd_agrees_with_the_smallest_eigenvalue(n, shape, seed, data):
    members = math.prod(shape)
    lowest = data.draw(st.lists(LOWEST, min_size=members, max_size=members))
    size = members * (n - 1)
    rest = data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    eigenvalues = np.column_stack([lowest, np.reshape(rest, (members, n - 1))])
    m = with_spectrum(eigenvalues.reshape(*shape, n), np.random.default_rng(seed))
    low = np.linalg.eigvalsh(0.5 * (m + dagger(m))).min()
    # Within roundoff of -tol either answer is right.
    assume(abs(low + DEFAULT_TOL) > 1e-12)
    assert is_psd(m) == (low >= -DEFAULT_TOL)


def test_psd_decision_at_the_tolerance():
    rng = np.random.default_rng(31)
    inside = with_spectrum([-0.5 * DEFAULT_TOL, 0.3, 1.0, 2.0], rng)
    outside = with_spectrum([-2.0 * DEFAULT_TOL, 0.3, 1.0, 2.0], rng)
    assert is_psd(inside) and not is_psd(outside)
    require_psd(inside, "inside")
    with pytest.raises(ValueError, match=r"outside is not PSD \(min eigenvalue -2\.000e-09\)"):
        require_psd(outside, "outside")
    stack = with_spectrum(rng.uniform(0.0, 1.0, (5, 4)), rng)
    assert is_psd(stack)
    stack[3] = outside
    assert not is_psd(stack)
    with pytest.raises(ValueError, match=r"stack is not PSD \(min eigenvalue -2\.000e-09\)"):
        require_psd(stack, "stack")


def test_psd_decision_reads_the_hermitian_part():
    # A Hermitian part that is positive does not excuse a non-Hermitian matrix.
    with pytest.raises(ValueError, match="not Hermitian"):
        is_psd(np.array([[1, 1], [0, 1]], dtype=complex))
    # An asymmetry below the Hermiticity tolerance is accepted, and the
    # decision is on 0.5 (m + m^dag), whose eigenvalues are -/+1.295e-9; the
    # lower (upper) triangle alone would read -/+0.8e-9 (-/+1.79e-9).
    m = np.array([[0.0, 1.79e-9], [0.8e-9, 0.0]], dtype=complex)
    for members in (m, m.T, np.stack([np.eye(2), m])):
        assert not is_psd(members)
        with pytest.raises(ValueError, match=r"m is not PSD \(min eigenvalue -1\.295e-09\)"):
            require_psd(members, "m")


# The certificate as it was written with dagger, close and np.eye: the
# reference the inline version must decide and word its errors like.
def reference_hermitian_part(m):
    m = np.asarray(m, dtype=complex)
    if not close(m, dagger(m)):
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + dagger(m))


def reference_low_eigenvalue(m):
    sym = reference_hermitian_part(m)
    try:
        np.linalg.cholesky(sym + DEFAULT_TOL * np.eye(sym.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        return np.linalg.eigh(sym)[0][..., 0].min()


def reference_is_psd(m):
    low = reference_low_eigenvalue(m)
    return bool(low is None or low >= -DEFAULT_TOL)


def reference_require_psd(m, what):
    low = reference_low_eigenvalue(m)
    if low is not None and low < -DEFAULT_TOL:
        raise ValueError(f"{what} is not PSD (min eigenvalue {low:.3e})")


def outcome(fn, *args):
    """("value", result) or (exception type, message) of one call, with
    numpy's floating-point warnings raised."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return "value", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 16]),
    shape=st.sampled_from([(), (1,), (3,)]),
    seed=st.integers(0, 2**32 - 1),
    lowest=LOWEST,
    defect=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * DEFAULT_TOL), st.floats(0.9 * DEFAULT_TOL, 1.1 * DEFAULT_TOL)),
    bad=st.one_of(st.none(), st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)])),
    data=st.data(),
)
def test_certificate_decides_as_the_reference(n, shape, seed, lowest, defect, bad, data):
    # Every member's lowest eigenvalue is `lowest`; one entry of the last
    # member is moved off Hermitian by `defect`, and may be set to `bad`.
    rng = np.random.default_rng(seed)
    eigenvalues = np.concatenate([np.full((*shape, 1), lowest), rng.uniform(0.0, 1.0, (*shape, n - 1))], axis=-1)
    m = with_spectrum(eigenvalues, rng)
    last = m.reshape(-1, n, n)[-1]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    last[i, j] += defect * np.exp(2j * np.pi * rng.uniform())
    if bad is not None:
        last[i, j] = bad
    assert outcome(is_psd, m) == outcome(reference_is_psd, m)
    assert outcome(require_psd, m, "m") == outcome(reference_require_psd, m, "m")
    got, want = outcome(hermitian_eigen, m), outcome(lambda x: np.linalg.eigh(reference_hermitian_part(x)), m)
    assert got[0] == want[0]
    if got[0] == "value":
        assert all(np.array_equal(a, b) for a, b in zip(got[1], want[1]))
    else:
        assert got[1] == want[1]


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_cached_identities_are_shared_and_read_only(n):
    eye = linalg._identity(n)
    assert eye is linalg._identity(n)
    assert np.array_equal(eye, np.eye(n)) and eye.dtype == complex
    with pytest.raises(ValueError, match="read-only"):
        eye[0, 0] = 2.0
    with pytest.raises(ValueError):
        eye.setflags(write=True)
    assert not linalg._identity(n).flags.writeable
    # The certificate's shift: the same bits as DEFAULT_TOL * np.eye(n), cast as a sum casts it.
    shift = linalg._psd_shift(n)
    assert shift is linalg._psd_shift(n) and not shift.flags.writeable
    assert shift.tobytes() == (DEFAULT_TOL * np.eye(n)).astype(complex).tobytes()


@pytest.mark.parametrize("exact", [True, False])
def test_require_trace_nonincreasing_on_an_isometry(exact):
    # sum E^dag E = 1: exactly for (1, 0), to roundoff for a QR isometry.
    if exact:
        kraus = (np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    else:
        v = rand_unitary(4, np.random.default_rng(32))[:, :2]
        kraus = (v[:2], v[2:])
    _require_trace_nonincreasing(kraus)
    with pytest.raises(ValueError, match="Kraus family is trace-increasing"):
        _require_trace_nonincreasing(tuple(1.01 * e for e in kraus))


def test_passing_checks_make_no_eigendecomposition(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on a passing path")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    suite = cli.run_suite(cli._configs_from_file(SUITES / "golden.json"))
    assert cli.render_report(suite) == (SUITES / "golden.expected.json").read_text(encoding="utf-8")
    rng = np.random.default_rng(33)
    kraus_ba, kraus_ab = (rand_cptp(2, 2, 2, rng).kraus for _ in range(2))
    w = causal_mixture(
        channel_process(rand_density(2, rng), choi_of_operation(Operation(2, 2, kraus_ba))),
        channel_process_reverse(rand_density(2, rng), choi_of_operation(Operation(2, 2, kraus_ab))),
        0.3,
    )
    assert order.success_probability(w, order.ocb_strategy()) <= 0.75 + DEFAULT_TOL
