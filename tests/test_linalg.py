import numpy as np
import pytest

from switchlab.linalg import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    hermitian_eigen,
    is_psd,
    kron,
    partial_trace,
    permute_subsystems,
)

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


def test_permute_subsystems_roundtrip():
    rng = np.random.default_rng(4)
    m = rand_hermitian(8, rng)
    permuted, dims = permute_subsystems(m, (2, 2, 2), (2, 0, 1))
    back, _ = permute_subsystems(permuted, dims, (1, 2, 0))
    assert np.abs(back - m).max() == 0


def test_permute_subsystems_on_kron():
    rng = np.random.default_rng(5)
    a = rand_hermitian(2, rng)
    b = rand_hermitian(3, rng)
    got, dims = permute_subsystems(kron(a, b), (2, 3), (1, 0))
    assert dims == [3, 2]
    assert np.abs(got - kron(b, a)).max() < 1e-12


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
