"""Dense complex linear algebra at small dimension.

Everything operates on plain complex128 numpy arrays. States, operators,
Choi matrices and process matrices all use the same carrier; multipartite
operators follow a big-endian tensor convention (the leftmost factor is the
most significant index), so ``kron(a, b)`` puts ``a`` on the first factor.
"""

import numpy as np

__all__ = [
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DEFAULT_TOL",
    "ZERO_PROB_TOL",
    "TRACE_TOL",
    "close",
    "dagger",
    "is_hermitian",
    "is_psd",
    "require_psd",
    "is_unitary",
    "kron",
    "hermitian_eigen",
    "partial_trace",
    "permute_subsystems",
    "sqrtm_psd",
]

DEFAULT_TOL = 1e-9
# Below this an outcome probability counts as zero: no post-measurement state.
ZERO_PROB_TOL = 1e-12
# Allowed deviation of a process matrix's trace from d_A_out * d_B_out.
TRACE_TOL = 1e-6

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def close(a, b, tol=DEFAULT_TOL):
    """Entrywise equality within an absolute tolerance."""
    return bool(np.abs(np.asarray(a) - np.asarray(b)).max() <= tol)


def dagger(m):
    """Conjugate transpose of a matrix, or of each matrix in a (..., n, n) stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def kron(*matrices):
    """Kronecker product of one or more matrices, leftmost factor first."""
    out = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def _check_dims(m, dims):
    m = np.asarray(m, dtype=complex)
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix of shape {m.shape} does not match dims {tuple(dims)}")
    return m, total


def permute_subsystems(m, dims, perm):
    """Reorder the tensor factors of a square operator.

    `perm[i]` names which of the original factors lands at position i.
    """
    m, total = _check_dims(m, dims)
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {perm} is not a permutation of range({k})")
    t = m.reshape(tuple(dims) * 2)
    axes = list(perm) + [k + p for p in perm]
    new_dims = [dims[p] for p in perm]
    return t.transpose(axes).reshape(total, total), new_dims


def partial_trace(m, dims, keep):
    """Trace out every tensor factor not listed in `keep`.

    Returns the operator on the kept factors, in their original relative
    order. An empty `keep` returns the scalar trace as a 1x1 matrix.
    """
    m, _ = _check_dims(m, dims)
    k = len(dims)
    keep = sorted(set(int(i) for i in keep))
    if keep and (keep[0] < 0 or keep[-1] >= k):
        raise ValueError(f"keep indices {keep} out of range for {k} factors")
    t = m.reshape(tuple(dims) * 2)
    # Contract row/col axes of the traced factors pairwise.
    for i in reversed(range(k)):
        if i not in keep:
            t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def is_hermitian(m, tol=DEFAULT_TOL):
    """True iff the matrix, or every matrix of a (..., n, n) stack, is Hermitian."""
    m = np.asarray(m)
    return bool(np.abs(m - dagger(m)).max() <= tol)


def is_unitary(m, tol=DEFAULT_TOL):
    """True iff the square matrix, or every matrix of a (..., n, n) stack, is
    unitary within `tol`."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        return False
    return close(dagger(m) @ m, np.eye(m.shape[-1]), tol)


def hermitian_eigen(m, tol=DEFAULT_TOL):
    """Spectral decomposition of a Hermitian matrix, or of each matrix in a
    (..., n, n) stack.

    Returns (eigenvalues ascending, unitary matrix of eigenvector columns),
    computed by LAPACK through ``numpy.linalg.eigh``, with the stack's leading
    axes in front. Raises ValueError if any input matrix is not Hermitian
    within `tol`. The input is symmetrized first, because ``eigh`` reads only
    one triangle and would otherwise let a roundoff-level asymmetry bias the
    result.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(0.5 * (m + dagger(m)))


def _low_eigenvalue(m, tol):
    # None when positivity within `tol` is certified without an eigensolver:
    # a Cholesky factor of sym + tol * 1 exists, for the symmetrized matrix or
    # every member of a stack, iff no eigenvalue of sym lies below -tol (up to
    # roundoff). Otherwise the smallest eigenvalue, which alone decides.
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        np.linalg.cholesky(0.5 * (m + dagger(m)) + tol * np.eye(m.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        w, _ = hermitian_eigen(m, tol)
        return w[..., 0].min()


def is_psd(m, tol=DEFAULT_TOL):
    """True iff the Hermitian matrix, or every matrix of a stack, has no
    eigenvalue below -tol. One stacked Cholesky factorization certifies a pass;
    the eigenvalues are computed only when it fails."""
    low = _low_eigenvalue(m, tol)
    return bool(low is None or low >= -tol)


def require_psd(m, what, tol=DEFAULT_TOL):
    """Raise ValueError, naming the matrix as `what`, if it (or any matrix of
    a stack) has an eigenvalue below -tol, or if it is not Hermitian. Decided
    as :func:`is_psd` decides."""
    low = _low_eigenvalue(m, tol)
    if low is not None and low < -tol:
        raise ValueError(f"{what} is not PSD (min eigenvalue {low:.3e})")


def sqrtm_psd(m, tol=DEFAULT_TOL):
    """Hermitian square root of a positive semidefinite matrix."""
    w, v = hermitian_eigen(m, tol)
    if w[0] < -tol:
        raise ValueError("matrix is not positive semidefinite")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
