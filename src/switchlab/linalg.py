"""Dense complex linear algebra at small dimension.

Everything operates on plain complex128 numpy arrays. States, operators,
Choi matrices and process matrices all use the same carrier; multipartite
operators follow a big-endian tensor convention (the leftmost factor is the
most significant index), so ``kron(a, b)`` puts ``a`` on the first factor.
"""

import functools
import math
import numbers

import numpy as np

__all__ = [
    "ID2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DEFAULT_TOL",
    "ZERO_PROB_TOL",
    "MODULUS_TOL",
    "ROUNDOFF_TOL",
    "NORMALIZATION_TOL",
    "APPROX_REL_TOL",
    "ESTIMATE_REL_TOL",
    "close",
    "dagger",
    "is_psd",
    "require_psd",
    "require_dims",
    "require_finite",
    "is_unitary",
    "kron",
    "hermitian_eigen",
    "partial_trace",
    "trace_and_replace",
]

DEFAULT_TOL = 1e-9
# Below this an outcome probability, or the norm of a state, branch or
# off-support part, counts as zero: no post-measurement state.
ZERO_PROB_TOL = 1e-12
# Roundoff allowed on an amplitude's modulus above one.
MODULUS_TOL = 1e-12
# Roundoff allowed on an order-one value that has a closed form.
ROUNDOFF_TOL = 1e-12
# Allowed deviation from one of a total probability sampled over random
# instruments.
NORMALIZATION_TOL = 1e-8
# Relative windows: an exact value against its leading-order approximation,
# and a coefficient the paper quotes to one significant figure.
APPROX_REL_TOL = 1e-3
ESTIMATE_REL_TOL = 0.05

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def close(a, b):
    """Entrywise equality within DEFAULT_TOL."""
    return bool(np.abs(np.asarray(a) - np.asarray(b)).max() <= DEFAULT_TOL)


def dagger(m):
    """Conjugate transpose of a matrix, or of each matrix in a (..., n, n) stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def kron(*matrices):
    """Kronecker product of one or more matrices, leftmost factor first; or,
    for (..., r, c) stacks whose leading axes broadcast, one per member.

    Each factor is one broadcast multiply, entry (i, k; j, l) = a[i, j] b[k, l],
    the same single product per entry as ``np.kron`` and so bit-identical to it,
    without its shape handling for arbitrary dimensions.
    """
    out = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        m = np.asarray(m, dtype=complex)
        (r0, c0), (r1, c1) = out.shape[-2:], m.shape[-2:]
        out = out[..., :, None, :, None] * m[..., None, :, None, :]
        out = out.reshape(*out.shape[:-4], r0 * r1, c0 * c1)
    return out


def _frozen(a):
    # A C-order copy of `a` that reads an immutable bytes buffer, so no caller
    # can make it writable: the library's one way to make an array read-only.
    return np.ndarray(a.shape, a.dtype, a.tobytes())


@functools.lru_cache(maxsize=None)
def _identity(n):
    """The n x n identity, built once per n and read-only for good. It is
    complex, as numpy would cast a float one to meet the complex matrices it
    is used with, so results keep their bits without a cast on every call."""
    return _frozen(np.eye(n, dtype=complex))


@functools.lru_cache(maxsize=None)
def _psd_shift(n):
    """DEFAULT_TOL * 1 at size n, the positivity certificate's shift, built
    once per n, complex and read-only for good like :func:`_identity`."""
    return _frozen(DEFAULT_TOL * _identity(n))


def _check_dims(m, dims):
    m = np.asarray(m, dtype=complex)
    total = math.prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix of shape {m.shape} does not match dims {tuple(dims)}")
    return m, total


def require_dims(dims, what):
    """`dims` as a tuple of ints. Raise ValueError, naming `what` and the dims,
    unless each is an integer (a ``numbers.Integral``, not a bool) of at least 1."""
    dims = tuple(dims)
    for d in dims:
        # type(d) is int first: constructors run this on every call, and the
        # numbers.Integral check is an order of magnitude slower.
        if not ((type(d) is int or isinstance(d, numbers.Integral) and not isinstance(d, bool)) and d >= 1):
            raise ValueError(f"{what} dims {dims} must each be an integer of at least 1")
    return tuple(map(int, dims))


def require_finite(**arguments):
    """Raise ValueError naming the first argument, a number or an array, that
    holds NaN or an infinity: "alpha is not finite"."""
    for name, value in arguments.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} is not finite")


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
    d_keep = math.prod(dims[i] for i in keep)
    return t.reshape(d_keep, d_keep)


def trace_and_replace(m, dims, factor):
    """L_X(m) = 1_X / d_X (x) Tr_X m, with 1_X back in the place of factor X = `factor`."""
    m, total = _check_dims(m, dims)
    k = len(dims)
    if factor not in range(k):
        raise ValueError(f"factor {factor} out of range for {k} factors")
    reduced = np.trace(m.reshape(tuple(dims) * 2), axis1=factor, axis2=factor + k)
    d = dims[factor]
    eye = np.eye(d).reshape([d if i in (factor, factor + k) else 1 for i in range(2 * k)])
    return (np.expand_dims(reduced, (factor, factor + k)) * eye / d).reshape(total, total)


def is_unitary(m):
    """True iff the square matrix, or every matrix of a (..., n, n) stack, is
    finite and unitary within DEFAULT_TOL."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or not np.isfinite(m).all():
        return False
    return close(dagger(m) @ m, _identity(m.shape[-1]))


def _hermitian_part(m):
    # 0.5 (m + m^dag), for a matrix or every member of a stack, after checking
    # that m is Hermitian within DEFAULT_TOL (the test `close` makes, inline).
    # eigh reads only one triangle, so symmetrizing keeps a roundoff-level
    # asymmetry from biasing it.
    m = np.asarray(m, dtype=complex)
    m_dag = m.conj().swapaxes(-1, -2)
    if not np.abs(m - m_dag).max() <= DEFAULT_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return 0.5 * (m + m_dag)


def hermitian_eigen(m):
    """Spectral decomposition of a Hermitian matrix, or of each matrix in a
    (..., n, n) stack.

    Returns (eigenvalues ascending, unitary matrix of eigenvector columns),
    computed by LAPACK through ``numpy.linalg.eigh`` on the symmetrized input,
    with the stack's leading axes in front. Raises ValueError if any input
    matrix is not Hermitian within DEFAULT_TOL.
    """
    return np.linalg.eigh(_hermitian_part(m))


def _low_eigenvalue(m):
    # None when positivity is certified without an eigensolver: a Cholesky
    # factor of sym + DEFAULT_TOL * 1 exists, for the symmetrized matrix or
    # every member of a stack, iff no eigenvalue of sym lies below -DEFAULT_TOL
    # (up to roundoff). Otherwise the smallest eigenvalue, which alone decides.
    sym = _hermitian_part(m)
    try:
        np.linalg.cholesky(sym + _psd_shift(sym.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        return np.linalg.eigh(sym)[0][..., 0].min()


def is_psd(m):
    """True iff the Hermitian matrix, or every matrix of a stack, has no
    eigenvalue below -DEFAULT_TOL. One stacked Cholesky factorization
    certifies a pass; the eigenvalues are computed only when it fails."""
    low = _low_eigenvalue(m)
    return bool(low is None or low >= -DEFAULT_TOL)


def require_psd(m, what):
    """Raise ValueError, naming the matrix as `what`, if it (or any matrix of
    a stack) has an eigenvalue below -DEFAULT_TOL, or if it is not Hermitian.
    Decided as :func:`is_psd` decides."""
    low = _low_eigenvalue(m)
    if low is not None and low < -DEFAULT_TOL:
        raise ValueError(f"{what} is not PSD (min eigenvalue {low:.3e})")
