"""Quantum operations and instruments.

An operation is a completely positive, trace-nonincreasing map held in Kraus
form. Its :class:`ChoiOperator` is the transposed Choi matrix of the
probability rule of Oreshkov, Costa and Brukner:

    M = [(1 (x) E)(|1>><<1|)]^T,    E(rho) = [Tr_in[(rho (x) 1) M]]^T

For a unitary U it is the rank-1 projector onto the Choi vector
|U*>> = sum_k |k> (x) U*|k>.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    _frozen,
    _identity,
    close,
    dagger,
    hermitian_eigen,
    is_psd,
    partial_trace,
    require_dims,
    require_psd,
)

__all__ = [
    "Operation",
    "ChoiOperator",
    "apply_operation",
    "choi_of_operation",
    "apply_choi",
    "kraus_from_choi",
    "stinespring_dilation",
    "StinespringDilation",
    "rand_unitary",
    "rand_density",
    "rand_cptp",
    "rand_operation",
    "rand_instrument",
]


def _require_trace_nonincreasing(kraus):
    # sum E^dag E <= 1: its largest eigenvalue is at most 1 + tol iff
    # 1 - sum E^dag E has none below -tol. The sum over a (r, d_out, d_in)
    # Kraus stack is the one product V^dag V of its r * d_out stacked rows V.
    v = np.asarray(kraus)
    v = v.reshape(-1, v.shape[-1])
    if not is_psd(_identity(v.shape[-1]) - v.conj().T @ v):
        raise ValueError("Kraus family is trace-increasing: sum E^dag E > 1")


def _kraus_stack(kraus, d_in, d_out):
    # The Kraus family copied into one read-only (r, d_out, d_in) complex stack,
    # after naming an empty family or its first member of another shape.
    kraus = [np.asarray(e, dtype=complex) for e in kraus]
    if not kraus:
        raise ValueError("operation needs at least one Kraus operator")
    for e in kraus:
        if e.shape != (d_out, d_in):
            raise ValueError(f"Kraus operator shape {e.shape} != ({d_out}, {d_in})")
    return _frozen(np.array(kraus))


@dataclass(frozen=True)
class Operation:
    """A quantum operation in Kraus form, rho -> sum_i E_i rho E_i^dag; `kraus`
    is the family given, copied into one read-only (r, d_out, d_in) stack."""

    d_in: int
    d_out: int
    kraus: np.ndarray = ()

    def __post_init__(self):
        d_in, d_out = require_dims((self.d_in, self.d_out), "Operation")
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        object.__setattr__(self, "kraus", _kraus_stack(self.kraus, d_in, d_out))
        _require_trace_nonincreasing(self.kraus)


def apply_operation(op, rho):
    """Unnormalized output sum_i E_i rho E_i^dag; its trace is the probability."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (op.d_in, op.d_in):
        raise ValueError(f"state shape {rho.shape} != ({op.d_in}, {op.d_in})")
    return (op.kraus @ rho @ dagger(op.kraus)).sum(axis=0)


@dataclass(frozen=True)
class ChoiOperator:
    """Transposed Choi matrix M of an operation on H_in (x) H_out, input
    factor first, kept as a read-only copy."""

    d_in: int
    d_out: int
    matrix: np.ndarray = field(default=None)

    def __post_init__(self):
        d_in, d_out = require_dims((self.d_in, self.d_out), "ChoiOperator")
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        m = _frozen(np.asarray(self.matrix, dtype=complex))
        d = self.d_in * self.d_out
        if m.shape != (d, d):
            raise ValueError(f"Choi matrix shape {m.shape} != ({d}, {d})")
        require_psd(m, "Choi matrix")
        object.__setattr__(self, "matrix", m)

    def is_cptp(self):
        return _trace_preserving(self.matrix, self.d_in, self.d_out)


def _trace_preserving(matrix, d_in, d_out):
    # Tr_out of a Choi matrix, or of each in a stack, is 1_in within
    # DEFAULT_TOL: partial_trace's one contraction, without its checks.
    t = matrix.reshape(*matrix.shape[:-2], d_in, d_out, d_in, d_out)
    return close(np.trace(t, axis1=-3, axis2=-1), _identity(d_in))


def _choi_vec(e):
    # vec(E^T), row by row: |E>> = sum_k |k> (x) E|k>, component (k, o) at
    # index k*d_out + o; one vector per member of a (..., d_out, d_in) stack.
    return e.swapaxes(-1, -2).reshape(*e.shape[:-2], -1)


def _choi_matrix(kraus):
    # [sum_i |E_i>><<E_i|]^T of a (..., r, d_out, d_in) Kraus stack: the r
    # outer products in one stacked product, then added in the family's order.
    # (A sum over the Kraus axis reorders the additions when the matrices are
    # 1 x 1.)
    v = _choi_vec(kraus)
    terms = v[..., :, None] * v[..., None, :].conj()
    m = terms[..., 0, :, :]
    for i in range(1, terms.shape[-3]):
        m = m + terms[..., i, :, :]
    return m.swapaxes(-1, -2)


def _built(cls, **fields):
    """A `cls` instance (ChoiOperator or ProcessMatrix) holding `fields`, which
    the caller built, checked and froze itself (its `matrix` is a
    ``linalg._frozen`` copy): ``__post_init__`` does not run, so no proof,
    copy or dims check is repeated."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def choi_of_operation(op):
    """Choi operator of an operation. The sum of outer products |E>><<E| is
    Hermitian and positive semidefinite by construction, so it is not proved
    again."""
    matrix = _frozen(_choi_matrix(op.kraus))
    return _built(ChoiOperator, d_in=op.d_in, d_out=op.d_out, matrix=matrix)


def apply_choi(choi, rho):
    """Act on a state through the Choi matrix (inverse isomorphism):
    [Tr_in[(rho (x) 1) M]]^T."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (choi.d_in, choi.d_in):
        raise ValueError(f"state shape {rho.shape} != ({choi.d_in}, {choi.d_in})")
    t = choi.matrix.reshape(choi.d_in, choi.d_out, choi.d_in, choi.d_out)
    return np.einsum("im,maib->ab", rho, t).T


def kraus_from_choi(choi):
    """Canonical Kraus family from a Choi matrix.

    Eigenvectors with eigenvalue > DEFAULT_TOL each yield one Kraus operator, so
    the Kraus rank equals the numerical rank and Tr(E_i E_j^dag) = lam_i d_ij.
    """
    w, v = hermitian_eigen(choi.matrix.T)
    keep = w > DEFAULT_TOL
    # Column j of v, scaled by sqrt(w_j), is |E_j>> (``_choi_vec``); the
    # zero map keeps one zero operator.
    kraus = (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, choi.d_in, choi.d_out).swapaxes(-1, -2)
    return Operation(choi.d_in, choi.d_out, kraus if keep.any() else np.zeros((1, choi.d_out, choi.d_in)))


@dataclass(frozen=True)
class StinespringDilation:
    """Unitary system+environment model of an operation.

    The system register has dimension max(d_in, d_out); inputs are embedded in
    its leading d_in coordinates, outputs read from the leading d_out ones.
    `projector`, when present, restricts to the physical output block before
    the environment is traced out.
    """

    d_in: int
    d_out: int
    unitary: np.ndarray
    env_dim: int
    projector: np.ndarray = None

    def apply(self, rho):
        rho = np.asarray(rho, dtype=complex)
        # V: U's columns (s, 0), at s * env_dim, for the d_in inputs s, so
        # U (rho (x) |0><0|) U^dag = V rho V^dag.
        v = self.unitary[:, :: self.env_dim][:, : self.d_in]
        joint = v @ rho @ dagger(v)
        if self.projector is not None:
            joint = self.projector @ joint @ self.projector
        out = partial_trace(joint, (max(self.d_in, self.d_out), self.env_dim), keep=(0,))
        return out[: self.d_out, : self.d_out]


def stinespring_dilation(op):
    """Dilate an operation to unitary + projection + environment discard.

    Trace-decreasing operations get the completion operator
    sqrt(1 - sum E^dag E) appended internally as one extra environment level,
    which the returned projector then excludes.
    """
    d_sys = max(op.d_in, op.d_out)
    r = len(op.kraus)
    # The r Kraus operators, and room for the completion, each padded to d_sys x d_sys.
    padded = np.zeros((r + 1, d_sys, d_sys), dtype=complex)
    padded[:r, : op.d_out, : op.d_in] = op.kraus
    # 1 - sum E^dag E as the one product V^dag V of the r * d_sys stacked rows V.
    rows = padded[:r].reshape(-1, d_sys)
    defect = _identity(d_sys) - rows.conj().T @ rows
    needs_completion = not close(defect, 0)
    if needs_completion:
        # Operation proved the defect PSD; clipping drops its roundoff below 0.
        w, v = hermitian_eigen(defect)
        padded[r] = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    k = r + needs_completion
    dim = d_sys * k
    # Isometry V|psi> = sum_i K_i|psi> (x) |i>; row index (s, e) = s*k + e.
    v = padded[:k].swapaxes(0, 1).reshape(dim, d_sys)
    # U's columns (s, 0) are V's; the columns (s, e > 0), in order, an
    # orthonormal basis of the complement of V's range.
    u = np.empty((dim, d_sys, k), dtype=complex)
    u[:, :, 0] = v
    u[:, :, 1:] = np.linalg.qr(v, mode="complete")[0][:, d_sys:].reshape(dim, d_sys, k - 1)
    # The physical block: system levels below d_out, environment levels below r.
    physical = (np.arange(d_sys) < op.d_out)[:, None] & (np.arange(k) < r)
    projector = None if physical.all() else np.diag(physical.ravel()).astype(complex)
    return StinespringDilation(op.d_in, op.d_out, u.reshape(dim, dim), k, projector)


def rand_unitary(d, rng, shape=()):
    """Haar-ish unitary from the QR of a complex Ginibre matrix, or a stack of
    them with leading axes `shape`. One draw holds each member's real d x d
    normals, then its imaginary ones, so a stack consumes `rng` exactly as one
    call per member, in C order, would."""
    real, imag = np.moveaxis(rng.standard_normal((*shape, 2, d, d)), -3, 0)
    q, r = np.linalg.qr(real + 1j * imag)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def rand_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _ginibre_shape(d_in, d_out, kraus_rank):
    # Shape of the complex Ginibre matrix that rand_cptp orthonormalizes.
    if d_out * kraus_rank < d_in:
        raise ValueError("CPTP map needs d_out * kraus_rank >= d_in")
    return (d_out * kraus_rank, d_in)


def _isometry_kraus(g, d_out, kraus_rank):
    # Orthonormalize the columns of a Ginibre matrix, or of each matrix in a
    # stack, and cut the isometry into a (..., kraus_rank, d_out, d_in) stack
    # of blocks of d_out rows.
    v, _ = np.linalg.qr(g)
    return v.reshape(*v.shape[:-2], kraus_rank, d_out, v.shape[-1])


def rand_cptp(d_in, d_out, kraus_rank, rng):
    """Random CPTP operation: orthonormalized Ginibre isometry cut into blocks."""
    shape = _ginibre_shape(d_in, d_out, kraus_rank)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Operation(d_in, d_out, _isometry_kraus(g, d_out, kraus_rank))


def _cptp_choi_pairs(sides, kraus_rank, k, rng):
    """Choi matrices, one (k, n, n) stack per (d_in, d_out) in
    `sides`, of the maps that k rounds of one ``rand_cptp(d_in, d_out,
    kraus_rank, rng)`` call per side would build. One draw holds each
    round's normals in those calls' order: per side, real then imaginary.

    They are CPTP by construction and so are not checked: the Kraus blocks cut
    from a QR isometry satisfy sum E^dag E = 1 to roundoff, and a sum of outer
    products |E>><<E| is exactly Hermitian and positive semidefinite."""
    shapes = [_ginibre_shape(d_in, d_out, kraus_rank) for d_in, d_out in sides]
    sizes = [math.prod(shape) for shape in shapes for _ in range(2)]
    normals = np.split(rng.standard_normal((k, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    chois = []
    for (_, d_out), shape, real, imag in zip(sides, shapes, normals[::2], normals[1::2]):
        g = real.reshape(k, *shape) + 1j * imag.reshape(k, *shape)
        chois.append(_choi_matrix(_isometry_kraus(g, d_out, kraus_rank)))
    return chois


def rand_operation(d_in, d_out, kraus_rank, rng):
    """Random trace-nonincreasing operation (CPTP scaled by a random weight)."""
    op = rand_cptp(d_in, d_out, kraus_rank, rng)
    scale = np.sqrt(rng.uniform(0.2, 1.0))
    return Operation(d_in, d_out, scale * op.kraus)


def rand_instrument(d_in, d_out, n_outcomes, rng):
    """Random instrument: a CPTP Kraus family partitioned over outcomes, as a
    tuple of one single-Kraus Operation per outcome."""
    total = rand_cptp(d_in, d_out, n_outcomes, rng)
    return tuple(Operation(d_in, d_out, (e,)) for e in total.kraus)
