"""Quantum operations and instruments.

An operation is a completely positive, trace-nonincreasing map held in Kraus
form. Two channel-state isomorphism conventions coexist in the literature and
both are supported, tagged on the :class:`ChoiOperator` so they can never be
mixed silently:

* ``PLAIN``:       sigma = (I (x) E)(|1>><<1|),  E(A) = Tr_in[(A^T (x) 1) sigma]
* ``TRANSPOSED``:  M = sigma^T,                  E(rho) = [Tr_in[(rho (x) 1) M]]^T

For a unitary U the TRANSPOSED Choi is the rank-1 projector onto the Choi
vector |U*>> = sum_k |k> (x) U*|k>.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    dagger,
    hermitian_eigen,
    is_psd,
    is_unitary,
    kron,
    partial_trace,
    require_psd,
    sqrtm_psd,
)

__all__ = [
    "Convention",
    "Operation",
    "Instrument",
    "ChoiOperator",
    "apply_operation",
    "choi_of_operation",
    "apply_choi",
    "kraus_from_choi",
    "choi_vector_of_unitary",
    "stinespring_dilation",
    "StinespringDilation",
    "tomographic_apply",
    "TOMO_STATES",
    "TOMO_DUALS",
    "validate_instrument",
    "rand_unitary",
    "rand_density",
    "rand_cptp",
    "rand_operation",
    "rand_instrument",
]


class Convention(enum.Enum):
    PLAIN = "plain"
    TRANSPOSED = "transposed"


def _require_trace_nonincreasing(kraus):
    # sum E^dag E <= 1 for a Kraus family, or for every member of a stack of
    # families whose operators are (k, d_out, d_in) stacks: its largest
    # eigenvalue is at most 1 + tol iff 1 - sum E^dag E has none below -tol.
    gram = sum(dagger(e) @ e for e in kraus)
    if not is_psd(np.eye(gram.shape[-1]) - gram):
        raise ValueError("Kraus family is trace-increasing: sum E^dag E > 1")


@dataclass(frozen=True)
class Operation:
    """A quantum operation in Kraus form: rho -> sum_i E_i rho E_i^dag."""

    d_in: int
    d_out: int
    kraus: tuple = ()

    def __post_init__(self):
        kraus = tuple(np.asarray(e, dtype=complex) for e in self.kraus)
        if not kraus:
            raise ValueError("operation needs at least one Kraus operator")
        for e in kraus:
            if e.shape != (self.d_out, self.d_in):
                raise ValueError(f"Kraus operator shape {e.shape} != ({self.d_out}, {self.d_in})")
        object.__setattr__(self, "kraus", kraus)
        _require_trace_nonincreasing(kraus)

    @classmethod
    def from_unitary(cls, u):
        u = np.asarray(u, dtype=complex)
        if not is_unitary(u):
            raise ValueError("matrix is not unitary within tolerance")
        return cls(u.shape[0], u.shape[0], (u,))

    @property
    def kraus_gram(self):
        return sum(dagger(e) @ e for e in self.kraus)

    def is_trace_preserving(self, tol=DEFAULT_TOL):
        return bool(np.abs(self.kraus_gram - np.eye(self.d_in)).max() <= tol)

    def __call__(self, rho):
        return apply_operation(self, rho)


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed family of operations whose total map is CPTP.

    The constructor is deliberately lenient; use :func:`validate_instrument`
    to check completeness.
    """

    d_in: int
    d_out: int
    elements: tuple = ()

    def __post_init__(self):
        for op in self.elements:
            if (op.d_in, op.d_out) != (self.d_in, self.d_out):
                raise ValueError("instrument element dimensions disagree")

    def total(self):
        kraus = tuple(e for op in self.elements for e in op.kraus)
        return Operation(self.d_in, self.d_out, kraus)


def validate_instrument(instr, tol=DEFAULT_TOL):
    """True iff every element is trace-nonincreasing and the sum is CPTP."""
    total = sum(op.kraus_gram for op in instr.elements)
    return bool(np.abs(total - np.eye(instr.d_in)).max() <= tol)


def apply_operation(op, rho):
    """Unnormalized output sum_i E_i rho E_i^dag; its trace is the probability."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (op.d_in, op.d_in):
        raise ValueError(f"state shape {rho.shape} != ({op.d_in}, {op.d_in})")
    out = np.zeros((op.d_out, op.d_out), dtype=complex)
    for e in op.kraus:
        out += e @ rho @ dagger(e)
    return out


@dataclass(frozen=True)
class ChoiOperator:
    """Choi matrix of an operation on H_in (x) H_out, input factor first."""

    d_in: int
    d_out: int
    matrix: np.ndarray = field(default=None)
    convention: Convention = Convention.TRANSPOSED

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.d_in * self.d_out
        if m.shape != (d, d):
            raise ValueError(f"Choi matrix shape {m.shape} != ({d}, {d})")
        require_psd(m, "Choi matrix")
        object.__setattr__(self, "matrix", m)

    def is_cptp(self, tol=DEFAULT_TOL):
        marg = partial_trace(self.matrix, (self.d_in, self.d_out), keep=(0,))
        return bool(np.abs(marg - np.eye(self.d_in)).max() <= tol)


def _choi_vec(e):
    # |E>> = sum_k |k> (x) E|k>, component (k, o) at index k*d_out + o; one
    # vector per member of a (..., d_out, d_in) stack.
    return e.swapaxes(-1, -2).reshape(*e.shape[:-2], -1)


def _choi_matrix(kraus, convention):
    # sum_i |E_i>><<E_i|, transposed for TRANSPOSED, added one Kraus operator
    # at a time; a stack of matrices when the operators are stacks.
    m = 0
    for e in kraus:
        v = _choi_vec(e)
        m = m + v[..., :, None] * v[..., None, :].conj()
    if convention is Convention.TRANSPOSED:
        m = m.swapaxes(-1, -2)
    return m


def choi_of_operation(op, convention=Convention.TRANSPOSED):
    """Choi operator of an operation in the requested convention."""
    return ChoiOperator(op.d_in, op.d_out, _choi_matrix(op.kraus, convention), convention)


def apply_choi(choi, rho):
    """Act on a state through the Choi matrix (inverse isomorphism)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (choi.d_in, choi.d_in):
        raise ValueError(f"state shape {rho.shape} != ({choi.d_in}, {choi.d_in})")
    t = choi.matrix.reshape(choi.d_in, choi.d_out, choi.d_in, choi.d_out)
    if choi.convention is Convention.PLAIN:
        # Tr_in[(rho^T (x) 1) sigma]
        return np.einsum("mi,maib->ab", rho, t)
    # TRANSPOSED: [Tr_in[(rho (x) 1) M]]^T
    return np.einsum("im,maib->ab", rho, t).T


def kraus_from_choi(choi, rank_tol=DEFAULT_TOL):
    """Canonical Kraus family from a Choi matrix.

    Eigenvectors with eigenvalue > rank_tol each yield one Kraus operator, so
    the Kraus rank equals the numerical rank and Tr(E_i E_j^dag) = lam_i d_ij.
    """
    m = choi.matrix
    if choi.convention is Convention.TRANSPOSED:
        m = m.T
    w, v = hermitian_eigen(m)
    if w[0] < -DEFAULT_TOL:
        raise ValueError("Choi matrix has a negative eigenvalue; map not CP")
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam > rank_tol:
            e = np.sqrt(lam) * vec.reshape(choi.d_in, choi.d_out).T
            kraus.append(e)
    if not kraus:
        kraus = [np.zeros((choi.d_out, choi.d_in), dtype=complex)]
    return Operation(choi.d_in, choi.d_out, tuple(kraus))


def choi_vector_of_unitary(u, tol=DEFAULT_TOL):
    """Choi vector |U*>> = sum_k |k> (x) U*|k> of a unitary."""
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u, tol):
        raise ValueError("matrix is not unitary within tolerance")
    return _choi_vec(u.conj())


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
        d_sys = max(self.d_in, self.d_out)
        big = np.zeros((d_sys, d_sys), dtype=complex)
        big[: self.d_in, : self.d_in] = rho
        env0 = np.zeros((self.env_dim, self.env_dim), dtype=complex)
        env0[0, 0] = 1.0
        joint = self.unitary @ kron(big, env0) @ dagger(self.unitary)
        if self.projector is not None:
            joint = self.projector @ joint @ self.projector
        out = partial_trace(joint, (d_sys, self.env_dim), keep=(0,))
        return out[: self.d_out, : self.d_out]


def stinespring_dilation(op):
    """Dilate an operation to unitary + projection + environment discard.

    Trace-decreasing operations get the completion operator
    sqrt(1 - sum E^dag E) appended internally as one extra environment level,
    which the returned projector then excludes.
    """
    d_sys = max(op.d_in, op.d_out)
    padded = []
    for e in op.kraus:
        p = np.zeros((d_sys, d_sys), dtype=complex)
        p[: op.d_out, : op.d_in] = e
        padded.append(p)
    defect = np.eye(d_sys, dtype=complex) - sum(dagger(p) @ p for p in padded)
    needs_completion = np.abs(defect).max() > DEFAULT_TOL
    if needs_completion:
        padded.append(sqrtm_psd(defect))
    k = len(padded)
    n_phys = k - 1 if needs_completion else k

    dim = d_sys * k
    # Isometry V|psi> = sum_i K_i|psi> (x) |i>; row index (s, e) = s*k + e.
    v = np.zeros((dim, d_sys), dtype=complex)
    for i, p in enumerate(padded):
        v[i::k, :] = p
    u = np.zeros((dim, dim), dtype=complex)
    u[:, ::k] = v
    # The remaining columns: an orthonormal basis of the complement of V's range.
    u[:, [j for j in range(dim) if j % k != 0]] = np.linalg.qr(v, mode="complete")[0][:, d_sys:]

    projector = None
    if needs_completion or op.d_out < d_sys:
        sys_proj = np.zeros((d_sys, d_sys), dtype=complex)
        sys_proj[: op.d_out, : op.d_out] = np.eye(op.d_out)
        env_proj = np.zeros((k, k), dtype=complex)
        env_proj[:n_phys, :n_phys] = np.eye(n_phys)
        projector = kron(sys_proj, env_proj)
    return StinespringDilation(op.d_in, op.d_out, u, k, projector)


# Fixed state basis and dual matrices of the two-level tomographic
# representation E(A) = sum_i Tr(D_i^dag A) E(rho_i).
TOMO_STATES = (
    0.5 * np.array([[1, 1], [1, 1]], dtype=complex),
    0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex),
    np.array([[1, 0], [0, 0]], dtype=complex),
    0.5 * np.array([[1, -1], [-1, 1]], dtype=complex),
)
TOMO_DUALS = (
    0.5 * np.array([[0, 1 + 1j], [1 - 1j, 2]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    0.5 * np.array([[0, -1 + 1j], [-1 - 1j, 2]], dtype=complex),
)


def tomographic_apply(op_images, a):
    """Reconstruct E(a) from the four images E(rho_i) of the fixed basis."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2):
        raise ValueError("tomographic representation is fixed at d=2")
    out = np.zeros_like(np.asarray(op_images[0], dtype=complex))
    for dual, image in zip(TOMO_DUALS, op_images):
        out = out + np.trace(dagger(dual) @ a) * np.asarray(image, dtype=complex)
    return out


def rand_unitary(d, rng, shape=()):
    """Haar-ish unitary from the QR of a complex Ginibre matrix, or a stack of
    them with leading axes `shape`. One draw holds each member's real d x d
    normals, then its imaginary ones, so a stack consumes `rng` exactly as one
    call per member, in C order, would."""
    real, imag = np.moveaxis(rng.standard_normal((*shape, 2, d, d)), -3, 0)
    q, r = np.linalg.qr(real + 1j * imag)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def rand_density(d, rng, rank=None):
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _ginibre_shape(d_in, d_out, kraus_rank):
    # Shape of the complex Ginibre matrix that rand_cptp orthonormalizes.
    if d_out * kraus_rank < d_in:
        raise ValueError("CPTP map needs d_out * kraus_rank >= d_in")
    return (d_out * kraus_rank, d_in)


def _isometry_kraus(g, d_out, kraus_rank):
    # Orthonormalize the columns of a Ginibre matrix, or of each matrix in a
    # stack, and cut the isometry into kraus_rank blocks of d_out rows.
    v, _ = np.linalg.qr(g)
    return tuple(v[..., i * d_out : (i + 1) * d_out, :] for i in range(kraus_rank))


def rand_cptp(d_in, d_out, kraus_rank, rng):
    """Random CPTP operation: orthonormalized Ginibre isometry cut into blocks."""
    shape = _ginibre_shape(d_in, d_out, kraus_rank)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Operation(d_in, d_out, _isometry_kraus(g, d_out, kraus_rank))


def _cptp_chois(g, d_out, kraus_rank):
    """TRANSPOSED Choi matrices, stacked, of the maps :func:`rand_cptp` builds
    from a (k, d_out * kraus_rank, d_in) stack of Ginibre matrices. Every
    member passes the checks of :class:`Operation` and :class:`ChoiOperator`."""
    kraus = _isometry_kraus(g, d_out, kraus_rank)
    _require_trace_nonincreasing(kraus)
    m = _choi_matrix(kraus, Convention.TRANSPOSED)
    require_psd(m, "Choi matrix")
    return m


def rand_operation(d_in, d_out, kraus_rank, rng):
    """Random trace-nonincreasing operation (CPTP scaled by a random weight)."""
    op = rand_cptp(d_in, d_out, kraus_rank, rng)
    scale = np.sqrt(rng.uniform(0.2, 1.0))
    return Operation(d_in, d_out, tuple(scale * e for e in op.kraus))


def rand_instrument(d_in, d_out, n_outcomes, rng):
    """Random instrument: a CPTP Kraus family partitioned over outcomes."""
    total = rand_cptp(d_in, d_out, n_outcomes, rng)
    elements = tuple(Operation(d_in, d_out, (e,)) for e in total.kraus)
    return Instrument(d_in, d_out, elements)
