"""Bipartite process matrices.

A process matrix W on A_in (x) A_out (x) B_in (x) B_out assigns the joint
outcome probability Tr[W (M (x) N)] to local instrument elements M, N without
presupposing an order between the two laboratories, with M and N the
transposed Choi matrices of :mod:`switchlab.ops`.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ID2,
    NORMALIZATION_TOL,
    PAULI_X,
    PAULI_Z,
    _frozen,
    _identity,
    close,
    kron,
    require_dims,
    require_psd,
    trace_and_replace,
)
from .ops import _built, _choi_vec, _cptp_choi_pairs

__all__ = [
    "ProcessMatrix",
    "ValidationReport",
    "probability",
    "channel_process",
    "channel_process_reverse",
    "causal_mixture",
    "hs_basis",
    "hs_decompose",
    "hs_reconstruct",
    "validate_process",
    "ocb_process",
    "no_signaling_a_to_b",
    "no_signaling_b_to_a",
    "validate_process_scenario",
]


@dataclass(frozen=True)
class ProcessMatrix:
    """Positive operator on A_in (x) A_out (x) B_in (x) B_out.

    Hermiticity and positivity are enforced on construction, on a read-only
    copy; the trace condition Tr W = d_A_out * d_B_out and the normalization
    over CPTP pairs are reported by :func:`validate_process`.
    """

    dims: tuple  # (d_a_in, d_a_out, d_b_in, d_b_out)
    matrix: np.ndarray = None

    def __post_init__(self):
        dims = require_dims(self.dims, "ProcessMatrix")
        if len(dims) != 4:
            raise ValueError(f"ProcessMatrix dims {dims} must be four dimensions")
        object.__setattr__(self, "dims", dims)
        m = _frozen(np.asarray(self.matrix, dtype=complex))
        total = math.prod(dims)
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        require_psd(m, "process matrix")
        object.__setattr__(self, "matrix", m)


def _require_dims(w, party, dims):
    # The probability rule's check that a Choi of `party`, "Alice" or "Bob",
    # with (d_in, d_out) = `dims` fits that party's side of W.
    if dims != (w.dims[:2] if party == "Alice" else w.dims[2:]):
        raise ValueError(f"{party} Choi dimensions do not match the process")


def _real_probability(val):
    # The probability rule's values must be real (NaN fails); the mask names the first.
    val = np.asarray(val)
    if not np.abs(val.imag).max() <= DEFAULT_TOL:
        bad = ~(np.abs(val.imag) <= DEFAULT_TOL)
        raise ValueError(f"probability has imaginary part {val.imag[bad].flat[0]:.3e}")
    return val.real


def _realigned(w):
    """R(W), W realigned to (n_A^2, n_B^2), n_X = d_X_in d_X_out, by one
    transpose-copy: on the rows vec(M^T), vec(N^T) (``_choi_vec``),
    Tr[W (M (x) N)] = vec(M^T)^T R vec(N^T), Tr_A[W (M (x) 1)] is the
    reshaped vec(M^T)^T R, and Tr_B[W (1 (x) N)] the reshaped R vec(N^T)."""
    n_a, n_b = math.prod(w.dims[:2]), math.prod(w.dims[2:])
    return w.matrix.reshape(n_a, n_b, n_a, n_b).transpose(0, 2, 1, 3).reshape(n_a * n_a, n_b * n_b)


def _rule_trace(w, dims, alice, bob):
    """The probability rule Tr[W (M (x) N)] = vec(M^T)^T R(W) vec(N^T) on the
    rows `alice` = vec(M^T) and `bob` = vec(N^T), or one value per member of
    (..., n^2) stacks, once both parties' `dims` fit W; each must be real.
    No M (x) N is formed (:func:`_realigned`), and each member of a stack
    keeps its own bits."""
    _require_dims(w, "Alice", dims[:2])
    _require_dims(w, "Bob", dims[2:])
    return _real_probability(((alice[..., None, :] @ _realigned(w)) @ bob[..., :, None])[..., 0, 0])


def probability(w, choi_a, choi_b):
    """Joint probability Tr[W (M (x) N)] for one instrument element each,
    scored on their rows vec(M^T), vec(N^T) by the rule of :func:`_rule_trace`."""
    dims = (choi_a.d_in, choi_a.d_out, choi_b.d_in, choi_b.d_out)
    return float(_rule_trace(w, dims, _choi_vec(choi_a.matrix), _choi_vec(choi_b.matrix)))


def _one_way(rho, channel_choi, perm):
    """The one-way process W = rho (x) C^T (x) 1 from the party that receives
    rho to the other, with the channel's output dimension on the last factor,
    formed by :func:`kron` and put in (A_in, A_out, B_in, B_out) order by
    `perm` with one transpose-copy into an immutable buffer. The one
    positivity proof is on that W itself, since from a state at -DEFAULT_TOL,
    rho (x) C^T (x) 1 can reach -d_in * DEFAULT_TOL; W is then wrapped
    without the constructor's checks."""
    if not channel_choi.is_cptp():
        raise ValueError("channel Choi is not trace-preserving")
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state shape {rho.shape} is not square")
    if not abs(rho.trace().real - 1.0) <= DEFAULT_TOL:
        raise ValueError("state is not a density operator: trace is not 1")
    d_in, d_out = channel_choi.d_in, channel_choi.d_out
    built = (len(rho), d_in, d_out, d_out)
    w = kron(rho, channel_choi.matrix.T, _identity(d_out))
    w = _frozen(w.reshape(built * 2).transpose(*perm, *(4 + p for p in perm))).reshape(w.shape)
    require_psd(w, "process matrix")
    return _built(ProcessMatrix, dims=tuple(built[p] for p in perm), matrix=w)


def channel_process(rho_b, channel_choi):
    """Signaling process B -> A: Bob receives rho_b, and a channel carries his
    output to Alice.  W = 1^{A_out} (x) (C^{B_out A_in})^T (x) rho^{B_in}."""
    # built as A -> B with the parties exchanged; exchange them back
    return _one_way(rho_b, channel_choi, (2, 3, 0, 1))


def channel_process_reverse(rho_a, channel_choi):
    """Signaling process A -> B, the mirror image of :func:`channel_process`:
    W = rho^{A_in} (x) (C^{A_out B_in})^T (x) 1^{B_out}."""
    return _one_way(rho_a, channel_choi, (0, 1, 2, 3))


def causal_mixture(w1, w2, q):
    """Convex mixture q*w1 + (1-q)*w2 of two process matrices. It is not
    proved again: by Weyl's inequality its smallest eigenvalue is at least
    q*min(w1) + (1-q)*min(w2) >= -DEFAULT_TOL."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if w1.dims != w2.dims:
        raise ValueError("process dimensions disagree")
    return _built(ProcessMatrix, dims=w1.dims, matrix=_frozen(q * w1.matrix + (1.0 - q) * w2.matrix))


def hs_basis(d):
    """Hermitian operator basis with s_0 = 1, Tr(s_i s_j) = d delta_ij,
    traceless otherwise, stacked as a (d^2, d, d) array: the generalized
    Gell-Mann matrices, which reduce to the Pauli basis at d = 2."""
    mats = [np.eye(d, dtype=complex)]
    scale = np.sqrt(d / 2.0)
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(scale * sym)
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            mats.append(scale * anti)
    for l in range(1, d):
        diag = np.zeros((d, d), dtype=complex)
        for m in range(l):
            diag[m, m] = 1.0
        diag[l, l] = -l
        diag *= np.sqrt(d / (l * (l + 1.0)))
        mats.append(diag)
    return np.array(mats)


# W[(i j k l), (m n o p)] against the stacked basis s[a, row, col], one factor
# at a time, so the d^4 x d^4 product basis is never formed.
_HS_DECOMPOSE = "ijklmnop,ami,bnj,cok,epl->abce"
_HS_RECONSTRUCT = "abce,aim,bjn,cko,elp->ijklmnop"


@functools.lru_cache(maxsize=None)
def _hs_plan(d):
    """(read-only hs_basis(d), decompose path, reconstruct path) at local
    dimension d. The paths are numpy's greedy search for the two contractions,
    run once: einsum given a path contracts in that order, so its results
    equal those of ``optimize=True`` bit for bit."""
    s = _frozen(hs_basis(d))
    n = d * d
    decompose, _ = np.einsum_path(_HS_DECOMPOSE, np.empty((d,) * 8, dtype=complex), s, s, s, s, optimize=True)
    reconstruct, _ = np.einsum_path(_HS_RECONSTRUCT, np.empty((n,) * 4), s, s, s, s, optimize=True)
    return s, decompose, reconstruct


def hs_decompose(w):
    """Coefficients w_abcd of W = sum w_abcd s_a (x) s_b (x) s_c (x) s_d,
    that is w_abcd = Tr[W s_a (x) s_b (x) s_c (x) s_d] / d^4.

    Accepts a :class:`ProcessMatrix` or a bare Hermitian matrix whose four
    tensor factors share one local dimension.
    """
    if isinstance(w, ProcessMatrix):
        dims = w.dims
        if len(set(dims)) != 1:
            raise ValueError("Hilbert-Schmidt decomposition needs equal local dimensions")
        d = dims[0]
        matrix = w.matrix
    else:
        matrix = np.asarray(w, dtype=complex)
        d = round(matrix.shape[0] ** 0.25)
        if d ** 4 != matrix.shape[0]:
            raise ValueError("matrix dimension is not a fourth power")
    s, path, _ = _hs_plan(d)
    coeffs = np.einsum(_HS_DECOMPOSE, matrix.reshape((d,) * 8), s, s, s, s, optimize=path) / d ** 4
    if not np.abs(coeffs.imag).max() <= DEFAULT_TOL:
        raise ValueError("non-real Hilbert-Schmidt coefficient")
    return coeffs.real.copy()


def hs_reconstruct(coeffs, d):
    """Inverse of :func:`hs_decompose` (returns the bare matrix)."""
    s, _, path = _hs_plan(d)
    return np.einsum(_HS_RECONSTRUCT, coeffs, s, s, s, s, optimize=path).reshape(d ** 4, d ** 4)


@dataclass(frozen=True)
class ValidationReport:
    trace: float  # Tr W; a valid W has d_A_out * d_B_out
    max_norm_deviation: float


# Sampled checks draw in blocks of at most this many, so peak memory is flat.
_BLOCK = 64
_KRAUS_RANK = 2


def _worst_over_blocks(count, what, block):
    # The largest of block(k), or 0, over blocks of k <= _BLOCK of `count` draws of `what`, in order.
    if count < 1:
        raise ValueError(f"need at least one {what}")
    worst = 0.0
    for start in range(0, count, _BLOCK):
        worst = max(worst, block(min(_BLOCK, count - start)))
    return worst


def validate_process(w, samples, rng):
    """Report W's trace and its randomized normalization. W's positivity is
    not proved again: every ProcessMatrix proved it on construction, at the
    same DEFAULT_TOL.

    Draws `samples` independent CPTP Choi pairs, consuming `rng` exactly as
    ``rand_cptp(d_in, d_out, 2, rng)`` for Alice and then for Bob would, once
    per sample, and reports the largest deviation of Tr[W (M (x) N)] from one.
    """
    worst = _worst_over_blocks(samples, "sample", lambda k: _block_deviation(w, k, rng))
    return ValidationReport(float(np.trace(w.matrix).real), worst)


def _block_deviation(w, k, rng):
    # Largest |Tr[W (M (x) N)] - 1| over k random CPTP pairs, all scored in
    # one call of the probability rule itself: the CLI's 12 printed digits
    # share probability()'s roundoff, and the first imaginary one is named.
    ma, nb = _cptp_choi_pairs((w.dims[:2], w.dims[2:]), _KRAUS_RANK, k, rng)
    return float(np.abs(_rule_trace(w, w.dims, _choi_vec(ma), _choi_vec(nb)) - 1.0).max())


_OCB_PROCESS = ProcessMatrix(
    (2, 2, 2, 2),
    0.25 * (np.eye(16) + (kron(ID2, PAULI_Z, PAULI_Z, ID2) + kron(PAULI_Z, ID2, PAULI_X, PAULI_Z)) / np.sqrt(2.0)),
)


def ocb_process():
    """The 16x16 process violating the causal inequality:
    W = 1/4 [1 + (s_z^{A_out} s_z^{B_in} + s_z^{A_in} s_x^{B_in} s_z^{B_out})/sqrt(2)].
    Its two Pauli terms anticommute, so W's spectrum is {0, 1/2}.

    W is built and proved positive once, at import; every call returns that
    one read-only instance.
    """
    return _OCB_PROCESS


def no_signaling_a_to_b(w):
    """Diagnostic: W carries no A -> B signaling, L_{A_out}(W) = W."""
    return close(trace_and_replace(w.matrix, w.dims, 1), w.matrix)


def no_signaling_b_to_a(w):
    """Diagnostic: W carries no B -> A signaling, L_{B_out}(W) = W."""
    return close(trace_and_replace(w.matrix, w.dims, 3), w.matrix)


def validate_process_scenario(params, rng):
    """:func:`validate_process` on ``ocb_process()`` with `samples` random
    CPTP pairs: the trace checked at d_A_out d_B_out = 4, the worst
    normalization deviation at zero. Returns the outputs and the checks, each
    a (name, expected, actual, tolerance) tuple."""
    samples = params["samples"]
    report = validate_process(ocb_process(), samples, rng)
    outputs = {
        "samples": samples,
        "trace": report.trace,
        "max_norm_deviation": report.max_norm_deviation,
    }
    checks = (
        ("trace_equals_4", 4.0, report.trace, DEFAULT_TOL),
        ("normalization_deviation", 0.0, report.max_norm_deviation, NORMALIZATION_TOL),
    )
    return outputs, checks
