"""Bipartite process matrices.

A process matrix W on A_in (x) A_out (x) B_in (x) B_out assigns the joint
outcome probability Tr[W (M (x) N)] to local instrument elements M, N without
presupposing an order between the two laboratories. Instrument-element Choi
operators entering the probability rule must use the TRANSPOSED convention;
the PLAIN convention is rejected so the two can never be mixed, which would
silently transpose one tensor factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Z,
    TRACE_TOL,
    is_psd,
    kron,
    partial_trace,
    permute_subsystems,
    require_psd,
)
from .ops import Convention, _cptp_chois, _ginibre_shape

__all__ = [
    "ProcessMatrix",
    "ValidationReport",
    "probability",
    "state_process",
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
]


@dataclass(frozen=True)
class ProcessMatrix:
    """Positive operator on A_in (x) A_out (x) B_in (x) B_out.

    Hermiticity and positivity are enforced on construction; the trace
    condition Tr W = d_A_out * d_B_out and the normalization over CPTP pairs
    are certified by :func:`validate_process`.
    """

    dims: tuple  # (d_a_in, d_a_out, d_b_in, d_b_out)
    matrix: np.ndarray = None

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        m = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(dims))
        if m.shape != (total, total):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        require_psd(m, "process matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def d_a_in(self):
        return self.dims[0]

    @property
    def d_a_out(self):
        return self.dims[1]

    @property
    def d_b_in(self):
        return self.dims[2]

    @property
    def d_b_out(self):
        return self.dims[3]


def _require_transposed(convention):
    if convention is not Convention.TRANSPOSED:
        raise ValueError("probability rule requires TRANSPOSED-convention Choi operators")


def _require_rule(w, party, convention, d_in, d_out):
    """The probability rule's checks on a Choi operator (or a stack of them)
    of `party`, "Alice" or "Bob": TRANSPOSED convention, and the dimensions of
    that party's side of W."""
    _require_transposed(convention)
    if (d_in, d_out) != (w.dims[:2] if party == "Alice" else w.dims[2:]):
        raise ValueError(f"{party} Choi dimensions do not match the process")


def _real_probability(val):
    # The probability rule's trace, or a stack of them, must be real.
    val = np.asarray(val)
    bad = np.abs(val.imag) > DEFAULT_TOL
    if bad.any():
        raise ValueError(f"probability has imaginary part {val.imag[bad].flat[0]:.3e}")
    return val.real


def _rule_trace(w, terms):
    """The probability rule Tr[W G] for G = sum over `terms` = [(Alice Chois,
    Bob Chois), ...] of (sum of Alice's) (x) (sum of Bob's), after the rule's
    checks on every Choi."""
    g = 0
    for alice, bob in terms:
        for party, chois in (("Alice", alice), ("Bob", bob)):
            for c in chois:
                _require_rule(w, party, c.convention, c.d_in, c.d_out)
        g = g + kron(sum(c.matrix for c in alice), sum(c.matrix for c in bob))
    return float(_real_probability(np.trace(w.matrix @ g)))


def probability(w, choi_a, choi_b):
    """Joint probability Tr[W (M (x) N)] for one instrument element each."""
    return _rule_trace(w, [((choi_a,), (choi_b,))])


def state_process(rho, dims):
    """Process matrix of a shared state: W = rho^{A_in B_in} (x) 1^{A_out B_out}."""
    d_a_in, d_a_out, d_b_in, d_b_out = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d_a_in * d_b_in,) * 2:
        raise ValueError("state must live on A_in (x) B_in")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL:
        raise ValueError("state is not a density operator: trace is not 1")
    require_psd(rho, "state")
    full = kron(rho, np.eye(d_a_out * d_b_out))
    # built on (A_in, B_in, A_out, B_out); reorder to (A_in, A_out, B_in, B_out)
    ordered, _ = permute_subsystems(full, (d_a_in, d_b_in, d_a_out, d_b_out), (0, 2, 1, 3))
    return ProcessMatrix(dims, ordered)


def _check_cptp_choi(choi):
    _require_transposed(choi.convention)
    if not choi.is_cptp():
        raise ValueError("channel Choi is not trace-preserving")


def channel_process(rho_b, channel_choi, d_a_out=None):
    """Signaling process B -> A: Bob receives rho_b, and a channel carries his
    output to Alice.  W = 1^{A_out} (x) (C^{B_out A_in})^T (x) rho^{B_in}."""
    _check_cptp_choi(channel_choi)
    rho_b = np.asarray(rho_b, dtype=complex)
    d_b_in = rho_b.shape[0]
    d_b_out, d_a_in = channel_choi.d_in, channel_choi.d_out
    d_a_out = d_a_in if d_a_out is None else int(d_a_out)
    full = kron(np.eye(d_a_out), channel_choi.matrix.T, rho_b)
    # built on (A_out, B_out, A_in, B_in); reorder to (A_in, A_out, B_in, B_out)
    ordered, _ = permute_subsystems(full, (d_a_out, d_b_out, d_a_in, d_b_in), (2, 0, 3, 1))
    return ProcessMatrix((d_a_in, d_a_out, d_b_in, d_b_out), ordered)


def channel_process_reverse(rho_a, channel_choi, d_b_out=None):
    """Signaling process A -> B, the mirror image of :func:`channel_process`:
    W = rho^{A_in} (x) (C^{A_out B_in})^T (x) 1^{B_out}."""
    _check_cptp_choi(channel_choi)
    rho_a = np.asarray(rho_a, dtype=complex)
    d_a_in = rho_a.shape[0]
    d_a_out, d_b_in = channel_choi.d_in, channel_choi.d_out
    d_b_out = d_b_in if d_b_out is None else int(d_b_out)
    full = kron(rho_a, channel_choi.matrix.T, np.eye(d_b_out))
    return ProcessMatrix((d_a_in, d_a_out, d_b_in, d_b_out), full)


def causal_mixture(w1, w2, q):
    """Convex mixture q*w1 + (1-q)*w2 of two process matrices."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if w1.dims != w2.dims:
        raise ValueError("process dimensions disagree")
    return ProcessMatrix(w1.dims, q * w1.matrix + (1.0 - q) * w2.matrix)


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
    s = hs_basis(d)
    coeffs = np.einsum(_HS_DECOMPOSE, matrix.reshape((d,) * 8), s, s, s, s, optimize=True) / d ** 4
    if np.abs(coeffs.imag).max() > DEFAULT_TOL:
        raise ValueError("non-real Hilbert-Schmidt coefficient")
    return coeffs.real.copy()


def hs_reconstruct(coeffs, d):
    """Inverse of :func:`hs_decompose` (returns the bare matrix)."""
    s = hs_basis(d)
    return np.einsum(_HS_RECONSTRUCT, coeffs, s, s, s, s, optimize=True).reshape(d ** 4, d ** 4)


@dataclass(frozen=True)
class ValidationReport:
    psd: bool
    trace_ok: bool
    max_norm_deviation: float

    @property
    def ok(self):
        return self.psd and self.trace_ok


# validate_process checks its random pairs in stacks of at most this many,
# so that peak memory does not grow with the sample count.
_BLOCK = 64
_KRAUS_RANK = 2


def validate_process(w, samples, rng):
    """Certify the two process conditions plus randomized normalization.

    Draws `samples` independent CPTP Choi pairs, consuming `rng` exactly as
    ``rand_cptp(d_in, d_out, 2, rng)`` for Alice and then for Bob would, once
    per sample, and reports the largest deviation of Tr[W (M (x) N)] from one.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    psd = is_psd(w.matrix)
    trace_ok = abs(np.trace(w.matrix).real - w.d_a_out * w.d_b_out) < TRACE_TOL
    worst = 0.0
    for start in range(0, samples, _BLOCK):
        worst = max(worst, _block_deviation(w, min(_BLOCK, samples - start), rng))
    return ValidationReport(psd, trace_ok, worst)


def _block_deviation(w, k, rng):
    # Largest |Tr[W (M (x) N)] - 1| over k random CPTP pairs, stacked. One
    # draw holds each sample's normals in rand_cptp's order: Alice real and
    # imaginary, then Bob real and imaginary.
    sides = (("Alice", w.dims[:2]), ("Bob", w.dims[2:]))
    shapes = [_ginibre_shape(d_in, d_out, _KRAUS_RANK) for _, (d_in, d_out) in sides]
    sizes = [math.prod(shape) for shape in shapes for _ in range(2)]
    normals = np.split(rng.standard_normal((k, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    chois = []
    for i, (party, (d_in, d_out)) in enumerate(sides):
        real, imag = (x.reshape(k, *shapes[i]) for x in normals[2 * i : 2 * i + 2])
        chois.append(_cptp_chois(real + 1j * imag, d_out, _KRAUS_RANK))
        _require_rule(w, party, Convention.TRANSPOSED, d_in, d_out)
    ma, nb = chois
    # M (x) N is formed, as probability() forms it, so that every trace has
    # probability()'s roundoff: the CLI prints the deviation to 12 digits.
    n = len(w.matrix)
    g = (ma[:, :, None, :, None] * nb[:, None, :, None, :]).reshape(k, n, n)
    vals = _real_probability(np.trace(w.matrix @ g, axis1=1, axis2=2))
    return float(np.abs(vals - 1.0).max())


def ocb_process():
    """The 16x16 process violating the causal inequality:
    W = 1/4 [1 + (s_z^{A_out} s_z^{B_in} + s_z^{A_in} s_x^{B_in} s_z^{B_out})/sqrt(2)].
    """
    i2 = np.eye(2)
    term1 = kron(i2, PAULI_Z, PAULI_Z, i2)
    term2 = kron(PAULI_Z, i2, PAULI_X, PAULI_Z)
    w = 0.25 * (np.eye(16) + (term1 + term2) / np.sqrt(2.0))
    return ProcessMatrix((2, 2, 2, 2), w)


def _marginal_invariance(w, factor):
    # True iff W is invariant under replacing `factor` by the maximally mixed
    # marginal, i.e. W = 1/d (x) Tr_factor W on that slot.
    dims = w.dims
    reduced = partial_trace(w.matrix, dims, keep=[i for i in range(4) if i != factor])
    d = dims[factor]
    rebuilt = kron(np.eye(d) / d, reduced)
    order = [factor] + [i for i in range(4) if i != factor]
    inverse = [order.index(i) for i in range(4)]
    rebuilt, _ = permute_subsystems(rebuilt, [dims[i] for i in order], inverse)
    return bool(np.abs(rebuilt - w.matrix).max() <= DEFAULT_TOL)


def no_signaling_a_to_b(w):
    """Diagnostic: W carries no A -> B signaling (trivial on A_out)."""
    return _marginal_invariance(w, factor=1)


def no_signaling_b_to_a(w):
    """Diagnostic: W carries no B -> A signaling (trivial on B_out)."""
    return _marginal_invariance(w, factor=3)
