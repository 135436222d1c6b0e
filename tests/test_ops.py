import enum
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
)
from switchlab.ops import (
    ChoiOperator,
    Operation,
    apply_choi,
    apply_operation,
    choi_of_operation,
    kraus_from_choi,
    rand_cptp,
    rand_density,
    rand_instrument,
    rand_operation,
    rand_unitary,
    stinespring_dilation,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def proj(v):
    return np.outer(v, v.conj())


def kraus_sum_oracle(kraus, rho):
    return sum(e @ rho @ dagger(e) for e in kraus)


def test_apply_operation_bit_flip():
    op = Operation(2, 2, (PAULI_X,))
    assert np.abs(apply_operation(op, proj(KET0)) - proj(KET1)).max() < 1e-12


def test_apply_operation_cnot_measure_control():
    # CNOT followed by selecting control outcome -1 and discarding the control:
    # Kraus E1 = |0><11|, E2 = |1><10|.
    e1 = np.outer(KET0, kron_vec(KET1, KET1).conj())
    e2 = np.outer(KET1, kron_vec(KET1, KET0).conj())
    op = Operation(4, 2, (e1, e2))
    rho10 = proj(kron_vec(KET1, KET0))
    out = apply_operation(op, rho10)
    assert np.abs(out - proj(KET1)).max() < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-12
    # on |00><00| the operation never fires
    out0 = apply_operation(op, proj(kron_vec(KET0, KET0)))
    assert np.abs(out0 - kraus_sum_oracle(op.kraus, proj(kron_vec(KET0, KET0)))).max() < 1e-12
    assert np.abs(out0).max() < 1e-12


def kron_vec(a, b):
    return np.kron(a, b)


def test_apply_operation_linearity():
    rng = np.random.default_rng(0)
    op = rand_operation(2, 3, 4, rng)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = a + a.conj().T
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = b + b.conj().T
    alpha = 0.37
    lhs = kraus_sum_oracle(op.kraus, alpha * a + b)
    rhs = alpha * kraus_sum_oracle(op.kraus, a) + kraus_sum_oracle(op.kraus, b)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_choi_transposed_of_identity_channel():
    op = Operation(2, 2, (ID2,))
    choi = choi_of_operation(op)
    # |1>><<1| = sum_{jk} |jj><kk|
    expected = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            expected[j * 2 + j, k * 2 + k] = 1.0
    assert np.abs(choi.matrix - expected).max() < 1e-12


def test_choi_of_unitary_is_rank_one():
    rng = np.random.default_rng(1)
    u = rand_unitary(2, rng)
    choi = choi_of_operation(Operation(2, 2, (u,)))
    w, _ = hermitian_eigen(choi.matrix)
    assert np.sum(w > 1e-9) == 1
    assert abs(w[-1] - 2.0) < 1e-9  # squared norm of the Choi vector |U*>>


@pytest.mark.parametrize("d, shape", [(2, (3,)), (3, (2, 4))])
def test_rand_unitary_stack_draws_as_one_call_per_member(d, shape):
    rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
    stack = rand_unitary(d, rng, shape)
    assert stack.shape == (*shape, d, d) and is_unitary(stack)
    members = [rand_unitary(d, ref_rng) for _ in np.ndindex(shape)]
    assert np.array_equal(stack, np.reshape(members, stack.shape))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_choi_of_trace_operation_is_identity():
    # d_out = 1, Kraus operators are orthonormal bras <v_k|
    rng = np.random.default_rng(2)
    u = rand_unitary(3, rng)
    kraus = tuple(u[:, k].conj().reshape(1, 3) for k in range(3))
    op = Operation(3, 1, kraus)
    # explicit summation oracle: sum_k |v_k><v_k| reshaped to H_in
    expected = sum(np.outer(u[:, k], u[:, k].conj()) for k in range(3))
    choi = choi_of_operation(op)
    assert np.abs(choi.matrix - expected).max() < 1e-9
    assert np.abs(choi.matrix - np.eye(3)).max() < 1e-9


def test_trace_of_choi_equals_d_in():
    rng = np.random.default_rng(3)
    for d_in, d_out in [(2, 2), (3, 2), (2, 4)]:
        op = rand_cptp(d_in, d_out, 3, rng)
        choi = choi_of_operation(op)
        assert abs(np.trace(choi.matrix) - d_in) < 1e-9


def test_apply_choi_identity_and_bit_flip():
    ident = choi_of_operation(Operation(2, 2, (ID2,)))
    rng = np.random.default_rng(4)
    rho = rand_density(2, rng)
    assert np.abs(apply_choi(ident, rho) - rho).max() < 1e-12
    flip = choi_of_operation(Operation(2, 2, (PAULI_X,)))
    assert np.abs(apply_choi(flip, proj(KET0)) - proj(KET1)).max() < 1e-12


class Convention(enum.Enum):
    """How a test builds a Choi matrix. PLAIN: the textbook
    J = sum_ab |a><b| (x) E(|a><b|), from the operation's action alone, handed
    to ChoiOperator as J^T. TRANSPOSED: choi_of_operation."""

    PLAIN = "plain"
    TRANSPOSED = "transposed"


def textbook_choi(op):
    j = np.zeros((op.d_in * op.d_out,) * 2, dtype=complex)
    for a in range(op.d_in):
        for b in range(op.d_in):
            unit = np.zeros((op.d_in, op.d_in), dtype=complex)
            unit[a, b] = 1.0
            j += kron(unit, apply_operation(op, unit))
    return j


def choi_built(op, convention):
    if convention is Convention.PLAIN:
        return ChoiOperator(op.d_in, op.d_out, textbook_choi(op).T)
    return choi_of_operation(op)


@pytest.mark.parametrize("convention", list(Convention))
def test_apply_choi_round_trip_random(convention):
    rng = np.random.default_rng(5)
    op = rand_operation(2, 2, 3, rng)
    choi = choi_built(op, convention)
    worst = 0.0
    for _ in range(20):
        rho = rand_density(2, rng)
        dev = np.abs(apply_choi(choi, rho) - apply_operation(op, rho)).max()
        worst = max(worst, dev)
    assert worst < 1e-9


def test_kraus_from_choi_identity_channel():
    choi = choi_of_operation(Operation(2, 2, (ID2,)))
    op = kraus_from_choi(choi)
    assert len(op.kraus) == 1
    e = op.kraus[0]
    assert np.abs(e @ dagger(e) - np.eye(2)).max() < 1e-9  # proportional to unitary


def test_kraus_from_choi_depolarizing_rank_four():
    # completely depolarizing channel rho -> 1/2: its Choi is 1_4 / 2
    choi = ChoiOperator(2, 2, np.eye(4) / 2)
    op = kraus_from_choi(choi)
    assert len(op.kraus) == 4
    rng = np.random.default_rng(6)
    rho = rand_density(2, rng)
    assert np.abs(apply_operation(op, rho) - ID2 / 2).max() < 1e-9


def test_kraus_from_choi_orthogonality_and_rank():
    rng = np.random.default_rng(7)
    for k in (1, 2, 4):
        op = rand_cptp(2, 2, k, rng)
        choi = choi_of_operation(op)
        w, _ = hermitian_eigen(choi.matrix)
        extracted = kraus_from_choi(choi)
        assert len(extracted.kraus) == int(np.sum(w > 1e-9))
        lams = sorted(w[w > 1e-9])
        for i, ei in enumerate(extracted.kraus):
            for j, ej in enumerate(extracted.kraus):
                want = lams[i] if i == j else 0.0
                assert abs(np.trace(ei @ dagger(ej)) - want) < 1e-9
        rho = rand_density(2, rng)
        assert np.abs(apply_operation(extracted, rho) - apply_choi(choi, rho)).max() < 1e-9


_U9 = rand_unitary(2, np.random.default_rng(9))
DEGENERATE_CHANNELS = {
    # completely depolarizing: Choi 1_4 / 2, one eigenvalue four times over
    "depolarizing": ((ID2 / 2, PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2), 4),
    # Tr(U^dag U Z) = 0, so the Choi spectrum is (0, 0, 1, 1)
    "rank2-equal-weights": ((_U9 / np.sqrt(2), _U9 @ PAULI_Z / np.sqrt(2)), 2),
}


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("name", list(DEGENERATE_CHANNELS))
def test_kraus_from_choi_degenerate_spectrum_roundtrip(convention, name):
    # Eigenvectors of a degenerate eigenvalue are fixed only up to a unitary
    # mixing, so only Kraus-invariant quantities are compared.
    kraus, rank = DEGENERATE_CHANNELS[name]
    op = Operation(2, 2, kraus)
    choi = choi_built(op, convention)
    extracted = kraus_from_choi(choi)
    assert len(extracted.kraus) == rank
    assert close(sum(dagger(e) @ e for e in extracted.kraus), ID2)
    rebuilt = choi_of_operation(extracted)
    assert np.abs(rebuilt.matrix - choi.matrix).max() < 1e-9


def test_choi_rejects_non_cp():
    with pytest.raises(ValueError):
        ChoiOperator(2, 2, kron(PAULI_Z, ID2))


def test_stinespring_unitary_channel():
    rng = np.random.default_rng(8)
    u = rand_unitary(2, rng)
    dil = stinespring_dilation(Operation(2, 2, (u,)))
    assert dil.env_dim == 1
    assert dil.projector is None
    assert np.abs(dil.unitary - u).max() < 1e-9


def test_stinespring_projective_measurement_element():
    op = Operation(2, 2, (proj(KET0),))
    dil = stinespring_dilation(op)
    assert dil.env_dim == 2
    for rho in (proj(KET0), proj(KET1), ID2 / 2, proj((KET0 + 1j * KET1) / np.sqrt(2))):
        assert np.abs(dil.apply(rho) - apply_operation(op, rho)).max() < 1e-9


def test_stinespring_open_system_kraus():
    # E_{kn} = sqrt(sigma_n) <k| P U |n>_E built directly, then re-dilated.
    rng = np.random.default_rng(9)
    u = rand_unitary(4, rng)
    sigma = np.diag([0.75, 0.25]).astype(complex)
    p = kron(proj(KET0), ID2)
    pu = p @ u
    kraus = []
    for k in range(2):
        for n in range(2):
            bra_k = np.kron(np.eye(2), KET0 if k == 0 else KET1)  # <k| on env
            ket_n = np.kron(np.eye(2), (KET0 if n == 0 else KET1).reshape(2, 1))
            block = bra_k @ pu @ ket_n
            kraus.append(np.sqrt(sigma[n, n].real) * block)
    op = Operation(2, 2, tuple(kraus))

    # oracle: Tr_E[P U (rho (x) sigma) U^dag P]
    from switchlab.linalg import partial_trace

    dil = stinespring_dilation(op)
    for _ in range(5):
        rho = rand_density(2, rng)
        want = partial_trace(pu @ kron(rho, sigma) @ dagger(pu), (2, 2), keep=(0,))
        assert np.abs(apply_operation(op, rho) - want).max() < 1e-9
        assert np.abs(dil.apply(rho) - want).max() < 1e-9


def test_stinespring_unitarity_and_dims():
    rng = np.random.default_rng(10)
    for d_in, d_out, k in [(2, 2, 3), (2, 3, 2), (3, 2, 2)]:
        op = rand_operation(d_in, d_out, k, rng)
        dil = stinespring_dilation(op)
        d = dil.unitary.shape[0]
        assert np.abs(dagger(dil.unitary) @ dil.unitary - np.eye(d)).max() < 1e-9
        # reconstruction over a full operator basis of the input space
        for i in range(d_in):
            for j in range(d_in):
                basis = np.zeros((d_in, d_in), dtype=complex)
                basis[i, j] = 1.0
                assert np.abs(dil.apply(basis) - apply_operation(op, basis)).max() < 1e-9


def test_rand_instrument_is_complete():
    rng = np.random.default_rng(13)
    instr = rand_instrument(2, 2, 3, rng)
    assert len(instr) == 3
    assert close(sum(dagger(e) @ e for op in instr for e in op.kraus), np.eye(2))


def test_full_round_trip_sweep():
    # Choi <-> Kraus <-> Choi across 100 random operations, action-level check.
    rng = np.random.default_rng(14)
    worst = 0.0
    for i in range(100):
        d_in, d_out = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        k_min = -(-d_in // d_out)
        k = int(rng.integers(k_min, d_in * d_out + 1))
        op = rand_cptp(d_in, d_out, k, rng) if i % 2 else rand_operation(d_in, d_out, k, rng)
        choi = choi_of_operation(op)
        rebuilt = kraus_from_choi(choi)
        choi2 = choi_of_operation(rebuilt)
        assert np.abs(choi.matrix - choi2.matrix).max() < 1e-9
        rho = rand_density(d_in, rng)
        dev = np.abs(apply_operation(rebuilt, rho) - apply_operation(op, rho)).max()
        worst = max(worst, dev)
    assert worst < 1e-9


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ChoiOperator(0, 2, np.zeros((0, 0))), "ChoiOperator dims (0, 2)"),
        (lambda: Operation(0, 2, (np.zeros((2, 0)),)), "Operation dims (0, 2)"),
        (lambda: Operation(2, 0, (np.zeros((0, 2)),)), "Operation dims (2, 0)"),
        (lambda: rand_cptp(0, 2, 1, np.random.default_rng(0)), "Operation dims (0, 2)"),
    ],
    ids=["choi-zero-input", "operation-zero-input", "operation-zero-output", "rand-cptp-zero-input"],
)
def test_operation_dims_are_positive(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@settings(max_examples=80, deadline=None)
@given(
    d_in=st.integers(1, 3),
    d_out=st.integers(1, 3),
    rank=st.integers(1, 4),
    sampler=st.sampled_from([rand_cptp, rand_operation]),
    seed=st.integers(0, 2**32 - 1),
)
def test_choi_kraus_round_trip(d_in, d_out, rank, sampler, seed):
    # Choi -> Kraus acts as the sampled operation, with one Kraus operator per
    # Choi eigenvalue above DEFAULT_TOL, and the Choi acts the same way.
    assume(d_out * rank >= d_in)
    rng = np.random.default_rng(seed)
    op = sampler(d_in, d_out, rank, rng)
    choi = choi_of_operation(op)
    rebuilt = kraus_from_choi(choi)
    assert len(rebuilt.kraus) == np.sum(np.linalg.eigvalsh(choi.matrix) > DEFAULT_TOL)
    rho = rand_density(d_in, rng)
    want = apply_operation(op, rho)
    assert np.abs(apply_operation(rebuilt, rho) - want).max() < 1e-9
    assert np.abs(apply_choi(choi, rho) - want).max() < 1e-9


@settings(max_examples=120, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    sampler=st.sampled_from([rand_cptp, rand_operation]),
    seed=st.integers(0, 2**32 - 1),
)
def test_is_cptp_decides_as_the_partial_trace(dims, sampler, seed):
    # rand_operation scales a CPTP map by a weight in [sqrt 0.2, 1): trace-decreasing.
    d_in, d_out = dims
    choi = choi_of_operation(sampler(d_in, d_out, 2, np.random.default_rng(seed)))
    want = close(partial_trace(choi.matrix, dims, keep=(0,)), np.eye(d_in))
    assert choi.is_cptp() is want
    if sampler is rand_cptp:
        assert want


def test_operation_kraus_is_one_read_only_stack():
    source = [np.array(e) for e in rand_cptp(2, 3, 2, np.random.default_rng(40)).kraus]
    op = Operation(2, 3, source)
    assert op.kraus.shape == (2, 3, 2) and op.kraus.dtype == complex
    assert np.array_equal(op.kraus, source)
    assert not any(np.shares_memory(op.kraus, e) for e in source)
    with pytest.raises(ValueError, match="read-only"):
        op.kraus[1, 0, 0] = 0.0
    with pytest.raises(ValueError, match="WRITEABLE"):
        op.kraus.setflags(write=True)
    # The samplers build from such a stack: rand_operation scales a rand_cptp
    # stack, and rand_instrument cuts one into single-Kraus operations.
    rng = np.random.default_rng(41)
    cptp = rand_cptp(2, 3, 2, rng).kraus
    scale = np.sqrt(rng.uniform(0.2, 1.0))
    assert np.array_equal(rand_operation(2, 3, 2, np.random.default_rng(41)).kraus, scale * cptp)
    instrument = rand_instrument(2, 3, 2, np.random.default_rng(41))
    assert np.array_equal(np.concatenate([member.kraus for member in instrument]), cptp)
    assert not any(member.kraus.flags.writeable for member in instrument)


@pytest.mark.parametrize(
    "kraus, message",
    [
        ((), "operation needs at least one Kraus operator"),
        ((np.eye(2) / 2, np.eye(3) / 2), "Kraus operator shape (3, 3) != (2, 2)"),
        ((np.ones((2, 3)) / 3, np.ones((2, 3)) / 3), "Kraus operator shape (2, 3) != (2, 2)"),
        ((np.full((2, 2), np.nan),), "matrix is not Hermitian within tolerance"),
    ],
    ids=["empty", "ragged", "wrong-shape", "nan"],
)
def test_operation_names_a_malformed_family(kraus, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Operation(2, 2, kraus)


@settings(max_examples=150, deadline=None)
@given(
    d_in=st.integers(1, 3),
    d_out=st.integers(1, 3),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    # the largest eigenvalue of sum E^dag E is 1 + excess * DEFAULT_TOL
    excess=st.sampled_from([-1.0, 1.0]).flatmap(lambda s: st.floats(1e-3, 1.0).map(lambda f: 1.0 + s * f)),
)
def test_trace_nonincreasing_decision_matches_the_per_operator_gram(d_in, d_out, rank, seed, excess):
    # The stacked gram V^dag V and the per-operator sum differ by roundoff
    # only, well inside the margin of 1e-12 from the boundary kept here.
    assume(d_out * rank >= d_in)
    rng = np.random.default_rng(seed)
    scale = np.concatenate([[np.sqrt(1.0 + excess * DEFAULT_TOL)], rng.uniform(0.2, 1.0, d_in - 1)])
    kraus = [e * scale for e in rand_cptp(d_in, d_out, rank, rng).kraus]
    want = is_psd(np.eye(d_in) - sum(dagger(e) @ e for e in kraus))
    assert want is (excess < 1.0)
    try:
        Operation(d_in, d_out, kraus)
        got = True
    except ValueError as exc:
        assert str(exc) == "Kraus family is trace-increasing: sum E^dag E > 1"
        got = False
    assert got is want


def reference_choi_matrix(kraus):
    """The per-operator sum that choi_of_operation stacks, transposed:
    [0 + |E_0>><<E_0| + ...]^T"""
    m = 0
    for e in kraus:
        v = e.T.reshape(-1)
        m = m + np.outer(v, v.conj())
    return m.T


@settings(max_examples=80, deadline=None)
@given(
    d_in=st.integers(1, 3),
    d_out=st.integers(1, 3),
    rank=st.integers(1, 4),
    sampler=st.sampled_from([rand_cptp, rand_operation]),
    seed=st.integers(0, 2**32 - 1),
)
def test_choi_of_operation_equals_the_per_operator_sum_bit_for_bit(d_in, d_out, rank, sampler, seed):
    # The stacked outer products are added in the family's order; only the
    # sign of an exact zero may differ (the loop's 0 + x), which array_equal
    # does not see. A sum over the Kraus axis fails here: at d_in = d_out = 1
    # it reorders the additions.
    assume(d_out * rank >= d_in)
    op = sampler(d_in, d_out, rank, np.random.default_rng(seed))
    assert np.array_equal(choi_of_operation(op).matrix, reference_choi_matrix(op.kraus))


def per_eigenpair_kraus(choi):
    """The loop kraus_from_choi stacks: one operator sqrt(lam) E per
    eigenvalue above DEFAULT_TOL, in ascending order, or one zero operator."""
    w, v = hermitian_eigen(choi.matrix.T)
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam > DEFAULT_TOL:
            kraus.append(np.sqrt(lam) * vec.reshape(choi.d_in, choi.d_out).T)
    return np.array(kraus or [np.zeros((choi.d_out, choi.d_in), dtype=complex)])


@settings(max_examples=80, deadline=None)
@given(
    d_in=st.integers(1, 4),
    d_out=st.integers(1, 4),
    rank=st.integers(1, 4),
    sampler=st.sampled_from([rand_cptp, rand_operation]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kraus_from_choi_equals_the_per_eigenpair_loop_bit_for_bit(d_in, d_out, rank, sampler, seed):
    # The masked eigenpairs scale and transpose each entry as the loop did,
    # so the stack keeps every bit of the operators the loop built.
    assume(d_out * rank >= d_in)
    choi = choi_of_operation(sampler(d_in, d_out, rank, np.random.default_rng(seed)))
    assert np.array_equal(kraus_from_choi(choi).kraus, per_eigenpair_kraus(choi))


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (2, 3), (3, 2)])
def test_kraus_from_choi_of_the_zero_map_is_one_zero_operator(d_in, d_out):
    op = kraus_from_choi(ChoiOperator(d_in, d_out, np.zeros((d_in * d_out,) * 2)))
    assert op.kraus.shape == (1, d_out, d_in) and not op.kraus.any()


def per_operator_dilation(op):
    """(unitary, env_dim, projector) of the per-operator construction that
    stinespring_dilation stacks: each Kraus operator padded in turn, the
    defect summed operator by operator and the complement columns listed."""
    d_sys = max(op.d_in, op.d_out)
    padded = []
    for e in op.kraus:
        p = np.zeros((d_sys, d_sys), dtype=complex)
        p[: op.d_out, : op.d_in] = e
        padded.append(p)
    defect = np.eye(d_sys) - sum(dagger(p) @ p for p in padded)
    needs_completion = not close(defect, 0)
    if needs_completion:
        w, v = hermitian_eigen(defect)
        padded.append((v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v))
    k = len(padded)
    n_phys = k - 1 if needs_completion else k
    v = np.zeros((d_sys * k, d_sys), dtype=complex)
    for i, p in enumerate(padded):
        v[i::k, :] = p
    u = np.zeros((d_sys * k,) * 2, dtype=complex)
    u[:, ::k] = v
    u[:, [j for j in range(d_sys * k) if j % k != 0]] = np.linalg.qr(v, mode="complete")[0][:, d_sys:]
    projector = None
    if needs_completion or op.d_out < d_sys:
        sys_proj = np.zeros((d_sys, d_sys))
        sys_proj[: op.d_out, : op.d_out] = np.eye(op.d_out)
        env_proj = np.zeros((k, k))
        env_proj[:n_phys, :n_phys] = np.eye(n_phys)
        projector = kron(sys_proj, env_proj)
    return u, k, projector


def per_operator_dilation_apply(u, k, projector, d_in, d_out, rho):
    # rho padded to the system register, |0><0| on the environment, U, P, Tr_E.
    d_sys = max(d_in, d_out)
    big = np.zeros((d_sys, d_sys), dtype=complex)
    big[:d_in, :d_in] = rho
    env0 = np.zeros((k, k))
    env0[0, 0] = 1.0
    joint = u @ kron(big, env0) @ dagger(u)
    if projector is not None:
        joint = projector @ joint @ projector
    return partial_trace(joint, (d_sys, k), keep=(0,))[:d_out, :d_out]


@settings(max_examples=80, deadline=None)
@given(
    dims=st.sampled_from([(1, 2), (2, 3), (1, 4), (2, 1), (3, 2), (4, 3)]),
    rank=st.integers(1, 4),
    weight=st.just(1.0) | st.floats(0.3, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_dilation_and_apply_equal_the_per_operator_construction(dims, rank, weight, seed):
    # d_out > d_in and d_out < d_in, for CPTP maps (weight 1) and maps scaled
    # to be trace-decreasing. The stacked products reorder only roundoff. The
    # completion is the square root of the defect, which amplifies roundoff
    # on its eigenvalues near 0 in either construction: those of a weight near
    # 1 are left out, and so is the unitary of a CPTP map with d_out > d_in,
    # whose completion on the unused inputs is roundoff elsewhere. The
    # projector drops the completion from both outputs.
    d_in, d_out = dims
    assume(d_out * rank >= d_in)
    rng = np.random.default_rng(seed)
    op = Operation(d_in, d_out, weight * rand_cptp(d_in, d_out, rank, rng).kraus)
    dil = stinespring_dilation(op)
    u, k, projector = per_operator_dilation(op)
    assert dil.env_dim == k
    assert (dil.projector is None and projector is None) or np.array_equal(dil.projector, projector)
    if weight < 1.0 or d_out < d_in:
        assert np.abs(dil.unitary - u).max() < 1e-14
    rho = rand_density(d_in, rng)
    assert np.abs(apply_operation(op, rho) - kraus_sum_oracle(op.kraus, rho)).max() < 1e-14
    assert np.abs(dil.apply(rho) - per_operator_dilation_apply(u, k, projector, d_in, d_out, rho)).max() < 1e-14
