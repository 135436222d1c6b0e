import numpy as np
import pytest

from switchlab.linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, dagger, hermitian_eigen, kron
from switchlab.ops import (
    ChoiOperator,
    Convention,
    Instrument,
    Operation,
    TOMO_DUALS,
    TOMO_STATES,
    apply_choi,
    apply_operation,
    choi_of_operation,
    choi_vector_of_unitary,
    kraus_from_choi,
    rand_cptp,
    rand_density,
    rand_instrument,
    rand_operation,
    rand_unitary,
    stinespring_dilation,
    tomographic_apply,
    validate_instrument,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)


def proj(v):
    return np.outer(v, v.conj())


def kraus_sum_oracle(kraus, rho):
    return sum(e @ rho @ dagger(e) for e in kraus)


def test_apply_operation_bit_flip():
    op = Operation.from_unitary(PAULI_X)
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
    op = Operation.from_unitary(ID2)
    choi = choi_of_operation(op, Convention.TRANSPOSED)
    # |1>><<1| = sum_{jk} |jj><kk|
    expected = np.zeros((4, 4), dtype=complex)
    for j in range(2):
        for k in range(2):
            expected[j * 2 + j, k * 2 + k] = 1.0
    assert np.abs(choi.matrix - expected).max() < 1e-12


def test_choi_plain_of_unitary_is_rank_one():
    rng = np.random.default_rng(1)
    u = rand_unitary(2, rng)
    choi = choi_of_operation(Operation.from_unitary(u), Convention.PLAIN)
    w, _ = hermitian_eigen(choi.matrix)
    assert np.sum(w > 1e-9) == 1
    assert abs(w[-1] - 2.0) < 1e-9  # squared norm of (1 (x) U)|1>>


def test_choi_of_trace_operation_is_identity():
    # d_out = 1, Kraus operators are orthonormal bras <v_k|
    rng = np.random.default_rng(2)
    u = rand_unitary(3, rng)
    kraus = tuple(u[:, k].conj().reshape(1, 3) for k in range(3))
    op = Operation(3, 1, kraus)
    # explicit summation oracle: sum_k |v_k><v_k| reshaped to H_in
    expected = sum(np.outer(u[:, k], u[:, k].conj()) for k in range(3))
    for convention in Convention:
        choi = choi_of_operation(op, convention)
        assert np.abs(choi.matrix - expected).max() < 1e-9
        assert np.abs(choi.matrix - np.eye(3)).max() < 1e-9


def test_trace_of_plain_choi_equals_d_in():
    rng = np.random.default_rng(3)
    for d_in, d_out in [(2, 2), (3, 2), (2, 4)]:
        op = rand_cptp(d_in, d_out, 3, rng)
        choi = choi_of_operation(op, Convention.PLAIN)
        assert abs(np.trace(choi.matrix) - d_in) < 1e-9


def test_apply_choi_identity_and_bit_flip():
    ident = choi_of_operation(Operation.from_unitary(ID2), Convention.TRANSPOSED)
    rng = np.random.default_rng(4)
    rho = rand_density(2, rng)
    assert np.abs(apply_choi(ident, rho) - rho).max() < 1e-12
    flip = choi_of_operation(Operation.from_unitary(PAULI_X), Convention.TRANSPOSED)
    assert np.abs(apply_choi(flip, proj(KET0)) - proj(KET1)).max() < 1e-12


@pytest.mark.parametrize("convention", list(Convention))
def test_apply_choi_round_trip_random(convention):
    rng = np.random.default_rng(5)
    op = rand_operation(2, 2, 3, rng)
    choi = choi_of_operation(op, convention)
    worst = 0.0
    for _ in range(20):
        rho = rand_density(2, rng)
        dev = np.abs(apply_choi(choi, rho) - apply_operation(op, rho)).max()
        worst = max(worst, dev)
    assert worst < 1e-9


def test_kraus_from_choi_identity_channel():
    choi = choi_of_operation(Operation.from_unitary(ID2), Convention.TRANSPOSED)
    op = kraus_from_choi(choi)
    assert len(op.kraus) == 1
    e = op.kraus[0]
    assert np.abs(e @ dagger(e) - np.eye(2)).max() < 1e-9  # proportional to unitary


def test_kraus_from_choi_depolarizing_rank_four():
    # completely depolarizing channel rho -> 1/2: TRANSPOSED Choi is 1_4 / 2
    choi = ChoiOperator(2, 2, np.eye(4) / 2, Convention.TRANSPOSED)
    op = kraus_from_choi(choi)
    assert len(op.kraus) == 4
    rng = np.random.default_rng(6)
    rho = rand_density(2, rng)
    assert np.abs(apply_operation(op, rho) - ID2 / 2).max() < 1e-9


def test_kraus_from_choi_orthogonality_and_rank():
    rng = np.random.default_rng(7)
    for k in (1, 2, 4):
        op = rand_cptp(2, 2, k, rng)
        choi = choi_of_operation(op, Convention.TRANSPOSED)
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
    choi = choi_of_operation(op, convention)
    extracted = kraus_from_choi(choi)
    assert len(extracted.kraus) == rank
    assert extracted.is_trace_preserving()
    rebuilt = choi_of_operation(extracted, convention)
    assert np.abs(rebuilt.matrix - choi.matrix).max() < 1e-9


def test_choi_rejects_non_cp():
    with pytest.raises(ValueError):
        ChoiOperator(2, 2, kron(PAULI_Z, ID2), Convention.TRANSPOSED)


def test_choi_vector_of_unitary():
    assert np.abs(choi_vector_of_unitary(ID2) - np.array([1, 0, 0, 1])).max() < 1e-12
    assert np.abs(choi_vector_of_unitary(PAULI_X) - np.array([0, 1, 1, 0])).max() < 1e-12
    # entrywise conjugation oracle: sigma_y* = -sigma_y, so
    # |sigma_y*>> = -sum_k |k> sigma_y|k> = (0, -i, +i, 0)
    expected = np.array([0, -1j, 1j, 0])
    assert np.abs(choi_vector_of_unitary(PAULI_Y) - expected).max() < 1e-12
    with pytest.raises(ValueError):
        choi_vector_of_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


def test_stinespring_unitary_channel():
    rng = np.random.default_rng(8)
    u = rand_unitary(2, rng)
    dil = stinespring_dilation(Operation.from_unitary(u))
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


def test_tomographic_duality_relations():
    for i, dual in enumerate(TOMO_DUALS):
        for j, state in enumerate(TOMO_STATES):
            want = 1.0 if i == j else 0.0
            assert abs(np.trace(dagger(dual) @ state) - want) < 1e-12


def test_tomographic_identity_reconstruction():
    rng = np.random.default_rng(11)
    rho = rand_density(2, rng)
    assert np.abs(tomographic_apply(TOMO_STATES, rho) - rho).max() < 1e-9


def test_tomographic_sigma_z_conjugation():
    images = tuple(PAULI_Z @ r @ PAULI_Z for r in TOMO_STATES)
    got = tomographic_apply(images, PAULI_X)
    assert np.abs(got - (-PAULI_X)).max() < 1e-9


def test_tomographic_matches_random_operation():
    rng = np.random.default_rng(12)
    op = rand_operation(2, 2, 3, rng)
    images = tuple(apply_operation(op, r) for r in TOMO_STATES)
    a = rand_density(2, rng)
    assert np.abs(tomographic_apply(images, a) - apply_operation(op, a)).max() < 1e-9


def test_validate_instrument():
    projective = Instrument(2, 2, (Operation(2, 2, (proj(KET0),)), Operation(2, 2, (proj(KET1),))))
    assert validate_instrument(projective)
    unitary = Instrument(2, 2, (Operation.from_unitary(PAULI_X),))
    assert validate_instrument(unitary)
    incomplete = Instrument(2, 2, (Operation(2, 2, (proj(KET0),)),))
    assert not validate_instrument(incomplete)


def test_rand_instrument_is_complete():
    rng = np.random.default_rng(13)
    instr = rand_instrument(2, 2, 3, rng)
    assert validate_instrument(instr)


def test_full_round_trip_sweep():
    # Choi <-> Kraus <-> Choi across 100 random operations, action-level check.
    rng = np.random.default_rng(14)
    worst = 0.0
    for i in range(100):
        d_in, d_out = int(rng.choice([2, 3])), int(rng.choice([2, 3]))
        k_min = -(-d_in // d_out)
        k = int(rng.integers(k_min, d_in * d_out + 1))
        op = rand_cptp(d_in, d_out, k, rng) if i % 2 else rand_operation(d_in, d_out, k, rng)
        convention = Convention.TRANSPOSED if i % 3 else Convention.PLAIN
        choi = choi_of_operation(op, convention)
        rebuilt = kraus_from_choi(choi)
        choi2 = choi_of_operation(rebuilt, convention)
        assert np.abs(choi.matrix - choi2.matrix).max() < 1e-9
        rho = rand_density(d_in, rng)
        dev = np.abs(apply_operation(rebuilt, rho) - apply_operation(op, rho)).max()
        worst = max(worst, dev)
    assert worst < 1e-9
