import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchlab import linalg, process
from switchlab.agents import AgentAmplitudes
from switchlab.linalg import (
    DEFAULT_TOL,
    ID2,
    NORMALIZATION_TOL,
    PAULI_X,
    PAULI_Z,
    hermitian_eigen,
    kron,
)
from switchlab.ops import (
    ChoiOperator,
    Operation,
    apply_operation,
    choi_of_operation,
    rand_cptp,
    rand_density,
    rand_instrument,
    rand_operation,
)
from switchlab.order import ocb_strategy, success_probability
from switchlab.process import (
    ProcessMatrix,
    ValidationReport,
    causal_mixture,
    channel_process,
    channel_process_reverse,
    hs_basis,
    hs_decompose,
    hs_reconstruct,
    no_signaling_a_to_b,
    no_signaling_b_to_a,
    ocb_process,
    probability,
    validate_process,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


@pytest.fixture
def proof_shapes(monkeypatch):
    """The shape of each matrix, or stack, given a positivity proof from the
    start of the test on."""
    shapes = []
    low_eigenvalue = linalg._low_eigenvalue

    def counted(m):
        shapes.append(np.shape(m))
        return low_eigenvalue(m)

    monkeypatch.setattr(linalg, "_low_eigenvalue", counted)
    return shapes


def effect_choi(p):
    # POVM element as a d_out = 1 instrument-element Choi.
    return ChoiOperator(p.shape[0], 1, p)


def permuted(m, dims, perm):
    """`m` with its tensor factors `dims` reordered, factor perm[i] to position i."""
    k = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2).transpose(*perm, *(k + p for p in perm))
    return t.reshape(np.shape(m))


def shared_state_process(rho, dims):
    """The process of a shared state, W = rho^{A_in B_in} (x) 1^{A_out B_out}."""
    d_a_in, d_a_out, d_b_in, d_b_out = dims
    w = kron(rho, np.eye(d_a_out * d_b_out))
    return ProcessMatrix(dims, permuted(w, (d_a_in, d_b_in, d_a_out, d_b_out), (0, 2, 1, 3)))


def test_state_process_maximally_mixed():
    w = shared_state_process(np.eye(4) / 4, (2, 2, 2, 2))
    assert np.abs(w.matrix - np.eye(16) / 4).max() < 1e-12


def test_state_process_born_rule_bell_state():
    # With no outputs, W is the state itself.
    rho = proj(BELL)
    w = ProcessMatrix((2, 1, 2, 1), rho)
    for za in range(2):
        for zb in range(2):
            pa = proj(KET0) if za == 0 else proj(KET1)
            pb = proj(KET0) if zb == 0 else proj(KET1)
            got = probability(w, effect_choi(pa), effect_choi(pb))
            want = np.trace(kron(pa, pb) @ rho).real  # Born-rule oracle
            assert abs(got - want) < 1e-12
            assert abs(got - (0.5 if za == zb else 0.0)) < 1e-12


def test_state_process_product_state_deterministic():
    w = ProcessMatrix((2, 1, 2, 1), proj(np.kron(KET0, KET0)))
    p00 = probability(w, effect_choi(proj(KET0)), effect_choi(proj(KET0)))
    assert abs(p00 - 1.0) < 1e-12


def sequential_probability(m_op, channel, n_op, rho_b):
    """Direct composition oracle: Tr[M_i(C(N_j(rho)))]."""
    out_b = apply_operation(n_op, rho_b)
    into_a = apply_operation(channel, out_b)
    return np.trace(apply_operation(m_op, into_a)).real


@pytest.mark.parametrize("seed", [0, 1])
def test_channel_process_matches_direct_composition(seed):
    rng = np.random.default_rng(seed)
    channel = rand_cptp(2, 2, 2, rng)
    rho_b = rand_density(2, rng)
    w = channel_process(rho_b, choi_of_operation(channel))
    worst = 0.0
    for _ in range(25):
        alice = rand_instrument(2, 2, 2, rng)
        bob = rand_instrument(2, 2, 2, rng)
        for m_op in alice:
            for n_op in bob:
                got = probability(w, choi_of_operation(m_op), choi_of_operation(n_op))
                want = sequential_probability(m_op, channel, n_op, rho_b)
                worst = max(worst, abs(got - want))
    assert worst < 1e-9


def test_channel_process_identity_channel():
    rng = np.random.default_rng(2)
    from switchlab.ops import Operation

    ident = Operation(2, 2, (ID2,))
    w = channel_process(proj(KET0), choi_of_operation(ident))
    for _ in range(50):
        m_op = rand_instrument(2, 2, 2, rng)[0]
        n_op = rand_instrument(2, 2, 2, rng)[0]
        got = probability(w, choi_of_operation(m_op), choi_of_operation(n_op))
        want = sequential_probability(m_op, ident, n_op, proj(KET0))
        assert abs(got - want) < 1e-9


def test_channel_process_depolarizing_hides_bob():
    # Alice's marginal is uniform no matter what Bob does.
    rng = np.random.default_rng(3)
    depol_kraus = tuple(m / 2 for m in (np.eye(2), PAULI_X, 1j * PAULI_X @ PAULI_Z, PAULI_Z))
    from switchlab.ops import Operation

    depol = Operation(2, 2, depol_kraus)
    w = channel_process(rand_density(2, rng), choi_of_operation(depol))
    alice_povm = [proj(KET0), proj(KET1)]
    for _ in range(5):
        bob = rand_instrument(2, 2, 2, rng)
        for pa in alice_povm:
            # Alice measures pa, then reprepares the maximally mixed state.
            m = ChoiOperator(2, 2, kron(pa, ID2 / 2))
            marginal = sum(
                probability(w, m, choi_of_operation(n_op)) for n_op in bob
            )
            assert abs(marginal - 0.5) < 1e-9


def test_full_instruments_give_total_probability_one():
    rng = np.random.default_rng(4)
    channel = rand_cptp(2, 2, 3, rng)
    w = channel_process(rand_density(2, rng), choi_of_operation(channel))
    alice = rand_instrument(2, 2, 2, rng)
    bob = rand_instrument(2, 2, 3, rng)
    total = sum(
        probability(w, choi_of_operation(m), choi_of_operation(n))
        for m in alice
        for n in bob
    )
    assert abs(total - 1.0) < 1e-8


def test_probability_is_bilinear():
    rng = np.random.default_rng(5)
    w = ocb_process()
    m1 = choi_of_operation(rand_cptp(2, 2, 2, rng))
    m2 = choi_of_operation(rand_cptp(2, 2, 2, rng))
    n = choi_of_operation(rand_cptp(2, 2, 2, rng))
    lam = 0.3
    mix = ChoiOperator(2, 2, lam * m1.matrix + (1 - lam) * m2.matrix)
    lhs = probability(w, mix, n)
    rhs = lam * probability(w, m1, n) + (1 - lam) * probability(w, m2, n)
    assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 3, 3), (3, 4, 2, 1)], ids=str)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), samples=st.integers(1, 130))
def test_realigned_rule_equals_the_written_out_trace(dims, seed, samples):
    # The rule scores vec(M^T)^T R(W) vec(N^T), with R(W) an (n_A^2, n_B^2)
    # matrix, square only when both sides match. On a random positive W of
    # the right trace, which is not a process, the probabilities spread
    # around one, and both probability() and validate_process's worst must
    # equal Tr[W (M (x) N)] written out.
    d_a_in, d_a_out, d_b_in, d_b_out = dims
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((math.prod(dims),) * 2) + 1j * rng.standard_normal((math.prod(dims),) * 2)
    x = g @ g.conj().T
    w = ProcessMatrix(dims, d_a_out * d_b_out * x / np.trace(x).real)
    draws, ref_rng = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
    worst = 0.0
    for _ in range(samples):
        ma = choi_of_operation(rand_cptp(d_a_in, d_a_out, 2, ref_rng))
        nb = choi_of_operation(rand_cptp(d_b_in, d_b_out, 2, ref_rng))
        want = np.trace(w.matrix @ np.kron(ma.matrix, nb.matrix))
        assert abs(want.imag) < 1e-14 and abs(probability(w, ma, nb) - want.real) < 1e-14
        worst = max(worst, abs(want.real - 1.0))
    assert abs(validate_process(w, samples, draws).max_norm_deviation - worst) < 1e-14


def test_causal_mixture_endpoints_and_validity():
    rng = np.random.default_rng(7)
    w1 = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    w2 = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    assert np.abs(causal_mixture(w1, w2, 1.0).matrix - w1.matrix).max() < 1e-12
    assert np.abs(causal_mixture(w1, w2, 0.0).matrix - w2.matrix).max() < 1e-12
    mixed = causal_mixture(w1, w2, 0.5)
    assert abs(np.trace(mixed.matrix).real - 4.0) < 1e-9
    report = validate_process(mixed, 20, np.random.default_rng(8))
    assert report.trace == 4.0 and report.max_norm_deviation < 1e-8
    with pytest.raises(ValueError):
        causal_mixture(w1, w2, 1.5)


def test_hs_basis_relations():
    for d in (2, 3):
        basis = hs_basis(d)
        assert len(basis) == d * d
        assert np.abs(basis[0] - np.eye(d)).max() == 0
        for i, a in enumerate(basis):
            assert np.abs(a - a.conj().T).max() < 1e-12
            if i > 0:
                assert abs(np.trace(a)) < 1e-12
            for j, b in enumerate(basis):
                want = d if i == j else 0.0
                assert abs(np.trace(a @ b) - want) < 1e-12


def test_hs_decompose_identity():
    w = shared_state_process(np.eye(4) / 4, (2, 2, 2, 2))
    coeffs = hs_decompose(w)
    assert abs(coeffs[0, 0, 0, 0] - 0.25) < 1e-12
    coeffs[0, 0, 0, 0] = 0.0
    assert np.abs(coeffs).max() < 1e-12


def test_hs_decompose_ocb_three_terms():
    coeffs = hs_decompose(ocb_process())
    val = 1.0 / (4.0 * np.sqrt(2.0))
    # basis order is (1, sx, sy, sz)
    assert abs(coeffs[0, 0, 0, 0] - 0.25) < 1e-12
    assert abs(coeffs[0, 3, 3, 0] - val) < 1e-12
    assert abs(coeffs[3, 0, 1, 3] - val) < 1e-12
    coeffs[0, 0, 0, 0] = coeffs[0, 3, 3, 0] = coeffs[3, 0, 1, 3] = 0.0
    assert np.abs(coeffs).max() < 1e-12


def test_hs_round_trip_random_hermitian():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = g + g.conj().T
    coeffs = hs_decompose(h)
    assert np.abs(hs_reconstruct(coeffs, 2) - h).max() < 1e-9


def test_hs_decompose_matches_kron_trace_reference():
    # Each coefficient is Tr[W s_a (x) s_b (x) s_c (x) s_e] / d^4, formed term by term.
    rng = np.random.default_rng(12)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = g + g.conj().T
    s = hs_basis(2)
    want = np.zeros((4, 4, 4, 4))
    for idx in np.ndindex(4, 4, 4, 4):
        want[idx] = np.trace(h @ kron(*(s[i] for i in idx))).real / 16
    assert np.abs(hs_decompose(h) - want).max() < 1e-12


def test_hs_round_trip_qutrits():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((81, 81)) + 1j * rng.standard_normal((81, 81))
    h = g + g.conj().T
    coeffs = hs_decompose(h)
    assert coeffs.shape == (9, 9, 9, 9) and np.isrealobj(coeffs)
    assert np.abs(hs_reconstruct(coeffs, 3) - h).max() < 1e-9


def test_hs_decompose_rejects_non_hermitian():
    m = np.zeros((16, 16), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        hs_decompose(m)


def test_hs_decompose_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        hs_decompose(np.eye(8))
    qutrit_channel = choi_of_operation(rand_cptp(2, 3, 2, np.random.default_rng(4)))
    w = channel_process_reverse(np.eye(2) / 2, qutrit_channel)
    with pytest.raises(ValueError):
        hs_decompose(w)


def test_validate_process_ocb():
    report = validate_process(ocb_process(), 100, np.random.default_rng(10))
    assert report.trace == 4.0
    assert report.max_norm_deviation < 1e-8


def test_validate_process_wrong_trace():
    w = ProcessMatrix((2, 2, 2, 2), np.eye(16) / 8)
    report = validate_process(w, 5, np.random.default_rng(11))
    assert report.trace == 2.0


def test_validate_process_state_process():
    rng = np.random.default_rng(12)
    w = shared_state_process(rand_density(4, rng), (2, 2, 2, 2))
    report = validate_process(w, 50, rng)
    assert abs(report.trace - 4.0) < DEFAULT_TOL and report.max_norm_deviation < 1e-8


def reference_validate_process(w, samples, rng):
    """The per-sample loop that validate_process stacks, from the public API."""
    d_a_in, d_a_out, d_b_in, d_b_out = w.dims
    worst = 0.0
    for _ in range(samples):
        ma = choi_of_operation(rand_cptp(d_a_in, d_a_out, 2, rng))
        nb = choi_of_operation(rand_cptp(d_b_in, d_b_out, 2, rng))
        worst = max(worst, abs(probability(w, ma, nb) - 1.0))
    return ValidationReport(float(np.trace(w.matrix).real), worst)


def _random_mixture(rng):
    w1 = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    w2 = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    return causal_mixture(w1, w2, rng.uniform())


PROCESSES = {
    "ocb": lambda rng: ocb_process(),
    "causal-mixture": _random_mixture,
    "state": lambda rng: shared_state_process(rand_density(4, rng), (2, 2, 2, 2)),
    # dims (3, 3, 2, 2): the two sides differ
    "unequal-dims": lambda rng: channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 3, 2, rng))),
    # dims (2, 2, 3, 3)
    "unequal-dims-reverse": lambda rng: channel_process_reverse(
        rand_density(2, rng), choi_of_operation(rand_cptp(2, 3, 2, rng))
    ),
    # dims (3, 4, 2, 1): in and out differ on both sides
    "unequal-dims-state": lambda rng: shared_state_process(rand_density(6, rng), (3, 4, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(PROCESSES))
@settings(max_examples=15, deadline=None)
@given(
    samples=st.sampled_from([1, 63, 64, 65, 129]) | st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_validate_process_equals_the_per_sample_loop(name, samples, seed):
    # Bit for bit: the report's 12-digit deviation is printed by the CLI.
    w = PROCESSES[name](np.random.default_rng([seed, 0]))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert validate_process(w, samples, rng) == reference_validate_process(w, samples, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_validate_process_rejects_sides_without_a_rank_two_map():
    # Alice's 5 -> 2 side admits no CPTP map of Kraus rank 2.
    w = ProcessMatrix((5, 2, 1, 1), np.eye(10) / 5)
    for validate in (validate_process, reference_validate_process):
        with pytest.raises(ValueError, match="d_out \\* kraus_rank >= d_in"):
            validate(w, 3, np.random.default_rng(0))


@pytest.mark.parametrize("samples", [1, 64, 129, 500])
def test_validate_process_proves_positivity_once(proof_shapes, samples):
    # W made its one positivity proof on construction, and the sampled Chois
    # are CPTP by construction, so validation proves nothing again, whatever
    # the sample count.
    w = ocb_process()
    proof_shapes.clear()
    validate_process(w, samples, np.random.default_rng(7))
    assert proof_shapes == []


def test_validate_process_forms_no_full_block_of_products():
    # A block of 64 pairs is scored as rows vec(M^T), vec(N^T) against W's
    # realignment, so no M (x) N is formed: a stack of 64 would be 256 KB,
    # the size at which glibc's heap trimming can make every block fault its
    # pages in again. The first call also makes numpy's one-time allocations.
    w = ocb_process()
    validate_process(w, 64, np.random.default_rng(0))
    tracemalloc.start()
    try:
        validate_process(w, 64, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * w.matrix.nbytes


def test_validate_process_checks_that_every_probability_is_real():
    # An anti-Hermitian part c i J (J all ones) below the Hermiticity
    # tolerance passes the positivity check, but gives each Tr[W (M (x) N)]
    # the imaginary part c <1|M (x) N|1>. At seed 4 that exceeds 1e-9 only
    # for sample 96, inside the second block.
    w = ocb_process()
    w = ProcessMatrix(w.dims, w.matrix + 7.65e-11j * np.ones((16, 16)))
    for validate in (validate_process, reference_validate_process):
        validate(w, 96, np.random.default_rng(4))
        with pytest.raises(ValueError, match="imaginary part"):
            validate(w, 97, np.random.default_rng(4))


def test_validate_process_names_the_first_imaginary_probability():
    # At c = 1.2e-10 and seed 1, samples 13, 21, 23, 33, ... of the one
    # block of 64, all scored in one call of the rule, have an imaginary part
    # above 1e-9; sample 13 is neither the largest (46) nor the last. Both
    # the block and the per-sample loop must name it.
    w = ocb_process()
    w = ProcessMatrix(w.dims, w.matrix + 1.2e-10j * np.ones((16, 16)))
    messages = []
    for validate in (validate_process, reference_validate_process):
        with pytest.raises(ValueError, match="imaginary part") as error:
            validate(w, 64, np.random.default_rng(1))
        messages.append(str(error.value))
    assert messages[0] == messages[1] == "probability has imaginary part 1.009e-09"


def test_ocb_process_spectrum_and_trace():
    w = ocb_process()
    vals, _ = hermitian_eigen(w.matrix)
    assert vals[0] >= -1e-9
    assert abs(np.trace(w.matrix).real - 4.0) < 1e-12
    # The two Pauli terms anticommute, so the spectrum is {0, 1/2}.
    assert np.allclose(vals, np.repeat([0.0, 0.5], 8), rtol=0.0, atol=1e-14)


def test_ocb_process_is_one_read_only_instance():
    # Built and proved once, at import; no caller can write to its matrix.
    w = ocb_process()
    assert w is ocb_process()
    with pytest.raises(ValueError, match="read-only"):
        w.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="WRITEABLE"):
        w.matrix.setflags(write=True)


def test_signaling_diagnostics():
    rng = np.random.default_rng(13)
    w_b_to_a = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    assert no_signaling_a_to_b(w_b_to_a)
    w_a_to_b = channel_process_reverse(
        rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng))
    )
    assert no_signaling_b_to_a(w_a_to_b)
    assert not no_signaling_b_to_a(w_b_to_a) or not no_signaling_a_to_b(w_a_to_b)
    # the OCB process signals both ways
    assert not no_signaling_a_to_b(ocb_process())
    assert not no_signaling_b_to_a(ocb_process())


def test_real_probability_rejects_a_nan_imaginary_part():
    from switchlab.process import _real_probability

    with pytest.raises(ValueError, match="imaginary part"):
        _real_probability(complex(0.5, np.nan))


def test_hs_decompose_rejects_nan():
    with pytest.raises(ValueError):
        hs_decompose(np.full((16, 16), np.nan))


# The contraction strings hs_decompose and hs_reconstruct evaluate.
HS_DECOMPOSE = "ijklmnop,ami,bnj,cok,epl->abce"
HS_RECONSTRUCT = "abce,aim,bjn,cko,elp->ijklmnop"


def hs_references(h, d):
    """Decomposition and reconstruction by a fresh einsum with numpy's own
    path search on every call, which the cached plans must equal bit for bit."""
    s = hs_basis(d)
    coeffs = np.einsum(HS_DECOMPOSE, h.reshape((d,) * 8), s, s, s, s, optimize=True) / d ** 4
    coeffs = coeffs.real
    rebuilt = np.einsum(HS_RECONSTRUCT, coeffs, s, s, s, s, optimize=True).reshape(d ** 4, d ** 4)
    return coeffs, rebuilt


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_hs_plans_equal_a_fresh_path_search_bit_for_bit(d, seed, scale):
    rng = np.random.default_rng(seed)
    n = d ** 4
    g = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = g + g.conj().T
    want_coeffs, want_rebuilt = hs_references(h, d)
    coeffs = hs_decompose(h)
    assert np.array_equal(coeffs, want_coeffs)
    assert np.array_equal(hs_reconstruct(coeffs, d), want_rebuilt)


def test_hs_basis_returns_a_fresh_array_that_the_plans_do_not_share():
    h = ocb_process().matrix
    before = hs_decompose(h)
    basis = hs_basis(2)
    assert basis.flags.writeable
    basis[...] = 7.0
    hs_basis(2)[1] = 0.0
    assert np.array_equal(hs_decompose(h), before)
    assert np.array_equal(hs_reconstruct(before, 2), hs_references(h, 2)[1])


@pytest.mark.parametrize("build", [channel_process, channel_process_reverse])
def test_channel_processes_check_their_state(build):
    choi = choi_of_operation(rand_cptp(2, 2, 2, np.random.default_rng(8)))
    with pytest.raises(ValueError, match="state is not a density operator: trace is not 1"):
        build(1.5 * np.eye(2) / 2, choi)
    with pytest.raises(ValueError, match="not square"):
        build(np.ones((2, 3)) / 2, choi)


@pytest.mark.parametrize("build", [channel_process, channel_process_reverse])
def test_channel_processes_prove_positivity_once(proof_shapes, build):
    # The one-way matrix is built once and wrapped in one ProcessMatrix.
    choi = choi_of_operation(rand_cptp(2, 2, 2, np.random.default_rng(9)))
    proof_shapes.clear()
    build(ID2 / 2, choi)
    assert proof_shapes == [(16, 16)]


def test_chois_of_operations_and_mixtures_are_not_proved_again(proof_shapes):
    # A Choi of an Operation is a sum of outer products, and a mixture of two
    # validated W keeps their bound on the smallest eigenvalue.
    rng = np.random.default_rng(11)
    ops = [rand_cptp(2, 3, 2, rng), rand_operation(3, 2, 2, rng)]
    w_ba = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    w_ab = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 1, rng)))
    proof_shapes.clear()
    for op in ops:
        choi_of_operation(op)
    for q in (0.0, 0.3, 1.0):
        causal_mixture(w_ba, w_ab, q)
    assert proof_shapes == []


def test_causal_bound_operation_makes_four_proofs(proof_shapes):
    # One causal-bound benchmark operation: the two Kraus defects and the two
    # one-way W. The OCB strategy's Chois were proved when it was made.
    rng = np.random.default_rng(12)
    strategy = ocb_strategy()
    kraus_ba, kraus_ab = (rand_cptp(2, 2, 2, rng).kraus for _ in range(2))
    rho_b, rho_a = rand_density(2, rng), rand_density(2, rng)
    proof_shapes.clear()
    choi_ba = choi_of_operation(Operation(2, 2, kraus_ba))
    choi_ab = choi_of_operation(Operation(2, 2, kraus_ab))
    w = causal_mixture(channel_process(rho_b, choi_ba), channel_process_reverse(rho_a, choi_ab), 0.4)
    assert success_probability(w, strategy) <= 0.75 + DEFAULT_TOL
    assert proof_shapes == [(2, 2), (2, 2), (16, 16), (16, 16)]


def _identity_channel(m):
    # The Choi of the qubit channel with the one Kraus operator
    # 4 m[:2, :2], the identity at m = 1/4.
    return choi_of_operation(Operation(2, 2, (4 * m[:2, :2],)))


def _one_way_pair(m):
    # Both one-way processes on the state 2 m[:2, :2] and the identity channel.
    rho, choi = 2 * m[:2, :2], _identity_channel(m)
    return channel_process(rho, choi), channel_process_reverse(rho, choi)


# (build from the 4 x 4 matrix 1/4, the array it holds): the constructors
# copy the matrix given, the builders keep the matrix they made, and the
# caches and shared instances hold what every later call reads.
VALIDATED = {
    "ProcessMatrix": (lambda m: ProcessMatrix((2, 1, 2, 1), m), lambda obj: obj.matrix),
    "ChoiOperator": (lambda m: ChoiOperator(2, 2, m), lambda obj: obj.matrix),
    "Operation": (lambda m: Operation(4, 4, (m,)), lambda obj: obj.kraus),
    "choi_of_operation": (_identity_channel, lambda obj: obj.matrix),
    "channel_process": (lambda m: _one_way_pair(m)[0], lambda obj: obj.matrix),
    "channel_process_reverse": (lambda m: _one_way_pair(m)[1], lambda obj: obj.matrix),
    "causal_mixture": (lambda m: causal_mixture(*_one_way_pair(m), 0.5), lambda obj: obj.matrix),
    "_hs_plan": (lambda m: process._hs_plan(2), lambda plan: plan[0]),
    "ocb_strategy.alice_terms": (lambda m: ocb_strategy(), lambda s: s.alice_terms),
    "ocb_strategy.bob_terms": (lambda m: ocb_strategy(), lambda s: s.bob_terms),
    "isometries.a_then_b": (lambda m: AgentAmplitudes().isometries, lambda v: v[0]),
    "isometries.b_then_a": (lambda m: AgentAmplitudes().isometries, lambda v: v[1]),
    "_identity": (lambda m: linalg._identity(4), lambda eye: eye),
}


@pytest.mark.parametrize("name", sorted(VALIDATED))
def test_validated_objects_keep_read_only_copies(name):
    # No later write to the caller's matrix reaches the array held, no write
    # to that array succeeds, and it cannot be made writable again.
    build, held = VALIDATED[name]
    source = np.eye(4, dtype=complex) / 4
    array = held(build(source))
    source[0, 0] = -5.0
    assert np.array_equal(array, held(build(np.eye(4, dtype=complex) / 4)))
    with pytest.raises(ValueError, match="read-only"):
        array[(0,) * array.ndim] = 1.0
    with pytest.raises(ValueError, match="WRITEABLE"):
        array.setflags(write=True)


LOCAL_DIM = st.integers(1, 3)
# validate_process samples Kraus-rank-2 maps on each side, which need 2 d_out >= d_in.
SIDE = st.tuples(LOCAL_DIM, LOCAL_DIM).filter(lambda side: 2 * side[1] >= side[0])


@st.composite
def process_constructions(draw):
    """(W, every ChoiOperator and ProcessMatrix built on the way, W among
    them) for a state, one-way channel or causal-mixture process W with local
    dimensions 1-3, channel Kraus ranks 1-4 and a mixing weight that may be 0
    or 1. The first Choi built is of a CPTP or trace-decreasing operation."""
    kind = draw(st.sampled_from(["state", "b-to-a", "a-to-b", "mixture"]))
    (a_in, a_out), (b_in, b_out) = draw(SIDE), draw(SIDE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    built = []

    def choi(d_in, d_out, sample=rand_cptp):
        rank = draw(st.integers(-(-d_in // d_out), 4))
        built.append(choi_of_operation(sample(d_in, d_out, rank, rng)))
        return built[-1]

    choi(a_in, a_out, draw(st.sampled_from([rand_cptp, rand_operation])))
    if kind == "state":
        built.append(shared_state_process(rand_density(a_in * b_in, rng), (a_in, a_out, b_in, b_out)))
        return built[-1], built
    if kind == "mixture":
        # A one-way process's last factor has its channel's output dimension,
        # so both are on (a_in, a_in, b_in, b_in) only when each side's in
        # and out agree.
        a_out, b_out = a_in, b_in
    w_ba = channel_process(rand_density(b_in, rng), choi(b_out, a_in))
    w_ab = channel_process_reverse(rand_density(a_in, rng), choi(a_out, b_in))
    built += [w_ba, w_ab]
    if kind == "mixture":
        built.append(causal_mixture(w_ba, w_ab, draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))))
        return built[-1], built
    return (w_ba if kind == "b-to-a" else w_ab), built


@settings(max_examples=60, deadline=None)
@given(construction=process_constructions(), seed=st.integers(0, 2**32 - 1))
def test_process_constructions_are_normalized(construction, seed):
    w, _ = construction
    report = validate_process(w, 64, np.random.default_rng(seed))
    assert abs(report.trace - w.dims[1] * w.dims[3]) < DEFAULT_TOL
    assert report.max_norm_deviation < NORMALIZATION_TOL


PUBLIC_CONSTRUCTORS = {
    ChoiOperator: lambda c: ChoiOperator(c.d_in, c.d_out, c.matrix),
    ProcessMatrix: lambda w: ProcessMatrix(w.dims, w.matrix),
}


@settings(max_examples=80, deadline=None)
@given(construction=process_constructions())
def test_built_objects_equal_their_public_construction(construction):
    # The builders skip the constructor's checks that hold by construction;
    # what they return must be what the public constructor accepts and stores.
    _, built = construction
    for obj in built:
        assert not obj.matrix.flags.writeable
        public = PUBLIC_CONSTRUCTORS[type(obj)](obj)
        for f in dataclasses.fields(obj):
            mine, theirs = getattr(obj, f.name), getattr(public, f.name)
            if f.name == "matrix":
                assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
                assert mine.tobytes() == theirs.tobytes()
            else:
                assert (type(mine), mine) == (type(theirs), theirs)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(LOCAL_DIM, LOCAL_DIM, LOCAL_DIM),
    rank=st.integers(3, 4),  # admits every pair of dimensions 1-3
)
def test_channel_process_equals_the_written_out_formula(seed, dims, rank):
    # W = 1^{A_out} (x) C^T (x) rho^{B_in}, built on (A_out, B_out, A_in, B_in),
    # where A_out has the channel's output dimension d_a_in.
    d_b_in, d_b_out, d_a_in = dims
    rng = np.random.default_rng(seed)
    rho = rand_density(d_b_in, rng)
    choi = choi_of_operation(rand_cptp(d_b_out, d_a_in, rank, rng))
    want = permuted(kron(np.eye(d_a_in), choi.matrix.T, rho), (d_a_in, d_b_out, d_a_in, d_b_in), (2, 0, 3, 1))
    assert np.abs(channel_process(rho, choi).matrix - want).max() < 1e-15


@pytest.mark.parametrize("side", [(2, 2), (2, 3)], ids=["qubits", "unequal-dims"])
@pytest.mark.parametrize(
    "build, perm",
    [(channel_process, (2, 3, 0, 1)), (channel_process_reverse, (0, 1, 2, 3))],
    ids=["b-to-a", "a-to-b"],
)
def test_one_way_processes_equal_kron_then_permute_bit_for_bit(build, perm, side):
    # W = rho (x) C^T (x) 1, built on (rho's, C's input, C's output, C's
    # output again) and reordered to (A_in, A_out, B_in, B_out); signed zeros
    # included.
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = rand_density(2, rng)
        choi = choi_of_operation(rand_cptp(*side, 2, rng))
        want = permuted(kron(rho, choi.matrix.T, np.eye(side[1])), (2, *side, side[1]), perm)
        assert build(rho, choi).matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProcessMatrix((1, 0, 1, 1), np.eye(1)), "ProcessMatrix dims (1, 0, 1, 1)"),
        (lambda: ProcessMatrix((2, 2, 2), np.eye(8) / 4), "ProcessMatrix dims (2, 2, 2)"),
    ],
    ids=["state-zero-output", "three-dims"],
)
def test_process_dims_are_four_and_positive(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ProcessMatrix((2.7, 2, 2, 2), np.eye(16) / 4), "ProcessMatrix dims (2.7, 2, 2, 2)"),
        (lambda: ProcessMatrix(("2", 2, 2, 2), np.eye(16) / 4), "ProcessMatrix dims ('2', 2, 2, 2)"),
        (lambda: ChoiOperator(1.5, 2, np.eye(3)), "ChoiOperator dims (1.5, 2)"),
        (lambda: Operation(2.0, 2, (ID2,)), "Operation dims (2.0, 2)"),
    ],
    ids=["process-float", "process-string", "choi-float", "operation-float"],
)
def test_dims_that_are_not_integers_fail_by_name(build, message):
    with pytest.raises(ValueError, match=re.escape(message) + ".* must each be an integer of at least 1"):
        build()


def test_numpy_integer_dims_are_stored_as_int():
    two = np.int64(2)
    w = ProcessMatrix((two,) * 4, np.eye(16) / 4)
    op = Operation(two, two, (ID2,))
    choi = ChoiOperator(two, two, np.eye(4) / 2)
    for d in (*w.dims, op.d_in, op.d_out, choi.d_in, choi.d_out):
        assert type(d) is int
