import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from switchlab import linalg, order

from switchlab.linalg import ID2, PAULI_X, PAULI_Y, PAULI_Z, dagger, is_unitary, kron, partial_trace
from switchlab.ops import (
    ChoiOperator,
    Operation,
    choi_of_operation,
    rand_cptp,
    rand_density,
    rand_unitary,
)
from switchlab.order import (
    CHSH_SETTINGS,
    GameStrategy,
    SwitchSpec,
    TEMPORAL_ORDER_UNITARIES,
    alice_reduced_matrix,
    bob_reduced_matrix,
    branch_probabilities,
    chsh_value,
    contract_switch_vector,
    max_contraction_deviation,
    max_separable_chsh,
    ocb_strategy,
    success_probability,
    switch_process_vector,
    switch_supermap_state,
    temporal_order_state,
)
from switchlab.process import (
    ProcessMatrix,
    causal_mixture,
    channel_process,
    channel_process_reverse,
    ocb_process,
    probability,
)

P_OCB = (2.0 + np.sqrt(2.0)) / 4.0
KET0 = np.array([1, 0], dtype=complex)


def game_probability(w, strategy, x, y, a, b, bp):
    """P(x, y | a, b, b') for the causal game on process w: the reference
    that the game operators of `branch_probabilities` are checked against."""
    return probability(w, strategy.alice[x, a], strategy.bob[y, b, bp])


def test_game_probabilities_normalize():
    w = ocb_process()
    s = ocb_strategy()
    for a in range(2):
        for b in range(2):
            for bp in range(2):
                total = sum(
                    game_probability(w, s, x, y, a, b, bp) for x in range(2) for y in range(2)
                )
                assert abs(total - 1.0) < 1e-9


def test_ocb_conditional_guess_probability():
    # P(y=a | a, b, b'=1) = (2 + sqrt 2)/4 for every a, b
    w = ocb_process()
    s = ocb_strategy()
    for a in range(2):
        for b in range(2):
            p = sum(game_probability(w, s, x, a, a, b, 1) for x in range(2))
            assert abs(p - P_OCB) < 1e-9


def test_ocb_success_probability():
    assert abs(success_probability(ocb_process(), ocb_strategy()) - P_OCB) < 1e-9


def free_state_strategy(rho):
    """The OCB strategy, except that for b' = 1 Bob reprepares `rho`, not 1/2:
    a strategy other than the library's, built directly."""
    ocb = ocb_strategy()
    free = {y: ChoiOperator(2, 2, 0.5 * kron(ID2 + (-1) ** y * PAULI_Z, rho)) for y in range(2)}
    return GameStrategy(ocb.alice, {(y, b, bp): free[y] if bp else n for (y, b, bp), n in ocb.bob.items()})


def test_success_invariant_under_bob_free_state():
    w = ocb_process()
    rng = np.random.default_rng(0)
    for _ in range(5):
        s = free_state_strategy(rand_density(2, rng))
        assert abs(success_probability(w, s) - P_OCB) < 1e-9


def branch_sums(w, s):
    # Reference: each branch as a sum of eight single game probabilities.
    p_alice = sum(0.25 * game_probability(w, s, b, y, a, b, 0) for a, b, y in np.ndindex(2, 2, 2))
    p_bob = sum(0.25 * game_probability(w, s, x, a, a, b, 1) for a, b, x in np.ndindex(2, 2, 2))
    return p_alice, p_bob


def random_causal_mixture(rng):
    w_ba = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    w_ab = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
    return causal_mixture(w_ab, w_ba, float(rng.uniform()))


def test_branch_probabilities_equal_game_probability_sums():
    rng = np.random.default_rng(21)
    cases = [(ocb_process(), ocb_strategy())]
    cases += [(random_causal_mixture(rng), ocb_strategy()) for _ in range(10)]
    cases += [(ocb_process(), free_state_strategy(rand_density(2, rng))) for _ in range(3)]
    cases += [(random_causal_mixture(rng), free_state_strategy(rand_density(2, rng)))]
    for w, s in cases:
        got = branch_probabilities(w, s)
        want = branch_sums(w, s)
        assert max(abs(g - e) for g, e in zip(got, want)) < 1e-12
        assert abs(success_probability(w, s) - 0.5 * (got[0] + got[1])) < 1e-12


def branch_terms(strategy):
    """Each branch's two product terms A (x) B as pairs of Choi operators,
    summed from the strategy's Chois as GameStrategy documents them."""
    m, n = strategy.alice, strategy.bob

    def term(alice, bob):
        return tuple(ChoiOperator(2, 2, sum(c.matrix for c in side)) for side in (alice, bob))

    g_a = [term([m[b, a] for a in range(2)], [n[y, b, 0] for y in range(2)]) for b in range(2)]
    g_b = [term([m[x, a] for x in range(2)], [n[a, b, 1] for b in range(2)]) for a in range(2)]
    return g_a, g_b


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), free_state=st.booleans(), shared_state=st.booleans())
def test_branch_probabilities_equal_their_terms_scored_one_by_one_bit_for_bit(seed, free_state, shared_state):
    # The four terms are scored in one stacked call; each must keep the bits
    # that probability() gives it alone.
    rng = np.random.default_rng(seed)
    if shared_state:
        # rho^{A_in B_in} (x) 1^{A_out B_out}, reordered to (A_in, A_out, B_in, B_out)
        w = ProcessMatrix((2, 2, 2, 2), permuted(kron(rand_density(4, rng), ID2, ID2), (2,) * 4, (0, 2, 1, 3)))
    else:
        w = random_causal_mixture(rng)
    strategy = free_state_strategy(rand_density(2, rng)) if free_state else ocb_strategy()
    one_by_one = tuple(
        0.25 * (probability(w, *first) + probability(w, *second)) for first, second in branch_terms(strategy)
    )
    assert branch_probabilities(w, strategy) == one_by_one


def test_ocb_branch_values():
    p_alice, p_bob = branch_probabilities(ocb_process(), ocb_strategy())
    assert abs(p_alice - P_OCB) < 1e-9 and abs(p_bob - P_OCB) < 1e-9


def wide(chois):
    """A 2 x 3 Choi in place of each of `chois`: half the completely
    depolarizing channel's, so each pair summed over the guess bit is CPTP."""
    return {k: ChoiOperator(2, 3, np.eye(6) / 6) for k in chois}


def test_success_probability_enforces_the_probability_rule():
    good = ocb_strategy()
    w = ocb_process()
    bad = {"Alice": GameStrategy(wide(good.alice), good.bob), "Bob": GameStrategy(good.alice, wide(good.bob))}
    for party, strategy in bad.items():
        with pytest.raises(ValueError, match=f"{party} Choi dimensions do not match the process"):
            success_probability(w, strategy)
        with pytest.raises(ValueError, match=f"{party} Choi dimensions do not match the process"):
            branch_probabilities(w, strategy)


def test_success_on_no_signaling_process_is_half():
    w = ProcessMatrix((2, 2, 2, 2), np.eye(16) / 4)
    assert abs(success_probability(w, ocb_strategy()) - 0.5) < 1e-9


def test_reduced_matrices_match_closed_forms():
    w = ocb_process()
    s = ocb_strategy()
    for a in range(2):
        got = bob_reduced_matrix(w, s, a)
        want = kron(0.5 * (ID2 + (-1) ** a / np.sqrt(2) * PAULI_Z), ID2)
        assert np.abs(got - want).max() < 1e-9
    for b in range(2):
        got = alice_reduced_matrix(w, s, b)
        want = kron(0.5 * (ID2 + (-1) ** b / np.sqrt(2) * PAULI_Z), ID2)
        assert np.abs(got - want).max() < 1e-9


def test_reduced_matrices_enforce_the_probability_rule():
    good = ocb_strategy()
    w = ocb_process()
    with pytest.raises(ValueError, match="Alice Choi dimensions"):
        bob_reduced_matrix(w, GameStrategy(wide(good.alice), good.bob), 1)
    with pytest.raises(ValueError, match="Bob Choi dimensions"):
        alice_reduced_matrix(w, GameStrategy(good.alice, wide(good.bob)), 1)


def reference_reduced(w, party, chois):
    """The reduced process as the partial trace of W (M (x) 1), for `party`
    "Alice", or of W (1 (x) N), with M or N the sum of `chois`."""
    choi_sum = sum(c.matrix for c in chois)
    if party == "Alice":
        return partial_trace(w.matrix @ kron(choi_sum, np.eye(math.prod(w.dims[2:]))), w.dims, keep=(2, 3))
    return partial_trace(w.matrix @ kron(np.eye(math.prod(w.dims[:2])), choi_sum), w.dims, keep=(0, 1))


def qutrit_bob_strategy(rng):
    """Random instrument elements, each half a random channel's Choi: 4 x 4
    for Alice's qubits, 9 x 9 for Bob's qutrits."""

    def element(d):
        return ChoiOperator(d, d, 0.5 * choi_of_operation(rand_cptp(d, d, 2, rng)).matrix)

    return GameStrategy({k: element(2) for k in np.ndindex(2, 2)}, {k: element(3) for k in np.ndindex(2, 2, 2)})


def test_reduced_matrices_equal_the_partial_trace_reference():
    rng = np.random.default_rng(33)
    cases = [(random_causal_mixture(rng), ocb_strategy()) for _ in range(10)]
    cases += [(random_causal_mixture(rng), free_state_strategy(rand_density(2, rng))) for _ in range(10)]
    # A -> B through a qubit-to-qutrit channel, alone (q = 1) and mixed with
    # B -> A through a qutrit-to-qubit one, so that Bob's output counts:
    # n_A = 4 and n_B = 9 differ, so a transposed or swapped realignment
    # cannot pass.
    for q in (1.0, *rng.uniform(size=4)):
        w_ab = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 3, 2, rng)))
        w_ba = channel_process(rand_density(3, rng), choi_of_operation(rand_cptp(3, 2, 2, rng)))
        assert w_ab.dims == w_ba.dims == (2, 2, 3, 3)
        cases.append((causal_mixture(w_ab, w_ba, float(q)), qutrit_bob_strategy(rng)))
    for w, s in cases:
        for bit in range(2):
            got = bob_reduced_matrix(w, s, bit)
            want = reference_reduced(w, "Alice", [s.alice[x, bit] for x in range(2)])
            assert got.shape == want.shape and np.abs(got - want).max() <= 1e-14
            got = alice_reduced_matrix(w, s, bit)
            want = reference_reduced(w, "Bob", [s.bob[y, bit, 0] for y in range(2)])
            assert got.shape == want.shape and np.abs(got - want).max() <= 1e-14


def test_causal_bound_on_random_separable_processes():
    # Convex mixtures of one-way channel processes never beat 3/4.
    rng = np.random.default_rng(1)
    s = ocb_strategy()
    worst = 0.0
    for _ in range(200):
        w_ba = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng)))
        w_ab = channel_process_reverse(
            rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, 2, rng))
        )
        mixed = causal_mixture(w_ab, w_ba, float(rng.uniform()))
        worst = max(worst, success_probability(mixed, s))
    assert worst <= 0.75 + 1e-9


def test_causal_bound_is_tight_for_identity_channel():
    # B -> A identity channel with Bob fed |x+>: his x outcome is deterministic,
    # so the conditional encoding never flips and Alice reads b exactly: 3/4.
    from switchlab.ops import Operation

    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    w = channel_process(proj(plus), choi_of_operation(Operation(2, 2, (ID2,))))
    got = success_probability(w, ocb_strategy())
    assert abs(got - 0.75) < 1e-9


def trace_and_replace(g, x, dims=(2, 2, 2, 2)):
    """L_X(G) = 1_X / d_X (x) Tr_X G, with 1_X back in factor x's place."""
    n = len(dims)
    reduced = np.trace(g.reshape(dims * 2), axis1=x, axis2=x + n)
    eye = np.eye(dims[x]).reshape([dims[x] if i in (x, x + n) else 1 for i in range(2 * n)])
    return (np.expand_dims(reduced, (x, x + n)) * eye / dims[x]).reshape(g.shape)


def game_operators(strategy):
    """G_A and G_B rebuilt as matrices from the strategy's stored rows:
    the sum of A (x) B over each branch's terms, with A^T and B^T the rows
    reshaped."""
    n = math.isqrt(strategy.alice_terms.shape[-1])
    alice = strategy.alice_terms.reshape(2, 2, n, n).swapaxes(-1, -2)
    bob = strategy.bob_terms.reshape(2, 2, n, n).swapaxes(-1, -2)
    return tuple(kron(a[0], b[0]) + kron(a[1], b[1]) for a, b in zip(alice, bob))


def test_causal_bound_certificate_is_exact():
    # An A -> B process, memory included, is W' (x) 1_{B_out}, so Tr[W G_A] =
    # Tr[W L_{B_out}(G_A)] = Tr[W] / 2 = 2 and Alice's branch is 1/4 of that,
    # 1/2; the same holds for Bob's branch on a B -> A process. By linearity
    # every causal mixture then succeeds with at most (1/2 + 1) / 2 = 3/4
    # (Branciard et al., NJP 2016).
    g_a, g_b = game_operators(ocb_strategy())
    assert np.abs(trace_and_replace(g_a, 3) - np.eye(16) / 2).max() == 0.0
    assert np.abs(trace_and_replace(g_b, 1) - np.eye(16) / 2).max() == 0.0


def permuted(m, dims, perm):
    """`m` with its tensor factors `dims` reordered, factor perm[i] to position i."""
    k = len(dims)
    t = np.asarray(m).reshape(tuple(dims) * 2).transpose(*perm, *(k + p for p in perm))
    return t.reshape(np.shape(m))


def marginal_rebuilt(m, dims, factor):
    """1/d (x) Tr_factor m formed by kron on the factor moved to the front,
    then permuted back into place."""
    reduced = partial_trace(m, dims, keep=[i for i in range(4) if i != factor])
    rebuilt = kron(np.eye(dims[factor]) / dims[factor], reduced)
    moved = [factor] + [i for i in range(4) if i != factor]
    return permuted(rebuilt, [dims[i] for i in moved], [moved.index(i) for i in range(4)])


def test_library_trace_and_replace_equals_both_references():
    rng = np.random.default_rng(21)
    dims = (2, 3, 3, 2)
    g = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
    for factor in range(4):
        got = linalg.trace_and_replace(g, dims, factor)
        assert np.array_equal(got, trace_and_replace(g, factor, dims))
        # kron divides by d before the product, so the last bit may differ.
        assert np.abs(got - marginal_rebuilt(g, dims, factor)).max() < 1e-14


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_processes_trivial_on_the_later_output_leave_the_uninformed_branch_at_half(seed):
    # Every one-way process, a quantum memory included, is L_X(W) = W for X
    # the later party's output; the certificate then fixes that branch at 1/2.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x = g @ g.conj().T
    for factor, branch in ((3, 0), (1, 1)):
        m = linalg.trace_and_replace(x, (2, 2, 2, 2), factor)
        w = ProcessMatrix((2, 2, 2, 2), 4 * m / np.trace(m).real)
        assert abs(branch_probabilities(w, ocb_strategy())[branch] - 0.5) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)))
def test_one_way_processes_leave_the_uninformed_branch_at_half(seed, ranks):
    rng = np.random.default_rng(seed)
    w_ab = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, ranks[0], rng)))
    w_ba = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, ranks[1], rng)))
    assert abs(branch_probabilities(w_ab, ocb_strategy())[0] - 0.5) < 1e-12
    assert abs(branch_probabilities(w_ba, ocb_strategy())[1] - 0.5) < 1e-12


def test_causal_bound_is_attained_by_an_a_to_b_identity_channel():
    # Alice's z outcome reaches Bob unchanged, so he reads her bit a exactly.
    w = channel_process_reverse(ID2 / 2, choi_of_operation(Operation(2, 2, (ID2,))))
    alice, bob = branch_probabilities(w, ocb_strategy())
    assert abs(alice - 0.5) < 1e-12 and abs(bob - 1.0) < 1e-12
    assert abs(success_probability(w, ocb_strategy()) - 0.75) < 1e-12


def test_ocb_strategy_is_one_read_only_instance():
    s = ocb_strategy()
    assert s is ocb_strategy()
    # Neither the 12 Choi matrices nor the two rows can be written, or be
    # made writable again.
    for c in [*s.alice.values(), *s.bob.values()]:
        with pytest.raises(ValueError, match="read-only"):
            c.matrix[0, 0] = 1.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            c.matrix.setflags(write=True)
    for rows in (s.alice_terms, s.bob_terms):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="WRITEABLE"):
            rows.setflags(write=True)
    with pytest.raises(TypeError):
        s.alice[0, 0] = s.alice[0, 1]


def test_success_probability_builds_no_choi_operator(monkeypatch):
    # The default strategy's 12 Chois are validated once, not per call.
    calls = []
    post_init = ChoiOperator.__post_init__

    def counting(self):
        calls.append(self)
        post_init(self)

    w = ocb_process()
    strategy = ocb_strategy()
    monkeypatch.setattr(ChoiOperator, "__post_init__", counting)
    assert abs(success_probability(w, strategy) - P_OCB) < 1e-9
    assert abs(success_probability(w, ocb_strategy()) - P_OCB) < 1e-9
    assert calls == []
    # The counter sees constructions.
    ChoiOperator(2, 2, np.eye(4) / 2)
    assert len(calls) == 1


def proj(v):
    return np.outer(v, v.conj())


def test_switch_supermap_commuting_case():
    rng = np.random.default_rng(2)
    u = rand_unitary(2, rng)
    spec = SwitchSpec()
    state = switch_supermap_state(u, u, spec)
    # control disentangles: (|0> + |1>)/sqrt 2 (x) U^2|psi>
    expected = np.kron(u @ u @ spec.target_state, np.array([1, 1]) / np.sqrt(2))
    overlap = abs(np.vdot(expected, state))
    assert abs(overlap - 1.0) < 1e-9


def test_switch_supermap_direct_product_oracle():
    spec = SwitchSpec()
    state = switch_supermap_state(PAULI_X, PAULI_Z, spec)
    psi = spec.target_state
    expected = (
        np.kron(PAULI_Z @ PAULI_X @ psi, [1, 0]) + np.kron(PAULI_X @ PAULI_Z @ psi, [0, 1])
    ) / np.sqrt(2)
    assert np.abs(state - expected).max() < 1e-12


def test_switch_traced_out_control_is_order_mixture():
    rng = np.random.default_rng(3)
    ua, ub = rand_unitary(2, rng), rand_unitary(2, rng)
    spec = SwitchSpec()
    state = switch_supermap_state(ua, ub, spec)
    rho = np.outer(state, state.conj())
    from switchlab.linalg import partial_trace

    target = partial_trace(rho, (2, 2), keep=(0,))
    psi = spec.target_state
    rho_t = np.outer(psi, psi.conj())
    ba = ub @ ua
    ab = ua @ ub
    expected = 0.5 * (ba @ rho_t @ ba.conj().T + ab @ rho_t @ ab.conj().T)
    assert np.abs(target - expected).max() < 1e-9


def test_switch_process_vector_norm_and_identity_contraction():
    spec = SwitchSpec()
    w = switch_process_vector(spec)
    assert w.shape == (64,)
    # unnormalized |1>> links: squared norm is 2 * 2 per branch
    assert abs(np.linalg.norm(w) - 2.0) < 1e-12
    out = contract_switch_vector(w, ID2, ID2)
    psi = spec.target_state
    expected = (np.kron(psi, [1, 0]) + np.kron(psi, [0, 1])) / np.sqrt(2)
    assert np.abs(out - expected).max() < 1e-12


def test_switch_contraction_identity_random_unitaries():
    rng = np.random.default_rng(4)
    for trial in range(50):
        psi = rand_unitary(2, rng)[:, 0]
        spec = SwitchSpec(target_state=psi)
        w = switch_process_vector(spec)
        ua, ub = rand_unitary(2, rng), rand_unitary(2, rng)
        contracted = contract_switch_vector(w, ua, ub)
        # closed form of the contraction
        expected = (
            np.kron(ub @ ua @ psi, [1, 0]) + np.kron(ua @ ub @ psi, [0, 1])
        ) / np.sqrt(2)
        assert np.abs(contracted - expected).max() < 1e-9
        # and the supermap route agrees with fidelity 1
        supermap = switch_supermap_state(ua, ub, spec)
        fidelity = abs(np.vdot(contracted, supermap)) ** 2
        assert abs(fidelity - 1.0) < 1e-9


def test_switch_contraction_equals_the_supermap_exactly_on_a_basis():
    # Both sides are bilinear in (U_A, U_B) and linear in the target, so
    # exact equality on Pauli pairs and basis targets proves the identity for
    # every input.
    paulis = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
    for ua, ub in ((a, b) for a in paulis for b in paulis):
        for target in np.eye(2):
            spec = SwitchSpec(target_state=target)
            contracted = contract_switch_vector(switch_process_vector(spec), ua, ub)
            assert np.abs(contracted - switch_supermap_state(ua, ub, spec)).max() == 0.0


def test_separable_chsh_maximum_is_exactly_root_two():
    # On a product state the CHSH value is the constant term plus local terms
    # plus a . T b over Bloch vectors a, b; with no constant or local term its
    # maximum is T's largest singular value.
    k00, k01, k10, k11 = order._CHSH_OPERATORS
    chsh = k00 + k01 + k10 - k11
    paulis = (ID2, PAULI_X, PAULI_Y, PAULI_Z)
    coeffs = np.array([[np.trace(chsh @ kron(p, q)).real / 4 for q in paulis] for p in paulis])
    assert np.abs(coeffs[0]).max() == 0.0 and np.abs(coeffs[:, 0]).max() == 0.0
    assert np.abs(np.linalg.svd(coeffs[1:, 1:], compute_uv=False) - [np.sqrt(2), np.sqrt(2), 0]).max() < 1e-12
    assert max_separable_chsh(2000, np.random.default_rng(0)) <= np.sqrt(2) + 1e-12


def reference_switch_process_vector(spec):
    # The two branches written out as separate triple loops.
    c0 = c1 = complex(1 / np.sqrt(2))
    psi = spec.target_state
    lead = psi.shape[:-1]
    w = np.zeros((*lead, 2, 2, 2, 2, 2, 2), dtype=complex)
    for a1 in range(2):
        for link1 in range(2):
            for link2 in range(2):
                # psi enters A, identity links A_out->B_in and B_out->C_t, control |0>
                w[..., a1, link1, link1, link2, link2, 0] += c0 * psi[..., a1]
    for b1 in range(2):
        for link1 in range(2):
            for link2 in range(2):
                # psi enters B, links B_out->A_in and A_out->C_t, control |1>
                w[..., link1, link2, b1, link1, link2, 1] += c1 * psi[..., b1]
    return w.reshape(*lead, -1)


SIGNED_REALS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(), (2, 3)]) | st.tuples(st.integers(1, 5)),
    data=st.data(),
)
def test_switch_process_vector_equals_the_two_loops_bit_for_bit(shape, data):
    size = 4 * int(np.prod(shape))
    parts = data.draw(st.lists(SIGNED_REALS, min_size=size, max_size=size))
    psi = np.array(parts).view(complex).reshape(*shape, 2)
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    assume(np.all(norm > 1e-3))
    spec = SwitchSpec(target_state=psi / norm)
    actual = switch_process_vector(spec).view(np.float64)
    expected = reference_switch_process_vector(spec).view(np.float64)
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def test_temporal_order_state_paper_choice():
    up = KET0
    for sign in (+1, -1):
        state = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, up, up, sign)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        expected = (np.kron(plus, plus) + sign * np.kron(minus, minus)) / np.sqrt(2)
        assert abs(abs(np.vdot(state, expected)) - 1.0) < 1e-9


def test_temporal_order_state_trivial_and_degenerate():
    psi1 = np.array([1, 0], dtype=complex)
    psi2 = np.array([0, 1], dtype=complex)
    state = temporal_order_state(ID2, ID2, ID2, ID2, psi1, psi2, +1)
    assert np.abs(state - np.kron(psi1, psi2)).max() < 1e-12
    with pytest.raises(ValueError):
        temporal_order_state(ID2, ID2, ID2, ID2, psi1, psi2, -1)


def test_chsh_on_temporal_order_states():
    up = KET0
    plus_state = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, up, up, +1)
    minus_state = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, up, up, -1)
    assert abs(chsh_value(plus_state) - (-2 * np.sqrt(2))) < 1e-9
    assert abs(chsh_value(minus_state) - (+2 * np.sqrt(2))) < 1e-9


def test_chsh_product_state_within_classical_bound():
    product = np.kron(KET0, KET0)
    assert abs(chsh_value(product)) <= 2.0 + 1e-9


def test_chsh_separable_sweep_stays_classical():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = rand_unitary(2, rng)[:, 0]
        b = rand_unitary(2, rng)[:, 0]
        assert abs(chsh_value(np.kron(a, b))) <= 2.0 + 1e-9


def test_chsh_settings_are_plus_minus_one_observables():
    # chsh_value scores only these settings, so they are proved here once.
    assert list(inspect.signature(chsh_value).parameters) == ["state"]
    for obs in CHSH_SETTINGS[0] + CHSH_SETTINGS[1]:
        assert np.array_equal(obs, dagger(obs))
        assert np.abs(obs @ obs - ID2).max() < 1e-15


def reference_chsh_values(state):
    """The per-member loop that chsh_value stacks: four Python-float
    correlations per state, summed as e00 + e01 + e10 - e11."""
    values = np.empty(state.shape[:-1])
    for i in np.ndindex(values.shape):
        bra = state[i].conj()
        e00, e01, e10, e11 = (float(np.real(bra @ k @ state[i])) for k in order._CHSH_OPERATORS)
        values[i] = e00 + e01 + e10 - e11
    return values


@pytest.mark.parametrize("shape", [(), (50,), (3, 4)])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), product=st.booleans())
def test_chsh_value_equals_the_per_member_loop_bit_for_bit(shape, seed, product):
    # Product states, as max_separable_chsh scores, or general two-qubit states.
    rng = np.random.default_rng(seed)
    if product:
        a, b = rand_unitary(2, rng, (2, *shape))[..., 0]
        states = kron(a[..., None], b[..., None])[..., 0]
    else:
        states = rand_unitary(4, rng, shape)[..., 0]
    got = chsh_value(states)
    want = reference_chsh_values(states)
    if shape == ():
        assert type(got) is float and got == float(want)
    else:
        assert got.shape == shape and got.tobytes() == want.tobytes()


def reference_contraction(w_vec, ua, ub):
    """The per-member einsum that contract_switch_vector stacks."""
    lead = w_vec.shape[:-1]
    w = w_vec.reshape(*lead, 2, 2, 2, 2, 2, 2)
    out = np.empty((*lead, 4), dtype=complex)
    for i in np.ndindex(lead):
        out[i] = np.einsum("ij,kl,ijkltc->tc", ua[i].T, ub[i].T, w[i]).reshape(-1)
    return out


@pytest.mark.parametrize("shape", [(), (50,), (3, 4)])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_contraction_equals_the_per_member_einsum_bit_for_bit(shape, seed):
    rng = np.random.default_rng(seed)
    targets, ua, ub = rand_unitary(2, rng, (3, *shape))
    w_vec = switch_process_vector(SwitchSpec(target_state=targets[..., 0]))
    assert contract_switch_vector(w_vec, ua, ub).tobytes() == reference_contraction(w_vec, ua, ub).tobytes()


def test_single_and_stacked_calls_agree():
    rng = np.random.default_rng(12)
    targets = rand_unitary(2, rng, (5,))[..., 0]
    ua, ub = rand_unitary(2, rng, (2, 5))
    spec = SwitchSpec(target_state=targets)
    vectors = switch_process_vector(spec)
    contracted = contract_switch_vector(vectors, ua, ub)
    supermap = switch_supermap_state(ua, ub, spec)
    products = np.array([np.kron(t, t) for t in targets])
    values = chsh_value(products)
    assert vectors.shape == (5, 64) and contracted.shape == supermap.shape == (5, 4)
    assert values.shape == (5,)
    for i, target in enumerate(targets):
        one = SwitchSpec(target_state=target)
        assert np.array_equal(vectors[i], switch_process_vector(one))
        assert np.array_equal(contracted[i], contract_switch_vector(vectors[i], ua[i], ub[i]))
        assert np.array_equal(supermap[i], switch_supermap_state(ua[i], ub[i], one))
        assert values[i] == chsh_value(products[i])
    with pytest.raises(ValueError, match="stack alike"):
        contract_switch_vector(vectors[0], ua, ub)


def reference_unitary(rng):
    """rand_unitary(2, rng) as drawn one unitary at a time: real normals, then
    imaginary ones, orthonormalized by QR with the phases of R's diagonal."""
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_contraction_deviation(pairs, rng):
    """The per-pair loop that max_contraction_deviation stacks."""
    worst = 0.0
    for _ in range(pairs):
        psi = reference_unitary(rng)[:, 0]
        spec = SwitchSpec(target_state=psi)
        vec = switch_process_vector(spec)
        ua, ub = reference_unitary(rng), reference_unitary(rng)
        contracted = contract_switch_vector(vec, ua, ub)
        supermap = switch_supermap_state(ua, ub, spec)
        fidelity = abs(np.vdot(contracted, supermap)) ** 2
        worst = max(worst, abs(fidelity - 1.0))
    return worst


def reference_separable_chsh(samples, rng):
    """The per-sample loop that max_separable_chsh stacks."""
    worst = 0.0
    for _ in range(samples):
        a = reference_unitary(rng)[:, 0]
        b = reference_unitary(rng)[:, 0]
        worst = max(worst, abs(chsh_value(np.kron(a, b))))
    return worst


STACKED_SAMPLERS = {
    "switch-contract": (max_contraction_deviation, reference_contraction_deviation),
    "chsh-temporal": (max_separable_chsh, reference_separable_chsh),
}


@pytest.mark.parametrize("name", sorted(STACKED_SAMPLERS))
@settings(max_examples=15, deadline=None)
@given(
    count=st.sampled_from([1, 63, 64, 65, 129]) | st.integers(1, 200),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_sampling_equals_the_per_pair_loop(name, count, seed):
    # Bit for bit: the CLI prints the worst value to 12 digits.
    stacked, reference = STACKED_SAMPLERS[name]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert stacked(count, rng) == reference(count, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def corrupt_one_draw(index, which, scale):
    # order.rand_unitary with the `which`-th unitary of the index-th sample
    # scaled by `scale`, samples counted across the stacked calls.
    seen = 0

    def patched(d, rng, shape=()):
        nonlocal seen
        draws = rand_unitary(d, rng, shape)
        if seen <= index < seen + len(draws):
            draws[index - seen, which] *= scale
        seen += len(draws)
        return draws

    return patched


@pytest.mark.parametrize(
    "name, which, scale, error, message",
    [
        ("switch-contract", 1, 1.01, ValueError, "defined here for unitary operations"),
        ("switch-contract", 0, 1.01, ValueError, "target state must be normalized"),
        ("chsh-temporal", 0, 10.0, ValueError, "normalized state, not one of norm 10"),
        ("chsh-temporal", 0, np.nan, ValueError, "normalized state, not one of norm nan"),
    ],
    ids=["non-unitary-U_A", "unnormalized-target", "unnormalized-state", "nan-state"],
)
def test_stacked_sampling_checks_every_member(monkeypatch, name, which, scale, error, message):
    # Only sample 100 of 129, inside the second block, is corrupted.
    stacked, _ = STACKED_SAMPLERS[name]
    monkeypatch.setattr(order, "rand_unitary", corrupt_one_draw(100, which, scale))
    with pytest.raises(error, match=message):
        stacked(129, np.random.default_rng(3))
    monkeypatch.setattr(order, "rand_unitary", corrupt_one_draw(129, which, scale))
    stacked(129, np.random.default_rng(3))


def test_chsh_value_rejects_a_nan_state():
    with pytest.raises(ValueError, match="normalized state, not one of norm nan"):
        chsh_value(np.array([np.nan, 0, 0, 0]))


def test_chsh_value_beyond_tsirelson_names_broken_settings(monkeypatch):
    # No normalized state exceeds 2 sqrt 2 with CHSH_SETTINGS, and a NaN state
    # fails the norm check first; doubled correlation operators stand in for
    # broken settings.
    monkeypatch.setattr(order, "_CHSH_OPERATORS", tuple(2 * k for k in order._CHSH_OPERATORS))
    with pytest.raises(RuntimeError, match="beyond the Tsirelson bound"):
        chsh_value(temporal_order_state(*TEMPORAL_ORDER_UNITARIES, KET0, KET0, +1))


def test_temporal_order_state_rejects_a_nan_target():
    with pytest.raises(ValueError, match="not finite"):
        temporal_order_state(*TEMPORAL_ORDER_UNITARIES, np.array([np.nan, 0]), KET0, +1)


def test_game_strategy_copies_its_chois():
    # The game operators are built from a copy, so changing the tables passed
    # in afterwards cannot make them stale.
    good = ocb_strategy()
    alice, bob = dict(good.alice), dict(good.bob)
    copied = GameStrategy(alice, bob)
    alice[0, 0], bob[0, 0, 0] = alice[1, 1], bob[1, 1, 1]
    assert copied.alice == good.alice and copied.bob == good.bob
    assert np.array_equal(copied.alice_terms, good.alice_terms)
    assert np.array_equal(copied.bob_terms, good.bob_terms)
    assert branch_probabilities(ocb_process(), copied) == branch_probabilities(ocb_process(), good)


def test_game_strategy_checks_the_process_on_every_call():
    # The operators are built once; the dimension check is made per process.
    good = ocb_strategy()
    wide = channel_process_reverse(ID2 / 2, choi_of_operation(rand_cptp(3, 2, 2, np.random.default_rng(5))))
    narrow = channel_process(np.eye(3) / 3, choi_of_operation(rand_cptp(2, 2, 2, np.random.default_rng(6))))
    assert abs(success_probability(ocb_process(), good) - P_OCB) < 1e-9
    with pytest.raises(ValueError, match="Alice Choi dimensions do not match the process"):
        success_probability(wide, good)
    with pytest.raises(ValueError, match="Bob Choi dimensions do not match the process"):
        success_probability(narrow, good)
    assert abs(success_probability(ocb_process(), good) - P_OCB) < 1e-9


def test_game_strategy_rejects_instruments_that_are_not_trace_preserving():
    # Doubled, Alice's OCB Chois scored 1.7071 on the OCB process. Bob's
    # instrument is checked for each (b, b'): here only (1, 1) is off.
    good = ocb_strategy()
    doubled = {k: ChoiOperator(2, 2, 2 * c.matrix) for k, c in good.alice.items()}
    with pytest.raises(ValueError, match="Alice's instrument elements, summed over the guess bit, are not"):
        GameStrategy(doubled, good.bob)
    one_off = {k: ChoiOperator(2, 2, 2 * c.matrix) if k == (0, 1, 1) else c for k, c in good.bob.items()}
    with pytest.raises(ValueError, match="Bob's instrument elements, summed over the guess bit, are not"):
        GameStrategy(good.alice, one_off)


def test_game_strategy_rejects_mixed_choi_shapes():
    # Bob's b' = 0 Chois are 2 x 2 and his b' = 1 Chois 2 x 3: G_A and G_B
    # are each built from one shape, but no process fits both.
    good = ocb_strategy()
    mixed_bob = {k: ChoiOperator(2, 3, np.eye(6) / 3) if k[2] else n for k, n in good.bob.items()}
    with pytest.raises(ValueError, match=re.escape("Bob Chois must share one (d_in, d_out), not [(2, 2), (2, 3)]")):
        GameStrategy(good.alice, mixed_bob)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.floats(0.0, 1.0),
    ranks=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    free_state=st.booleans(),
)
def test_causal_mixtures_never_beat_three_quarters(seed, q, ranks, free_state):
    # Every convex mixture of the two one-way channel processes
    # stays within the causal bound, scored through the stored game operators.
    rng = np.random.default_rng(seed)
    w_ba = channel_process(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, ranks[0], rng)))
    w_ab = channel_process_reverse(rand_density(2, rng), choi_of_operation(rand_cptp(2, 2, ranks[1], rng)))
    strategy = free_state_strategy(rand_density(2, rng)) if free_state else ocb_strategy()
    assert success_probability(causal_mixture(w_ab, w_ba, q), strategy) <= 0.75 + 1e-9


def test_contraction_deviation_proves_each_block_unitary_once(monkeypatch):
    checked = []

    def counting(u):
        checked.append(np.shape(u))
        return is_unitary(u)

    monkeypatch.setattr(order, "is_unitary", counting)
    assert max_contraction_deviation(129, np.random.default_rng(2)) < 1e-9
    # Three blocks of 64, 64 and 1 pairs, U_A and U_B each.
    assert checked == [(64, 2, 2)] * 4 + [(1, 2, 2)] * 2


@pytest.mark.parametrize("norm", [0.3, 2.0, 1e300, np.inf], ids=["short", "long", "huge", "infinite"])
def test_chsh_value_rejects_an_unnormalized_state(norm):
    with pytest.raises(ValueError, match=re.escape(f"norm {norm:.6g}")):
        chsh_value(np.array([norm, 0, 0, 0]))


def test_chsh_value_rejects_an_unnormalized_member_of_a_stack():
    stack = np.array([np.kron(KET0, KET0)] * 5)
    assert chsh_value(stack).shape == (5,)
    stack[3] *= 1.5
    with pytest.raises(ValueError, match="norm 1.5"):
        chsh_value(stack)


def test_temporal_order_state_scales_its_targets_without_overflow():
    want = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, KET0, KET0, +1)
    for factor in (2.0 ** 1000, 2.0 ** -1000):
        got = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, factor * KET0, KET0 / factor, +1)
        assert np.array_equal(got, want)
    huge = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, 1e300 * KET0, 1e300 * KET0, +1)
    assert np.abs(huge - want).max() < 1e-15
    with pytest.raises(ValueError, match="not finite"):
        temporal_order_state(*TEMPORAL_ORDER_UNITARIES, np.array([np.inf, 0]), KET0, +1)
    with pytest.raises(ValueError, match="^u_a1 is not finite$"):
        temporal_order_state(np.diag([np.inf, 1.0]), ID2, ID2, ID2, KET0, KET0, +1)
    with pytest.raises(ValueError, match="cancel"):
        temporal_order_state(ID2, ID2, ID2, ID2, 1e200 * KET0, 1e200 * KET0, -1)


def test_temporal_order_state_judges_cancellation_at_the_targets_scale():
    # A small target scales both branches alike, so they do not cancel.
    want = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, KET0, KET0, +1)
    small = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, 1e-10 * KET0, KET0, +1)
    assert np.abs(small - want).max() < 1e-12
    with pytest.raises(ValueError, match="cancel"):
        temporal_order_state(ID2, ID2, ID2, ID2, 1e-10 * KET0, KET0, -1)
    with pytest.raises(ValueError, match="cancel"):
        temporal_order_state(*TEMPORAL_ORDER_UNITARIES, np.zeros(2), KET0, +1)
