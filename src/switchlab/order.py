"""Indefinite causal order: the guessing game, the quantum switch, and the
CHSH test on temporal-order states.

Bit convention throughout: bit 0 encodes |up> = |0>, bit 1 encodes
|down> = |1>, so the (-1)^x factors in the game Choi operators are literal.
Switch states live on target (x) control, in that factor order.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _frozen,
    close,
    is_unitary,
    kron,
    require_finite,
)
from .ops import ChoiOperator, _choi_vec, _trace_preserving, rand_unitary
from .process import _realigned, _require_dims, _rule_trace, _worst_over_blocks, ocb_process

__all__ = [
    "GameStrategy",
    "ocb_strategy",
    "branch_probabilities",
    "success_probability",
    "bob_reduced_matrix",
    "alice_reduced_matrix",
    "SwitchSpec",
    "switch_supermap_state",
    "switch_process_vector",
    "contract_switch_vector",
    "max_contraction_deviation",
    "chsh_value",
    "max_separable_chsh",
    "CHSH_SETTINGS",
    "temporal_order_state",
    "TEMPORAL_ORDER_UNITARIES",
    "ocb_game_scenario",
    "switch_contract_scenario",
    "chsh_temporal_scenario",
]

# The OCB game's value (2 + sqrt 2)/4, which both branches reach, and the
# Tsirelson bound 2 sqrt 2 on |CHSH|.
_OCB_GAME_VALUE = (2.0 + math.sqrt(2.0)) / 4.0
_TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class GameStrategy:
    """Instrument-element Chois played by Alice and Bob in the causal game:
    `alice` maps each bit pair (x, a) to a Choi operator, and `bob` each
    (y, b, b'); summed over the guess bit (x or y) they must be CPTP. Both
    are copied into read-only mappings, checked once, on construction, and
    summed into the two product terms A (x) B of each branch
        G_A = sum_b (sum_a M(b,a)) (x) (sum_y N(y,b,0))  (Alice guesses b),
        G_B = sum_a (sum_x M(x,a)) (x) (sum_b N(a,b,1))  (Bob guesses a),
    kept as the rule's rows vec(A^T) in `alice_terms` and vec(B^T) in
    `bob_terms`, (2 branches, 2 terms, n^2) stacks read-only for good. A process
    meets the strategy only through these rows: :func:`branch_probabilities`
    scores them, and each reduced matrix reads one against R(W). `dims` are
    the (d_a_in, d_a_out, d_b_in, d_b_out) a process must have.
    """

    alice: Mapping
    bob: Mapping
    dims: tuple = field(init=False, repr=False)
    alice_terms: np.ndarray = field(init=False, repr=False)
    bob_terms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = MappingProxyType({k: self.alice[k] for k in np.ndindex(2, 2)})
        n = MappingProxyType({k: self.bob[k] for k in np.ndindex(2, 2, 2)})
        dims = ()
        for party, chois in (("Alice", m), ("Bob", n)):
            shapes = {(c.d_in, c.d_out) for c in chois.values()}
            if len(shapes) != 1:
                # No process matches two of a party's shapes.
                raise ValueError(f"{party} Chois must share one (d_in, d_out), not {sorted(shapes)}")
            dims += shapes.pop()
            # The guess bit leads each key, so axis 0 of the stack sums over it.
            stack = np.array([c.matrix for c in chois.values()])
            if not _trace_preserving(stack.reshape(2, -1, *stack.shape[1:]).sum(axis=0), *dims[-2:]):
                raise ValueError(f"{party}'s instrument elements, summed over the guess bit, are not trace-preserving")
        g_a = [([m[b, a] for a in range(2)], [n[y, b, 0] for y in range(2)]) for b in range(2)]
        g_b = [([m[x, a] for x in range(2)], [n[a, b, 1] for b in range(2)]) for a in range(2)]
        for side, name in enumerate(("alice_terms", "bob_terms")):
            rows = _choi_vec(np.array([[sum(c.matrix for c in t[side]) for t in g] for g in (g_a, g_b)]))
            object.__setattr__(self, name, _frozen(rows))
        object.__setattr__(self, "alice", m)
        object.__setattr__(self, "bob", n)
        object.__setattr__(self, "dims", dims)


_OCB_STRATEGY = GameStrategy(
    alice={
        (x, a): ChoiOperator(2, 2, 0.25 * kron(ID2 + (-1) ** x * PAULI_Z, ID2 + (-1) ** a * PAULI_Z))
        for x, a in np.ndindex(2, 2)
    },
    bob={
        (y, b, bp): ChoiOperator(2, 2, 0.5 * kron(ID2 + (-1) ** y * PAULI_Z, ID2 / 2)) if bp
        else ChoiOperator(2, 2, 0.25 * kron(ID2 + (-1) ** y * PAULI_X, ID2 + (-1) ** (b + y) * PAULI_Z))
        for y, b, bp in np.ndindex(2, 2, 2)
    },
)


def ocb_strategy():
    """The strategies achieving P_succ = (2 + sqrt 2)/4 on the OCB process.

    Alice measures and reprepares in z. For b' = 1 Bob reads z and reprepares
    the maximally mixed state 1/2 (any state scores the same); for b' = 0 he
    measures x and encodes b in z with the sign fixed by his outcome.

    The 12 Chois are built and validated once, at import, and their matrices
    and the rows are read-only for good; every call returns that one instance.
    """
    return _OCB_STRATEGY


def branch_probabilities(w, strategy):
    """(P(x=b | b'=0), P(y=a | b'=1)) with uniform random bits: 1/4 Tr[W G_A]
    and 1/4 Tr[W G_B], each the sum of its two terms' probabilities, all four
    scored in one call of the probability rule (see GameStrategy)."""
    terms = _rule_trace(w, strategy.dims, strategy.alice_terms, strategy.bob_terms)
    p_alice, p_bob = 0.25 * (terms[:, 0] + terms[:, 1])
    return float(p_alice), float(p_bob)


def success_probability(w, strategy):
    """(1/2)[P(x=b | b'=0) + P(y=a | b'=1)] with uniform random bits."""
    return 0.5 * sum(branch_probabilities(w, strategy))


def bob_reduced_matrix(w, strategy, a):
    """Tr_A[W (sum_x M(x,a) (x) 1)]: the process Bob faces for Alice bit a,
    the stored row vec((sum_x M(x,a))^T) against R(W)."""
    _require_dims(w, "Alice", strategy.dims[:2])
    return (strategy.alice_terms[1, a] @ _realigned(w)).reshape(w.dims[2] * w.dims[3], -1)


def alice_reduced_matrix(w, strategy, b):
    """Tr_B[W (1 (x) sum_y N(y,b,0))]: the process Alice faces when Bob
    guesses (b' = 0), R(W) against the stored row vec((sum_y N(y,b,0))^T)."""
    _require_dims(w, "Bob", strategy.dims[2:])
    return (_realigned(w) @ strategy.bob_terms[0, b]).reshape(w.dims[0] * w.dims[1], -1)


# The amplitude of each control basis state: the switch's control starts in
# (|0> + |1>)/sqrt 2.
_CONTROL_AMPLITUDE = complex(1 / np.sqrt(2))


@dataclass(frozen=True)
class SwitchSpec:
    """Target state, or a (..., 2) stack of target states, feeding the
    quantum switch."""

    target_state: np.ndarray = None

    def __post_init__(self):
        psi = (
            np.array([1, 0], dtype=complex)
            if self.target_state is None
            else np.asarray(self.target_state, dtype=complex)
        )
        if psi.shape[-1:] != (2,):
            raise ValueError(f"switch target state needs a last axis of length 2 (a qubit), not shape {psi.shape}")
        require_finite(target_state=psi)
        if not close(np.linalg.norm(psi, axis=-1), 1.0):
            raise ValueError("target state must be normalized")
        object.__setattr__(self, "target_state", psi)


def switch_supermap_state(ua, ub, spec):
    """Output of the switch supermap on unitaries: the target (x) control state
    (U_B U_A |psi>|0> + U_A U_B |psi>|1>)/sqrt 2, or one per member when the
    unitaries and the target are stacks."""
    ua, ub = np.asarray(ua, dtype=complex), np.asarray(ub, dtype=complex)
    require_finite(ua=ua, ub=ub)
    for u in (ua, ub):
        if not is_unitary(u):
            raise ValueError("switch branches must be unitary")
    return _switch_supermap(ua, ub, spec)


def _switch_supermap(ua, ub, spec):
    # switch_supermap_state on complex unitaries already proved unitary.
    psi = spec.target_state[..., None]
    branch_0 = kron(ub @ ua @ psi, ID2[:, :1])
    branch_1 = kron(ua @ ub @ psi, ID2[:, 1:])
    return (_CONTROL_AMPLITUDE * branch_0 + _CONTROL_AMPLITUDE * branch_1)[..., 0]


def switch_process_vector(spec):
    """Process vector of the quantum switch on
    A_in (x) A_out (x) B_in (x) B_out (x) C_target (x) C_control.

    Built literally with unnormalized |1>> link vectors, so its norm is
    d = 2 for a normalized qubit target, not 1. A stack of targets gives one
    vector per member.
    """
    c = _CONTROL_AMPLITUDE
    psi = spec.target_state
    lead = psi.shape[:-1]
    w = np.zeros((*lead, 2, 2, 2, 2, 2, 2), dtype=complex)
    for j, l in np.ndindex(2, 2):
        # control |0>: psi enters A, identity links A_out->B_in and B_out->C_t
        w[..., :, j, j, l, l, 0] += c * psi
        # control |1>: the same with the parties exchanged
        w[..., j, l, :, j, l, 1] += c * psi
    return w.reshape(*lead, -1)


def contract_switch_vector(w_vec, ua, ub):
    """Contract the switch process vector with the Choi vectors of two
    unitaries, leaving the target (x) control state at Charlie; or, for
    stacks with equal leading axes, one state per member."""
    w_vec, ua, ub = (np.asarray(x, dtype=complex) for x in (w_vec, ua, ub))
    require_finite(w_vec=w_vec, ua=ua, ub=ub)
    lead = w_vec.shape[:-1]
    if not lead == ua.shape[:-2] == ub.shape[:-2]:
        raise ValueError("process vectors and unitaries must stack alike")
    for u in (ua, ub):
        if not is_unitary(u):
            raise ValueError("contraction defined here for unitary operations")
    w = w_vec.reshape(*lead, 2, 2, 2, 2, 2, 2)
    # <<U*| reshaped to 2 x 2 is U^T.
    bra_a, bra_b = ua.swapaxes(-1, -2), ub.swapaxes(-1, -2)
    return np.einsum("...ij,...kl,...ijkltc->...tc", bra_a, bra_b, w).reshape(*lead, 4)


def max_contraction_deviation(pairs, rng):
    """Largest |<contracted|supermap>|^2 - 1| over `pairs` random draws of a
    target state and two unitaries.

    Each pair consumes `rng` exactly as three ``rand_unitary(2, rng)`` calls
    would: the target is the first column of the first, then U_A, then U_B.
    Pairs are drawn, checked and contracted in blocks (``process._worst_over_blocks``).
    """

    def block(k):
        target, ua, ub = np.moveaxis(rand_unitary(2, rng, (k, 3)), 1, 0)
        spec = SwitchSpec(target_state=target[..., 0])
        # contract_switch_vector proves ua and ub unitary for both.
        contracted = contract_switch_vector(switch_process_vector(spec), ua, ub)
        supermap = _switch_supermap(ua, ub, spec)
        overlaps = (contracted.conj()[:, None, :] @ supermap[:, :, None])[:, 0, 0]
        return float(np.abs(np.abs(overlaps) ** 2 - 1.0).max())

    return _worst_over_blocks(pairs, "pair", block)


def _unit_scale(v):
    """A power of two, or one per vector of a (..., n) stack, that brings a
    normal largest modulus into [0.5, 1); a zero vector gets 1. Multiplying by
    it is exact, so results keep their bits, and no product or norm of the
    scaled vector can overflow."""
    _, exponent = np.frexp(np.abs(v).max(axis=-1))
    return np.ldexp(1.0, -np.maximum(exponent, np.finfo(float).minexp))


# Measurement settings violating CHSH maximally on the temporal-order states:
# Alice chooses (s_y -+ s_z)/sqrt(2), Bob chooses s_y or s_z.
CHSH_SETTINGS = (
    ((PAULI_Y - PAULI_Z) / np.sqrt(2), (PAULI_Y + PAULI_Z) / np.sqrt(2)),
    (PAULI_Y, PAULI_Z),
)


# The four correlation operators A_x (x) B_y of CHSH_SETTINGS, x and y in C order.
_CHSH_OPERATORS = tuple(kron(a, b) for a in CHSH_SETTINGS[0] for b in CHSH_SETTINGS[1])


def chsh_value(state):
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) for the observables of CHSH_SETTINGS
    on a two-qubit pure state; Alice's act on the first factor.

    A (..., 4) stack of states gives an array of values, one per member.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape[-1:] != (4,):
        raise ValueError("CHSH evaluation needs a two-qubit state vector")
    # hypot sums without squaring, so a finite state's norm cannot overflow.
    norms = np.hypot.reduce(np.abs(state), axis=-1)
    off = ~(np.abs(norms - 1.0) <= DEFAULT_TOL)
    if off.any():
        raise ValueError(f"CHSH evaluation needs a normalized state, not one of norm {norms[off].flat[0]:.6g}")
    bra, ket = state.conj()[..., None, :], state[..., :, None]
    e00, e01, e10, e11 = (np.real(bra @ k @ ket)[..., 0, 0] for k in _CHSH_OPERATORS)
    values = e00 + e01 + e10 - e11
    beyond = ~(np.abs(values) <= _TSIRELSON + DEFAULT_TOL)
    if beyond.any():
        value = float(values[beyond].flat[0])
        raise RuntimeError(f"CHSH value {value} beyond the Tsirelson bound; broken state or settings")
    return values if state.ndim > 1 else float(values)


def max_separable_chsh(samples, rng):
    """Largest |CHSH| over `samples` random product states a (x) b.

    Each sample consumes `rng` exactly as two ``rand_unitary(2, rng)`` calls
    would: a and b are the first columns of the first and the second.
    Samples are drawn and scored in blocks (``process._worst_over_blocks``).
    """

    def block(k):
        a, b = np.moveaxis(rand_unitary(2, rng, (k, 2)), 1, 0)
        return float(np.abs(chsh_value(kron(a[..., :1], b[..., :1])[..., 0])).max())

    return _worst_over_blocks(samples, "sample", block)


# The gravitational-switch example choice: U_A1 = U_B2 = Hadamard,
# U_A2 = U_B1 = s_z, turning |up,up> into (|++> +- |-->)/sqrt(2).
TEMPORAL_ORDER_UNITARIES = (
    (PAULI_X + PAULI_Z) / np.sqrt(2),
    PAULI_Z,
    PAULI_Z,
    (PAULI_X + PAULI_Z) / np.sqrt(2),
)


def temporal_order_state(u_a1, u_b1, u_a2, u_b2, psi1, psi2, sign):
    """Joint state of the two targets after both switch copies and the mass
    measurement with outcome +-:

        [ (U_B1 U_A1 psi1) (x) (U_A2 U_B2 psi2)
          +- (U_A1 U_B1 psi1) (x) (U_B2 U_A2 psi2) ] / sqrt(2),

    normalized, on system-1 (x) system-2. A non-finite argument, or a zero
    vector (identical branches with sign -), raises ValueError.
    """
    require_finite(u_a1=u_a1, u_b1=u_b1, u_a2=u_a2, u_b2=u_b2, psi1=psi1, psi2=psi2)
    mats = [np.asarray(u, dtype=complex) for u in (u_a1, u_b1, u_a2, u_b2)]
    for u in mats:
        if not is_unitary(u):
            raise ValueError("temporal-order branches must be unitary")
    u_a1, u_b1, u_a2, u_b2 = mats
    psi1 = np.asarray(psi1, dtype=complex)
    psi2 = np.asarray(psi2, dtype=complex)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    for psi in (psi1, psi2):
        if psi.shape != (2,):
            raise ValueError(f"temporal-order target states must be qubits of shape (2,), not {psi.shape}")
    # The output is bilinear in the targets, so scaling each by _unit_scale
    # leaves the normalized result's bits unchanged. They are column kets for kron.
    psi1, psi2 = (psi1 * _unit_scale(psi1))[:, None], (psi2 * _unit_scale(psi2))[:, None]
    branch_k = kron(u_b1 @ u_a1 @ psi1, u_a2 @ u_b2 @ psi2)[:, 0]
    branch_kp = kron(u_a1 @ u_b1 @ psi1, u_b2 @ u_a2 @ psi2)[:, 0]
    out = (branch_k + sign * branch_kp) / np.sqrt(2.0)
    norm = np.linalg.norm(out)
    # The branches cancel when the sum is small beside them, whatever the
    # targets' scale; a zero branch is degenerate too.
    if not norm > DEFAULT_TOL * np.linalg.norm(branch_k):
        raise ValueError("degenerate choice: the two order branches cancel")
    return out / norm


# The scenarios of this module's headline numbers. Each takes its parameters
# and a seeded generator, and returns its outputs and its checks, each check a
# (name, expected, actual, tolerance) tuple.


def ocb_game_scenario(params, rng):
    """:func:`ocb_strategy` on ``process.ocb_process()``: the success
    probability and both branches, each checked against (2 + sqrt 2)/4,
    beside the causal bound 3/4."""
    w = ocb_process()
    strategy = ocb_strategy()
    p_alice, p_bob = branch_probabilities(w, strategy)
    success = success_probability(w, strategy)
    outputs = {
        "success_probability": success,
        "p_alice_guesses_b": p_alice,
        "p_bob_guesses_a": p_bob,
        "causal_bound": 0.75,
    }
    checks = (
        ("success_equals_(2+sqrt2)/4", _OCB_GAME_VALUE, success, DEFAULT_TOL),
        ("alice_branch_value", _OCB_GAME_VALUE, p_alice, DEFAULT_TOL),
        ("bob_branch_value", _OCB_GAME_VALUE, p_bob, DEFAULT_TOL),
    )
    return outputs, checks


def switch_contract_scenario(params, rng):
    """The switch process vector contracted with `pairs` random unitary pairs,
    checked against the supermap (:func:`max_contraction_deviation`)."""
    pairs = params["pairs"]
    worst = max_contraction_deviation(pairs, rng)
    outputs = {"pairs": pairs, "max_fidelity_deviation": worst}
    return outputs, (("contraction_equals_supermap", 0.0, worst, DEFAULT_TOL),)


def chsh_temporal_scenario(params, rng):
    """CHSH on the two temporal-order states of |up, up>, checked at -+ 2 sqrt 2,
    and the largest |CHSH| over `samples` random product states, checked
    within the classical bound 2."""
    up = np.array([1, 0], dtype=complex)
    state_plus = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, up, up, +1)
    state_minus = temporal_order_state(*TEMPORAL_ORDER_UNITARIES, up, up, -1)
    chsh_plus = chsh_value(state_plus)
    chsh_minus = chsh_value(state_minus)
    worst_sep = max_separable_chsh(params["samples"], rng)
    outputs = {
        "chsh_plus_state": chsh_plus,
        "chsh_minus_state": chsh_minus,
        "max_separable_chsh": worst_sep,
    }
    checks = (
        ("plus_state_reaches_-2sqrt2", -_TSIRELSON, chsh_plus, DEFAULT_TOL),
        ("minus_state_reaches_+2sqrt2", _TSIRELSON, chsh_minus, DEFAULT_TOL),
        ("separable_within_classical_bound", 0.0, max(0.0, worst_sep - 2.0), DEFAULT_TOL),
    )
    return outputs, checks
