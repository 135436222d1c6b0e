"""Every named input error of the public API that no other test reaches:
the call raises ValueError with that message."""

import re

import numpy as np
import pytest

from switchlab import agents, gravity, order
from switchlab.linalg import ID2, PAULI_X, partial_trace
from switchlab.ops import ChoiOperator
from switchlab.process import (
    ProcessMatrix,
    causal_mixture,
    channel_process,
    ocb_process,
    validate_process,
)


def mixed_shape_strategy():
    # Bob's Choi is 2 x 3 only at (y, b') = (1, 1), so G_B would mix two shapes.
    good = order.ocb_strategy()
    wide = ChoiOperator(2, 3, np.eye(6) / 3)
    bob = {(y, b, bp): wide if (y, bp) == (1, 1) else n for (y, b, bp), n in good.bob.items()}
    return order.GameStrategy(good.alice, bob)


def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partial_trace(np.eye(3), (2, 2), keep=(0,)), "matrix of shape (3, 3) does not match dims (2, 2)"),
        (lambda: partial_trace(np.eye(4), (2, 2), keep=(2,)), "keep indices [2] out of range for 2 factors"),
        (lambda: ProcessMatrix((2, 2, 2, 2), np.eye(4)), "matrix shape (4, 4) does not match dims (2, 2, 2, 2)"),
        (lambda: ProcessMatrix((2, 2, 2), ID2 / 2), "ProcessMatrix dims (2, 2, 2) must be four dimensions"),
        (lambda: channel_process(ID2 / 2, ChoiOperator(2, 2, np.eye(4))), "channel Choi is not trace-preserving"),
        (lambda: causal_mixture(ocb_process(), ProcessMatrix((4, 1, 2, 2), np.eye(16) / 4), 0.5),
         "process dimensions disagree"),
        (lambda: validate_process(ocb_process(), 0, rng()), "need at least one sample"),
        (mixed_shape_strategy, "Bob Chois must share one (d_in, d_out), not [(2, 2), (2, 3)]"),
        (lambda: order.switch_supermap_state(2 * ID2, ID2, order.SwitchSpec()), "switch branches must be unitary"),
        (lambda: order.max_contraction_deviation(0, rng()), "need at least one pair"),
        (lambda: order.chsh_value(np.ones(3)), "CHSH evaluation needs a two-qubit state vector"),
        (lambda: order.max_separable_chsh(0, rng()), "need at least one sample"),
        (lambda: order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, ID2[0], ID2[0], 0),
         "sign must be +1 or -1"),
        (lambda: order.SwitchSpec(target_state=[1, 0, 0]),
         "switch target state needs a last axis of length 2 (a qubit), not shape (3,)"),
        (lambda: order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, np.array([1, 0, 0]), ID2[0], 1),
         "temporal-order target states must be qubits of shape (2,), not (3,)"),
        (lambda: gravity.BodyConfig(np.nan, 1.0), "body mass is not positive and finite"),
        (lambda: gravity.BodyConfig(1.0, np.inf), "body radius is not positive and finite"),
        (lambda: gravity.SwitchGeometry(1.0, np.nan), "geometry d is not positive and finite"),
        (lambda: gravity.ClockModel(np.nan), "clock energy_gap is not nonnegative and finite"),
    ],
    ids=[
        "check-dims-shape",
        "partial-trace-keep-range",
        "process-matrix-shape",
        "process-matrix-three-dims",
        "one-way-non-tp-channel",
        "causal-mixture-dims",
        "validate-zero-samples",
        "party-dims-mixed-shapes",
        "supermap-non-unitary",
        "contraction-zero-pairs",
        "chsh-state-size",
        "separable-chsh-zero-samples",
        "temporal-order-sign",
        "switch-target-not-a-qubit",
        "temporal-order-target-not-a-qubit",
        "body-nan-mass",
        "body-infinite-radius",
        "geometry-nan-separation",
        "clock-nan-gap",
    ],
)
def test_named_input_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# Accepted arguments of every public routine of agents and order that takes a
# float or an array from its caller; each gives a finite result.
E1 = np.eye(5)[0]
FINITE_ARGUMENTS = {
    agents.AgentAmplitudes: dict(
        c_1a=1.0, c_4a=1.0, c_1b=1.0, c_2b=1.0, f_ba=1.0, f_ab=1.0,
        delta_a=(0.0,) * 5, delta_b=(0.0,) * 5, gamma_ba=0.0, gamma_ab=0.0,
    ),
    agents.ModelState: dict(tensor=np.eye(1, np.prod(agents.DIMS)).reshape(agents.DIMS)),
    agents.apply_agent_a_then_b: dict(amps=agents.AgentAmplitudes(), alpha=E1),
    agents.apply_agent_b_then_a: dict(amps=agents.AgentAmplitudes(), alpha=E1),
    agents.run_switch_model: dict(amps=agents.AgentAmplitudes(), target_in=E1, zeta=3, sign=1),
    agents.TriggerParams: dict(tau_star=1.0, interaction_width=1e-6, potential=1e-30, mass=1e-20),
    order.SwitchSpec: dict(target_state=ID2[0]),
    order.switch_supermap_state: dict(ua=ID2, ub=PAULI_X, spec=order.SwitchSpec()),
    order.contract_switch_vector: dict(w_vec=order.switch_process_vector(order.SwitchSpec()), ua=ID2, ub=PAULI_X),
    order.chsh_value: dict(state=np.eye(4)[0]),
    order.temporal_order_state: dict(
        u_a1=ID2, u_b1=PAULI_X, u_a2=PAULI_X, u_b2=ID2, psi1=ID2[0], psi2=ID2[0], sign=1,
    ),
}
FINITE_CASES = [
    (fn, name) for fn, args in FINITE_ARGUMENTS.items() for name, value in args.items()
    if isinstance(value, (float, tuple, np.ndarray))
]


def _finite(result):
    values = vars(result).values() if hasattr(result, "__dict__") else [result]
    return all(np.isfinite(value).all() for value in values if value is not None)


def _with_first_entry(value, bad):
    # `value` with its one float, or the first entry of its array, set to `bad`.
    if isinstance(value, float):
        return bad
    out = np.array(value, dtype=complex if np.iscomplexobj(value) else float)
    out.flat[0] = bad
    return tuple(out) if isinstance(value, tuple) else out


def test_finite_argument_table_holds_accepted_arguments():
    # Each routine gives a finite result at its table's arguments, so each
    # refusal below is due to the one entry replaced.
    assert len(FINITE_CASES) == 31
    for fn, args in FINITE_ARGUMENTS.items():
        assert _finite(fn(**args)), fn.__name__


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn, name", FINITE_CASES, ids=[f"{fn.__name__}-{name}" for fn, name in FINITE_CASES])
def test_non_finite_agents_and_order_argument_is_named(fn, name, bad):
    # NaN fails a modulus or norm check and passes a length one, so without a
    # guard it blamed another cause or gave a NaN result; each is refused by name.
    args = FINITE_ARGUMENTS[fn]
    with pytest.raises(ValueError, match=rf"(?<!\w){name}(?!\w)"):
        fn(**{**args, name: _with_first_entry(args[name], bad)})
